"""The shared float left fold: the same last bit on every Python."""

from hypothesis import given, strategies as st

from repro.floats import left_sum
from repro.workloads.kmeans import _sq_dist
from repro.workloads.logistic_regression import _dot

#: A compensated sum (builtin ``sum()`` on Python 3.12+) keeps the 1.0
#: that a plain left fold rounds away at 1e16.
COMPENSATION_SENSITIVE = [1e16, 1.0, -1e16]


def test_left_sum_rounds_each_addition():
    assert left_sum(COMPENSATION_SENSITIVE) == 0.0


def test_empty_sum_is_zero():
    assert left_sum([]) == 0
    assert left_sum(iter(())) == 0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_left_sum_is_the_in_order_fold(values):
    acc = 0.0
    for v in values:
        acc += v
    assert repr(left_sum(values)) == repr(acc)


def test_workload_dot_products_fold_left():
    ones = (1.0, 1.0, 1.0)
    assert _dot(COMPENSATION_SENSITIVE, ones) == 0.0
    # Squares 1.0, 1e-16, 1e-16: each tiny term alone is below half an
    # ulp of 1.0, so only a compensated sum sees their total.
    assert _sq_dist((1.0, 1e-8, 1e-8), (0.0, 0.0, 0.0)) == 1.0
