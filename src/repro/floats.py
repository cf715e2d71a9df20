"""Float sums that round the same on every supported Python.

From CPython 3.12 the builtin ``sum()`` compensates float rounding
(Neumaier summation), so the same list can sum to a different last bit
than on 3.11 and earlier, and every digest of a simulated number would
then depend on the interpreter.  The simulator's float totals are plain
left folds instead: ``((0 + a) + b) + c`` with ordinary float ``+``.
That is what ``sum()`` computed before 3.12, so no output moved, and it
is the order the numpy kernels replay with ``acc += column``.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right with plain float ``+``, from ``0``.

    Unlike ``sum()`` on Python 3.12+, no rounding error is carried
    between additions, so ``left_sum([1e16, 1.0, -1e16])`` is ``0.0``
    on every version.  An empty iterable sums to ``0``, as with ``sum()``.
    """
    return reduce(add, values, 0)
