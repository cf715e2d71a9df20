"""Shared fixtures: miniature configurations and pre-wired stacks."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.config import MiB, PolicyName, SystemConfig
from repro.memory.bandwidth import KEY_CODES
from repro.spark.context import SparkContext


def small_config(policy: PolicyName = PolicyName.PANTHERA, **kwargs) -> SystemConfig:
    """A 48 MiB heap with a 1/3 DRAM hybrid split — big enough for real
    collections, small enough for fast tests."""
    heap = kwargs.pop("heap_bytes", 48 * MiB)
    if policy is PolicyName.DRAM_ONLY:
        dram, nvm = heap, 0
    else:
        dram = kwargs.pop("dram_bytes", heap // 3)
        nvm = kwargs.pop("nvm_bytes", heap - dram)
    kwargs.setdefault("interleave_chunk_bytes", 1 * MiB)
    kwargs.setdefault("large_array_threshold", 64 * 1024)
    return SystemConfig(
        heap_bytes=heap, dram_bytes=dram, nvm_bytes=nvm, policy=policy, **kwargs
    )


def make_stack(policy: PolicyName = PolicyName.PANTHERA, **kwargs) -> SparkContext:
    """A wired node over a small configuration: its ``machine``,
    ``heap``, ``collector``, ``policy`` and whatever the policy attaches
    (Panthera's ``monitor`` and ``runtime``, Deca's regions)."""
    return SparkContext.create(small_config(policy, **kwargs))


@pytest.fixture
def panthera_stack() -> SparkContext:
    """A Panthera-policy stack."""
    return make_stack(PolicyName.PANTHERA)

@pytest.fixture
def dram_stack() -> SparkContext:
    """A DRAM-only stack."""
    return make_stack(PolicyName.DRAM_ONLY)


@pytest.fixture
def unmanaged_stack() -> SparkContext:
    """An unmanaged (chunk-interleaved) stack."""
    return make_stack(PolicyName.UNMANAGED)


#: Tests that drive the engine call the node a context.
small_context = make_stack


@pytest.fixture
def ctx() -> SparkContext:
    """A Panthera SparkContext."""
    return small_context()


@contextmanager
def numpy_absent(*modules):
    """Run the body as on an install without numpy: each module's ``_np``
    is ``None`` (its numpy-free path runs), restored on exit."""
    saved = [module._np for module in modules]
    for module in modules:
        module._np = None
    try:
        yield
    finally:
        for module, np_module in zip(modules, saved):
            module._np = np_module


def deposit_rows(tracker, rows) -> None:
    """Deposit ``(device, is_write, nbytes, start_ns, duration_ns)`` rows
    into a :class:`~repro.memory.bandwidth.BandwidthTracker` the way the
    machine's charge loops do: append to its pending columns in order,
    then settle if the queue is full."""
    codes, nbytes_col, starts, durations = tracker.deposit_columns()
    for device, is_write, nbytes, start_ns, duration_ns in rows:
        codes.append(KEY_CODES[(device, is_write)])
        nbytes_col.append(nbytes)
        starts.append(start_ns)
        durations.append(duration_ns)
    tracker.settle_if_full()
