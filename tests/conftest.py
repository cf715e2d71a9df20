"""Shared fixtures: miniature configurations and pre-wired stacks."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.config import MiB, PolicyName, SystemConfig
from repro.gc.collector import Collector
from repro.gc.policies import make_policy
from repro.heap.layout import HEAP_BASE, young_span_bytes
from repro.heap.managed_heap import ManagedHeap
from repro.memory.bandwidth import KEY_CODES
from repro.memory.machine import Machine
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


class Stack:
    """A wired machine + heap + collector bundle, with whatever the
    policy attaches (Panthera's monitor and runtime, Deca's regions),
    built the way :meth:`SparkContext.create` builds it."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.machine = Machine(config)
        self.policy = make_policy(config)
        old_spaces = self.policy.build_old_spaces(
            HEAP_BASE + young_span_bytes(config)
        )
        self.heap = ManagedHeap(
            config, self.machine, old_spaces, card_padding=self.policy.card_padding
        )
        self.runtime = self.policy.attach(self.heap, self.machine)
        self.monitor = self.runtime.monitor if self.runtime is not None else None
        self.collector = Collector(
            self.heap, self.machine, self.policy, monitor=self.monitor
        )


def make_stack(policy: PolicyName = PolicyName.PANTHERA, **kwargs) -> Stack:
    """Build a full stack over a small configuration."""
    return Stack(small_config(policy, **kwargs))


@pytest.fixture
def panthera_stack() -> Stack:
    """A Panthera-policy stack."""
    return make_stack(PolicyName.PANTHERA)

@pytest.fixture
def dram_stack() -> Stack:
    """A DRAM-only stack."""
    return make_stack(PolicyName.DRAM_ONLY)


@pytest.fixture
def unmanaged_stack() -> Stack:
    """An unmanaged (chunk-interleaved) stack."""
    return make_stack(PolicyName.UNMANAGED)


def small_context(
    policy: PolicyName = PolicyName.PANTHERA, **kwargs
) -> SparkContext:
    """A full SparkContext over the small configuration."""
    return SparkContext.create(small_config(policy, **kwargs))


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
