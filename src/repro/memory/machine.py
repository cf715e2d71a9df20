"""The simulated machine: clock + devices + bandwidth traces + energy.

Every simulated cost is charged through one entry point,
:meth:`Machine.run_batch`, as a series of ``(rows, cpu_ns)`` batches
charged back to back.  A row is one device's traffic, ``(device,
read_bytes, write_bytes, random_reads, random_writes)``; a batch's rows
proceed in parallel, so the batch takes the maximum of the device times
and its CPU component.  The shapes in use:

* a one-row batch ``(((device, r, w, rr, rw),), cpu_ns)`` for sequential
  single-device work — the mutator's operators, persists, spills,
  shuffle waves and source reads, one batch per access;
* a multi-row batch for concurrent multi-device work — a GC phase and a
  cached-partition read whose pieces live on several devices;
* a pure-CPU batch ``((), cpu_ns)`` for time that moves no bytes — the
  GC's fixed pause, a region reset, a JNI monitoring call, a network
  hop.

How parallel a series runs follows what it charges: a collection's
series carries its pause kind and runs at :data:`GC_THREADS` × ``MLP``;
every other series is mutator work and runs at
:data:`MUTATOR_THREADS` × ``MLP`` (a pure-CPU batch never reads it).

Charging is deferred.  ``run_batch`` validates a series and queues it;
:meth:`Machine.settle` charges the queue, in order, before anything
reads charged state: the clock, the device counters, energy, the
bandwidth traces, the GC pause records (one collection per series: the
settle calls its kind's record callback with the series' start and
advance) and every trace-bus publish
(:class:`~repro.memory.clock.SettlesFirst`).
The queue also settles itself once :data:`QUEUE_BATCHES` batches wait.
A settle charges every queued series exactly as one call per batch
would: each row priced by
:meth:`~repro.memory.device.MemoryDevice.charge_row`, the clock
accumulated with the same ``+=`` sequence, each batch's NVM throttle
called with that batch's own start.

Traffic is deposited for Figure 8's bandwidth windows by appending
``(key code, nbytes, start_ns, duration_ns)`` straight onto the
:class:`~repro.memory.bandwidth.BandwidthTracker`'s pending columns, in
charge order; the tracker spreads them over their windows in bulk.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional

from repro.config import (
    CACHE_LINE_BYTES,
    DISK_SPEC,
    DRAM_SPEC,
    GC_THREADS,
    MLP,
    MUTATOR_THREADS,
    NVM_SPEC,
    DeviceKind,
    SystemConfig,
)
from repro.errors import OwnerFreedError
from repro.memory.bandwidth import KEY_CODES, BandwidthTracker
from repro.memory.clock import SimClock
from repro.memory.device import MemoryDevice
from repro.memory.energy import EnergyMeter

#: Pending batches at which ``run_batch`` settles the queue itself.  The
#: queued tuples die by reference counting at each settle, so 1024 or
#: 4096 cost the post-op collection no more than 256; docs/PERF.md
#: ("Queue length, with no cycles") has the measurement.
QUEUE_BATCHES = 256


class Machine:
    """One simulated node: devices sized per the configuration.

    Attributes:
        config: the system configuration.
        clock: simulated time.
        devices: DRAM, NVM and DISK device models.
        bandwidth: windowed traces for Figure 8.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.clock = SimClock()
        nvm_spec = NVM_SPEC
        if config.nvm_latency_factor != 1.0 or config.nvm_bandwidth_factor != 1.0:
            import dataclasses

            nvm_spec = dataclasses.replace(
                NVM_SPEC,
                read_latency_ns=NVM_SPEC.read_latency_ns
                * config.nvm_latency_factor,
                write_latency_ns=NVM_SPEC.write_latency_ns
                * config.nvm_latency_factor,
                read_bandwidth_gbps=NVM_SPEC.read_bandwidth_gbps
                * config.nvm_bandwidth_factor,
                write_bandwidth_gbps=NVM_SPEC.write_bandwidth_gbps
                * config.nvm_bandwidth_factor,
            )
        self.devices: Dict[DeviceKind, MemoryDevice] = {
            DeviceKind.DRAM: MemoryDevice(DRAM_SPEC, config.dram_bytes),
            DeviceKind.NVM: MemoryDevice(nvm_spec, config.nvm_bytes),
            DeviceKind.DISK: MemoryDevice(DISK_SPEC, 0),
        }
        #: one-second windows: Figure 8's resolution
        self.bandwidth = BandwidthTracker()
        #: device -> (bound charge_row, read key code, write key code),
        #: resolved once (devices are fixed for the machine's lifetime);
        #: the settle prices and deposits through it.
        self._row_charger = {
            kind: (
                dev.charge_row,
                KEY_CODES[(kind, False)],
                KEY_CODES[(kind, True)],
            )
            for kind, dev in self.devices.items()
        }
        self._energy = EnergyMeter(
            self.devices, static_factor=config.static_energy_factor
        )
        #: unsettled series in charge order, one ``(batches, record)``
        #: per run_batch call, and their batch count
        self._pending: list = []
        self._pending_batches = 0
        #: pause kind -> record callback, bound by :meth:`defer_reads`;
        #: series carry the kind, as a callback queued in the shared
        #: queue would point back at the state that holds the queue
        self._records: Dict[str, Callable[[float, float], None]] = {}
        self._nvm_throttle = None
        self._weak_settle = _WeakSettle(self)
        self.defer_reads(self.clock, self.bandwidth, *self.devices.values())

    # -- cost charging ---------------------------------------------------

    def run_batch(self, batches, record: Optional[str] = None) -> None:
        """Queue a series of batches, charged back to back.

        Args:
            batches: a sequence of ``(rows, cpu_ns)``, in charge order.  Each
                row is ``(device, read_bytes, write_bytes, random_reads,
                random_writes)``; a batch's devices proceed in parallel,
                so it lasts the max over its devices and ``cpu_ns``, the
                pure-CPU time already divided by however many cores the
                caller runs on.  A batch with no rows, or with only
                traffic-free rows, is a pure-CPU span (the GC's fixed
                pause, a region reset, a network hop).  Neither the
                sequence nor its rows may change after the call.
            record: the pause kind (``"minor"``, ``"major"``) of the one
                collection the series is; the settle calls its callback,
                bound by :meth:`defer_reads`, as ``callback(start_ns,
                advance_ns)`` with the series' start and clock advance.
                Its latency-bound rows run on :data:`GC_THREADS`; a
                series without a kind runs on :data:`MUTATOR_THREADS`.

        A series is exactly its batches charged one call at a time: the
        clock accumulates with the same ``+=`` sequence, each batch's
        NVM throttle sees that batch's own start, and the bandwidth
        deposits are appended in the same order.

        Raises:
            ValueError: on a negative ``cpu_ns`` in any batch, or a
                ``record`` kind no state bound, before the call queues
                anything.
        """
        for _, cpu_ns in batches:
            if cpu_ns < 0:
                raise ValueError(f"cannot advance the clock by {cpu_ns} ns")
        if record is not None and record not in self._records:
            raise ValueError(f"no state records {record!r} pauses")
        self._pending.append((batches, record))
        self._pending_batches += len(batches)
        if self._pending_batches >= QUEUE_BATCHES:
            self.settle()

    def defer_reads(self, *states) -> None:
        """Make each :class:`~repro.memory.clock.SettlesFirst` state
        settle this machine's queue before it is read, and bind the
        record callbacks it offers (``state.records()``).  The states
        hold the machine weakly and the queue holds pause kinds, so no
        reference cycle forms, even while charges wait."""
        for state in states:
            state._pending = self._pending
            state._settle = self._weak_settle
            self._records.update(state.records())

    @property
    def pending(self) -> int:
        """How many queued batches wait to be charged."""
        return self._pending_batches

    @property
    def nvm_throttle(self):
        """Optional NVM throttle schedule (duck-typed: must provide
        ``apply(start_ns, device_ns) -> float``); installed by
        :class:`~repro.faults.injector.FaultInjector` to model the NUMA
        emulator's transient thermal bandwidth collapse.  Charges queued
        before an install settle first, under the schedule they were
        charged with."""
        return self._nvm_throttle

    @nvm_throttle.setter
    def nvm_throttle(self, throttle) -> None:
        self.settle()
        self._nvm_throttle = throttle

    def settle(self) -> None:
        """Charge every queued series, in order, each row priced by
        ``charge_row``."""
        pending = self._pending
        if not pending:
            return
        # Taken off the queue first: a record callback (a trace publish)
        # reads the clock mid-settle and must find nothing pending.
        entries = pending[:]
        pending.clear()
        self._pending_batches = 0
        chargers = self._row_charger
        records = self._records
        clock = self.clock
        nvm = DeviceKind.NVM
        throttle = self._nvm_throttle
        codes, nbytes, starts, durations = self.bandwidth.deposit_columns()
        mutator = MUTATOR_THREADS * MLP
        collector = GC_THREADS * MLP
        now = clock._now_ns
        for batches, kind in entries:
            if kind is None:
                record = None
                parallelism = mutator
            else:
                record = records[kind]
                parallelism = collector
            start = now
            for rows, cpu_ns in batches:
                duration = float(cpu_ns)
                deposits = 0
                for device, read_bytes, write_bytes, rand_reads, rand_writes in rows:
                    if not (read_bytes or write_bytes or rand_reads or rand_writes):
                        continue
                    charge_row, read_code, write_code = chargers[device]
                    device_ns = charge_row(
                        read_bytes, write_bytes, rand_reads, rand_writes, parallelism
                    )
                    if device is nvm and throttle is not None:
                        device_ns = throttle.apply(now, device_ns)
                    if device_ns > duration:
                        duration = device_ns
                    read_total = read_bytes + rand_reads * CACHE_LINE_BYTES
                    if read_total > 0:
                        codes.append(read_code)
                        nbytes.append(read_total)
                        starts.append(now)
                        deposits += 1
                    write_total = write_bytes + rand_writes * CACHE_LINE_BYTES
                    if write_total > 0:
                        codes.append(write_code)
                        nbytes.append(write_total)
                        starts.append(now)
                        deposits += 1
                # Every device's bytes spread over the whole batch's
                # duration, known once its last row is charged.
                while deposits:
                    durations.append(duration)
                    deposits -= 1
                now += duration
            if record is not None:
                clock._now_ns = now
                record(start, now - start)
        clock._now_ns = now
        self.bandwidth.settle_if_full()

    # -- metrics ---------------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Total simulated elapsed time in seconds."""
        return self.clock.now_s

    def energy_j(self) -> float:
        """Total memory energy so far, in joules."""
        return self._energy.total_j(self.elapsed_s)

    def energy_breakdown(self):
        """Per-device static/dynamic energy breakdown."""
        return self._energy.breakdown(self.elapsed_s)



class _WeakSettle:
    """A machine's :meth:`~Machine.settle`, held through a weak reference
    by the states the machine charges (called only while charges wait)."""

    __slots__ = ("_machine",)

    def __init__(self, machine: Machine) -> None:
        self._machine = weakref.ref(machine)

    def __call__(self) -> None:
        machine = self._machine()
        if machine is None:
            raise OwnerFreedError(
                "charges are still queued for a machine that was freed: "
                "read its state while the machine is alive"
            )
        machine.settle()
