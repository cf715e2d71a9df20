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

Traffic is priced through
:meth:`~repro.memory.device.MemoryDevice.charge_row`, which also updates
the device counters that feed the energy model.  It is deposited for
Figure 8's bandwidth windows by appending ``(key code, nbytes, start_ns,
duration_ns)`` straight onto the
:class:`~repro.memory.bandwidth.BandwidthTracker`'s pending columns;
the tracker spreads them over their windows in bulk, when read or once
:data:`~repro.memory.bandwidth.SETTLE_ROWS` rows are pending.
"""

from __future__ import annotations

from typing import Dict

from repro.config import (
    DISK_SPEC,
    DRAM_SPEC,
    MLP,
    NVM_SPEC,
    DeviceKind,
    SystemConfig,
)
from repro.memory.bandwidth import KEY_CODES, BandwidthTracker
from repro.memory.clock import SimClock
from repro.memory.device import MemoryDevice
from repro.memory.energy import EnergyMeter


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
        #: run_batch prices and deposits through it.
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
        #: optional NVM throttle schedule (duck-typed: must provide
        #: ``apply(start_ns, device_ns) -> float``); installed by
        #: :class:`~repro.faults.injector.FaultInjector` to model the
        #: NUMA emulator's transient thermal bandwidth collapse.
        self.nvm_throttle = None

    # -- cost charging ---------------------------------------------------

    def run_batch(self, batches, threads: int = 1) -> float:
        """Charge a series of batches back to back.

        Args:
            batches: a sequence of ``(rows, cpu_ns)``, in charge order.  Each
                row is ``(device, read_bytes, write_bytes, random_reads,
                random_writes)``; a batch's devices proceed in parallel,
                so it lasts the max over its devices and ``cpu_ns``, the
                pure-CPU time already divided by however many cores the
                caller runs on.  A batch with no rows, or with only
                traffic-free rows, is a pure-CPU span (the GC's fixed
                pause, a region reset, a network hop).
            threads: worker count for latency-bound components.

        A series is exactly its batches charged one call at a time: the
        clock accumulates locally with the same ``+=`` sequence, each
        batch's NVM throttle sees that batch's own start, and the
        bandwidth deposits are appended in the same order.  One GC
        cycle — fixed pause, then phase 1, then phase 2 — settles in one
        call, and so does a run of one-row batches (a shuffle wave).

        Returns:
            The clock advance across all batches, in nanoseconds.

        Raises:
            ValueError: on a negative ``cpu_ns`` in any batch, before the
                call charges anything.
        """
        for _, cpu_ns in batches:
            if cpu_ns < 0:
                raise ValueError(f"cannot advance the clock by {cpu_ns} ns")
        parallelism = max(1, threads) * MLP
        chargers = self._row_charger
        clock = self.clock
        nvm = DeviceKind.NVM
        throttle = self.nvm_throttle
        bandwidth = self.bandwidth
        codes, nbytes, starts, durations = bandwidth.deposit_columns()
        start = now = clock.now_ns
        for rows, cpu_ns in batches:
            duration = float(cpu_ns)
            deposits = 0
            for device, read_bytes, write_bytes, random_reads, random_writes in rows:
                if not (read_bytes or write_bytes or random_reads or random_writes):
                    continue
                charge_row, read_code, write_code = chargers[device]
                device_ns = charge_row(
                    read_bytes, write_bytes, random_reads, random_writes, parallelism
                )
                if device is nvm and throttle is not None:
                    device_ns = throttle.apply(now, device_ns)
                if device_ns > duration:
                    duration = device_ns
                read_total = read_bytes + random_reads * 64
                if read_total > 0:
                    codes.append(read_code)
                    nbytes.append(read_total)
                    starts.append(now)
                    deposits += 1
                write_total = write_bytes + random_writes * 64
                if write_total > 0:
                    codes.append(write_code)
                    nbytes.append(write_total)
                    starts.append(now)
                    deposits += 1
            # Every device's bytes spread over the whole batch's duration,
            # known once its last row is charged.
            while deposits:
                durations.append(duration)
                deposits -= 1
            now += duration
        clock._now_ns = now
        bandwidth.settle_if_full()
        return now - start

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
