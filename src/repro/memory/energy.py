"""Memory energy accounting (paper §5.1).

Total memory energy is the sum, over devices, of

* static energy: installed capacity x static power x elapsed time (DRAM
  background + refresh; negligible for NVM), and
* dynamic energy: cache lines moved x per-line energy (31 200 pJ per NVM
  cache-line write; cheaper-than-DRAM NVM reads because they are
  non-destructive).

The paper reports *memory* energy only, so CPU energy is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.config import DeviceKind
from repro.floats import left_sum
from repro.memory.device import MemoryDevice


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy consumed by one device, in joules."""

    static_j: float
    dynamic_j: float

    @property
    def total_j(self) -> float:
        """Static plus dynamic energy."""
        return self.static_j + self.dynamic_j


class EnergyMeter:
    """Computes the energy breakdown from device counters and elapsed time."""

    def __init__(
        self,
        devices: Mapping[DeviceKind, MemoryDevice],
        static_factor: float = 1.0,
    ) -> None:
        """Create the meter.

        Args:
            devices: the machine's devices.
            static_factor: multiplier on static power; down-scaled runs
                use ``1/scale`` to restore the full-scale static/dynamic
                balance (see ``SystemConfig.static_energy_factor``).
        """
        self._devices = dict(devices)
        self._static_factor = static_factor

    def breakdown(self, elapsed_s: float) -> Dict[DeviceKind, EnergyBreakdown]:
        """Per-device energy given the run's elapsed simulated time."""
        if elapsed_s < 0:
            raise ValueError("elapsed_s must be non-negative")
        result: Dict[DeviceKind, EnergyBreakdown] = {}
        for kind, device in self._devices.items():
            result[kind] = EnergyBreakdown(
                static_j=device.static_power_w() * elapsed_s * self._static_factor,
                dynamic_j=device.dynamic_energy_pj() / 1e12,
            )
        return result

    def total_j(self, elapsed_s: float) -> float:
        """Total memory energy in joules."""
        return left_sum(b.total_j for b in self.breakdown(elapsed_s).values())
