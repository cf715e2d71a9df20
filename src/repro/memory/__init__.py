"""Hybrid-memory substrate: simulated devices, clock, energy and bandwidth.

This package models the physical half of the paper's emulator (§5.1): a
DRAM device and an NVM device with the latency/bandwidth parameters of
Table 2, a nanosecond clock, per-device access counters feeding the energy
model, and a windowed bandwidth tracker used to regenerate Figure 8.
"""

from repro.memory.bandwidth import BandwidthSample, BandwidthTracker
from repro.memory.clock import SimClock
from repro.memory.device import MemoryDevice
from repro.memory.energy import EnergyBreakdown, EnergyMeter
from repro.memory.interleave import ChunkMap
from repro.memory.machine import Machine

__all__ = [
    "BandwidthSample",
    "BandwidthTracker",
    "ChunkMap",
    "EnergyBreakdown",
    "EnergyMeter",
    "Machine",
    "MemoryDevice",
    "SimClock",
]
