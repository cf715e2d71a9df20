"""Young-generation and native-memory layout shared by every policy.

The young generation (eden plus two survivor semi-spaces) is always
DRAM-resident (§4.1: "We place the entire young generation in DRAM"), and
the off-heap native region is placed entirely in NVM.  Old-generation
layout differs per placement policy and is built in
:mod:`repro.gc.policies`.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import SURVIVOR_FRACTION, DeviceKind, SystemConfig
from repro.heap.spaces import Space

#: Base address of the simulated heap; non-zero so address zero stays
#: an obvious "never allocated" sentinel.
HEAP_BASE = 0x1000_0000


def build_young_spaces(
    config: SystemConfig, base: int = HEAP_BASE
) -> Tuple[Space, Space, Space, int]:
    """Create eden and the two survivor semi-spaces.

    Returns:
        ``(eden, survivor_from, survivor_to, next_base)``.
    """
    nursery = config.nursery_bytes
    survivor = int(nursery * SURVIVOR_FRACTION)
    eden_size = nursery - 2 * survivor
    eden = Space("eden", base, eden_size, "young", device=DeviceKind.DRAM)
    s_from = Space(
        "survivor-from", eden.end, survivor, "young", device=DeviceKind.DRAM
    )
    s_to = Space("survivor-to", s_from.end, survivor, "young", device=DeviceKind.DRAM)
    return eden, s_from, s_to, s_to.end


def young_span_bytes(config: SystemConfig) -> int:
    """Exact bytes the young generation occupies as laid out (eden plus
    two survivors, after integer rounding).  Old spaces start at
    ``HEAP_BASE + young_span_bytes(config)``."""
    nursery = config.nursery_bytes
    survivor = int(nursery * SURVIVOR_FRACTION)
    eden_size = nursery - 2 * survivor
    return eden_size + 2 * survivor


def build_native_space(config: SystemConfig, base: int) -> Space:
    """The off-heap native region, placed entirely in NVM (§4.1).

    Under a DRAM-only system there is no NVM, so native memory falls back
    to DRAM.
    """
    device = DeviceKind.NVM if config.nvm_bytes > 0 else DeviceKind.DRAM
    size = max(config.total_memory_bytes - config.heap_bytes, config.heap_bytes)
    return Space("native", base, size, "native", device=device)
