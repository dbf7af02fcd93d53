"""Simulated multicore memory hierarchy and analytic cost models."""

from .cache import DirectMappedCache, SetAssociativeLRU
from .counters import CacheCounters, MachineCounters, TrafficCounters
from .hierarchy import (
    PAPER_MACHINE,
    SCALED_MACHINE,
    CacheLevel,
    MachineSpec,
    MemoryHierarchy,
)
from .model import (
    DEFAULT_LATENCIES,
    LatencyModel,
    MixenModel,
    modeled_cycles,
    blocking_random_accesses,
    blocking_traffic_bytes,
    pull_random_accesses,
    pull_traffic_bytes,
)
from .reuse import (
    COLD,
    hits_from_distances,
    miss_ratio_curve,
    reuse_distances,
)
from .trace import AccessTrace, AddressSpace, ArrayRegion

__all__ = [
    "COLD",
    "AccessTrace",
    "AddressSpace",
    "ArrayRegion",
    "CacheCounters",
    "CacheLevel",
    "DEFAULT_LATENCIES",
    "DirectMappedCache",
    "MachineCounters",
    "LatencyModel",
    "MachineSpec",
    "MemoryHierarchy",
    "MixenModel",
    "PAPER_MACHINE",
    "SCALED_MACHINE",
    "SetAssociativeLRU",
    "TrafficCounters",
    "blocking_random_accesses",
    "blocking_traffic_bytes",
    "hits_from_distances",
    "miss_ratio_curve",
    "modeled_cycles",
    "pull_random_accesses",
    "pull_traffic_bytes",
    "reuse_distances",
]
