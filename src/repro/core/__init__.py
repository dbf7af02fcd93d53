"""Mixen: the paper's connectivity-aware link-analysis framework."""

from .bins import DynamicBinStats, build_static_bins, dynamic_bin_stats
from .engine import MixenEngine
from .epoch import checked_apply
from .extension import FilteredEngine
from .filtering import FilterPlan, filter_graph
from .kernels import (
    KERNEL_NAMES,
    ReducePlan,
    build_plan,
    reduce,
    resolve_kernel,
)
from .mixed_format import MixedGraph, build_mixed
from .partition import (
    BlockTask,
    RegularPartition,
    make_block_tasks,
    partition_regular,
)
from .perfmodel import measured_main_phase_counters, model_for_engine
from .permutation import (
    compose,
    invert,
    is_permutation,
    permute_values,
    unpermute_values,
)
from .scga import ScgaKernel
from .scheduler import MixenRunResult, run_schedule
from .semiring import MIN_PLUS, PLUS_TIMES, Semiring

__all__ = [
    "BlockTask",
    "DynamicBinStats",
    "FilteredEngine",
    "FilterPlan",
    "KERNEL_NAMES",
    "MIN_PLUS",
    "MixedGraph",
    "MixenEngine",
    "MixenRunResult",
    "PLUS_TIMES",
    "ReducePlan",
    "RegularPartition",
    "ScgaKernel",
    "Semiring",
    "build_mixed",
    "build_plan",
    "build_static_bins",
    "checked_apply",
    "compose",
    "dynamic_bin_stats",
    "filter_graph",
    "invert",
    "is_permutation",
    "make_block_tasks",
    "measured_main_phase_counters",
    "model_for_engine",
    "partition_regular",
    "permute_values",
    "reduce",
    "resolve_kernel",
    "run_schedule",
    "unpermute_values",
]
