"""Profile-driven auto-tuning of reordering and block size (DESIGN 4j).

The tuner sweeps every registered reordering crossed with a block-size
candidate list through the modeled Figure 6/7 cost and emits a
versioned, graph-fingerprinted JSON blob; ``--tuned <path>`` applies it
across the CLI, with explicit flags always winning.
"""

from .profile import StructuralProfile, graph_fingerprint
from .tuner import (
    CANDIDATE_BLOCK_NODES,
    DEFAULT_BLOCK_NODES,
    DEFAULT_REORDER,
    TUNE_VERSION,
    TunedConfig,
    apply_reordering,
    candidate_orderings,
    load_tuned,
    modeled_iteration_cycles,
    tune_graph,
)

__all__ = [
    "CANDIDATE_BLOCK_NODES",
    "DEFAULT_BLOCK_NODES",
    "DEFAULT_REORDER",
    "TUNE_VERSION",
    "StructuralProfile",
    "TunedConfig",
    "apply_reordering",
    "candidate_orderings",
    "graph_fingerprint",
    "load_tuned",
    "modeled_iteration_cycles",
    "tune_graph",
]
