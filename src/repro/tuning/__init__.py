"""Profile-driven auto-tuning of the node ordering (DESIGN 4j).

The tuner sweeps every registered reordering through the modeled
Figure 6/7 cost and emits a versioned, graph-fingerprinted JSON blob;
``--tuned <path>`` applies its ordering to ``run``/``bfs``/``sssp``,
with an explicit ``--reorder`` always winning.
"""

from .profile import StructuralProfile, graph_fingerprint
from .tuner import (
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
