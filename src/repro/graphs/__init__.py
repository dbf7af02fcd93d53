"""Graph substrate: containers, generators, datasets, statistics."""

from .classify import (
    ConnectivityClasses,
    classify_nodes,
    hub_edge_fraction,
)
from .csr import CSR
from .datasets import (
    DATASET_NAMES,
    DATASETS,
    SKEWED_NAMES,
    DatasetSpec,
    dataset_spec,
    load_dataset,
)
from .edgelist import EdgeList
from .generators import (
    GraphProfile,
    kronecker,
    powerlaw,
    profile_graph,
    rmat,
    road_grid,
    uniform_random,
    zipf_weights,
)
from .graph import Graph
from .io import (
    load_csr,
    load_edgelist,
    load_ligra_adj,
    save_csr,
    save_edgelist,
    save_ligra_adj,
)
from .reorder import (
    REORDERINGS,
    bfs_order,
    dbg_order,
    degree_sort,
    hub_cluster_order,
    hub_cluster_total_order,
    hub_sort_order,
    random_order,
)
from .updates import (
    UpdateBatch,
    apply_batch,
    random_batches,
    rebuild_from_batch,
    verify_patch,
)
from .stats import (
    GraphStats,
    compute_stats,
    degree_histogram,
    gini_coefficient,
    is_skewed,
    regular_edge_count,
)

__all__ = [
    "CSR",
    "ConnectivityClasses",
    "DATASETS",
    "DATASET_NAMES",
    "DatasetSpec",
    "EdgeList",
    "Graph",
    "GraphProfile",
    "GraphStats",
    "UpdateBatch",
    "SKEWED_NAMES",
    "apply_batch",
    "classify_nodes",
    "compute_stats",
    "dataset_spec",
    "degree_histogram",
    "gini_coefficient",
    "hub_edge_fraction",
    "is_skewed",
    "kronecker",
    "load_csr",
    "load_dataset",
    "load_edgelist",
    "load_ligra_adj",
    "REORDERINGS",
    "bfs_order",
    "dbg_order",
    "degree_sort",
    "hub_cluster_order",
    "hub_cluster_total_order",
    "hub_sort_order",
    "powerlaw",
    "random_batches",
    "random_order",
    "rebuild_from_batch",
    "profile_graph",
    "regular_edge_count",
    "rmat",
    "road_grid",
    "save_csr",
    "save_edgelist",
    "save_ligra_adj",
    "uniform_random",
    "verify_patch",
    "zipf_weights",
]
