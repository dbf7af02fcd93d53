"""Mixen's graph filtering and relabeling (Section 4.1, Fig. 2).

The 2-step filtering procedure, merged into a single scan over the degree
arrays:

1. nodes are grouped by connectivity class — regular first, then seed,
   sink, isolated — so each class occupies one contiguous id range;
2. within the regular class, *hubs* (in-degree above the graph's average
   degree) are relocated to the front, co-locating the hot destinations.

Relative order inside every group is preserved ("minimal disruption to the
original graph structure").  The output is a :class:`FilterPlan`: the
relabeling permutation plus the class boundary metadata the paper stores
alongside the mixed representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.classify import ConnectivityClasses, classify_nodes
from ..graphs.csr import radix_order
from ..graphs.graph import Graph
from ..types import NodeClass
from .permutation import invert


@dataclass(frozen=True)
class FilterPlan:
    """Relabeling permutation and subgraph boundaries.

    New-id layout::

        [0 .. num_hubs)                          regular hubs
        [num_hubs .. num_regular)                regular non-hubs
        [num_regular .. +num_seed)               seed nodes
        [.. +num_sink)                           sink nodes
        [.. num_nodes)                           isolated nodes
    """

    perm: np.ndarray = field(repr=False)  #: old id -> new id
    inverse: np.ndarray = field(repr=False)  #: new id -> old id
    num_nodes: int
    num_hubs: int  #: hubs *within the regular class* (at the front)
    num_regular: int
    num_seed: int
    num_sink: int
    num_isolated: int
    classes: ConnectivityClasses = field(repr=False)

    # ------------------------------------------------------------------ #
    @property
    def regular_slice(self) -> slice:
        """New-id range of regular nodes (hubs first)."""
        return slice(0, self.num_regular)

    @property
    def seed_slice(self) -> slice:
        """New-id range of seed nodes."""
        return slice(self.num_regular, self.num_regular + self.num_seed)

    @property
    def sink_slice(self) -> slice:
        """New-id range of sink nodes."""
        start = self.num_regular + self.num_seed
        return slice(start, start + self.num_sink)

    @property
    def isolated_slice(self) -> slice:
        """New-id range of isolated nodes."""
        return slice(self.num_nodes - self.num_isolated, self.num_nodes)

    @property
    def alpha(self) -> float:
        """Regular-node ratio ``r / n`` (Section 5)."""
        return self.num_regular / self.num_nodes if self.num_nodes else 0.0

    def class_of_new_id(self, new_id: int) -> NodeClass:
        """Connectivity class of a relabeled node id (boundary metadata)."""
        if new_id < self.num_regular:
            return NodeClass.REGULAR
        if new_id < self.num_regular + self.num_seed:
            return NodeClass.SEED
        if new_id < self.num_regular + self.num_seed + self.num_sink:
            return NodeClass.SINK
        return NodeClass.ISOLATED


def filter_graph(graph: Graph, *, hub_reorder: bool = True) -> FilterPlan:
    """Compute Mixen's relabeling plan in one vectorized scan.

    ``hub_reorder=False`` disables step 2 (the hub relocation) for the
    ablation study; class grouping always happens.
    """
    cc = classify_nodes(graph)
    classes = cc.classes.astype(np.int64)
    # Sort key: regular hubs < regular non-hubs < seed < sink < isolated.
    # Offsetting classes by 1 and giving regular hubs key 0 keeps one
    # stable sort (one radix pass) as the entire filter.
    key = classes + 1
    if hub_reorder:
        regular_hub = (classes == int(NodeClass.REGULAR)) & cc.hub_mask
        key = np.where(regular_hub, 0, key)
        num_hubs = int(np.count_nonzero(regular_hub))
    else:
        num_hubs = 0
    inverse = radix_order(key, 6).astype(np.int64)
    perm = invert(inverse)
    return FilterPlan(
        perm=perm,
        inverse=inverse,
        num_nodes=graph.num_nodes,
        num_hubs=num_hubs,
        num_regular=cc.count(NodeClass.REGULAR),
        num_seed=cc.count(NodeClass.SEED),
        num_sink=cc.count(NodeClass.SINK),
        num_isolated=cc.count(NodeClass.ISOLATED),
        classes=cc,
    )
