"""Connectivity classification: regular / seed / sink / isolated + hubs.

Implements the structural analysis of Section 2.1 and the classification
that drives Mixen's filtering step (Section 4.1):

* a node is **regular** if it has both in- and out-links,
* **seed** if it only has out-links,
* **sink** if it only has in-links,
* **isolated** if it has neither;
* a **hub** is a node whose in-degree exceeds the graph's average degree
  ``m / n`` (Table 1's definition, reused by the filtering step to relocate
  hot regular nodes to the front of the vertex set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..types import NodeClass
from .graph import Graph


@dataclass(frozen=True)
class ConnectivityClasses:
    """Per-node connectivity classes and hub flags of one graph.

    Attributes
    ----------
    classes:
        ``classes[v]`` is the :class:`~repro.types.NodeClass` of node ``v``
        (stored as int8).
    hub_mask:
        ``hub_mask[v]`` is True when ``in_degree(v) > m / n``.  Hubs are
        defined for all nodes; Mixen's filtering only *relocates* the hubs
        that are also regular.
    counts:
        Node count per class, indexed by :class:`NodeClass` value.
    """

    classes: np.ndarray = field(repr=False)
    hub_mask: np.ndarray = field(repr=False)
    counts: np.ndarray

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return int(self.classes.size)

    def mask(self, node_class: NodeClass) -> np.ndarray:
        """Boolean mask of nodes in ``node_class``."""
        return self.classes == np.int8(node_class)

    def nodes(self, node_class: NodeClass) -> np.ndarray:
        """Ascending node ids of one class."""
        return np.flatnonzero(self.mask(node_class))

    def count(self, node_class: NodeClass) -> int:
        """Node count of one class."""
        return int(self.counts[int(node_class)])

    def fraction(self, node_class: NodeClass) -> float:
        """Fraction of nodes in one class (``0.0`` on an empty graph)."""
        if self.num_nodes == 0:
            return 0.0
        return self.count(node_class) / self.num_nodes

    @property
    def num_regular(self) -> int:
        """Count of regular nodes (the ``r`` of Section 5)."""
        return self.count(NodeClass.REGULAR)

    @property
    def num_hubs(self) -> int:
        """Count of hub nodes (any class)."""
        return int(np.count_nonzero(self.hub_mask))

    def regular_hubs(self) -> np.ndarray:
        """Ascending ids of nodes that are both regular and hubs."""
        return np.flatnonzero(self.mask(NodeClass.REGULAR) & self.hub_mask)


def classify_nodes(graph: Graph) -> ConnectivityClasses:
    """Classify every node of ``graph`` in a single vectorized scan.

    The paper stresses that the two filtering criteria (zero-degree
    directionality and hub detection) are evaluated in one pass over the
    graph; here both derive from the two degree arrays, which each engine
    already has, so no extra traversal of the edge structure happens.
    """
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    has_out = out_deg > 0
    has_in = in_deg > 0

    classes = np.empty(graph.num_nodes, dtype=np.int8)
    classes[has_in & has_out] = np.int8(NodeClass.REGULAR)
    classes[~has_in & has_out] = np.int8(NodeClass.SEED)
    classes[has_in & ~has_out] = np.int8(NodeClass.SINK)
    classes[~has_in & ~has_out] = np.int8(NodeClass.ISOLATED)

    hub_mask = in_deg > graph.average_degree()
    counts = np.bincount(classes, minlength=len(NodeClass)).astype(np.int64)
    return ConnectivityClasses(classes, hub_mask, counts)


def hub_edge_fraction(graph: Graph, hub_mask: np.ndarray) -> float:
    """Fraction of edges that point *into* a hub (Table 1's E_hub).

    Hubs are defined by in-degree, so "hubs' edges" are counted as the edges
    a hub receives — the messages that compete for cache residency in the
    paper's analysis.  This in-edge definition reproduces Table 1's numbers
    (e.g. ~99% for weibo, ~59% for urand) better than counting all incident
    edges, which double-counts hub out-links.
    """
    if graph.num_edges == 0:
        return 0.0
    hub_edges = hub_mask[graph.csr.indices]
    return float(np.count_nonzero(hub_edges)) / graph.num_edges
