"""GraphMat-style engine: graph workloads as sparse-matrix operations.

GraphMat maps vertex programs onto SpMV over its own matrix format,
propagating in the pulling flow while staying oblivious of the cache
hierarchy (the paper's characterization).  Computationally it is the pull
engine; its distinguishing cost is the *format conversion* from an edge
list into the internal matrix (DCSC-like: sorted, deduplicated, both the
structure and a value array), which dominates its Table 4 column.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSR
from ..types import VALUE_DTYPE
from .base import (
    Engine,
    parse_edgelist_text,
    render_edgelist_text,
    segment_sum,
)


class GraphMatEngine(Engine):
    """SpMV-centric pull engine with matrix-format ingestion."""

    name = "graphmat"
    #: GraphMat converts edge lists into its matrix format (Table 4).
    accepts_csr_binary = False

    def __init__(self, graph, *, edge_values=None) -> None:
        super().__init__(graph, edge_values=edge_values)
        # The raw input GraphMat would read from disk (untimed setup).
        self._input_text = render_edgelist_text(graph)

    def _prepare(self) -> dict:
        t0 = time.perf_counter()
        edges = parse_edgelist_text(
            self._input_text, self.graph.num_nodes
        )
        t_read = time.perf_counter()
        # Matrix build: sort by destination (CSC), then attach an explicit
        # value array (GraphMat matrices are weighted even for unweighted
        # graphs) — the extra passes that make its conversion the slowest.
        sorted_edges = edges.sorted("dst")
        t_sort = time.perf_counter()
        # The parsed edge text preserves graph.csr's edge order, so the
        # build order maps user-supplied edge values into CSC slots.
        self._csc, order = CSR.from_edges_with_order(
            edges.num_nodes, edges.dst, edges.src
        )
        if self.edge_values is None:
            self._values = np.ones(self._csc.num_edges, dtype=VALUE_DTYPE)
        else:
            self._values = self.edge_values[order]
        t_build = time.perf_counter()
        return {
            "parse_edgelist": t_read - t0,
            "sort": t_sort - t_read,
            "build_matrix": t_build - t_sort,
        }

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        x = self._check_x(x)
        gathered = x[self._csc.indices]
        if gathered.ndim == 1:
            gathered = gathered * self._values
        else:
            gathered = gathered * self._values[:, None]
        return segment_sum(gathered, self._csc.indptr)

    def trace_iteration(self, trace) -> None:
        """Pull-flow SpMV with its access pattern recorded; GraphMat also
        streams its explicit value array alongside the indices."""
        self._require_prepared()
        n, m = self.graph.num_nodes, self.graph.num_edges
        space = trace.space
        if "cscPtr" not in space:
            space.register("cscPtr", n + 1, 4)
            space.register("cscIdx", max(m, 1), 4)
            space.register("vals", max(m, 1), 4)
            space.register("x", n, 4)
            space.register("y", n, 4)
        trace.sequential("cscPtr", 0, n + 1)
        if m:
            trace.sequential("cscIdx", 0, m)
            trace.sequential("vals", 0, m)
            trace.gather("x", self._csc.indices)
        trace.sequential("y", 0, n, write=True)
