"""Ligra-style vertex-centric engine (Shun & Blelloch, PPoPP'13).

For dense link-analysis workloads Ligra relies on pushing flows with atomic
adds — the paper's explanation for its poor Table 3 numbers there.  For BFS
it shines: a sparse frontier ``edgeMap`` with direction optimization
(top-down push while the frontier is small, bottom-up pull once it grows),
which we implement faithfully.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import EngineError
from ..algorithms.bfs import DIRECTION_THRESHOLD, bfs_fingerprint
from ..algorithms.bfs import run_frontier_bfs, top_down
from ..graphs.csr import CSR
from ..types import UNREACHED, VALUE_DTYPE
from .base import (
    Engine,
    _segment_sum_1d,
    parse_edgelist_text,
    render_edgelist_text,
)


class LigraEngine(Engine):
    """Frontier-based vertex-centric engine with direction optimization."""

    name = "ligra"
    #: Ligra converts edge lists into its own format (Table 4).
    accepts_csr_binary = False
    #: traversal-oriented engine; weighted SpMV is not provided.
    supports_edge_values = False

    def __init__(
        self, graph, *, direction_threshold: float = DIRECTION_THRESHOLD,
        edge_values=None,
    ) -> None:
        super().__init__(graph, edge_values=edge_values)
        self.direction_threshold = direction_threshold
        # The raw input Ligra would read from disk (untimed setup).
        self._input_text = render_edgelist_text(graph)

    def _prepare(self) -> dict:
        # Ligra builds both directions from the raw edge-list text (its
        # format conversion — the dominant preprocessing cost in Table 4).
        t0 = time.perf_counter()
        edges = parse_edgelist_text(
            self._input_text, self.graph.num_nodes
        )
        t_read = time.perf_counter()
        self._csr = CSR.from_edges(edges.num_nodes, edges.src, edges.dst)
        t_fwd = time.perf_counter()
        self._csc = CSR.from_edges(edges.num_nodes, edges.dst, edges.src)
        t_bwd = time.perf_counter()
        self._edge_src = self._csr.row_ids()
        t_expand = time.perf_counter()
        return {
            "parse_edgelist": t_read - t0,
            "build_csr": t_fwd - t_read,
            "build_csc": t_bwd - t_fwd,
            "expand_rows": t_expand - t_bwd,
        }

    # ------------------------------------------------------------------ #
    def propagate(self, x: np.ndarray) -> np.ndarray:
        """Dense edgeMap in the pushing flow (atomic-adds analogue)."""
        self._require_prepared()
        x = self._check_x(x)
        n = self.graph.num_nodes
        shape = (n,) if x.ndim == 1 else (n, x.shape[1])
        y = np.zeros(shape, dtype=VALUE_DTYPE)
        np.add.at(y, self._csr.indices, x[self._edge_src])
        return y

    def trace_iteration(self, trace) -> None:
        """Dense push edgeMap with its access pattern recorded: sequential
        structure and x scans, one random (atomic-add) scatter into y per
        edge — the paper's explanation for Ligra's link-analysis cost."""
        self._require_prepared()
        n, m = self.graph.num_nodes, self.graph.num_edges
        space = trace.space
        if "csrPtr" not in space:
            space.register("csrPtr", n + 1, 4)
            space.register("csrIdx", max(m, 1), 4)
            space.register("x", n, 4)
            space.register("y", n, 4)
        trace.sequential("csrPtr", 0, n + 1)
        trace.sequential("x", 0, n)
        if m:
            trace.sequential("csrIdx", 0, m)
            trace.scatter("y", self._csr.indices)

    # ------------------------------------------------------------------ #
    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        """Direction-optimizing BFS over a sparse frontier."""
        self._require_prepared()
        n = self.graph.num_nodes
        if not 0 <= source < n:
            raise EngineError(f"BFS source {source} outside [0, {n})")
        m = max(self.graph.num_edges, 1)

        def expand(frontier_mask, levels, level):
            # Ligra's edgeMap works on the index form of the bundle's mask.
            frontier = np.flatnonzero(frontier_mask).astype(np.int64)
            indptr = self._csr.indptr
            frontier_edges = int(
                (indptr[frontier + 1] - indptr[frontier]).sum()
            )
            if frontier_edges < self.direction_threshold * m:
                return top_down(
                    indptr, self._csr.indices, frontier, levels, level
                )
            return self._bottom_up(frontier, levels, level)

        levels = np.full(n, UNREACHED, dtype=np.int64)
        levels[source] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[source] = True
        return run_frontier_bfs(
            expand,
            levels,
            frontier,
            resilience=resilience,
            fingerprint=bfs_fingerprint(self, source),
        )

    def _bottom_up(
        self, frontier: np.ndarray, levels: np.ndarray, level: int
    ) -> np.ndarray:
        """Dense pull: mask of unvisited nodes with a frontier in-neighbor."""
        n = self.graph.num_nodes
        in_frontier = np.zeros(n, dtype=bool)
        in_frontier[frontier] = True
        hits = _segment_sum_1d(
            in_frontier[self._csc.indices].astype(np.int64),
            self._csc.indptr,
        )
        fresh_mask = (hits > 0) & (levels == UNREACHED)
        levels[fresh_mask] = level
        return fresh_mask
