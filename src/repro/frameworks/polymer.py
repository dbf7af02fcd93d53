"""Polymer-style engine: NUMA-partitioned pulling flow (Zhang et al.).

Polymer improves on Ligra for link analysis by redistributing graph data
across NUMA nodes and pulling over socket-local partitions; the trade-off is
that its dense, partition-synchronized traversal hurts sparse workloads such
as BFS (the paper's Table 3 narrative).  We model the partitioning: the node
set splits into ``sockets`` contiguous ranges, each pulled independently
over its own sub-CSC; a final pass stitches the per-socket results.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import EngineError
from ..graphs.csr import CSR
from ..types import VALUE_DTYPE
from .base import (
    Engine,
    parse_edgelist_text,
    render_edgelist_text,
    segment_sum,
)


class PolymerEngine(Engine):
    """NUMA-aware pull: per-socket sub-CSCs over contiguous node ranges."""

    name = "polymer"
    #: Polymer converts edge lists into its NUMA-partitioned format.
    accepts_csr_binary = False
    #: traversal-oriented engine; weighted SpMV is not provided.
    supports_edge_values = False

    def __init__(self, graph, *, sockets: int = 2, edge_values=None) -> None:
        super().__init__(graph, edge_values=edge_values)
        if sockets <= 0:
            raise EngineError(f"sockets must be positive, got {sockets}")
        self.sockets = sockets
        # The raw input Polymer would read from disk (untimed setup).
        self._input_text = render_edgelist_text(graph)

    def _prepare(self) -> dict:
        t0 = time.perf_counter()
        edges = parse_edgelist_text(
            self._input_text, self.graph.num_nodes
        )
        t_read = time.perf_counter()
        n = edges.num_nodes
        bounds = np.linspace(0, n, self.sockets + 1).astype(np.int64)
        self._bounds = bounds
        self._partitions: list[CSR] = []
        # Each socket owns the destinations in [bounds[s], bounds[s+1]) and
        # stores their in-edges locally (the NUMA redistribution pass).
        owner = np.searchsorted(bounds, edges.dst, side="right") - 1
        for s in range(self.sockets):
            sel = owner == s
            local_dst = edges.dst[sel] - bounds[s]
            rows = int(bounds[s + 1] - bounds[s])
            self._partitions.append(
                CSR.from_edges(rows, local_dst, edges.src[sel], num_cols=n)
            )
        t_part = time.perf_counter()
        # NUMA replication: every socket keeps a private copy of the
        # full out-adjacency for its push-style operators (Polymer
        # allocates application and graph data on every node).
        self._replicas = [
            (
                self.graph.csr.indptr.copy(),
                self.graph.csr.indices.copy(),
            )
            for _ in range(self.sockets)
        ]
        return {
            "parse_edgelist": t_read - t0,
            "numa_partition": t_part - t_read,
            "numa_replication": time.perf_counter() - t_part,
        }

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        x = self._check_x(x)
        n = self.graph.num_nodes
        shape = (n,) if x.ndim == 1 else (n, x.shape[1])
        y = np.empty(shape, dtype=VALUE_DTYPE)
        for s, part in enumerate(self._partitions):
            lo, hi = int(self._bounds[s]), int(self._bounds[s + 1])
            gathered = x[part.indices]
            y[lo:hi] = segment_sum(gathered, part.indptr)
        return y

    def trace_iteration(self, trace) -> None:
        """Per-socket pull with its access pattern recorded.  Each socket
        scans its local CSC and y range sequentially; the x gathers reach
        across the whole node set (the remote-socket reads Polymer's NUMA
        replication mitigates on real hardware)."""
        self._require_prepared()
        n = self.graph.num_nodes
        space = trace.space
        if "x" not in space:
            space.register("x", n, 4)
            space.register("y", n, 4)
            for s, part in enumerate(self._partitions):
                space.register(f"cscPtr{s}", part.num_rows + 1, 4)
                space.register(
                    f"cscIdx{s}", max(part.num_edges, 1), 4
                )
        for s, part in enumerate(self._partitions):
            lo = int(self._bounds[s])
            trace.sequential(f"cscPtr{s}", 0, part.num_rows + 1)
            if part.num_edges:
                trace.sequential(f"cscIdx{s}", 0, part.num_edges)
                trace.gather("x", part.indices)
            if part.num_rows:
                trace.sequential("y", lo, part.num_rows, write=True)
