"""Pushing-flow engine over CSR (Algorithm 1, lines 1–3).

Each source node pushes its value along out-edges; concurrent threads would
need one atomic add per edge, which is why the paper treats the pushing flow
as strictly worse than pulling for link analysis.  The NumPy equivalent of
the scattered atomic adds is ``np.add.at`` (unbuffered element-wise
accumulation), which carries a comparable penalty over the vectorized
gather, so wall-clock comparisons retain the paper's ordering.
"""

from __future__ import annotations

import numpy as np

from ..types import VALUE_DTYPE
from .base import Engine


class PushEngine(Engine):
    """CSR pushing flow: ``y[dst] += x[src]`` per edge, atomics-style."""

    name = "push"
    accepts_csr_binary = True

    def _prepare(self) -> dict:
        import time

        start = time.perf_counter()
        csr = self.graph.csr
        # Per-edge source ids, expanded once (the push loop re-reads x per
        # out-edge; precomputing rows keeps the kernel allocation-free).
        self._edge_src = csr.row_ids()
        self._edge_dst = csr.indices
        return {"expand_rows": time.perf_counter() - start}

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        x = self._check_x(x)
        n = self.graph.num_nodes
        shape = (n,) if x.ndim == 1 else (n, x.shape[1])
        y = np.zeros(shape, dtype=VALUE_DTYPE)
        # np.add.at is the unbuffered scatter-add: the same memory pattern
        # (and cost profile) as the per-edge atomic adds of Algorithm 1.
        vals = x[self._edge_src]
        if self.edge_values is not None:
            vals = (
                vals * self.edge_values
                if vals.ndim == 1
                else vals * self.edge_values[:, None]
            )
        np.add.at(y, self._edge_dst, vals)
        return y

    def trace_iteration(self, trace) -> None:
        """Push flow with its access pattern recorded: sequential csrPtr,
        csrIdx and x scans; random scatters into y (m of them)."""
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
            trace.scatter("y", self._edge_dst)
