"""Pulling-flow engine over CSC (Algorithm 1, lines 5–7).

Each destination node pulls its in-neighbors' values: sequential scans of
``cscPtr``/``cscIdx`` and the output ``y``, but *random* gathers of ``x`` —
up to ``m`` of them, the paper's Section 3 bottleneck.  This is the "Pull"
variant of Figures 4–5 and the computational model of GraphMat.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSR
from .base import Engine, segment_sum


class PullEngine(Engine):
    """CSC pulling flow: ``y[i] = sum(x[u] for u in in-neighbors(i))``."""

    name = "pull"
    accepts_csr_binary = True

    def _prepare(self) -> dict:
        import time

        start = time.perf_counter()
        # Building the CSC (transpose) is the pull engine's only
        # preprocessing; Graph caches it afterwards.  With per-edge
        # values, the transpose must also carry the value permutation.
        if self.edge_values is None:
            self._csc: CSR = self.graph.csc
            self._csc_values = None
        else:
            self._csc, order = self.graph.csr.transposed_with_order()
            self._csc_values = self.edge_values[order]
        return {"build_csc": time.perf_counter() - start}

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        x = self._check_x(x)
        gathered = x[self._csc.indices]
        if self._csc_values is not None:
            gathered = (
                gathered * self._csc_values
                if gathered.ndim == 1
                else gathered * self._csc_values[:, None]
            )
        return segment_sum(gathered, self._csc.indptr)

    def trace_iteration(self, trace) -> None:
        """Pull flow with its exact access pattern recorded.

        Per iteration (matching the Section 3 accounting): scan cscPtr
        (n + 1) and cscIdx (m), gather x at the m in-neighbor ids
        (random), stream-write y (n).
        """
        self._require_prepared()
        csc = self._csc
        n, m = csc.num_rows, csc.num_edges
        space = trace.space
        if "cscPtr" not in space:
            space.register("cscPtr", n + 1, 4)
            space.register("cscIdx", max(m, 1), 4)
            space.register("x", n, 4)
            space.register("y", n, 4)
        trace.sequential("cscPtr", 0, n + 1)
        if m:
            trace.sequential("cscIdx", 0, m)
            trace.gather("x", csc.indices)
        trace.sequential("y", 0, n, write=True)
