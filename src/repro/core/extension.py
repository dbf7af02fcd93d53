"""Future-work extension: Mixen's filter grafted onto other engines.

The paper's conclusion proposes extending Mixen "to contemporary graph
systems, such as GraphMat and GraphIt, for performance improvement".
:class:`FilteredEngine` realizes that: it applies Mixen's
connectivity-aware relabeling (classes grouped, hubs first) to the input
graph and runs *any* registered base engine on the relabeled graph,
translating inputs and outputs transparently.  The base engine keeps its
own propagation paradigm but inherits the locality of the reordered
vertex set — the mechanism the grafting is supposed to transfer.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import EngineError
from ..frameworks.base import Engine
from ..frameworks.registry import make_engine, register_engine
from ..graphs.graph import Graph
from .filtering import filter_graph
from .permutation import permute_values, unpermute_values


class FilteredEngine(Engine):
    """Any base engine, run on the Mixen-filtered (relabeled) graph."""

    name = "filtered"
    accepts_csr_binary = True

    def __init__(
        self,
        graph: Graph,
        *,
        base: str = "graphmat",
        hub_reorder: bool = True,
        edge_values=None,
        **base_options,
    ) -> None:
        super().__init__(graph, edge_values=edge_values)
        if base in ("filtered", "mixen"):
            raise EngineError(
                f"base engine {base!r} makes no sense under FilteredEngine"
            )
        self.base_name = base
        self.hub_reorder = hub_reorder
        self.base_options = base_options
        self.base: Engine | None = None

    def _prepare(self) -> dict:
        t0 = time.perf_counter()
        self.plan = filter_graph(self.graph, hub_reorder=self.hub_reorder)
        if self.edge_values is None:
            self._relabeled = self.graph.relabeled(self.plan.perm)
            base_values = None
        else:
            csr, order = self.graph.csr.permuted_with_order(self.plan.perm)
            from ..graphs.graph import Graph as _Graph

            self._relabeled = _Graph(
                csr, self.graph.directed, self.graph.name
            )
            base_values = self.edge_values[order]
        t_filter = time.perf_counter()
        self.base = make_engine(
            self.base_name,
            self._relabeled,
            **(
                self.base_options
                if base_values is None
                else {**self.base_options, "edge_values": base_values}
            ),
        )
        base_stats = self.base.prepare()
        breakdown = {"filter": t_filter - t0}
        for key, value in base_stats.breakdown.items():
            breakdown[f"base_{key}"] = value
        return breakdown

    # ------------------------------------------------------------------ #
    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        assert self.base is not None
        xp = permute_values(np.asarray(x), self.plan.perm)
        yp = self.base.propagate(xp)
        return unpermute_values(yp, self.plan.perm)

    def propagate_out(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        assert self.base is not None
        xp = permute_values(np.asarray(x), self.plan.perm)
        yp = self.base.propagate_out(xp)
        return unpermute_values(yp, self.plan.perm)

    def trace_iteration(self, trace) -> None:
        self._require_prepared()
        assert self.base is not None
        self.base.trace_iteration(trace)

    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        self._require_prepared()
        assert self.base is not None
        n = self.graph.num_nodes
        if not 0 <= source < n:
            raise EngineError(f"BFS source {source} outside [0, {n})")
        levels_p = self.base.run_bfs(
            int(self.plan.perm[source]), resilience=resilience
        )
        return unpermute_values(levels_p, self.plan.perm)


register_engine(FilteredEngine.name, FilteredEngine)
