"""Breadth-first search helpers.

Engines implement :meth:`~repro.frameworks.base.Engine.run_bfs` with their
characteristic strategies (Ligra's direction optimization, GPOP/Mixen's
blocked frontiers, the pull engines' dense sweeps).  This module adds their
shared driver step and top-down expansion, the engine-free reference
used by tests, and source selection matching the paper's convention of
picking a well-connected source so the traversal covers the graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.driver import BundleStep, IterationDriver, StateSpec
from ..errors import EngineError
from ..graphs.csr import _slices_to_indices
from ..graphs.graph import Graph
from ..types import UNREACHED

#: Beamer's direction switch: a level whose frontier has fewer out-edges
#: than this share of all edges expands top-down, wider ones densely.
DIRECTION_THRESHOLD = 1 / 20


def top_down(indptr, indices, frontier, levels, level: int) -> np.ndarray:
    """Sparse push: mark the unvisited out-neighbours of the ``frontier``
    ids in a source-major adjacency (``indices[indptr[u]:indptr[u + 1]]``)
    at ``level`` and return them as the next frontier mask."""
    starts = indptr[frontier]
    take = _slices_to_indices(starts, indptr[frontier + 1] - starts)
    neighbors = indices[take]
    fresh = neighbors[levels[neighbors] == UNREACHED]
    levels[fresh] = level
    mask = np.zeros(levels.size, dtype=bool)
    mask[fresh] = True
    return mask


class FrontierBfsStep(BundleStep):
    """Level-synchronous BFS as a driver step.

    The bundle is ``{"levels": int64, "frontier": bool}`` — both exempt
    from the numerical guards (traversal state is structural, not
    floating-point).  ``expand(frontier, levels, level)`` is the
    engine's characteristic frontier expansion (blocked bins, dense
    pull, direction-optimized edgeMap); it marks ``levels`` in place
    (a copy when supervised: the supervisor may roll back to the input
    bundle) and returns the next frontier mask.  ``base_level`` offsets
    the level counter for runs whose initial frontier already sits
    above level 0 (Mixen's seed-source case seeds the regular frontier
    at level 1).
    """

    name = "bfs"
    watch_stall = False

    def __init__(self, expand, *, base_level: int = 0) -> None:
        self.expand = expand
        self.base_level = base_level

    def state_spec(self) -> tuple:
        return (
            StateSpec("levels", guarded=False),
            StateSpec("frontier", guarded=False),
        )

    def finished(self, state) -> bool:
        return not bool(state["frontier"].any())

    def step(self, state, iteration, ctx):
        levels = state["levels"]
        if ctx.supervised:
            levels = levels.copy()
        level = self.base_level + iteration + 1
        frontier = self.expand(state["frontier"], levels, level)
        return {"levels": levels, "frontier": frontier}


def run_frontier_bfs(
    expand,
    levels: np.ndarray,
    frontier: np.ndarray,
    *,
    base_level: int = 0,
    resilience=None,
    fingerprint: str = "",
) -> np.ndarray:
    """Drive ``expand`` to an empty frontier; returns the final levels.

    The driver owns the loop, so a supervised run ( ``resilience`` )
    checkpoints the traversal state on cadence and resumes a killed
    run bit-identically.  An unsupervised run marks ``levels`` and
    returns it.
    """
    step = FrontierBfsStep(expand, base_level=base_level)
    driver = IterationDriver(
        step,
        # A frontier advances at least one level per iteration, so the
        # level count (hence iteration count) is bounded by n.
        max_iterations=levels.size + 1,
        check_convergence=False,
        resilience=resilience,
        fingerprint=fingerprint,
    )
    result = driver.run({"levels": levels, "frontier": frontier})
    return result.state["levels"]


def bfs_fingerprint(engine, source: int) -> str:
    """Checkpoint identity of one BFS run: graph, engine and source."""
    from ..resilience.checkpoint import state_fingerprint

    return state_fingerprint(
        engine.graph.num_nodes,
        engine.graph.num_edges,
        engine.name,
        "bfs",
        int(source),
    )


def reference_bfs(graph: Graph, source: int) -> np.ndarray:
    """Queue-based reference BFS levels (ground truth for the engines)."""
    n = graph.num_nodes
    if not 0 <= source < n:
        raise EngineError(f"BFS source {source} outside [0, {n})")
    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    queue = deque([source])
    csr = graph.csr
    while queue:
        u = queue.popleft()
        next_level = levels[u] + 1
        for v in csr.row(u).tolist():
            if levels[v] == UNREACHED:
                levels[v] = next_level
                queue.append(v)
    return levels


def default_source(graph: Graph) -> int:
    """The highest-out-degree node: a deterministic, well-connected source."""
    if graph.num_nodes == 0:
        raise EngineError("cannot pick a BFS source in an empty graph")
    return int(np.argmax(graph.out_degrees()))


def num_reached(levels: np.ndarray) -> int:
    """How many nodes a BFS reached."""
    return int(np.count_nonzero(levels != UNREACHED))
