"""Engine API shared by Mixen and all baseline frameworks.

An :class:`Engine` owns one prepared graph and exposes:

* :meth:`propagate` — one in-neighbor aggregation ``y = A^T x`` (the SpMV at
  the heart of every link-analysis algorithm; supports rank-k ``x`` for
  Collaborative Filtering);
* :meth:`run` — a full iterative algorithm (generic loop here; Mixen
  overrides it with its phase-scheduled version);
* :meth:`run_bfs` — breadth-first search (engines override with their
  characteristic strategies);
* :meth:`trace_iteration` — one propagation's access pattern, recorded
  into an :class:`~repro.machine.trace.AccessTrace` for the machine-model
  experiments without computing anything (implemented by the engines the
  paper's Figures 4–7 study).

``prepare()`` is where each framework pays its preprocessing cost — the
quantity Table 4 compares — and returns a timed breakdown.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import EngineError
from ..graphs.graph import Graph
from ..types import UNREACHED, VALUE_DTYPE


@dataclass
class PrepareStats:
    """Timed preprocessing breakdown (Table 4 rows)."""

    seconds: float
    breakdown: dict = field(default_factory=dict)


@dataclass
class AlgorithmResult:
    """Outcome of one :meth:`Engine.run` call."""

    scores: np.ndarray
    iterations: int
    converged: bool
    seconds: float
    #: what the resilient runtime did (None for unsupervised runs); see
    #: :class:`repro.resilience.report.ResilienceReport`.
    resilience: object | None = None
    #: id of the proof certificate covering the schedule this result ran
    #: on (None for engines without a certified parallel schedule); see
    #: :mod:`repro.analysis.certify`.
    certificate_id: str | None = None

    @property
    def seconds_per_iteration(self) -> float:
        """Average time per executed iteration."""
        return self.seconds / self.iterations if self.iterations else 0.0


class Engine(abc.ABC):
    """Base class of all graph-processing engines.

    Parameters
    ----------
    graph:
        The input graph.  Engines must not mutate it.
    """

    #: registry name (overridden by subclasses).
    name: str = "engine"
    #: True when the engine ingests a prebuilt CSR binary directly
    #: (GPOP/Mixen); False when it converts from an edge list
    #: (Ligra/Polymer/GraphMat) — the Table 4 asymmetry.
    accepts_csr_binary: bool = True

    #: True when the engine supports per-edge values (weights).
    supports_edge_values: bool = True

    def __init__(self, graph: Graph, *, edge_values=None) -> None:
        self.graph = graph
        self.prepared = False
        self.prepare_stats: PrepareStats | None = None
        if edge_values is not None:
            if not self.supports_edge_values:
                raise EngineError(
                    f"{type(self).__name__} does not support per-edge "
                    "values"
                )
            edge_values = np.asarray(edge_values, dtype=VALUE_DTYPE)
            if edge_values.shape != (graph.num_edges,):
                raise EngineError(
                    f"edge_values must have shape ({graph.num_edges},), "
                    f"got {edge_values.shape}"
                )
        #: optional per-edge weights, aligned to ``graph.csr`` edge order.
        self.edge_values = edge_values
        #: proof certificate of the prepared parallel schedule, set by
        #: engines whose ``_prepare`` certifies a layout
        #: (:func:`repro.analysis.certify.certify_layout`).
        self.certificate = None

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def prepare(self) -> PrepareStats:
        """Run and time this engine's preprocessing; idempotent."""
        if self.prepared:
            assert self.prepare_stats is not None
            return self.prepare_stats
        start = time.perf_counter()
        breakdown = self._prepare() or {}
        elapsed = time.perf_counter() - start
        self.prepare_stats = PrepareStats(elapsed, breakdown)
        self.prepared = True
        return self.prepare_stats

    @abc.abstractmethod
    def _prepare(self) -> dict:
        """Build internal structures; returns a named timing breakdown."""

    def _check_x(self, x) -> "np.ndarray":
        """Validate and normalize a property vector for propagation."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.ndim not in (1, 2):
            raise EngineError(
                f"property array must be 1-D or 2-D, got {x.ndim}-D"
            )
        if x.shape[0] != self.graph.num_nodes:
            raise EngineError(
                f"property array covers {x.shape[0]} nodes, graph has "
                f"{self.graph.num_nodes}"
            )
        return np.ascontiguousarray(x)

    def _require_prepared(self) -> None:
        if not self.prepared:
            raise EngineError(
                f"{type(self).__name__} used before prepare(); call "
                "engine.prepare() first"
            )

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def propagate(self, x: np.ndarray) -> np.ndarray:
        """In-neighbor sum ``y[v] = sum(x[u] for u -> v)``.

        ``x`` may be shape ``(n,)`` or ``(n, k)``; the result matches.
        """

    def propagate_out(self, x: np.ndarray) -> np.ndarray:
        """Out-neighbor sum ``y[u] = sum(x[v] for u -> v)`` (= ``A x``).

        Needed by HITS/SALSA.  Default: a pull over the forward CSR, which
        every engine's graph already has.
        """
        self._require_prepared()
        csr = self.graph.csr
        x = self._check_x(x)
        gathered = x[csr.indices]
        if self.edge_values is not None:
            gathered = (
                gathered * self.edge_values
                if gathered.ndim == 1
                else gathered * self.edge_values[:, None]
            )
        return segment_sum(gathered, csr.indptr)

    def trace_iteration(self, trace) -> None:
        """Record one propagation iteration's access pattern into
        ``trace`` without running it.

        Only the engines studied by the paper's memory experiments
        implement this.
        """
        raise EngineError(
            f"{type(self).__name__} does not support tracing"
        )

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def run(
        self,
        algorithm,
        *,
        max_iterations: int = 20,
        check_convergence: bool = True,
        resilience=None,
    ) -> AlgorithmResult:
        """Generic iterative loop shared by the baseline engines.

        Per iteration: ``x' = apply(A^T pre_propagate(x))``; Mixen replaces
        this with its Pre/Main/Post schedule.

        ``resilience`` (a
        :class:`~repro.resilience.executor.ResilienceContext`)
        supervises the loop: kernel calls retry (and, on engines with a
        ``kernel`` attribute, degrade down the serial fallback chain),
        state checkpoints on a cadence and the numerical-health guards
        police every iterate.
        """
        self._require_prepared()
        # Lazy: frameworks.base is imported by the algorithm layer's own
        # dependencies, so the step/driver imports cannot be top-level.
        from ..algorithms.base import AlgorithmStep
        from ..core.driver import IterationDriver
        from ..resilience.checkpoint import state_fingerprint

        graph = self.graph
        step = AlgorithmStep(algorithm, graph)
        x = algorithm.initial(graph)
        start = time.perf_counter()
        driver = IterationDriver(
            step,
            max_iterations=max_iterations,
            check_convergence=check_convergence,
            resilience=resilience,
            holder=self,
            call=self.propagate,
            fingerprint=state_fingerprint(
                graph.num_nodes,
                graph.num_edges,
                self.name,
                algorithm.name,
                x.shape,
            ),
        )
        outcome = driver.run({"x": x})
        elapsed = time.perf_counter() - start
        return AlgorithmResult(
            step.scores(outcome.state),
            outcome.iterations,
            outcome.converged,
            elapsed,
            resilience=None if resilience is None else resilience.report,
            certificate_id=(
                None
                if self.certificate is None
                else self.certificate.certificate_id
            ),
        )

    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        """Level-synchronous BFS; returns per-node levels (UNREACHED
        where unreachable).  Default: dense pull over the in-adjacency —
        the strategy of the pull-based frameworks, correct but slow on
        high-diameter graphs (the paper's GraphMat/Polymer behaviour).

        With ``resilience`` the driver checkpoints the
        ``{levels, frontier}`` bundle on cadence, so a killed traversal
        resumes bit-identically.
        """
        self._require_prepared()
        from ..algorithms.bfs import bfs_fingerprint, run_frontier_bfs

        n = self.graph.num_nodes
        if not 0 <= source < n:
            raise EngineError(f"BFS source {source} outside [0, {n})")
        csc = self.graph.csc

        def expand(frontier, levels, level):
            # A node joins the next frontier when any in-neighbor is in
            # the current frontier and it is still unvisited.
            in_frontier = frontier[csc.indices].astype(np.int64)
            counts = _segment_sum_1d(in_frontier, csc.indptr)
            fresh = (counts > 0) & (levels == UNREACHED)
            levels[fresh] = level
            return fresh

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

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        state = "prepared" if self.prepared else "unprepared"
        return (
            f"<{type(self).__name__} {self.name!r} on "
            f"{self.graph!r} ({state})>"
        )


def render_edgelist_text(graph: Graph) -> str:
    """Serialize a graph as the whitespace edge-list text real frameworks
    ingest.  The edge-list engines (Ligra/Polymer/GraphMat) build this at
    construction (untimed) and *parse* it inside ``prepare()`` — the
    format-conversion cost Table 4 measures.  CSR-binary engines
    (GPOP/Mixen) skip this entirely.
    """
    edges = graph.to_edgelist()
    pairs = np.empty(2 * edges.num_edges, dtype=np.int64)
    pairs[0::2] = edges.src
    pairs[1::2] = edges.dst
    return " ".join(map(str, pairs.tolist()))


def parse_edgelist_text(text: str, num_nodes: int):
    """Decode a whitespace edge-list text into (src, dst) arrays.

    This is the timed half of the edge-list ingestion; kept deliberately
    simple (split + int conversion), like the ASCII readers the original
    frameworks ship.
    """
    flat = np.array(text.split(), dtype=np.int64)
    if flat.size % 2:
        raise EngineError("edge list text has an odd token count")
    from ..graphs.edgelist import EdgeList

    return EdgeList(num_nodes, flat[0::2], flat[1::2])


def _segment_sum_1d(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of an edge-aligned value array (empty rows give 0)."""
    csum = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums for 1-D or 2-D edge-aligned values.

    The pull-flow workhorse: row ``i`` sums ``values[indptr[i]:indptr[i+1]]``.
    Implemented with a cumulative sum so empty rows need no special casing.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return _segment_sum_1d(
            values.astype(VALUE_DTYPE, copy=False), indptr
        )
    csum = np.zeros((values.shape[0] + 1, values.shape[1]), dtype=VALUE_DTYPE)
    np.cumsum(values, axis=0, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]
