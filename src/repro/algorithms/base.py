"""Link-analysis algorithm protocol.

Every algorithm in the paper's evaluation (InDegree, PageRank,
Collaborative Filtering) is one propagation ``y = A^T (scale * x)`` followed
by a vertex-local ``apply`` — the SpMV pattern of Section 2.2.  The protocol
below captures exactly that decomposition so that *every* engine (including
Mixen, which reschedules the phases) can run every algorithm:

* :meth:`initial` — starting property vector ``x0`` (``(n,)`` or ``(n, k)``).
* :meth:`propagate_scale` — optional per-source multiplier applied before
  propagation (PageRank's ``1 / out_degree``); ``None`` means identity.
* :meth:`apply` — vertex-local update of the propagated sums.  It must be
  elementwise (no cross-vertex reads): Mixen relies on this to apply it to
  the regular segment only.
* :attr:`scores_from` — whether the reported scores are the evolving ``x``
  (PageRank) or the propagated ``y`` (InDegree/CF, where ``x`` stays fixed
  at ``x0`` across the benchmark iterations, as in the paper's 100-iteration
  timing runs).

Seed-node invariance: algorithms must start seed nodes at their fixed point
(``apply`` of zero incoming mass) so that their values never change — the
property Mixen's static bins exploit (Section 4.3) and which holds in any
engine because seeds receive no messages.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.driver import BundleStep, StateSpec
from ..graphs.graph import Graph


class Algorithm(abc.ABC):
    """Base protocol; see the module docstring for the contract."""

    #: registry name.
    name: str = "algorithm"
    #: property dimensionality (1 for scalar scores, k for CF factors).
    rank: int = 1
    #: "x" -> report the evolving vector; "y" -> report the last propagation.
    scores_from: str = "x"
    #: True when x never changes across iterations (InDegree/CF timing
    #: workloads): engines skip the apply-to-x step entirely.
    x_constant: bool = False

    @abc.abstractmethod
    def initial(self, graph: Graph) -> np.ndarray:
        """Starting property vector (seed nodes at their fixed point)."""

    def state_spec(self) -> tuple:
        """The driver state bundle of this algorithm: one evolving
        array named ``x`` (see :mod:`repro.core.driver`).  Protocol
        algorithms are single-vector by construction; multi-vector
        workloads (HITS/SALSA, traversals) define their own
        :class:`~repro.core.driver.BundleStep` instead."""
        return (StateSpec("x"),)

    def propagate_scale(self, graph: Graph) -> np.ndarray | None:
        """Optional per-source multiplier; ``None`` = propagate x as is."""
        return None

    def norm_limit(self, graph: Graph) -> float | None:
        """Healthy upper bound on the L1 norm of the evolving ``x``.

        Used by the numerical-health guards
        (:mod:`repro.resilience.guards`) as the divergence threshold;
        ``None`` (the default) falls back to a relative-growth
        heuristic.  Mass-conserving algorithms (PageRank's ranks sum
        to at most 1) should return a small constant bound.
        """
        return None

    def apply(
        self, y: np.ndarray, iteration: int, nodes: np.ndarray | None = None
    ) -> np.ndarray:
        """Vertex-local update producing the next ``x``.

        Must be vertex-local: element ``i`` of the result may depend only
        on ``y[i]`` and per-node constants.  ``nodes`` identifies which
        *original* node ids ``y`` covers (``None`` = all of them, in
        order) — engines that update a vertex subset (Mixen's phase
        schedule) pass it so algorithms with per-node coefficients (e.g.
        a personalization vector) can slice them.  Default: identity
        (pure-SpMV workloads).
        """
        return y

    def converged(self, x_old: np.ndarray, x_new: np.ndarray) -> bool:
        """Stop early?  Default: never (fixed-iteration benchmarks)."""
        return False

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def pre_propagate(self, x: np.ndarray, graph: Graph) -> np.ndarray:
        """``scale * x`` (broadcast over rank-k properties)."""
        scale = self.propagate_scale(graph)
        if scale is None:
            return x
        if x.ndim == 1:
            return x * scale
        return x * scale[:, None]

    def reference_run(
        self, graph: Graph, iterations: int
    ) -> np.ndarray:
        """Engine-free dense reference: the ground truth for tests.

        Runs the exact protocol semantics with a dense adjacency for the
        whole budget (the fixed-budget runs tests compare it with pass
        ``check_convergence=False``); use only on small graphs.
        """
        dense = graph.csr.to_dense().astype(np.float64)
        x = self.initial(graph)
        y = np.zeros_like(x)
        for it in range(iterations):
            xs = self.pre_propagate(x, graph)
            y = dense.T @ xs
            x = x if self.x_constant else self.apply(y, it)
        return x if self.scores_from == "x" else y


class AlgorithmStep(BundleStep):
    """Driver step adapting the single-vector protocol above.

    One iteration of the generic engine loop —
    ``xs = pre_propagate(x)``, ``y = A^T xs``, ``x' = apply(y)`` — as a
    :class:`~repro.core.driver.BundleStep` over the bundle
    ``{"x": ...}``.  The propagated ``y`` is *not* part of the bundle
    (checkpoints and guards cover the evolving state only, exactly as
    the pre-driver loop did); the step keeps the last ``y`` around for
    the ``scores_from == "y"`` workloads.
    """

    def __init__(self, algorithm, graph) -> None:
        self.algorithm = algorithm
        self.graph = graph
        self.name = algorithm.name
        self.watch_stall = not algorithm.x_constant
        self.last_y: np.ndarray | None = None

    def state_spec(self) -> tuple:
        return self.algorithm.state_spec()

    def initial_state(self) -> dict:
        return {"x": self.algorithm.initial(self.graph)}

    def step(self, state, iteration, ctx):
        algorithm = self.algorithm
        x = state["x"]
        xs = algorithm.pre_propagate(x, self.graph)
        y = ctx.propagate(xs)
        self.last_y = y
        x_new = (
            x if algorithm.x_constant else algorithm.apply(y, iteration)
        )
        return {"x": x_new}

    def converged(self, old, new) -> bool:
        return self.algorithm.converged(old["x"], new["x"])

    def rehydrate(self, state, ctx) -> None:
        """Rebuild ``last_y`` after a resume that ran no step here.

        Checkpoints persist the evolving ``x`` only, so a resume landing
        at the iteration cap used to leave ``last_y = None`` and
        :meth:`scores` zero-filled every ``scores_from == "y"`` result.
        One propagation from the restored ``x`` recomputes it — for the
        ``x_constant`` workloads that report ``y`` (InDegree, CF) the
        input equals the last completed iteration's input, so the
        recomputed ``y`` is bit-identical to the lost one.
        """
        if self.algorithm.scores_from != "y":
            return
        xs = self.algorithm.pre_propagate(state["x"], self.graph)
        self.last_y = ctx.propagate(xs)

    def norm_limit(self) -> float | None:
        limit_fn = getattr(self.algorithm, "norm_limit", None)
        return limit_fn(self.graph) if callable(limit_fn) else None

    def scores(self, state) -> np.ndarray:
        """Final scores per the algorithm's ``scores_from`` contract."""
        if self.algorithm.scores_from == "x":
            return state["x"]
        if self.last_y is None:
            return np.zeros_like(state["x"])
        return self.last_y


def inverse_out_degrees(graph: Graph) -> np.ndarray:
    """``1 / out_degree`` with zeros for dangling nodes (sinks/isolated).

    The standard GAPBS-style dangling-node treatment: nodes without
    out-links simply contribute no mass.
    """
    return _safe_inverse(graph.out_degrees().astype(np.float64))


def weighted_out_strength(graph: Graph, edge_values) -> np.ndarray:
    """Per-node sum of outgoing edge values (the weighted out-degree).

    Pass this as ``out_strength`` to the degree-normalized algorithms
    (PageRank/PPR/CF) when running on a weighted engine, so each node
    distributes exactly its own mass across its weighted links.
    """
    edge_values = np.asarray(edge_values, dtype=np.float64)
    if edge_values.shape != (graph.num_edges,):
        raise ValueError(
            f"edge_values must have shape ({graph.num_edges},), got "
            f"{edge_values.shape}"
        )
    rows = graph.csr.row_ids()
    return np.bincount(
        rows, weights=edge_values, minlength=graph.num_nodes
    )


def _safe_inverse(values: np.ndarray) -> np.ndarray:
    inv = np.zeros_like(values, dtype=np.float64)
    nonzero = values > 0
    inv[nonzero] = 1.0 / values[nonzero]
    return inv
