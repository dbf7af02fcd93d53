"""Phase scheduling: Pre-Phase, Main-Phase, Post-Phase (Algorithm 3).

The scheduler owns the execution of one algorithm run on Mixen's filtered
structures:

* **Pre-Phase** — seed nodes push their (constant, pre-scaled) values into
  the static bins once, then go inactive;
* **Main-Phase** — the iterative SCGA loop over regular nodes only;
* **Post-Phase** — after convergence (or the iteration cap), sink nodes
  pull once from the input of the last Main-Phase propagation, so a
  T-iteration run returns every node at step T; isolated nodes apply the
  zero-input update.

Results are assembled in the relabeled space and unpermuted at the end.

With a :class:`~repro.resilience.executor.ResilienceContext` the
Main-Phase loop runs supervised: kernel calls retry and degrade
(``parallel-mp -> parallel -> reduceat -> bincount``), the rank state checkpoints on a
cadence (and resumes bit-identically after a kill), and the
numerical-health guards police every post-apply state — see
DESIGN.md, "Resilience runtime".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..frameworks.base import AlgorithmResult
from ..types import VALUE_DTYPE
from .driver import BundleStep, IterationDriver, StateSpec
from .filtering import FilterPlan
from .mixed_format import MixedGraph
from .permutation import permute_values, unpermute_values
from .phases import phase_reduce
from .scga import ScgaKernel


@dataclass(frozen=True)
class PhaseStat:
    """One phase's cost card: wall time plus its traffic shape
    (messages streamed, output slots written)."""

    seconds: float
    messages: int = 0
    slots: int = 0


@dataclass
class MixenRunResult(AlgorithmResult):
    """Algorithm result with Mixen's per-phase breakdown (a
    :class:`PhaseStat` per phase name)."""

    phases: dict = field(default_factory=dict)


def run_schedule(
    mixed: MixedGraph,
    kernel: ScgaKernel,
    algorithm,
    *,
    graph,
    max_iterations: int = 20,
    check_convergence: bool = True,
    resilience=None,
) -> MixenRunResult:
    """Execute ``algorithm`` under Mixen's three-phase schedule.

    ``resilience`` (a
    :class:`~repro.resilience.executor.ResilienceContext`) supervises
    the Main-Phase loop; the run's
    :class:`~repro.resilience.report.ResilienceReport` is attached to
    the result.
    """
    plan: FilterPlan = mixed.plan
    r = plan.num_regular

    t0 = time.perf_counter()
    # ---- Pre-Phase -------------------------------------------------- #
    # Per-node propagation scale and initial values, moved into the
    # relabeled space once (part of preparation, paper-wise, but it
    # depends on the algorithm, so it happens here).
    x0 = algorithm.initial(graph)
    scale = algorithm.propagate_scale(graph)
    xp = permute_values(np.asarray(x0, dtype=VALUE_DTYPE), plan.perm)
    scale_p = (
        None if scale is None else permute_values(scale, plan.perm)
    )
    xs_seed = _scaled(xp[plan.seed_slice], scale_p, plan.seed_slice)
    # The one-shot phases run through the kernel dispatch layer, wrapped
    # (when supervised) by a resilient executor sharing the Main-Phase's
    # retry policy, report and degradation ladder — a Pre-Phase fault
    # walks the same chain the Main-Phase would.
    phase_exec = None
    if resilience is not None:
        from ..resilience.executor import ResilientExecutor

        phase_exec = ResilientExecutor(
            kernel.push_seed,
            kernel,
            policy=resilience.policy,
            report=resilience.report,
            scan_outputs=resilience.options.scan_outputs,
        )
    kernel.set_seed_input(xs_seed, executor=phase_exec)
    t_pre = time.perf_counter()

    # ---- Main-Phase -------------------------------------------------- #
    x_reg = xp[:r].copy()
    reg_slice = slice(0, r)
    step = _MainPhaseStep(algorithm, graph, plan, scale_p, reg_slice)
    driver = IterationDriver(
        step,
        max_iterations=max_iterations,
        check_convergence=check_convergence,
        resilience=resilience,
        holder=kernel,
        call=kernel.iterate,
        fingerprint=_run_fingerprint(plan, algorithm, x_reg),
    )
    outcome = driver.run({"x": x_reg, "x_in": x_reg})
    x_reg = outcome.state["x"]
    y_reg = (
        np.zeros_like(x_reg) if step.last_y is None else step.last_y
    )
    iterations = outcome.iterations
    converged = outcome.converged
    t_main = time.perf_counter()

    # ---- Post-Phase --------------------------------------------------- #
    last_it = max(iterations - 1, 0)
    sources = np.concatenate(
        [_scaled(outcome.state["x_in"], scale_p, reg_slice), xs_seed],
        axis=0,
    )
    sink_csc = mixed.sink_csc
    if sink_csc.num_rows:
        pull_plan = mixed.sink_pull_plan

        def pull_sinks(vals):
            return phase_reduce(
                pull_plan,
                vals,
                kernel=kernel.kernel,
                max_workers=kernel.max_workers,
            )

        if phase_exec is not None:
            y_sink = phase_exec.run(sources, last_it, call=pull_sinks)
        else:
            y_sink = pull_sinks(sources)
        x_sink = (
            xp[plan.sink_slice]
            if algorithm.x_constant
            else algorithm.apply(
                y_sink, last_it, nodes=plan.inverse[plan.sink_slice]
            )
        )
    else:
        y_sink = x_sink = _empty_like(x_reg, 0)
    n_iso = plan.num_isolated
    if n_iso:
        zeros = _empty_like(x_reg, n_iso)
        zeros[...] = 0.0
        x_iso = (
            xp[plan.isolated_slice]
            if algorithm.x_constant
            else algorithm.apply(
                zeros, last_it, nodes=plan.inverse[plan.isolated_slice]
            )
        )
        y_iso = zeros
    else:
        x_iso = y_iso = _empty_like(x_reg, 0)

    # ---- assemble and unpermute -------------------------------------- #
    if algorithm.scores_from == "x":
        parts = [x_reg, xp[plan.seed_slice], x_sink, x_iso]
    else:
        y_seed = _empty_like(x_reg, plan.num_seed)
        y_seed[...] = 0.0
        parts = [y_reg, y_seed, y_sink, y_iso]
    scores_p = np.concatenate(parts, axis=0)
    scores = unpermute_values(scores_p, plan.perm)
    t_post = time.perf_counter()

    result = MixenRunResult(
        scores=scores,
        iterations=iterations,
        converged=converged,
        seconds=t_post - t0,
        resilience=None if resilience is None else resilience.report,
        phases={
            "pre": PhaseStat(
                t_pre - t0,
                messages=kernel.seed_plan.num_messages,
                slots=kernel.seed_plan.num_runs,
            ),
            "main": PhaseStat(
                t_main - t_pre,
                messages=mixed.rr.num_edges * iterations,
                slots=r,
            ),
            "post": PhaseStat(
                t_post - t_main,
                messages=mixed.sink_pull_plan.num_messages,
                slots=mixed.sink_pull_plan.num_runs,
            ),
        },
    )
    return result


class _MainPhaseStep(BundleStep):
    """One Main-Phase iteration over the regular segment, as a driver
    step: scale, SCGA-propagate (through the resilient executor when
    supervised), apply to regular nodes only.

    The bundle carries the evolving ``x`` plus ``x_in``, the regular
    state that fed the step's propagation: the Post-Phase sink pull
    reads it, so sinks land at the same step as every other node, and
    it is checkpointed with ``x``, so a resume at the loop's end still
    has it.  The propagated ``y_reg`` stays outside the bundle; the
    last one feeds the ``scores_from == "y"`` assembly."""

    def __init__(self, algorithm, graph, plan, scale_p, reg_slice):
        self.algorithm = algorithm
        self.graph = graph
        self.plan = plan
        self.scale_p = scale_p
        self.reg_slice = reg_slice
        self.name = algorithm.name
        self.watch_stall = not algorithm.x_constant
        self.last_y: np.ndarray | None = None

    def state_spec(self) -> tuple:
        return (
            *self.algorithm.state_spec(),
            StateSpec("x_in", guarded=False),
        )

    def step(self, state, iteration, ctx):
        algorithm = self.algorithm
        x = state["x"]
        xs = _scaled(x, self.scale_p, self.reg_slice)
        y = ctx.propagate(xs)
        self.last_y = y
        x_new = (
            x
            if algorithm.x_constant
            else algorithm.apply(
                y, iteration, nodes=self.plan.inverse[self.reg_slice]
            )
        )
        return {"x": x_new, "x_in": x}

    def converged(self, old, new) -> bool:
        return self.algorithm.converged(old["x"], new["x"])

    def rehydrate(self, state, ctx) -> None:
        """Recompute ``last_y`` from the restored input of the last
        propagation when a resume runs no Main-Phase step in this
        process (see :meth:`repro.algorithms.base.AlgorithmStep.rehydrate`);
        without it the ``scores_from == "y"`` assembly zero-fills."""
        if self.algorithm.scores_from != "y":
            return
        xs = _scaled(state["x_in"], self.scale_p, self.reg_slice)
        self.last_y = ctx.propagate(xs)

    def norm_limit(self) -> float | None:
        return _norm_limit(self.algorithm, self.graph)


def _run_fingerprint(plan: FilterPlan, algorithm, x0: np.ndarray) -> str:
    """Checkpoint identity of one Mixen run: the relabeling, the
    regular-segment shape and the algorithm."""
    from ..resilience.checkpoint import state_fingerprint

    return state_fingerprint(
        plan.perm,
        plan.num_regular,
        algorithm.name,
        getattr(algorithm, "rank", 1),
        x0.shape,
    )


def _norm_limit(algorithm, graph) -> float | None:
    """The algorithm's declared healthy norm bound, if any."""
    limit_fn = getattr(algorithm, "norm_limit", None)
    return limit_fn(graph) if callable(limit_fn) else None


def _scaled(x: np.ndarray, scale_p: np.ndarray | None, sel: slice):
    """Apply the permuted propagation scale to one segment."""
    if scale_p is None:
        return x
    seg = scale_p[sel]
    if x.ndim == 1:
        return x * seg
    return x * seg[:, None]


def _empty_like(template: np.ndarray, rows: int) -> np.ndarray:
    """Empty (rows, [k]) array matching the template's rank and dtype."""
    if template.ndim == 1:
        return np.empty(rows, dtype=template.dtype)
    return np.empty((rows, template.shape[1]), dtype=template.dtype)
