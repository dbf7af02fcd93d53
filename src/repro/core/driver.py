"""Unified iteration driver: one outer loop for every algorithm.

The paper's Scatter-Cache-Gather-Apply schedule (Section 4.3,
Algorithm 3) is *one* iteration protocol, but link analysis, HITS/SALSA
and the traversal workloads used to hand-roll four different Python
loops — so the resilience runtime (retry, degradation, checkpoints,
guards; :mod:`repro.resilience`) only covered the single-vector
``engine.run`` path.  This module lifts the loop itself into a reusable
:class:`IterationDriver` over a named multi-array :class:`StateBundle`:

* PageRank / PPR / Katz / InDegree / CF iterate ``{"x": ...}``;
* HITS / SALSA iterate the coupled pair ``{"a": ..., "h": ...}``;
* BFS iterates ``{"levels": ..., "frontier": ...}``;
* SSSP iterates ``{"dist": ...}``.

Algorithms supply a :class:`BundleStep` — a declarative description of
one iteration (``step``), its state layout (``state_spec``), optional
early exit (``finished``) and convergence test (``converged``) — and
the driver owns the loop: resume from the latest checkpoint, run the
step through the resilient executor, guard every post-step bundle,
bank the last known-good state, snapshot on cadence, and stop on
convergence.  Because the loop shape exactly mirrors the three loops it
replaced, supervised and unsupervised runs stay **bit-identical** to
the pre-driver implementations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np


@dataclass(frozen=True)
class StateSpec:
    """Declares one named array of a step's state bundle.

    ``guarded=False`` exempts the array from the numerical-health
    guards — for integer/boolean traversal state (BFS levels and
    frontier masks) and for arrays whose healthy values are non-finite
    (SSSP distances start at ``inf``).
    """

    name: str
    guarded: bool = True


class StateBundle(Mapping):
    """An ordered, named collection of state arrays.

    A thin mapping ``name -> np.ndarray`` with value-level helpers; the
    iteration order is the declaration order of the step's
    :meth:`BundleStep.state_spec`, which is also the checkpoint schema
    order.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._arrays = {
            str(name): np.asarray(value)
            for name, value in arrays.items()
        }

    @classmethod
    def wrap(cls, state) -> "StateBundle":
        """Coerce a bundle, mapping, or bare array (``{"x": arr}``)."""
        if isinstance(state, StateBundle):
            return state
        if isinstance(state, Mapping):
            return cls(state)
        return cls({"x": np.asarray(state)})

    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    @property
    def names(self) -> tuple:
        """Array names in declaration order."""
        return tuple(self._arrays)

    def copy(self) -> "StateBundle":
        """Deep copy (fresh arrays, same names)."""
        return StateBundle(
            {name: value.copy() for name, value in self._arrays.items()}
        )

    def replace(self, **arrays) -> "StateBundle":
        """New bundle with some arrays substituted."""
        merged = dict(self._arrays)
        merged.update(arrays)
        return StateBundle(merged)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}{list(value.shape)}"
            for name, value in self._arrays.items()
        )
        return f"<StateBundle {parts}>"


class StepContext:
    """Per-iteration services the driver hands to :meth:`BundleStep.step`.

    ``propagate`` routes a kernel-shaped call (``fn(xs) -> y``) through
    the resilient executor when the run is supervised — retry, watchdog
    and the degradation ladder apply — and calls it directly otherwise.
    ``stop`` requests loop termination *without* counting the current
    iteration (the rollback-and-stop semantics of the legacy HITS/SALSA
    guard hook).
    """

    def __init__(self, supervisor=None, default_call=None) -> None:
        self._supervisor = supervisor
        self._default_call = default_call
        self.iteration = 0
        self.stopped = False

    @property
    def supervised(self) -> bool:
        """Whether a supervisor may roll the run back to an earlier
        bundle (a step must then leave its input arrays unchanged)."""
        return self._supervisor is not None

    def propagate(self, xs, call: Callable | None = None):
        """One resilient kernel invocation (``call`` overrides the
        driver's default call site, e.g. ``engine.propagate_out``)."""
        fn = call if call is not None else self._default_call
        if fn is None:
            raise TypeError(
                "StepContext.propagate needs a call: the driver was "
                "built without a default call site"
            )
        if self._supervisor is None:
            return fn(xs)
        return self._supervisor.propagate(xs, self.iteration, call=fn)

    def stop(self) -> None:
        """End the loop after this step without counting its iteration."""
        self.stopped = True


class BundleStep(abc.ABC):
    """One algorithm's iteration, declaratively.

    Subclasses describe the state layout and the per-iteration update;
    the :class:`IterationDriver` owns everything around it (resume,
    retry, guard, checkpoint, convergence).
    """

    #: step name (reports and debugging).
    name: str = "step"
    #: feed the stall detector (off for traversals, whose convergence
    #: is structural, and for fixed-iteration benchmark runs).
    watch_stall: bool = True

    @abc.abstractmethod
    def state_spec(self) -> tuple:
        """The bundle's :class:`StateSpec` entries, in schema order."""

    @abc.abstractmethod
    def step(self, state: StateBundle, iteration: int, ctx: StepContext):
        """Compute the next bundle from ``state`` (a mapping of the
        same names; arrays the step leaves unchanged may be passed
        through untouched)."""

    def finished(self, state: StateBundle) -> bool:
        """Early exit checked *before* each step (BFS: empty frontier)."""
        return False

    def rehydrate(self, state: StateBundle, ctx: StepContext) -> None:
        """Rebuild transient per-step products from a restored ``state``.

        Called by the driver when a resume lands at (or past) the loop's
        end, so no :meth:`step` ever runs in this process — anything the
        step normally caches as a side effect (e.g. the last propagated
        ``y`` feeding ``scores_from == "y"`` assembly) would otherwise
        stay unset.  Default: nothing to rebuild.
        """

    def converged(self, old: StateBundle, new: StateBundle) -> bool:
        """Convergence checked *after* each step."""
        return False

    def norm_limit(self) -> float | None:
        """Healthy L1-norm bound for the guards (None = heuristic)."""
        return None

    def guarded_names(self) -> tuple:
        """Names of the arrays the numerical guards police."""
        return tuple(
            spec.name for spec in self.state_spec() if spec.guarded
        )


@dataclass
class DriverResult:
    """Outcome of one :meth:`IterationDriver.run`."""

    state: StateBundle
    #: global iteration count — resumed runs include the checkpointed
    #: iterations, not just the steps executed in this process.
    iterations: int
    converged: bool


class IterationDriver:
    """Owns one algorithm's outer loop: iterate -> guard -> checkpoint
    -> converge, over a :class:`StateBundle`.

    Parameters
    ----------
    step:
        The algorithm's :class:`BundleStep`.
    max_iterations:
        Iteration cap.
    check_convergence:
        False disables :meth:`BundleStep.converged` (fixed-iteration
        benchmark protocol) and the stall detector.
    resilience:
        A :class:`~repro.resilience.executor.ResilienceContext`;
        ``None`` runs unsupervised (no retry/guard/checkpoint
        machinery, zero overhead beyond the plain loop).
    holder:
        Object carrying the mutable ``kernel`` attribute for the
        degradation ladder (``None`` = retry only, no downgrading).
    call:
        Default kernel call site for :meth:`StepContext.propagate`.
    fingerprint:
        Checkpoint identity of the run (see
        :func:`~repro.resilience.checkpoint.state_fingerprint`).
    """

    def __init__(
        self,
        step: BundleStep,
        *,
        max_iterations: int,
        check_convergence: bool = True,
        resilience=None,
        holder=None,
        call: Callable | None = None,
        fingerprint: str = "",
    ) -> None:
        self.step = step
        self.max_iterations = max_iterations
        self.check_convergence = check_convergence
        self.resilience = resilience
        self.holder = holder
        self.call = call
        self.fingerprint = fingerprint

    # ------------------------------------------------------------------ #
    def run(self, state0) -> DriverResult:
        """Execute the loop from ``state0`` (bundle, mapping or bare
        array) to convergence, early exit, or the iteration cap."""
        step = self.step
        state = StateBundle.wrap(state0)
        iterations = 0
        converged = False
        supervisor = None
        it = 0
        if self.resilience is not None:
            supervisor = self.resilience.supervisor(
                self.holder,
                self.call,
                fingerprint=self.fingerprint,
                norm_limit=step.norm_limit(),
                watch_stall=self.check_convergence and step.watch_stall,
                guard_names=step.guarded_names(),
            )
            it, state = supervisor.resume(state)
            # A checkpoint at iteration k restores k+1 completed
            # iterations; the count is global, not per-process.
            iterations = it
        ctx = StepContext(supervisor, self.call)
        steps_run = 0
        while it < self.max_iterations:
            if step.finished(state):
                break
            ctx.iteration = it
            new = StateBundle.wrap(step.step(state, it, ctx))
            steps_run += 1
            if ctx.stopped:
                state = new
                break
            iterations = it + 1
            if supervisor is not None:
                outcome = supervisor.after_apply(it, state, new)
                if outcome.action == "rollback":
                    it, state = outcome.iteration, outcome.state
                    continue
                new = outcome.state
            if self.check_convergence and step.converged(state, new):
                state = new
                converged = True
                break
            state = new
            it += 1
        if steps_run == 0 and iterations > 0:
            # Resume landed at (or past) the end: no step executed here,
            # so transient step products must be rebuilt from the
            # restored state (the last completed iteration's inputs).
            ctx.iteration = max(it - 1, 0)
            step.rehydrate(state, ctx)
        return DriverResult(state, iterations, converged)
