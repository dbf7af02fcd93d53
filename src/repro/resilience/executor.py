"""The resilient execution runtime: retry, degrade, checkpoint, guard.

This module ties the four resilience layers into the engines'
iteration loops:

* :class:`ResilientExecutor` wraps one kernel call site (Mixen's
  :meth:`~repro.core.scga.ScgaKernel.iterate`, or an engine's
  ``propagate``) with per-attempt retry/watchdog
  (:mod:`repro.resilience.retry`) and the ordered **degradation
  ladder** ``parallel-mp -> parallel -> reduceat -> bincount``: when a
  backend keeps failing — or returns non-finite values from finite
  input (a corrupted bins slot) — the runtime steps down one rung,
  re-runs *only the failed iteration*, and records the downgrade.  The
  top rung's failure domain is a *process*: a killed or stalled pool
  worker surfaces as :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.StallError` after the pool fail-stops (workers
  killed, shared-memory segments unlinked), and the run steps down to
  the thread backend with nothing orphaned;
* :class:`LoopSupervisor` drives one algorithm run: checkpoint resume,
  per-iteration guard verdicts, rollback-to-last-known-good, and
  checkpoint saves;
* :class:`ResilienceContext` is the user-facing bundle the CLI (and
  tests) construct from ``--retries``/``--deadline``/
  ``--checkpoint-*``/``--guard``/``--fault-inject`` options and pass
  to ``engine.run(..., resilience=ctx)``.

The serial ``bincount`` rung is the floor: it shares no thread pool,
no bins buffer and no reduce plan with the rungs above it, so any
fault confined to parallel dispatch cannot follow the run down the
ladder — and because serial and parallel execution of the same base
are bit-identical, a degraded run still matches the fault-free serial
result exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GuardError, ResilienceError
from .checkpoint import CheckpointManager
from .faults import install, parse_fault_spec
from .guards import GUARD_POLICIES, BundleGuard
from .report import CheckpointEvent, DowngradeEvent, ResilienceReport
from .retry import RetryPolicy, run_with_retry

#: ordered kernel fallback chain (most parallel first).
DEGRADATION_CHAIN = ("parallel-mp", "parallel", "reduceat", "bincount")


def next_backend(kernel: str | None) -> str | None:
    """The rung below ``kernel`` on the ladder (None = no rung left)."""
    if kernel in DEGRADATION_CHAIN:
        idx = DEGRADATION_CHAIN.index(kernel)
        if idx + 1 < len(DEGRADATION_CHAIN):
            return DEGRADATION_CHAIN[idx + 1]
    return None


def _resolved_backend(holder) -> str | None:
    """Current backend name of ``holder`` (engines and ScgaKernel both
    carry a ``kernel`` attribute; ``auto`` is resolved)."""
    name = getattr(holder, "kernel", None)
    if name == "auto":
        from ..core.kernels import resolve_kernel

        name = resolve_kernel(name)
    return name


class ResilientExecutor:
    """Retry + degradation wrapper around one kernel call site.

    Parameters
    ----------
    call:
        ``fn(xs) -> y``, the raw per-iteration kernel invocation.
    holder:
        Object whose ``kernel`` attribute names the backend (a
        :class:`~repro.core.scga.ScgaKernel` or a blocked engine);
        ``None`` disables downgrading (retry only).
    """

    def __init__(
        self,
        call: Callable,
        holder=None,
        *,
        policy: RetryPolicy | None = None,
        report: ResilienceReport | None = None,
        scan_outputs: bool = True,
    ) -> None:
        self._call = call
        self._holder = holder
        self.policy = policy or RetryPolicy()
        self.report = report if report is not None else ResilienceReport()
        self.scan_outputs = scan_outputs

    # ------------------------------------------------------------------ #
    def run(self, xs: np.ndarray, iteration: int, call=None) -> np.ndarray:
        """Execute one iteration's kernel call resiliently.

        ``call`` overrides the default call site for this invocation —
        multi-call steps (HITS alternates ``propagate`` and
        ``propagate_out``) run both directions under one executor, so
        retries, downgrades and output scans share a single ladder.
        """
        fn = call if call is not None else self._call
        while True:
            try:
                y = run_with_retry(
                    lambda: fn(xs),
                    policy=self.policy,
                    report=self.report,
                    iteration=iteration,
                )
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if not self.downgrade(iteration, reason):
                    raise
                continue
            if self.scan_outputs and not _finite(y) and _finite(xs):
                # Finite input, non-finite output: the backend corrupted
                # data (e.g. a poisoned bins slot) — not an algorithmic
                # blow-up.  Step down and re-run the iteration.
                if self.downgrade(iteration, "non-finite output"):
                    continue
                raise GuardError(
                    "serial kernel produced non-finite output from "
                    f"finite input at iteration {iteration}",
                    kind="nan",
                    iteration=iteration,
                )
            return y

    def downgrade(self, iteration: int, reason: str) -> bool:
        """Step the holder's backend one rung down; False at the floor."""
        holder = self._holder
        if holder is None:
            return False
        current = _resolved_backend(holder)
        target = next_backend(current)
        if target is None:
            return False
        holder.kernel = target
        self.report.downgrades.append(
            DowngradeEvent(iteration, str(current), target, reason)
        )
        return True


def _finite(values: np.ndarray) -> bool:
    return bool(np.isfinite(values).all())


# --------------------------------------------------------------------- #
# run-level supervision
# --------------------------------------------------------------------- #
@dataclass
class StepOutcome:
    """What the iteration loop should do after one supervised step."""

    #: ok (advance) or rollback (rewind to ``iteration``).
    action: str
    #: next iteration index to execute.
    iteration: int
    #: state bundle to carry (post-guard, possibly clamped or restored).
    state: "StateBundle"


class LoopSupervisor:
    """Drives one algorithm run under a :class:`ResilienceContext`:
    resume, per-iteration guarding, rollback and checkpoint cadence.

    The supervised state is a named multi-array bundle
    (:class:`~repro.core.driver.StateBundle`); bare arrays are accepted
    everywhere and treated as the single-entry bundle ``{"x": ...}``,
    so single-vector runs keep their exact pre-bundle behaviour.
    """

    def __init__(
        self,
        context: "ResilienceContext",
        holder,
        call: Callable,
        *,
        fingerprint: str = "",
        norm_limit: float | None = None,
        watch_stall: bool = True,
        guard_names: tuple | None = None,
    ) -> None:
        options = context.options
        self.report = context.report
        self.executor = ResilientExecutor(
            call,
            holder,
            policy=context.policy,
            report=context.report,
            scan_outputs=options.scan_outputs,
        )
        self.guard: BundleGuard | None = None
        if options.guard_policy is not None:
            self.guard = BundleGuard(
                options.guard_policy,
                norm_limit=norm_limit,
                watch_stall=watch_stall,
                report=context.report,
                guard_names=guard_names,
            )
        self.manager: CheckpointManager | None = None
        if options.checkpoint_dir is not None:
            self.manager = CheckpointManager(
                options.checkpoint_dir,
                fingerprint=fingerprint,
                every=options.checkpoint_every,
                keep=options.checkpoint_keep,
                epoch=options.epoch,
            )
        self._resume = options.resume
        self._max_rollbacks = options.max_rollbacks
        self._rollbacks = 0
        self._last_good: tuple | None = None

    # ------------------------------------------------------------------ #
    def resume(self, state0, start: int = 0) -> tuple:
        """Resolve the starting state: the latest checkpoint when
        resuming (fingerprint-verified), else ``state0``.

        Returns ``(start_iteration, StateBundle)``.
        """
        from ..core.driver import StateBundle

        state_start = StateBundle.wrap(state0)
        it_start = start
        if self.manager is not None and self._resume:
            loaded = self.manager.load_latest()
            if loaded is not None:
                ckpt_it, saved = loaded
                state_start = _validated_bundle(saved, state_start)
                it_start = ckpt_it + 1
                self.report.checkpoint_events.append(
                    CheckpointEvent(ckpt_it, "resume")
                )
        self._last_good = (it_start - 1, state_start.copy())
        return it_start, state_start

    def propagate(
        self, xs: np.ndarray, iteration: int, call=None
    ) -> np.ndarray:
        """One resilient kernel invocation (``call`` overrides the
        default call site, e.g. the reverse-direction propagation)."""
        return self.executor.run(xs, iteration, call=call)

    def after_apply(self, iteration: int, old, new) -> StepOutcome:
        """Guard the post-step bundle, bank it, snapshot on cadence."""
        from ..core.driver import StateBundle

        old = StateBundle.wrap(old)
        new = StateBundle.wrap(new)
        if self.guard is not None:
            verdict = self.guard.check(old, new, iteration)
            if verdict.action == "rollback":
                return self._rollback(iteration)
            new = StateBundle(verdict.state)
        assert self._last_good is not None, "resume() not called"
        self._last_good = (iteration, new.copy())
        if self.manager is not None and self.manager.due(iteration):
            path = self.manager.save(iteration, new)
            self.report.checkpoint_events.append(
                CheckpointEvent(iteration, "save", str(path))
            )
        return StepOutcome("ok", iteration + 1, new)

    def _rollback(self, iteration: int) -> StepOutcome:
        self._rollbacks += 1
        if self._rollbacks > self._max_rollbacks:
            raise GuardError(
                f"rollback budget exhausted after {self._max_rollbacks} "
                "rollbacks; the failure is not transient",
                kind="rollback",
                iteration=iteration,
            )
        # Step the kernel down a rung so a backend-borne fault is not
        # replayed verbatim (no-op at the serial floor).
        self.executor.downgrade(iteration, "guard rollback")
        assert self._last_good is not None, "resume() not called"
        good_it, good_state = self._last_good
        self.report.checkpoint_events.append(
            CheckpointEvent(good_it, "rollback")
        )
        return StepOutcome("rollback", good_it + 1, good_state.copy())


def _validated_bundle(saved: dict, expected):
    """Check a loaded checkpoint bundle against the run's state layout
    (names and shapes) and cast each array to the run's dtype."""
    from ..core.driver import StateBundle
    from ..errors import CheckpointError

    if tuple(saved) != expected.names:
        raise CheckpointError(
            f"checkpoint arrays {tuple(saved)} do not match the run's "
            f"state layout {expected.names}"
        )
    restored = {}
    for name in expected.names:
        template = expected[name]
        array = np.asarray(saved[name], dtype=template.dtype)
        if array.shape != template.shape:
            # The fingerprint should catch this first; refuse rather
            # than propagate a shape error mid-run.
            raise CheckpointError(
                f"checkpoint array {name!r} shape {array.shape} does "
                f"not match the run's {template.shape}"
            )
        restored[name] = array
    return StateBundle(restored)


# --------------------------------------------------------------------- #
# user-facing configuration bundle
# --------------------------------------------------------------------- #
@dataclass
class ResilienceOptions:
    """Configuration of the resilient runtime for one run."""

    #: fault spec to arm (see :mod:`repro.resilience.faults`).
    fault_spec: str | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    backoff_cap: float = 1.0
    #: watchdog deadline per kernel attempt (seconds; None = off).
    deadline: float | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    checkpoint_keep: int | None = 3
    #: graph epoch the run executes against — embedded in every
    #: snapshot; resuming across an epoch boundary raises
    #: :class:`~repro.errors.StaleEpochError` (DESIGN 4i).
    epoch: int = 0
    resume: bool = False
    #: None = guards off; else a :data:`GUARD_POLICIES` member.
    guard_policy: str | None = None
    max_rollbacks: int = 3
    #: scan kernel outputs for corruption (non-finite from finite).
    scan_outputs: bool = True

    def __post_init__(self) -> None:
        if (
            self.guard_policy is not None
            and self.guard_policy not in GUARD_POLICIES
        ):
            raise ResilienceError(
                f"unknown guard policy {self.guard_policy!r}; "
                f"expected one of {', '.join(GUARD_POLICIES)}"
            )


class ResilienceContext:
    """Everything one resilient run needs, built once and handed to
    ``engine.run(..., resilience=ctx)``.

    Arming a ``fault_spec`` installs the fault injector process-wide;
    use the context as a context manager (or call :meth:`close`) to
    disarm it afterwards.
    """

    def __init__(self, options: ResilienceOptions | None = None) -> None:
        self.options = options or ResilienceOptions()
        self.report = ResilienceReport()
        self.policy = RetryPolicy(
            max_retries=self.options.max_retries,
            backoff=self.options.retry_backoff,
            backoff_cap=self.options.backoff_cap,
            deadline=self.options.deadline,
        )
        self.injector = None
        if self.options.fault_spec:
            self.injector = install(
                parse_fault_spec(self.options.fault_spec)
            )

    def supervisor(
        self,
        holder,
        call: Callable,
        *,
        fingerprint: str = "",
        norm_limit: float | None = None,
        watch_stall: bool = True,
        guard_names: tuple | None = None,
    ) -> LoopSupervisor:
        """Build the per-run supervisor for one iteration loop."""
        return LoopSupervisor(
            self,
            holder,
            call,
            fingerprint=fingerprint,
            norm_limit=norm_limit,
            watch_stall=watch_stall,
            guard_names=guard_names,
        )

    def close(self) -> None:
        """Disarm a fault injector this context installed."""
        if self.injector is not None:
            from .faults import active, clear

            if active() is self.injector:
                clear()
            self.injector = None

    def __enter__(self) -> "ResilienceContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
