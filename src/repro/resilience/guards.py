"""Numerical-health guards for the iterative algorithms.

Per iteration the guard scans the evolving state vector for the
failure modes that silently poison long link-analysis runs:

* **nan / inf** — a corrupted message or a division blow-up propagates
  non-finite values through every subsequent SpMV;
* **overflow** — finite but absurd magnitudes (``|x| > max_value``),
  the precursor of inf;
* **divergence** — the L1 norm grows past the algorithm's healthy
  bound (:meth:`repro.algorithms.base.Algorithm.norm_limit`) or a
  large multiple of its starting norm (PageRank mass is conserved;
  HITS/SALSA are normalized — growth means the update is wrong);
* **stall** — the per-iteration delta stops changing while convergence
  checking is on (an oscillating, never-converging run).

What happens next is the configurable **policy**:

* ``raise`` — abort with a structured :class:`~repro.errors.GuardError`;
* ``clamp`` — repair in place (NaN -> 0, +-inf / overflow -> clipped to
  ``+-max_value``), emit a :class:`RuntimeWarning`, keep going;
* ``rollback`` — signal the runtime to restore the last known-good
  state (checkpoint) and re-run on a downgraded kernel.

Divergence and stall cannot be repaired by clamping; under non-raise
policies they are recorded in the report (stall) or escalated to the
rollback path (divergence under ``rollback``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import GuardError, ResilienceError
from .report import GuardEvent, ResilienceReport

#: accepted guard policies.
GUARD_POLICIES = ("raise", "clamp", "rollback")


@dataclass
class GuardVerdict:
    """Outcome of one per-iteration health check."""

    x: np.ndarray
    #: ok / clamped / rollback
    action: str


class NumericalGuard:
    """Per-run health scanner with a configurable failure policy.

    Parameters
    ----------
    policy:
        ``raise``, ``clamp`` or ``rollback`` (see module docstring).
    max_value:
        Overflow threshold (and clamping magnitude).
    norm_limit:
        Algorithm-declared healthy L1-norm bound (None = none).
    diverge_factor:
        Fallback divergence bound: norm growth beyond this multiple of
        the first iteration's norm.
    stall_patience:
        Consecutive iterations with a bit-identical nonzero delta
        before a stall is reported.
    watch_stall:
        Enable the stall detector (off for fixed-iteration runs, where
        never converging is the workload, not a failure).
    name:
        Label prefixed to event details — identifies which array of a
        multi-array state bundle tripped (empty for single-vector runs,
        keeping their messages unchanged).
    """

    def __init__(
        self,
        policy: str = "raise",
        *,
        max_value: float = 1e30,
        norm_limit: float | None = None,
        diverge_factor: float = 1e6,
        stall_patience: int = 5,
        watch_stall: bool = True,
        report: ResilienceReport | None = None,
        name: str = "",
    ) -> None:
        if policy not in GUARD_POLICIES:
            raise ResilienceError(
                f"unknown guard policy {policy!r}; "
                f"expected one of {', '.join(GUARD_POLICIES)}"
            )
        if max_value <= 0:
            raise ResilienceError(
                f"max_value must be positive, got {max_value}"
            )
        if stall_patience <= 0:
            raise ResilienceError(
                f"stall_patience must be positive, got {stall_patience}"
            )
        self.policy = policy
        self.max_value = max_value
        self.norm_limit = norm_limit
        self.diverge_factor = diverge_factor
        self.stall_patience = stall_patience
        self.watch_stall = watch_stall
        self.report = report
        self.name = name
        self._baseline_norm: float | None = None
        self._last_delta: float | None = None
        self._stall_run = 0

    # ------------------------------------------------------------------ #
    def check(
        self, x_old: np.ndarray, x_new: np.ndarray, iteration: int
    ) -> GuardVerdict:
        """Scan the post-apply state of ``iteration``.

        Returns the (possibly repaired) state plus the action taken;
        raises :class:`GuardError` under the ``raise`` policy.
        """
        finite = np.isfinite(x_new)
        if not finite.all():
            nan_count = int(np.isnan(x_new).sum())
            inf_count = int(x_new.size - finite.sum()) - nan_count
            kind = "nan" if nan_count else "inf"
            detail = (
                f"{nan_count} NaN, {inf_count} Inf of {x_new.size} values"
            )
            return self._act(kind, detail, x_new, iteration)
        overflow = np.abs(x_new) > self.max_value
        if overflow.any():
            detail = (
                f"{int(overflow.sum())} values beyond +-{self.max_value:g}"
            )
            return self._act("overflow", detail, x_new, iteration)

        norm = float(np.abs(x_new).sum())
        if self._baseline_norm is None:
            self._baseline_norm = max(norm, np.finfo(np.float64).tiny)
        limit = self.norm_limit
        diverged = (limit is not None and norm > limit) or (
            norm > self.diverge_factor * self._baseline_norm
        )
        if diverged:
            bound = limit if (limit is not None and norm > limit) else (
                self.diverge_factor * self._baseline_norm
            )
            detail = f"L1 norm {norm:g} exceeds healthy bound {bound:g}"
            return self._act("divergence", detail, x_new, iteration)

        if self.watch_stall:
            delta = float(np.abs(x_new - x_old).sum())
            if delta > 0 and delta == self._last_delta:
                self._stall_run += 1
            else:
                self._stall_run = 0
            self._last_delta = delta
            if self._stall_run >= self.stall_patience:
                self._stall_run = 0
                detail = (
                    f"delta {delta:g} unchanged for "
                    f"{self.stall_patience} iterations"
                )
                if self.policy == "raise":
                    return self._act("stall", detail, x_new, iteration)
                # A stall cannot be repaired; record and continue.
                if self.name:
                    detail = f"{self.name}: {detail}"
                self._record("stall", "recorded", detail, iteration)
        return GuardVerdict(x_new, "ok")

    # ------------------------------------------------------------------ #
    def _act(
        self, kind: str, detail: str, x: np.ndarray, iteration: int
    ) -> GuardVerdict:
        if self.name:
            detail = f"{self.name}: {detail}"
        if self.policy == "raise":
            self._record(kind, "raised", detail, iteration)
            raise GuardError(
                f"numerical-health guard tripped at iteration "
                f"{iteration}: {kind} ({detail})",
                kind=kind,
                iteration=iteration,
            )
        if self.policy == "rollback":
            self._record(kind, "rollback", detail, iteration)
            return GuardVerdict(x, "rollback")
        # clamp: repair what is repairable, warn, continue.
        if kind in ("nan", "inf", "overflow"):
            repaired = np.nan_to_num(
                x, nan=0.0, posinf=self.max_value, neginf=-self.max_value
            )
            np.clip(repaired, -self.max_value, self.max_value, out=repaired)
            self._record(kind, "clamped", detail, iteration)
            warnings.warn(
                f"guard clamped {kind} at iteration {iteration}: {detail}",
                RuntimeWarning,
                stacklevel=3,
            )
            return GuardVerdict(repaired, "clamped")
        # divergence under clamp: nothing local to repair; record + warn.
        self._record(kind, "recorded", detail, iteration)
        warnings.warn(
            f"guard detected {kind} at iteration {iteration}: {detail}",
            RuntimeWarning,
            stacklevel=3,
        )
        return GuardVerdict(x, "ok")

    def _record(
        self, kind: str, action: str, detail: str, iteration: int
    ) -> None:
        if self.report is not None:
            self.report.guard_events.append(
                GuardEvent(iteration, kind, action, detail)
            )


@dataclass
class BundleVerdict:
    """Outcome of one multi-array health check."""

    #: name -> (possibly repaired) array.
    state: dict
    #: ok / clamped / rollback
    action: str


class BundleGuard:
    """Numerical-health guard over a named state bundle.

    One :class:`NumericalGuard` per guarded array (each keeps its own
    norm baseline and stall history — the authority and hub vectors of
    HITS evolve on different scales).  A ``rollback`` verdict on *any*
    array rolls back the whole bundle: the arrays are coupled, so a
    partial restore would mix iterations.

    ``guard_names`` selects which arrays are policed (``None`` = every
    floating-point array); non-float arrays (BFS levels, frontier
    masks) are always skipped — their health is structural, not
    numerical.  Single-array bundles keep unlabelled event details, so
    the classic ``{"x": ...}`` runs report exactly as before.
    """

    def __init__(
        self,
        policy: str = "raise",
        *,
        max_value: float = 1e30,
        norm_limit: float | None = None,
        diverge_factor: float = 1e6,
        stall_patience: int = 5,
        watch_stall: bool = True,
        report: ResilienceReport | None = None,
        guard_names: tuple | None = None,
    ) -> None:
        if policy not in GUARD_POLICIES:
            raise ResilienceError(
                f"unknown guard policy {policy!r}; "
                f"expected one of {', '.join(GUARD_POLICIES)}"
            )
        self.policy = policy
        self.guard_names = (
            None if guard_names is None else tuple(guard_names)
        )
        self._options = dict(
            max_value=max_value,
            norm_limit=norm_limit,
            diverge_factor=diverge_factor,
            stall_patience=stall_patience,
            watch_stall=watch_stall,
            report=report,
        )
        self._guards: dict = {}

    def _watched(self, name: str, array: np.ndarray) -> bool:
        if not np.issubdtype(array.dtype, np.floating):
            return False
        return self.guard_names is None or name in self.guard_names

    def _guard_for(self, name: str, label: str) -> NumericalGuard:
        guard = self._guards.get(name)
        if guard is None:
            guard = NumericalGuard(
                self.policy, name=label, **self._options
            )
            self._guards[name] = guard
        return guard

    def check(self, old, new, iteration: int) -> BundleVerdict:
        """Scan every guarded array of the post-step bundle ``new``.

        ``old``/``new`` are name->array mappings sharing the same
        names.  Raises :class:`~repro.errors.GuardError` under the
        ``raise`` policy, exactly like the scalar guard.
        """
        labelled = (
            sum(self._watched(n, np.asarray(new[n])) for n in new) > 1
        )
        checked: dict = {}
        action = "ok"
        for name in new:
            array = np.asarray(new[name])
            if not self._watched(name, array):
                checked[name] = array
                continue
            guard = self._guard_for(name, name if labelled else "")
            verdict = guard.check(
                np.asarray(old[name]), array, iteration
            )
            if verdict.action == "rollback":
                return BundleVerdict(dict(new), "rollback")
            if verdict.action == "clamped":
                action = "clamped"
            checked[name] = verdict.x
        return BundleVerdict(checked, action)
