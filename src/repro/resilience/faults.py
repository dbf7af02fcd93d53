"""Deterministic fault injection for the execution runtime.

Every degradation path of the resilient runtime (retry, kernel
downgrade, checkpoint rollback) must be testable in CI, not just in
theory.  This module provides a seeded **fault registry**: a list of
:class:`FaultSpec` entries parsed from a compact text grammar
(``--fault-inject SPEC`` on the CLI, or the ``REPRO_FAULTS``
environment variable) that makes specific, reproducible failures fire
at well-defined injection points inside the kernels:

* ``crash`` — the Scatter of one reduce-plan partition
  (:class:`~repro.core.kernels.ReducePlan`) raises
  :class:`~repro.errors.InjectedFault` inside the thread pool;
* ``corrupt`` — one slot of the parallel kernel's message buffer is
  overwritten (NaN by default) between Scatter and Gather;
* ``stall`` — a partition's Scatter (``task=``) or a process-pool worker
  (``worker=``) sleeps past the dispatch watchdog's deadline;
* ``fail`` — a named kernel backend raises at dispatch time;
* ``kill`` — a ``parallel-mp`` pool worker hard-exits mid-dispatch
  (``os._exit``), exercising the process failure domain.

The serving layer adds three named sites (``site=`` field): ``crash``
and ``stall`` specs aimed at ``serve_admit`` (admission control) or
``serve_batch`` (batch execution) raise/sleep there, and ``crash`` /
``corrupt`` specs aimed at ``serve_store`` fail a store read or flip
bytes in a committed layout artifact (exercising the corruption
detector and its rebuild fallback).

The dynamic-update layer adds two more: ``crash``/``stall`` aimed at
``update_apply`` fire at the start of an epoch-apply attempt (before
any engine state mutates, so a retry sees a clean epoch), and
``crash``/``corrupt`` aimed at ``update_patch`` fail or vandalize a
freshly patched CSR before verification (exercising the
detect-and-fall-back-to-full-rebuild path).

Spec grammar (entries separated by ``;``, fields by ``,``)::

    crash:task=0,times=-1
    corrupt:slot=5,call=2
    stall:task=1,seconds=0.5
    fail:kernel=reduceat,times=-1
    kill:worker=0,times=1
    stall:worker=1,seconds=0.5
    crash:site=serve_batch,times=1
    corrupt:site=serve_store
    crash:site=update_apply,times=2
    corrupt:site=update_patch

Fields: ``task`` (partition index), ``worker`` (process-pool rank),
``kernel`` (backend name), ``site`` (named serve-layer site),
``slot`` (bins index), ``call`` (0-based invocation index of the
site; omitted = every call), ``times`` (max firings, ``-1`` =
unlimited, default 1), ``seconds`` (stall duration), ``value``
(corruption payload, default NaN).

Injection is **deterministic**: sites count their own invocations, so
the same spec against the same run fires at the same place every time.
Worker-scoped faults (``kill``/``stall:worker=``) are decided in the
*parent* process per (worker rank, dispatch index) and shipped to the
worker as a directive in its job message — the counters live in one
process, so drills replay bit-identically under ``parallel-mp`` and a
``times=`` budget is honoured even across pool restarts.  All hooks
are no-ops (one ``None`` check) when no registry is active.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

from ..errors import InjectedFault, ResilienceError

#: environment variable carrying a fault spec (same grammar as
#: ``--fault-inject``).
FAULTS_ENV = "REPRO_FAULTS"

#: recognised fault kinds.
FAULT_KINDS = ("crash", "corrupt", "stall", "fail", "kill")

#: named serve-layer injection sites a ``site=`` field may target.
SERVE_SITES = ("serve_admit", "serve_batch", "serve_store")

#: named update-layer injection sites a ``site=`` field may target.
UPDATE_SITES = ("update_apply", "update_patch")

#: every named site the grammar accepts.
NAMED_SITES = SERVE_SITES + UPDATE_SITES

_INT_FIELDS = ("task", "worker", "slot", "call", "times")
_FLOAT_FIELDS = ("seconds", "value")
_STR_FIELDS = ("kernel", "site")


@dataclass
class FaultSpec:
    """One deterministic fault: what fires, where, and how often."""

    kind: str
    task: int | None = None
    worker: int | None = None
    kernel: str | None = None
    site: str | None = None
    slot: int = 0
    call: int | None = None
    times: int = 1
    seconds: float = 0.25
    value: float = math.nan
    #: firings left (``-1`` = unlimited); decremented by the injector.
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.site is not None and self.site not in NAMED_SITES:
            raise ResilienceError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(NAMED_SITES)}"
            )
        if self.kind == "fail" and not self.kernel:
            raise ResilienceError(
                "fault kind 'fail' needs a kernel=<name> field"
            )
        if self.kind == "crash" and self.task is None and self.site is None:
            raise ResilienceError(
                "fault kind 'crash' needs a task=<index> or "
                "site=<name> field"
            )
        if self.kind == "kill" and self.worker is None:
            raise ResilienceError(
                "fault kind 'kill' needs a worker=<rank> field"
            )
        if (
            self.kind == "stall"
            and self.task is None
            and self.worker is None
            and self.site is None
        ):
            raise ResilienceError(
                "fault kind 'stall' needs a task=<index>, "
                "worker=<rank> or site=<name> field"
            )
        self.remaining = self.times


@dataclass(frozen=True)
class FiredFault:
    """Record of one fault firing (kept by the injector for reports)."""

    kind: str
    site: str
    call: int
    detail: str


class FaultInjector:
    """Holds armed :class:`FaultSpec` entries and the per-site call
    counters that make firing deterministic.  Thread-safe: Scatter
    tasks probe it concurrently from the pool."""

    def __init__(self, specs: list[FaultSpec] | tuple = ()) -> None:
        self.specs = list(specs)
        self.fired: list[FiredFault] = []
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._parallel_call = -1

    # ------------------------------------------------------------------ #
    # site counters
    # ------------------------------------------------------------------ #
    def _bump(self, site: str) -> int:
        with self._lock:
            call = self._counts.get(site, 0)
            self._counts[site] = call + 1
            return call

    def _take(self, spec: FaultSpec, call: int) -> bool:
        """True when ``spec`` fires at invocation ``call`` of its site
        (and consume one firing)."""
        with self._lock:
            if spec.remaining == 0:
                return False
            if spec.call is not None and spec.call != call:
                return False
            if spec.remaining > 0:
                spec.remaining -= 1
            return True

    def _record(self, kind: str, site: str, call: int, detail: str):
        with self._lock:
            self.fired.append(FiredFault(kind, site, call, detail))

    # ------------------------------------------------------------------ #
    # injection points (called from the kernels)
    # ------------------------------------------------------------------ #
    def kernel_call(self, kernel: str) -> None:
        """Dispatch-time hook: raise when a ``fail`` spec targets this
        backend at this invocation."""
        call = self._bump(f"kernel:{kernel}")
        for spec in self.specs:
            if spec.kind != "fail" or spec.kernel != kernel:
                continue
            if self._take(spec, call):
                detail = f"kernel {kernel!r} call {call}"
                self._record("fail", "kernel", call, detail)
                raise InjectedFault(
                    f"injected kernel failure: {detail}",
                    site="kernel",
                    call=call,
                )

    def parallel_call(self) -> int:
        """Start-of-parallel-dispatch hook: advances the invocation
        index the ``task``/``bins`` sites key off."""
        call = self._bump("parallel")
        with self._lock:
            self._parallel_call = call
        return call

    def task_event(self, task_index: int) -> None:
        """Partition Scatter hook: ``stall`` sleeps, ``crash`` raises."""
        with self._lock:
            call = self._parallel_call
        for spec in self.specs:
            if spec.kind == "stall" and spec.task == task_index:
                if self._take(spec, call):
                    self._record(
                        "stall",
                        "task",
                        call,
                        f"task {task_index} slept {spec.seconds}s",
                    )
                    time.sleep(spec.seconds)
            elif spec.kind == "crash" and spec.task == task_index:
                if self._take(spec, call):
                    detail = f"task {task_index} call {call}"
                    self._record("crash", "task", call, detail)
                    raise InjectedFault(
                        f"injected task crash: {detail}",
                        site="task",
                        call=call,
                    )

    def worker_directive(self, rank: int) -> dict | None:
        """Worker-scoped fault decision for one (dispatch, rank) pair.

        Called by the process-pool parent before shipping a job to pool
        worker ``rank``; returns the directive dict the worker obeys
        (``{"kill": True}`` and/or ``{"stall": seconds}``), or None.
        Deciding in the parent keeps the site counters in one process —
        deterministic replay, and ``times=`` budgets that survive pool
        restarts (a killed pool is rebuilt with fresh workers, but the
        spec's remaining count lives here).
        """
        call = self._bump(f"worker:{rank}")
        directive: dict = {}
        for spec in self.specs:
            if spec.worker != rank:
                continue
            if spec.kind == "stall" and self._take(spec, call):
                directive["stall"] = spec.seconds
                self._record(
                    "stall",
                    "worker",
                    call,
                    f"worker {rank} sleeping {spec.seconds}s",
                )
            elif spec.kind == "kill" and self._take(spec, call):
                directive["kill"] = True
                self._record(
                    "kill",
                    "worker",
                    call,
                    f"worker {rank} hard-exits",
                )
        return directive or None

    def serve_admit(self) -> None:
        """Admission-control hook: probed by the query server before a
        request enters the bounded queue (``site=serve_admit`` specs:
        ``crash`` raises, ``stall`` sleeps)."""
        self._serve_event("serve_admit")

    def serve_batch(self) -> None:
        """Batch-execution hook: probed at the start of every batch
        attempt, so a ``crash:site=serve_batch`` fails the attempt and
        forces the server down the degradation ladder."""
        self._serve_event("serve_batch")

    def _serve_event(self, site: str) -> None:
        call = self._bump(site)
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.kind == "stall" and self._take(spec, call):
                self._record(
                    "stall",
                    site,
                    call,
                    f"{site} slept {spec.seconds}s",
                )
                time.sleep(spec.seconds)
            elif spec.kind == "crash" and self._take(spec, call):
                detail = f"{site} call {call}"
                self._record("crash", site, call, detail)
                raise InjectedFault(
                    f"injected serve crash: {detail}",
                    site=site,
                    call=call,
                )

    def serve_store(self) -> dict | None:
        """Layout-store read hook (mirrors :meth:`worker_directive`):
        returns the directive the store obeys — ``{"corrupt": payload}``
        makes it flip bytes in a committed artifact before reading it
        back (exercising real corruption detection); ``crash`` raises.
        """
        call = self._bump("serve_store")
        directive: dict = {}
        for spec in self.specs:
            if spec.site != "serve_store":
                continue
            if spec.kind == "corrupt" and self._take(spec, call):
                directive["corrupt"] = spec.value
                self._record(
                    "corrupt",
                    "serve_store",
                    call,
                    "artifact bytes flipped on disk",
                )
            elif spec.kind == "crash" and self._take(spec, call):
                detail = f"serve_store call {call}"
                self._record("crash", "serve_store", call, detail)
                raise InjectedFault(
                    f"injected store crash: {detail}",
                    site="serve_store",
                    call=call,
                )
        return directive or None

    def update_apply(self) -> None:
        """Epoch-apply hook: probed at the start of every
        :meth:`~repro.core.epoch.EpochEngine.apply` attempt, before any
        engine state mutates (``site=update_apply`` specs: ``crash``
        raises — the epoch stays clean and a retry succeeds — and
        ``stall`` sleeps)."""
        call = self._bump("update_apply")
        for spec in self.specs:
            if spec.site != "update_apply":
                continue
            if spec.kind == "stall" and self._take(spec, call):
                self._record(
                    "stall",
                    "update_apply",
                    call,
                    f"update_apply slept {spec.seconds}s",
                )
                time.sleep(spec.seconds)
            elif spec.kind == "crash" and self._take(spec, call):
                detail = f"update_apply call {call}"
                self._record("crash", "update_apply", call, detail)
                raise InjectedFault(
                    f"injected update crash: {detail}",
                    site="update_apply",
                    call=call,
                )

    def update_patch(self) -> dict | None:
        """CSR-patch hook (mirrors :meth:`serve_store`): returns the
        directive the incremental patcher obeys —
        ``{"corrupt": payload}`` vandalizes a freshly patched index
        array *before* verification, exercising the corruption detector
        and its fall-back-to-full-rebuild path; ``crash`` raises."""
        call = self._bump("update_patch")
        directive: dict = {}
        for spec in self.specs:
            if spec.site != "update_patch":
                continue
            if spec.kind == "corrupt" and self._take(spec, call):
                directive["corrupt"] = spec.value
                self._record(
                    "corrupt",
                    "update_patch",
                    call,
                    "patched indices vandalized before verification",
                )
            elif spec.kind == "crash" and self._take(spec, call):
                detail = f"update_patch call {call}"
                self._record("crash", "update_patch", call, detail)
                raise InjectedFault(
                    f"injected patch crash: {detail}",
                    site="update_patch",
                    call=call,
                )
        return directive or None

    def corrupt_bins(self, bins) -> None:
        """Post-Scatter hook: overwrite armed bins slots in place."""
        if bins.shape[0] == 0:
            return
        with self._lock:
            call = self._parallel_call
        for spec in self.specs:
            # site-scoped corruption belongs to serve_store, not bins
            if spec.kind != "corrupt" or spec.site is not None:
                continue
            if self._take(spec, call):
                slot = spec.slot % bins.shape[0]
                bins[slot] = spec.value
                self._record(
                    "corrupt",
                    "bins",
                    call,
                    f"bins[{slot}] <- {spec.value!r}",
                )


# --------------------------------------------------------------------- #
# spec parsing
# --------------------------------------------------------------------- #
def parse_fault_spec(text: str) -> FaultInjector:
    """Parse the ``--fault-inject`` / ``REPRO_FAULTS`` grammar into an
    armed :class:`FaultInjector`."""
    specs = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        kind, _, rest = entry.partition(":")
        kind = kind.strip()
        fields: dict = {}
        for pair in rest.split(",") if rest.strip() else []:
            key, sep, value = pair.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ResilienceError(
                    f"bad fault field {pair!r} in {entry!r}; "
                    "expected key=value"
                )
            fields[key] = _convert_field(key, value, entry)
        specs.append(FaultSpec(kind, **fields))
    if not specs:
        raise ResilienceError(f"empty fault spec {text!r}")
    return FaultInjector(specs)


def _convert_field(key: str, value: str, entry: str):
    try:
        if key in _INT_FIELDS:
            return int(value)
        if key in _FLOAT_FIELDS:
            return float(value)
        if key in _STR_FIELDS:
            return value
    except ValueError as exc:
        raise ResilienceError(
            f"bad value for {key!r} in fault entry {entry!r}: {exc}"
        ) from None
    known = ", ".join((*_INT_FIELDS, *_FLOAT_FIELDS, *_STR_FIELDS))
    raise ResilienceError(
        f"unknown fault field {key!r} in {entry!r}; "
        f"expected one of {known}"
    )


# --------------------------------------------------------------------- #
# activation
# --------------------------------------------------------------------- #
_ACTIVE: FaultInjector | None = None
_ENV_CACHE: tuple[str, FaultInjector] | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Arm ``injector`` process-wide (replacing any previous one)."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def clear() -> None:
    """Disarm fault injection (env specs re-arm on next :func:`active`)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = None


def active() -> FaultInjector | None:
    """The armed injector, if any.

    An explicitly installed injector wins; otherwise a non-empty
    ``REPRO_FAULTS`` arms one lazily (parsed once per distinct value).
    """
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(FAULTS_ENV, "").strip()
    if not text:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != text:
        _ENV_CACHE = (text, parse_fault_spec(text))
    return _ENV_CACHE[1]
