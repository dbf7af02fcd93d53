"""Asyncio query server over one prepared Mixen engine.

Robustness model (the PR 3–7 resilience machinery, held continuously):

* **admission control** — a bounded queue; a full queue sheds the
  request with a typed :class:`~repro.errors.ServerOverload` instead of
  growing memory (the ``serve_admit`` fault site injects rejections);
* **batching window** — the first queued request opens a window of
  ``ServeConfig.window`` seconds (capped at ``max_batch`` requests);
  the batch runs as ONE rank-K propagation on the certified kernels;
* **deadlines** — requests whose deadline passes while queued are
  answered with :class:`~repro.errors.DeadlineExpired`; each batch
  *attempt* runs under the :class:`~repro.resilience.retry.RetryPolicy`
  watchdog (``call_with_deadline``), so a stalled kernel surfaces as a
  :class:`~repro.errors.StallError` instead of wedging the queue;
* **degradation ladder** — a failed or stalled attempt steps the batch
  down ``parallel-mp -> parallel -> reduceat -> bincount`` from the
  configured kernel (``auto`` serves from ``reduceat``) and restarts
  it from iteration 0 (never mid-run: a completed batch is always a
  single-rung run, which is what keeps every response bit-identical to
  a fault-free offline run — see
  :data:`~repro.serve.batcher.REFERENCE_KERNELS`);
* **circuit breaker** — ``breaker_threshold`` consecutive troubled
  batches pin the server at the last rung that completed, surfaced in
  :meth:`MixenServer.health`; until then every batch optimistically
  retries the configured kernel;
* **update stream** (DESIGN 4i) — :meth:`MixenServer.submit_update`
  rides the same admission queue as queries, so an
  :class:`~repro.graphs.updates.UpdateBatch` lands *between* batching
  windows: an update arriving mid-window closes the window, the
  collected queries execute at the pre-update epoch, and only then does
  the fault-probed :func:`~repro.core.epoch.checked_apply` commit the
  batch, advance the epoch and swap in an engine freshly prepared in
  memory on the updated graph.  Epochs live in memory only: the layout
  store is a boot cache (a restarted server boots its configured graph
  at epoch 0), so post-update layouts are never written to it.
  In-flight queries are never dropped and every
  :class:`~repro.serve.batcher.QueryResult` carries the epoch it was
  computed at.  A crashed apply (``crash:site=update_apply``) is
  transactional — the serving graph, engine and epoch are untouched —
  and a corrupted patch (``corrupt:site=update_patch``) falls back to
  the from-scratch rebuild, so a faulted update can never change a
  served score.

Everything observable lands in a structured :class:`ServeReport`
(admission, batch and downgrade counters, the rungs that served, a
bounded window of request latencies, breaker state), so a long-running
server holds bounded memory.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.kernels import resolve_kernel
from ..errors import (
    DeadlineExpired,
    ReproError,
    ServeError,
    ServerOverload,
    UpdateError,
)
from ..graphs.updates import UpdateBatch
from ..parallel.threadpool import call_with_deadline
from ..resilience import faults
from ..resilience.executor import DEGRADATION_CHAIN, next_backend
from ..resilience.retry import RetryPolicy
from .batcher import (
    BatchedPersonalizedPageRank,
    QueryRequest,
    QueryResult,
    normalize_sources,
    split_expired,
)
from .store import BootReport


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance."""

    #: batching window in seconds, measured from the first queued
    #: request; 0 serves each request alone.
    window: float = 0.02
    #: rank cap of one propagation (requests per batch).
    max_batch: int = 8
    #: admission-queue capacity; beyond it requests are shed.
    max_queue: int = 64
    #: per-request deadline in seconds (None = no deadline).
    deadline: float | None = None
    #: fixed PPR iteration budget (convergence checks are off: the
    #: response must not depend on batch composition).
    iterations: int = 20
    damping: float = 0.85
    #: retry/backoff/watchdog policy of batch attempts; its ``deadline``
    #: is the per-attempt watchdog, its jittered delays pace the ladder.
    retry: RetryPolicy = RetryPolicy(
        max_retries=0, backoff=0.0, deadline=None
    )
    #: consecutive troubled batches before the breaker pins the rung.
    breaker_threshold: int = 2

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ServeError(f"window must be >= 0, got {self.window}")
        if self.max_batch <= 0:
            raise ServeError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        if self.max_queue <= 0:
            raise ServeError(
                f"max_queue must be positive, got {self.max_queue}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ServeError(
                f"deadline must be positive, got {self.deadline}"
            )
        if self.iterations <= 0:
            raise ServeError(
                f"iterations must be positive, got {self.iterations}"
            )
        if self.breaker_threshold <= 0:
            raise ServeError(
                "breaker_threshold must be positive, got "
                f"{self.breaker_threshold}"
            )


#: request latencies a :class:`ServeReport` keeps for its quantiles:
#: the most recent ones, so the report's memory stays bounded however
#: long the server runs.
LATENCY_WINDOW = 4096


@dataclass
class ServeReport:
    """Structured observability of one serve session.

    Every field is a counter or a bounded container: batches and
    downgrades are counted, not listed, and latency quantiles cover the
    last :data:`LATENCY_WINDOW` completed requests.
    """

    fingerprint: str = ""
    store_hit: bool = False
    store_rebuilt: bool = False
    boot_seconds: float = 0.0
    admitted: int = 0
    completed: int = 0
    rejected_overload: int = 0
    rejected_deadline: int = 0
    failed: int = 0
    #: executed batches, failed ones included.
    batches: int = 0
    #: requests those batches carried (the occupancy numerator).
    batched_requests: int = 0
    #: batches that exhausted the degradation ladder.
    failed_batches: int = 0
    #: rungs that completed at least one batch.
    batch_kernels: set[str] = field(default_factory=set)
    #: ladder steps taken across all batch attempts.
    downgrades: int = 0
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    pinned_kernel: str | None = None
    #: update batches committed (each advances the epoch by one).
    updates_applied: int = 0
    #: updates whose incremental patch failed verification and landed
    #: through the from-scratch rebuild path instead.
    update_fallbacks: int = 0
    #: updates rejected with a typed error (state untouched).
    update_errors: int = 0
    #: graph epoch at the end of the session.
    epoch: int = 0

    def record_reply(self, latency: float) -> None:
        """Count one completed request and keep its latency in the
        window."""
        self.completed += 1
        self.latencies.append(latency)

    def occupancy(self) -> float:
        """Mean requests per executed batch (the amortization win)."""
        if not self.batches:
            return 0.0
        return self.batched_requests / self.batches

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(
            int(q * len(ordered)), len(ordered) - 1
        )
        return ordered[index]

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "store_hit": self.store_hit,
            "store_rebuilt": self.store_rebuilt,
            "boot_seconds": self.boot_seconds,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected_overload": self.rejected_overload,
            "rejected_deadline": self.rejected_deadline,
            "failed": self.failed,
            "batches": self.batches,
            "batch_occupancy": self.occupancy(),
            "batch_kernels": sorted(self.batch_kernels),
            "downgrades": self.downgrades,
            "pinned_kernel": self.pinned_kernel,
            "latency_p50": self.latency_quantile(0.5),
            "latency_p95": self.latency_quantile(0.95),
            "updates_applied": self.updates_applied,
            "update_fallbacks": self.update_fallbacks,
            "update_errors": self.update_errors,
            "epoch": self.epoch,
        }

    def render(self) -> str:
        lines = [
            "serve report:",
            (
                f"  boot: {'hit' if self.store_hit else 'miss'}"
                f"{' (rebuilt)' if self.store_rebuilt else ''} "
                f"in {self.boot_seconds:.3f}s "
                f"[{self.fingerprint[:12]}...]"
            ),
            (
                f"  requests: {self.admitted} admitted, "
                f"{self.completed} completed, "
                f"{self.rejected_overload} shed (overload), "
                f"{self.rejected_deadline} expired (deadline), "
                f"{self.failed} failed"
            ),
            (
                f"  batches: {self.batches} "
                f"(occupancy {self.occupancy():.2f}), "
                f"{self.downgrades} downgrades, "
                f"breaker {self.pinned_kernel or 'open'}"
            ),
        ]
        if self.updates_applied or self.update_errors:
            lines.append(
                f"  updates: {self.updates_applied} applied "
                f"({self.update_fallbacks} fell back to rebuild), "
                f"{self.update_errors} rejected, "
                f"epoch {self.epoch}"
            )
        if self.latencies:
            lines.append(
                f"  latency: p50 {self.latency_quantile(0.5) * 1e3:.1f}ms "
                f"p95 {self.latency_quantile(0.95) * 1e3:.1f}ms"
            )
        return "\n".join(lines)


@dataclass
class _UpdateTicket:
    """One queued update batch waiting for the current window to end."""

    batch: UpdateBatch
    #: resolved with an apply summary dict (or a typed UpdateError).
    future: Any = field(default=None, repr=False)


class MixenServer:
    """Batched PPR serving over one prepared engine.

    One consumer task drains the admission queue; batches execute on a
    worker thread (``asyncio.to_thread``) so the event loop keeps
    admitting and shedding while a propagation runs.  Update batches
    ride the same queue (see the module docstring): they commit between
    batching windows, advance :attr:`epoch`, and swap the serving
    engine for one prepared in memory on the updated graph.
    """

    def __init__(
        self,
        engine,
        *,
        config: ServeConfig | None = None,
        boot: BootReport | None = None,
    ) -> None:
        if not getattr(engine, "prepared", False):
            raise ServeError("MixenServer needs a prepared engine")
        self.engine = engine
        self.graph = engine.graph
        self.epoch = 0
        self.config = config or ServeConfig()
        self.report = ServeReport()
        if boot is not None:
            self.report.fingerprint = boot.fingerprint
            self.report.store_hit = boot.hit
            self.report.store_rebuilt = boot.rebuilt
            self.report.boot_seconds = boot.seconds
        self._base_kernel = resolve_kernel(engine.kernel)
        self._pinned: str | None = None
        self._consecutive_trouble = 0
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._next_request = 0
        self._next_batch = 0
        self._stop = object()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        if self._task is not None:
            raise ServeError("server already started")
        self._queue = asyncio.Queue()
        self._task = asyncio.create_task(self._batch_loop())

    async def stop(self) -> None:
        """Drain-stop: queued requests are still served, then the
        consumer exits."""
        if self._task is None:
            return
        assert self._queue is not None
        self._queue.put_nowait(self._stop)
        await self._task
        self._task = None
        self._queue = None

    @property
    def running(self) -> bool:
        return self._task is not None

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    async def submit(self, sources) -> QueryResult:
        """Admit one PPR request and await its response.

        Raises :class:`ServerOverload` when the queue is full (or the
        ``serve_admit`` fault site sheds it) and
        :class:`DeadlineExpired` when the configured deadline passes
        before a batch serves it.
        """
        if self._queue is None:
            raise ServeError("server is not running")
        sources = normalize_sources(sources)
        depth = self._queue.qsize()
        injector = faults.active()
        if injector is not None:
            try:
                injector.serve_admit()
            except Exception as exc:
                self.report.rejected_overload += 1
                raise ServerOverload(
                    f"admission shed by fault injection: {exc}",
                    depth=depth,
                    capacity=self.config.max_queue,
                ) from exc
        if depth >= self.config.max_queue:
            self.report.rejected_overload += 1
            raise ServerOverload(
                f"admission queue full ({depth}/{self.config.max_queue})",
                depth=depth,
                capacity=self.config.max_queue,
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline = (
            None
            if self.config.deadline is None
            else now + self.config.deadline
        )
        request = QueryRequest(
            request_id=self._next_request,
            sources=sources,
            enqueued=now,
            deadline=deadline,
            future=loop.create_future(),
        )
        self._next_request += 1
        self.report.admitted += 1
        self._queue.put_nowait(request)
        return await request.future

    async def submit_update(self, batch: UpdateBatch) -> dict:
        """Enqueue one edge-update batch and await its commit summary.

        The batch applies between batching windows — queries already
        collected finish at the pre-update epoch first.  Updates are
        control-plane traffic: they bypass overload shedding and the
        per-request deadline.  Raises :class:`UpdateError` (typed, exit
        code 12) when the apply fails; a failed apply leaves the
        serving graph, engine and epoch untouched.
        """
        if self._queue is None:
            raise ServeError("server is not running")
        if not isinstance(batch, UpdateBatch):
            raise UpdateError(
                f"submit_update needs an UpdateBatch, got {type(batch)!r}"
            )
        loop = asyncio.get_running_loop()
        ticket = _UpdateTicket(batch=batch, future=loop.create_future())
        self._queue.put_nowait(ticket)
        return await ticket.future

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Readiness + breaker state for probes."""
        return {
            "ready": self.running,
            "epoch": self.epoch,
            "updates_applied": self.report.updates_applied,
            "store_hit": self.report.store_hit,
            "queue_depth": (
                self._queue.qsize() if self._queue is not None else 0
            ),
            "queue_capacity": self.config.max_queue,
            "kernel": self._current_rung(),
            "pinned_kernel": self._pinned,
            "consecutive_trouble": self._consecutive_trouble,
            "admitted": self.report.admitted,
            "completed": self.report.completed,
            "failed": self.report.failed,
        }

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #
    def _current_rung(self) -> str:
        return self._pinned or self._base_kernel

    async def _batch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is self._stop:
                break
            if isinstance(first, _UpdateTicket):
                # no window open: the update commits immediately
                await self._apply_update(first)
                continue
            batch = [first]
            pending_update: _UpdateTicket | None = None
            window_end = loop.time() + self.config.window
            while len(batch) < self.config.max_batch:
                remaining = window_end - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(
                        self._queue.get(), remaining
                    )
                except asyncio.TimeoutError:
                    break
                if item is self._stop:
                    stopping = True
                    break
                if isinstance(item, _UpdateTicket):
                    # close the window: the collected queries execute
                    # at the pre-update epoch, then the update commits
                    pending_update = item
                    break
                batch.append(item)
            await self._execute(batch, loop)
            if pending_update is not None:
                await self._apply_update(pending_update)

    async def _apply_update(self, ticket: _UpdateTicket) -> None:
        """Commit one update batch and swap in an engine for the new
        epoch.  Runs off-loop; the swap itself is atomic from the batch
        loop's perspective (no batch executes concurrently), and any
        failure leaves graph/engine/epoch exactly as they were."""
        try:
            graph, engine, fell_back = await asyncio.to_thread(
                self._rebuild_for, ticket.batch
            )
        except ReproError as exc:
            self.report.update_errors += 1
            ticket.future.set_exception(exc)
            return
        except Exception as exc:  # noqa: BLE001 - typed surface
            self.report.update_errors += 1
            ticket.future.set_exception(
                UpdateError(f"update apply failed: {exc!r}")
            )
            return
        self.graph = graph
        self.engine = engine
        self.epoch += 1
        self.report.updates_applied += 1
        self.report.epoch = self.epoch
        if fell_back:
            self.report.update_fallbacks += 1
        ticket.future.set_result(
            {
                "epoch": self.epoch,
                "fell_back": fell_back,
                "inserts": ticket.batch.num_inserts,
                "deletes": ticket.batch.num_deletes,
            }
        )

    def _rebuild_for(self, batch: UpdateBatch):
        """Worker-thread body of one update: fault-probed patch, then a
        prepared engine on the updated graph at the next epoch."""
        from ..core.engine import MixenEngine
        from ..core.epoch import checked_apply

        new_graph, fell_back = checked_apply(self.graph, batch)
        engine = MixenEngine(
            new_graph,
            kernel=self._base_kernel,
            block_nodes=self.engine.block_nodes,
            max_workers=self.engine.max_workers,
        )
        engine.prepare()
        _stamp_epoch(engine, self.epoch + 1)
        return new_graph, engine, fell_back

    async def _execute(self, batch: list, loop) -> None:
        ready, expired = split_expired(batch, loop.time())
        for request in expired:
            self.report.rejected_deadline += 1
            waited = loop.time() - request.enqueued
            request.future.set_exception(
                DeadlineExpired(
                    f"request {request.request_id} expired after "
                    f"{waited:.3f}s in queue",
                    waited=waited,
                )
            )
        if not ready:
            return
        batch_id = self._next_batch
        self._next_batch += 1
        epoch = self.epoch
        self.report.batches += 1
        self.report.batched_requests += len(ready)
        try:
            result, rung, downgrades = await asyncio.to_thread(
                self._run_batch, batch_id, ready
            )
        except ServeError as exc:
            self.report.failed += len(ready)
            self.report.failed_batches += 1
            self._note_trouble(DEGRADATION_CHAIN[-1])
            for request in ready:
                request.future.set_exception(
                    ServeError(
                        f"batch {batch_id} exhausted the degradation "
                        f"ladder: {exc}"
                    )
                )
            return
        self.report.batch_kernels.add(rung)
        if downgrades:
            self._note_trouble(rung)
        else:
            self._consecutive_trouble = 0
        now = loop.time()
        scores = result.scores
        for column, request in enumerate(ready):
            latency = now - request.enqueued
            self.report.record_reply(latency)
            request.future.set_result(
                QueryResult(
                    request_id=request.request_id,
                    scores=np.ascontiguousarray(scores[:, column]),
                    kernel=rung,
                    iterations=result.iterations,
                    batch_id=batch_id,
                    batch_size=len(ready),
                    latency=latency,
                    epoch=epoch,
                )
            )

    def _note_trouble(self, rung: str) -> None:
        self._consecutive_trouble += 1
        if (
            self._pinned is None
            and self._consecutive_trouble >= self.config.breaker_threshold
        ):
            self._pinned = rung
            self.report.pinned_kernel = rung

    def _run_batch(self, batch_id: int, ready: list):
        """Worker-thread body: run one rank-K propagation, walking the
        ladder on failure.  Every attempt restarts from iteration 0, so
        a completed batch is a single-rung run (the bit-identity
        invariant).  Returns ``(result, rung, downgrade_count)``."""
        algorithm = BatchedPersonalizedPageRank(
            [request.sources for request in ready],
            damping=self.config.damping,
        )
        policy = self.config.retry
        rung: str | None = self._current_rung()
        attempt = 0
        downgrades = 0
        while True:
            assert rung is not None
            self.engine.kernel = rung
            try:
                injector = faults.active()
                if injector is not None:
                    injector.serve_batch()
                return (
                    call_with_deadline(
                        lambda: self.engine.run(
                            algorithm,
                            max_iterations=self.config.iterations,
                            check_convergence=False,
                        ),
                        policy.deadline,
                    ),
                    rung,
                    downgrades,
                )
            except Exception as exc:
                lower = next_backend(rung)
                self.report.downgrades += 1
                if lower is None:
                    raise ServeError(
                        f"batch {batch_id} failed on the serial floor: "
                        f"{exc!r}"
                    ) from exc
                rung = lower
                downgrades += 1
                attempt += 1
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)


def _stamp_epoch(engine, epoch: int) -> None:
    """Re-key the engine's layout certificate to the served epoch so
    its content-addressed id vouches for exactly this edge-set
    version (a stale-epoch certificate id can never match)."""
    from dataclasses import replace

    cert = getattr(engine, "certificate", None)
    if cert is not None:
        engine.certificate = replace(cert, epoch=int(epoch))
