"""Deterministic chaos drills for the serving layer.

One drill = boot through the layout store, fire a seeded synthetic
workload at a :class:`~repro.serve.server.MixenServer` (optionally with
a fault spec armed — injected batch crashes, store corruption, shed
admissions), then check **every completed response bitwise** against a
fault-free offline :class:`~repro.core.engine.MixenEngine` run of the
rank-1 reference kernel (:data:`~repro.serve.batcher.REFERENCE_KERNELS`).
The workload is derived from a single integer seed, so CI replays the
exact same requests, batches and fault firings on every run.

The **update-stream drill** (:func:`run_update_drill`, DESIGN 4i)
interleaves a seeded stream of edge-update batches with the query
workload — queries race update commits through the admission queue —
and verifies every response against a *fresh from-scratch engine built
on the exact graph version its epoch names*.  Armed with
``crash:site=update_apply`` it proves a crashed apply is transactional
(the retry commits, nothing served at a half-applied graph); armed with
``corrupt:site=update_patch`` it proves a corrupted incremental patch
falls back to the full rebuild without ever changing a served score.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from ..algorithms.personalized import PersonalizedPageRank
from ..errors import ReproError, ServeError
from ..graphs.updates import (
    UpdateBatch,
    random_batches,
    rebuild_from_batch,
)
from ..resilience import faults
from .batcher import REFERENCE_KERNELS, QueryResult, scores_digest
from .server import MixenServer, ServeConfig, ServeReport
from .store import BootReport, LayoutStore, boot_engine


@dataclass
class DrillReport:
    """Outcome of one chaos drill."""

    boot: BootReport
    serve: ServeReport
    completed: int
    #: typed error name -> count (ServerOverload, DeadlineExpired, ...).
    errors: dict[str, int] = field(default_factory=dict)
    #: responses checked bitwise against the offline reference.
    verified: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "boot": {
                "fingerprint": self.boot.fingerprint,
                "hit": self.boot.hit,
                "rebuilt": self.boot.rebuilt,
                "seconds": self.boot.seconds,
                "miss_reason": self.boot.miss_reason,
            },
            "serve": self.serve.to_json(),
            "completed": self.completed,
            "errors": dict(self.errors),
            "verified": self.verified,
            "mismatches": list(self.mismatches),
        }

    def render(self) -> str:
        lines = [self.serve.render()]
        if self.errors:
            shed = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.errors.items())
            )
            lines.append(f"  typed rejections: {shed}")
        if self.verified or self.mismatches:
            lines.append(
                f"  bit-identity: {self.verified}/{self.completed} "
                f"responses match the offline reference"
                + (
                    f", {len(self.mismatches)} MISMATCH"
                    if self.mismatches
                    else ""
                )
            )
        return "\n".join(lines)


def seeded_requests(
    num_nodes: int,
    count: int,
    seed: int,
    *,
    max_sources: int = 3,
) -> list[np.ndarray]:
    """The drill workload: ``count`` source sets drawn from one seed."""
    rng = np.random.default_rng(seed)
    return [
        np.unique(
            rng.integers(
                0,
                num_nodes,
                size=int(rng.integers(1, max_sources + 1)),
            )
        )
        for _ in range(count)
    ]


def ensure_warm(engine, boot: BootReport) -> None:
    """Assert that ``boot`` was a warm store hit: preprocessing was
    skipped and the only prepare phase is the ``store-load`` read."""
    breakdown = engine.prepare_stats.breakdown
    if not boot.hit or set(breakdown) != {"store-load"}:
        raise ServeError(
            "expected a warm boot, got "
            f"{'hit' if boot.hit else 'miss'} with prepare phases "
            f"{sorted(breakdown)} (miss reason: {boot.miss_reason})"
        )


async def _drive(
    server: MixenServer, source_sets: list[np.ndarray]
) -> list[tuple[np.ndarray, object]]:
    """Start the server, submit every request concurrently, drain-stop.

    Returns ``(sources, outcome)`` pairs where the outcome is a
    :class:`QueryResult` or the typed :class:`ReproError` the server
    answered with — the drill counts both.
    """

    async def one(sources):
        try:
            return sources, await server.submit(sources)
        except ReproError as exc:
            return sources, exc

    await server.start()
    try:
        return list(
            await asyncio.gather(*(one(s) for s in source_sets))
        )
    finally:
        await server.stop()


def verify_offline(
    graph,
    pairs: list[tuple[np.ndarray, QueryResult]],
    *,
    iterations: int,
    damping: float,
    block_nodes: int = 512,
) -> tuple[int, list[str]]:
    """Check each served response bitwise against a fault-free offline
    rank-1 run on its reference kernel.

    The reference engines are always prepared fresh from ``graph``,
    never loaded from a layout store, so a store fault cannot reach
    the oracle.  Fault injection is silenced for the duration (an empty
    installed injector wins over ``REPRO_FAULTS``), so the reference
    runs are genuinely fault-free even mid-drill.
    """
    from ..core.engine import MixenEngine

    verified = 0
    mismatches: list[str] = []
    engines: dict[str, object] = {}
    faults.install(faults.FaultInjector([]))
    try:
        for sources, result in pairs:
            reference_kernel = REFERENCE_KERNELS[result.kernel]
            engine = engines.get(reference_kernel)
            if engine is None:
                engine = MixenEngine(
                    graph,
                    kernel=reference_kernel,
                    block_nodes=block_nodes,
                )
                engine.prepare()
                engines[reference_kernel] = engine
            offline = engine.run(
                PersonalizedPageRank(sources, damping=damping),
                max_iterations=iterations,
                check_convergence=False,
            )
            if scores_digest(offline.scores) == result.digest:
                verified += 1
            else:
                mismatches.append(
                    f"request {result.request_id} (batch "
                    f"{result.batch_id}, rung {result.kernel}) differs "
                    f"from the offline {reference_kernel} reference"
                )
    finally:
        faults.clear()
    return verified, mismatches


def run_drill(
    graph,
    store: LayoutStore,
    *,
    requests: int = 24,
    seed: int = 0,
    kernel: str = "reduceat",
    max_workers: int | None = None,
    block_nodes: int = 512,
    config: ServeConfig | None = None,
    fault_spec: str | None = None,
    verify: bool = True,
    expect_warm: bool = False,
) -> DrillReport:
    """Run one deterministic chaos drill and return its report.

    ``expect_warm`` asserts the boot skipped preprocessing (a store
    hit whose only prepare phase is ``store-load``) — the CI
    kill-and-restart drill uses it to prove warm boots are real.
    Raises :class:`ServeError` when the warm-boot assertion or any
    bit-identity check fails.
    """
    if fault_spec:
        faults.install(faults.parse_fault_spec(fault_spec))
    try:
        engine, boot = boot_engine(
            graph,
            store,
            kernel=kernel,
            max_workers=max_workers,
            block_nodes=block_nodes,
        )
        if expect_warm:
            ensure_warm(engine, boot)
        server = MixenServer(engine, config=config, boot=boot)
        source_sets = seeded_requests(graph.num_nodes, requests, seed)
        outcomes = asyncio.run(_drive(server, source_sets))
    finally:
        if fault_spec:
            faults.clear()
    served = [
        (sources, outcome)
        for sources, outcome in outcomes
        if isinstance(outcome, QueryResult)
    ]
    errors: dict[str, int] = {}
    for _, outcome in outcomes:
        if not isinstance(outcome, QueryResult):
            name = type(outcome).__name__
            errors[name] = errors.get(name, 0) + 1
    verified = 0
    mismatches: list[str] = []
    if verify and served:
        verified, mismatches = verify_offline(
            graph,
            served,
            iterations=server.config.iterations,
            damping=server.config.damping,
            block_nodes=block_nodes,
        )
    report = DrillReport(
        boot=boot,
        serve=server.report,
        completed=len(served),
        errors=errors,
        verified=verified,
        mismatches=mismatches,
    )
    if mismatches:
        raise DrillMismatch(report)
    return report


class DrillMismatch(ServeError):
    """A served response differed bitwise from its offline reference."""

    def __init__(self, report) -> None:
        super().__init__(
            f"{len(report.mismatches)} of {report.completed} responses "
            "differ from the fault-free offline reference: "
            + "; ".join(report.mismatches[:3])
        )
        self.report = report


# --------------------------------------------------------------------- #
# update-stream drill (DESIGN 4i)
# --------------------------------------------------------------------- #
@dataclass
class UpdateDrillReport:
    """Outcome of one update-stream chaos drill."""

    boot: BootReport
    serve: ServeReport
    completed: int
    #: typed error name -> count over the query stream.
    errors: dict[str, int] = field(default_factory=dict)
    #: typed error name -> count over the update stream (a crashed
    #: apply lands here; its retry usually commits).
    update_errors: dict[str, int] = field(default_factory=dict)
    #: update batches that committed (= final epoch).
    updates_applied: int = 0
    #: commits whose incremental patch fell back to a full rebuild.
    update_fallbacks: int = 0
    #: responses checked bitwise against a from-scratch engine built
    #: on the graph version their epoch names.
    verified: int = 0
    #: distinct epochs the completed responses were served at.
    epochs_served: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "boot": {
                "fingerprint": self.boot.fingerprint,
                "hit": self.boot.hit,
                "rebuilt": self.boot.rebuilt,
                "seconds": self.boot.seconds,
                "miss_reason": self.boot.miss_reason,
            },
            "serve": self.serve.to_json(),
            "completed": self.completed,
            "errors": dict(self.errors),
            "update_errors": dict(self.update_errors),
            "updates_applied": self.updates_applied,
            "update_fallbacks": self.update_fallbacks,
            "verified": self.verified,
            "epochs_served": self.epochs_served,
            "mismatches": list(self.mismatches),
        }

    def render(self) -> str:
        lines = [self.serve.render()]
        if self.errors:
            shed = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.errors.items())
            )
            lines.append(f"  typed rejections: {shed}")
        if self.update_errors:
            rejected = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(self.update_errors.items())
            )
            lines.append(f"  update rejections: {rejected}")
        lines.append(
            f"  bit-identity: {self.verified}/{self.completed} "
            f"responses across {self.epochs_served} epoch(s) match a "
            "fresh from-scratch build"
            + (
                f", {len(self.mismatches)} MISMATCH"
                if self.mismatches
                else ""
            )
        )
        return "\n".join(lines)


async def _drive_updates(
    server: MixenServer,
    groups: list[list[np.ndarray]],
    batches: list[UpdateBatch],
) -> tuple[list, list[UpdateBatch], dict[str, int]]:
    """Interleave query groups with update submissions.

    Each group's queries are *launched* (not awaited) before the next
    update is pushed, so queries genuinely race the commit through the
    admission queue — some land before it (pre-update epoch), some
    after.  A rejected update is retried once: the transactional-apply
    contract says the first failure left the server untouched.
    Returns ``(outcomes, applied_batches, update_errors)``.
    """
    applied: list[UpdateBatch] = []
    update_errors: dict[str, int] = {}

    async def one(sources):
        try:
            return sources, await server.submit(sources)
        except ReproError as exc:
            return sources, exc

    async def push(batch: UpdateBatch) -> None:
        for _ in range(2):
            try:
                await server.submit_update(batch)
            except ReproError as exc:
                name = type(exc).__name__
                update_errors[name] = update_errors.get(name, 0) + 1
            else:
                applied.append(batch)
                return

    outcomes: list = []
    await server.start()
    try:
        for index, group in enumerate(groups):
            tasks = [asyncio.ensure_future(one(s)) for s in group]
            if index < len(batches):
                await push(batches[index])
            outcomes.extend(await asyncio.gather(*tasks))
    finally:
        await server.stop()
    return outcomes, applied, update_errors


def run_update_drill(
    graph,
    store: LayoutStore,
    *,
    updates: int = 4,
    queries_per_epoch: int = 4,
    update_batch_size: int = 8,
    seed: int = 0,
    kernel: str = "reduceat",
    max_workers: int | None = None,
    block_nodes: int = 512,
    config: ServeConfig | None = None,
    fault_spec: str | None = None,
    verify: bool = True,
) -> UpdateDrillReport:
    """Serve a query workload while streaming edge updates, then check
    every completed response bitwise against a **fresh from-scratch
    engine** built on the exact graph version its epoch names.

    The update stream comes from
    :func:`~repro.graphs.updates.random_batches` (seeded, sequentially
    valid); the offline graph versions are replayed through the
    independent :func:`~repro.graphs.updates.rebuild_from_batch`
    oracle, so the check covers the whole patched pipeline — CSR
    patch and in-memory engine rebuild — not just the scoring math.
    ``store`` serves the epoch-0 boot only.  Raises
    :class:`DrillMismatch` on any difference.
    """
    batches = random_batches(
        graph, updates, update_batch_size, seed=seed
    )
    source_sets = seeded_requests(
        graph.num_nodes, (updates + 1) * queries_per_epoch, seed + 1
    )
    groups = [
        source_sets[i * queries_per_epoch:(i + 1) * queries_per_epoch]
        for i in range(updates + 1)
    ]
    if fault_spec:
        faults.install(faults.parse_fault_spec(fault_spec))
    try:
        engine, boot = boot_engine(
            graph,
            store,
            kernel=kernel,
            max_workers=max_workers,
            block_nodes=block_nodes,
        )
        server = MixenServer(engine, config=config, boot=boot)
        outcomes, applied, update_errors = asyncio.run(
            _drive_updates(server, groups, batches)
        )
    finally:
        if fault_spec:
            faults.clear()
    served = [
        (sources, outcome)
        for sources, outcome in outcomes
        if isinstance(outcome, QueryResult)
    ]
    errors: dict[str, int] = {}
    for _, outcome in outcomes:
        if not isinstance(outcome, QueryResult):
            name = type(outcome).__name__
            errors[name] = errors.get(name, 0) + 1
    # replay the committed stream through the independent oracle: the
    # graph a response's epoch names is what it must be checked against
    graphs_by_epoch = [graph]
    for batch in applied:
        graphs_by_epoch.append(
            rebuild_from_batch(graphs_by_epoch[-1], batch)
        )
    verified = 0
    mismatches: list[str] = []
    epochs = sorted({result.epoch for _, result in served})
    if verify:
        for epoch in epochs:
            at_epoch = [
                (sources, result)
                for sources, result in served
                if result.epoch == epoch
            ]
            count, bad = verify_offline(
                graphs_by_epoch[epoch],
                at_epoch,
                iterations=server.config.iterations,
                damping=server.config.damping,
                block_nodes=block_nodes,
            )
            verified += count
            mismatches.extend(
                f"epoch {epoch}: {item}" for item in bad
            )
    report = UpdateDrillReport(
        boot=boot,
        serve=server.report,
        completed=len(served),
        errors=errors,
        update_errors=update_errors,
        updates_applied=len(applied),
        update_fallbacks=server.report.update_fallbacks,
        verified=verified,
        epochs_served=len(epochs),
        mismatches=mismatches,
    )
    if mismatches:
        raise DrillMismatch(report)
    return report
