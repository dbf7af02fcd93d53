"""Typed exceptions raised across the package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """An adjacency structure or edge list is malformed or inconsistent."""


class PartitionError(ReproError):
    """Graph partitioning/blocking parameters are invalid."""


class DatasetError(ReproError):
    """A dataset name or generation specification is invalid."""


class MachineError(ReproError):
    """A machine-model configuration or access trace is invalid."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration cap."""


class EngineError(ReproError):
    """An engine was used before :meth:`prepare` or with bad inputs."""


class IngestError(GraphFormatError):
    """A strict edge-list ingestion hit a malformed or out-of-range row.

    ``path`` names the offending file, ``line`` the 1-based line number
    and ``reason`` the machine-readable category (``malformed`` /
    ``out-of-range``).
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.reason = reason


class AnalysisError(ReproError):
    """A static-analysis pass failed or was misconfigured."""


class ContractError(AnalysisError):
    """A layout/format contract does not hold (see
    :mod:`repro.analysis.contracts`)."""


class RaceError(AnalysisError):
    """Two parallel tasks have conflicting accesses to the same array.

    Structured fields identify the conflict: ``task_a``/``task_b`` are the
    labels of the offending task pair, ``array`` the shared array name,
    ``overlap`` the half-open index range ``(lo, hi)`` both tasks touch
    (``None`` for coverage violations, where ``task_b`` is also ``None``).
    """

    def __init__(
        self,
        message: str,
        *,
        task_a: str | None = None,
        task_b: str | None = None,
        array: str | None = None,
        overlap: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(message)
        self.task_a = task_a
        self.task_b = task_b
        self.array = array
        self.overlap = overlap


class ProofError(AnalysisError):
    """A proof obligation failed or a proof certificate is missing or
    stale (see :mod:`repro.analysis.certify`).

    Raised by ``python -m repro prove`` when the numeric-safety dataflow
    pass reports findings, a layout×backend pair cannot be certified, or
    the committed certificate ledger disagrees with the freshly computed
    certificates.
    """


class ResilienceError(ReproError):
    """The resilient execution runtime hit an unrecoverable condition
    (bad fault spec, degradation chain exhausted, ...)."""


class InjectedFault(ResilienceError):
    """A deterministic fault fired by :mod:`repro.resilience.faults`.

    ``site`` identifies the injection point (``task``, ``bins``,
    ``kernel``), ``call`` the site's invocation index at firing time.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str | None = None,
        call: int | None = None,
    ) -> None:
        super().__init__(message)
        self.site = site
        self.call = call


class StallError(ResilienceError):
    """A dispatched kernel exceeded its watchdog deadline."""

    def __init__(
        self, message: str, *, deadline: float | None = None
    ) -> None:
        super().__init__(message)
        self.deadline = deadline


class WorkerCrashError(ResilienceError):
    """A process-pool worker died mid-dispatch (killed, OOM, segfault).

    ``rank`` is the dead worker's pool rank, ``exitcode`` its process
    exit status when known.  The degradation ladder treats it like any
    other kernel failure: the run steps down to the thread backend and
    replays only the failed iteration.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        exitcode: int | None = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.exitcode = exitcode


class CheckpointError(ResilienceError):
    """A checkpoint is unreadable or belongs to a different run
    (layout-fingerprint mismatch)."""


class GuardError(ResilienceError):
    """A numerical-health guard tripped under the ``raise`` policy.

    ``kind`` names the detector (``nan``/``inf``/``overflow``/
    ``divergence``/``stall``), ``iteration`` the iteration it fired on.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str | None = None,
        iteration: int | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.iteration = iteration


class ServeError(ReproError):
    """The serving layer failed (layout store, admission, batching).

    Base class for every error the ``repro serve`` / ``repro query``
    pair reports; subclasses refine the rejection semantics but share
    one exit code so operators can alert on the family.
    """


class ServerOverload(ServeError):
    """A request was shed by admission control: the bounded queue is
    full.  ``depth``/``capacity`` describe the queue at rejection time.
    """

    def __init__(
        self,
        message: str,
        *,
        depth: int | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(message)
        self.depth = depth
        self.capacity = capacity


class DeadlineExpired(ServeError):
    """A request's deadline passed before a batch could serve it.

    ``waited`` is how long the request sat in the queue in seconds.
    """

    def __init__(
        self, message: str, *, waited: float | None = None
    ) -> None:
        super().__init__(message)
        self.waited = waited


class UpdateError(ReproError):
    """A graph update stream could not be applied.

    Covers malformed :class:`~repro.graphs.updates.UpdateBatch`
    payloads (out-of-range endpoints, deleting a missing edge,
    duplicate inserts), epoch bookkeeping violations, and incremental
    layouts that failed verification and could not fall back to a full
    rebuild.
    """


class StaleEpochError(UpdateError):
    """An artifact produced against an older graph epoch was offered to
    a newer one (checkpoint resume, certificates).

    ``artifact_epoch`` is the epoch the artifact was produced against,
    ``current_epoch`` the epoch of the live graph.  Stale artifacts are
    refused — never silently applied — and rebuilt by the caller.
    """

    def __init__(
        self,
        message: str,
        *,
        artifact_epoch: int | None = None,
        current_epoch: int | None = None,
    ) -> None:
        super().__init__(message)
        self.artifact_epoch = artifact_epoch
        self.current_epoch = current_epoch


class TuningError(ReproError):
    """A tuned-config blob is unusable: unknown schema version, a graph
    fingerprint that does not match the graph it is offered for, or a
    choice outside the reordering registry.

    Stale blobs are refused — never silently applied — exactly like
    stale-epoch checkpoints; re-run ``python -m repro tune`` to mint a
    fresh blob for the current graph.
    """

    def __init__(
        self,
        message: str,
        *,
        blob_fingerprint: str | None = None,
        graph_fingerprint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.blob_fingerprint = blob_fingerprint
        self.graph_fingerprint = graph_fingerprint


#: structured CLI failure semantics: one distinct nonzero exit code per
#: error family (most specific class wins; plain ReproError maps to 1,
#: argparse keeps its conventional 2).
_EXIT_CODE_TABLE: tuple[tuple[type, int], ...] = (
    (ContractError, 3),
    (RaceError, 4),
    (ProofError, 10),
    (IngestError, 5),
    (GuardError, 6),
    (CheckpointError, 7),
    (StallError, 8),
    (ResilienceError, 9),
    (ServeError, 11),
    (UpdateError, 12),
    (TuningError, 13),
)


def exit_code_for(exc: BaseException) -> int:
    """Process exit code for ``exc`` (see :data:`_EXIT_CODE_TABLE`)."""
    for etype, code in _EXIT_CODE_TABLE:
        if isinstance(exc, etype):
            return code
    return 1
