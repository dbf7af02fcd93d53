"""Phase-level segmented-reduce kernels: the Pre-Phase seed push and the
Post-Phase sink pull through the kernel dispatch layer.

PR 1 parallelized only the Main-Phase SpMV, leaving Algorithm 3's two
one-shot phases on hand-rolled serial paths (``np.repeat`` + ``bincount``
for the seed push, fancy-index + ``segment_reduce`` for the sink pull).
On seed/sink-heavy skewed graphs those serial phases bound the critical
path.  This module gives both phases the same treatment the Main-Phase
kernels got (:mod:`repro.core.kernels`):

* a :class:`PhaseReducePlan` — the phase's message stream pre-sorted by
  destination (``src``/``dst`` in reduce order, per-destination
  ``run_starts``/``run_dst``) plus per-worker partition pointers
  (``part_edge_ptr``/``part_run_ptr``) cut **at run boundaries**, built
  once at prepare time;
* serial ``bincount`` and ``reduceat`` backends plus a thread-pool
  ``parallel`` backend with the same disjoint-output-range bit-identity
  contract the Main-Phase kernels prove (:mod:`repro.analysis.races`);
* one :func:`phase_reduce` dispatcher honouring the engine's
  ``--kernel``/``max_workers`` selection and the fault-injection sites
  (:mod:`repro.resilience.faults`).

Bit-identity argument.  The plan orders messages by a *stable* sort on
destination, so each destination's messages keep their original stream
order.  ``np.bincount`` accumulates its input sequentially, hence the
serial bincount over the reduce-ordered stream produces bit-identical
per-destination sums to the legacy source-major push.  Partition cuts
land on run boundaries, so every destination's messages live inside one
partition: a per-partition bincount (or ``reduceat``) accumulates exactly
the same addends in exactly the same order as its serial base, and
``run_dst`` is strictly increasing, so partitions write disjoint output
row intervals — serial and parallel execution of the same base are
bit-identical for any worker count.  ``bincount`` (sequential) and
``reduceat`` (pairwise) differ by summation-order rounding only, exactly
as in the Main-Phase contract; integer inputs are exact everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EngineError
from ..types import VALUE_DTYPE
from .kernels import _flat_rank_indices, pool_base, resolve_kernel

#: partition sizing: aim for at least this many messages per partition
#: (smaller phases gain nothing from pool dispatch) ...
_MIN_MESSAGES_PER_PART = 4096
#: ... and never more than this many partitions.
_MAX_PARTS = 64


@dataclass(frozen=True)
class PhaseReducePlan:
    """Precomputed segmented-reduce schedule of one phase.

    ``src`` gathers the message sources in reduce (destination-sorted)
    order; ``dst`` is the edge-aligned destination stream (the bincount
    base's index vector); ``run_starts``/``run_dst`` delimit the
    per-destination runs (the reduceat base's segment table);
    ``part_edge_ptr``/``part_run_ptr`` tile messages and runs into
    per-worker partitions whose cuts align with run boundaries, which is
    what makes partitioned execution bit-identical to its serial base.
    """

    name: str
    num_rows: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    run_starts: np.ndarray = field(repr=False)
    run_dst: np.ndarray = field(repr=False)
    part_edge_ptr: np.ndarray = field(repr=False)
    part_run_ptr: np.ndarray = field(repr=False)
    #: per-message weights in reduce order (weighted phases), or None.
    values: np.ndarray | None = field(default=None, repr=False)
    #: evidence record from the build-time race proof.
    race_proof: object = field(default=None, repr=False, compare=False)

    @property
    def num_messages(self) -> int:
        """Messages the phase pushes/pulls (= edges of its structure)."""
        return int(self.src.size)

    @property
    def num_runs(self) -> int:
        """Distinct destinations written (= output slots touched)."""
        return int(self.run_dst.size)

    @property
    def num_partitions(self) -> int:
        """Worker partitions the parallel backend dispatches."""
        return int(self.part_edge_ptr.size) - 1


def _cut_partitions(
    run_starts: np.ndarray, num_messages: int, max_parts: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Tile the run table into ~equal-message partitions, cutting only at
    run boundaries (a destination split across partitions would break the
    disjoint-output-range contract)."""
    runs = int(run_starts.size)
    if runs == 0 or num_messages == 0:
        return np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    if max_parts is None:
        max_parts = min(
            _MAX_PARTS, max(1, num_messages // _MIN_MESSAGES_PER_PART)
        )
    parts = max(1, min(int(max_parts), runs))
    targets = (np.arange(1, parts, dtype=np.int64) * num_messages) // parts
    cuts = np.searchsorted(run_starts, targets, side="left")
    part_run_ptr = np.unique(
        np.concatenate(([0], cuts, [runs]))
    ).astype(np.int64)
    part_edge_ptr = np.append(
        run_starts[part_run_ptr[:-1]], num_messages
    ).astype(np.int64)
    return part_edge_ptr, part_run_ptr


def _finish_plan(
    name: str,
    num_rows: int,
    src: np.ndarray,
    dst: np.ndarray,
    run_starts: np.ndarray,
    run_dst: np.ndarray,
    values: np.ndarray | None,
    max_parts: int | None,
) -> PhaseReducePlan:
    part_edge_ptr, part_run_ptr = _cut_partitions(
        run_starts, int(src.size), max_parts
    )
    plan = PhaseReducePlan(
        name=name,
        num_rows=int(num_rows),
        src=np.ascontiguousarray(src, dtype=np.int64),
        dst=np.ascontiguousarray(dst, dtype=np.int64),
        run_starts=np.ascontiguousarray(run_starts, dtype=np.int64),
        run_dst=np.ascontiguousarray(run_dst, dtype=np.int64),
        part_edge_ptr=part_edge_ptr,
        part_run_ptr=part_run_ptr,
        values=None if values is None else np.ascontiguousarray(values),
    )
    from ..analysis.races import prove_phase_plan

    object.__setattr__(plan, "race_proof", prove_phase_plan(plan))
    return plan


def build_push_plan(
    csr,
    *,
    values=None,
    num_rows: int | None = None,
    max_parts: int | None = None,
    name: str = "push",
) -> PhaseReducePlan:
    """Plan a push phase (seed -> regular): stable-sort the CSR edge
    stream by destination so each destination's messages stay in their
    source-major order (the bit-identity anchor vs the legacy
    ``np.repeat`` + ``bincount`` path).

    ``num_rows`` defaults to the CSR's column count; ``values`` are
    per-edge weights in the CSR's own edge order.
    """
    dst = np.asarray(csr.indices, dtype=np.int64)
    src = np.asarray(csr.row_ids(), dtype=np.int64)
    order = np.argsort(dst, kind="stable")
    dst_r = dst[order]
    if dst_r.size:
        run_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(dst_r)) + 1)
        ).astype(np.int64)
        run_dst = dst_r[run_starts]
    else:
        run_starts = np.empty(0, dtype=np.int64)
        run_dst = np.empty(0, dtype=np.int64)
    return _finish_plan(
        name,
        csr.num_cols if num_rows is None else num_rows,
        src[order],
        dst_r,
        run_starts,
        run_dst,
        None if values is None else np.asarray(values)[order],
        max_parts,
    )


def build_pull_plan(
    csc,
    *,
    values=None,
    max_parts: int | None = None,
    name: str = "pull",
) -> PhaseReducePlan:
    """Plan a pull phase (sink <- sources): a CSC's edge stream is
    already destination-major, so the reduce order is the identity and
    the runs are exactly the non-empty rows — reproducing the legacy
    ``segment_reduce`` computation bit for bit on the reduceat base.
    """
    src = np.asarray(csc.indices, dtype=np.int64)
    degs = np.diff(csc.indptr)
    run_dst = np.flatnonzero(degs > 0).astype(np.int64)
    run_starts = np.asarray(csc.indptr, dtype=np.int64)[run_dst]
    dst = np.repeat(
        np.arange(csc.num_rows, dtype=np.int64), degs
    )
    return _finish_plan(
        name,
        csc.num_rows,
        src,
        dst,
        run_starts,
        run_dst,
        values,
        max_parts,
    )


# --------------------------------------------------------------------- #
# serial backends
# --------------------------------------------------------------------- #
def _messages(plan: PhaseReducePlan, x: np.ndarray) -> np.ndarray:
    """Materialize the reduce-ordered message stream ``x[src] (* w)``."""
    msgs = x[plan.src]
    if plan.values is not None:
        if msgs.ndim == 1:
            msgs = msgs * plan.values
        else:
            msgs = msgs * plan.values[:, None]
    return msgs


def phase_reduce_bincount(
    plan: PhaseReducePlan, x, *, max_workers=None
) -> np.ndarray:
    """Serial bincount backend: sequential accumulation over the
    reduce-ordered stream — bit-identical to the legacy source-major
    push (stable sort preserves per-destination message order)."""
    x = np.asarray(x, dtype=VALUE_DTYPE)
    msgs = _messages(plan, x)
    n = plan.num_rows
    if x.ndim == 1:
        return np.bincount(
            plan.dst, weights=msgs, minlength=n
        ).astype(VALUE_DTYPE, copy=False)
    k = x.shape[1]
    return np.bincount(
        _flat_rank_indices(plan.dst, k).ravel(),
        weights=msgs.ravel(),
        minlength=n * k,
    ).reshape(n, k).astype(VALUE_DTYPE, copy=False)


def phase_reduce_reduceat(
    plan: PhaseReducePlan, x, *, max_workers=None
) -> np.ndarray:
    """Segmented-reduce backend: one gather plus one ``np.add.reduceat``
    over the per-destination runs (the Post-Phase's legacy
    ``segment_reduce`` is exactly this computation)."""
    x = np.asarray(x, dtype=VALUE_DTYPE)
    msgs = _messages(plan, x)
    n = plan.num_rows
    shape = (n,) if x.ndim == 1 else (n, x.shape[1])
    y = np.zeros(shape, dtype=VALUE_DTYPE)
    if plan.num_runs:
        y[plan.run_dst] = np.add.reduceat(msgs, plan.run_starts, axis=0)
    return y


# --------------------------------------------------------------------- #
# thread-pool backend
# --------------------------------------------------------------------- #
def phase_reduce_parallel(
    plan: PhaseReducePlan, x, *, max_workers=None, base=None
) -> np.ndarray:
    """Partitioned phase reduce on a real thread pool.

    Scatter runs one task per partition (gather ``x`` into that
    partition's message slice), Gather one task per partition (reduce
    its runs into its disjoint output row interval) — mirroring the
    Main-Phase kernel's structure, including its fault-injection sites
    (``parallel_call``/``task_event``/``corrupt_bins``) and the
    single-worker serial shortcut (disabled while an injector is armed,
    so drills hit the real partition structure on any host width).
    """
    from ..parallel.threadpool import parallel_for, recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    rank_k = x.ndim != 1
    base = pool_base(base, rank_k, "phase")
    parts = plan.num_partitions
    workers = recommended_workers(max(parts, 1), max_workers)
    if workers == 1 and injector is None:
        serial = (
            phase_reduce_reduceat
            if base == "reduceat"
            else phase_reduce_bincount
        )
        return serial(plan, x)
    m = plan.num_messages
    shape = (m,) if not rank_k else (m, x.shape[1])
    msgs = np.empty(shape, dtype=VALUE_DTYPE)
    ep, rp = plan.part_edge_ptr, plan.part_run_ptr

    def scatter(task):
        task_index, part = task
        if injector is not None:
            injector.task_event(task_index)
        lo, hi = int(ep[part]), int(ep[part + 1])
        msgs[lo:hi] = x[plan.src[lo:hi]]
        if plan.values is not None:
            if rank_k:
                msgs[lo:hi] *= plan.values[lo:hi, None]
            else:
                msgs[lo:hi] *= plan.values[lo:hi]

    parallel_for(scatter, enumerate(range(parts)), max_workers=workers)
    if injector is not None:
        injector.corrupt_bins(msgs)

    n = plan.num_rows
    out_shape = (n,) if not rank_k else (n, x.shape[1])
    y = np.zeros(out_shape, dtype=VALUE_DTYPE)

    if base == "bincount":

        def gather(part):
            rlo, rhi = int(rp[part]), int(rp[part + 1])
            if rhi <= rlo:
                return
            elo, ehi = int(ep[part]), int(ep[part + 1])
            row_lo = int(plan.run_dst[rlo])
            row_hi = int(plan.run_dst[rhi - 1]) + 1
            local_dst = plan.dst[elo:ehi] - row_lo
            if not rank_k:
                y[row_lo:row_hi] = np.bincount(
                    local_dst,
                    weights=msgs[elo:ehi],
                    minlength=row_hi - row_lo,
                )
            else:
                k = x.shape[1]
                y[row_lo:row_hi] = np.bincount(
                    _flat_rank_indices(local_dst, k).ravel(),
                    weights=msgs[elo:ehi].ravel(),
                    minlength=(row_hi - row_lo) * k,
                ).reshape(row_hi - row_lo, k)

    else:

        def gather(part):
            rlo, rhi = int(rp[part]), int(rp[part + 1])
            if rhi <= rlo:
                return
            elo = int(ep[part])
            ehi = int(ep[part + 1])
            y[plan.run_dst[rlo:rhi]] = np.add.reduceat(
                msgs[elo:ehi], plan.run_starts[rlo:rhi] - elo, axis=0
            )

    parallel_for(gather, range(parts), max_workers=workers)
    return y


# --------------------------------------------------------------------- #
# process-pool backend
# --------------------------------------------------------------------- #
def phase_reduce_parallel_mp(
    plan: PhaseReducePlan, x, *, max_workers=None, base=None
) -> np.ndarray:
    """Partitioned phase reduce on the shared-memory process pool.

    The plan's run-aligned partitions are exactly the disjoint task
    units the pool needs: each worker fuses Scatter and Gather over its
    stride of partitions and writes its row intervals into the shared
    output buffer lock-free (the packed schedule is re-proved by
    :func:`repro.analysis.races.prove_mp_reduce` at pack time).  Same
    serial shortcut and fault-injection sites as the thread backend.
    """
    from ..parallel import procpool
    from ..parallel.threadpool import recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    rank_k = x.ndim != 1
    base = pool_base(base, rank_k, "phase")
    serial = (
        phase_reduce_reduceat
        if base == "reduceat"
        else phase_reduce_bincount
    )
    if plan.num_messages == 0 or plan.num_runs == 0:
        return serial(plan, x)
    workers = recommended_workers(plan.num_partitions, max_workers)
    if workers == 1 and injector is None:
        return serial(plan, x)
    shm_plan = procpool.ensure_phase_plan(plan, base)
    y = procpool.run_reduce(shm_plan, x, base=base, workers=workers)
    if injector is not None:
        injector.corrupt_bins(y)
    return y


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #
#: name -> phase backend with the uniform signature
#: ``fn(plan, x, *, max_workers)``.
PHASE_KERNELS = {
    "bincount": phase_reduce_bincount,
    "reduceat": phase_reduce_reduceat,
    "parallel": phase_reduce_parallel,
    "parallel-mp": phase_reduce_parallel_mp,
}


def phase_reduce(
    plan: PhaseReducePlan,
    x,
    *,
    kernel: str = "auto",
    max_workers: int | None = None,
) -> np.ndarray:
    """Dispatch one phase reduce to the named backend.

    Resolution mirrors the Main-Phase dispatch (``auto`` is
    ``reduceat``); an armed fault injector sees the same
    ``kernel_call`` site, and ``REPRO_RACE_CHECK`` replays each plan's
    partition schedule once before its first parallel dispatch.
    """
    resolved = resolve_kernel(kernel)
    if resolved not in PHASE_KERNELS:
        raise EngineError(
            f"kernel {resolved!r} has no phase backend; "
            f"available: {', '.join((*PHASE_KERNELS, 'auto'))}"
        )
    if resolved in ("parallel", "parallel-mp"):
        from ..analysis.races import (
            ensure_phase_plan_checked,
            race_check_enabled,
        )

        if race_check_enabled():
            ensure_phase_plan_checked(plan)
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.kernel_call(resolved)
    return PHASE_KERNELS[resolved](plan, x, max_workers=max_workers)


# --------------------------------------------------------------------- #
# machine-model trace
# --------------------------------------------------------------------- #
def trace_phase_reduce(
    plan: PhaseReducePlan,
    trace,
    *,
    kernel: str = "bincount",
    x_name: str,
    y_name: str,
    prefix: str,
) -> None:
    """Record one phase reduce's access pattern into ``trace``.

    The caller registers ``x_name``/``y_name``; the plan's own metadata
    streams (``<prefix>Src``/``<prefix>Dst``/``<prefix>Msgs``/
    ``<prefix>RunStarts``/``<prefix>RunDst``) are registered lazily on
    first use, mirroring the Main-Phase reduceat trace.  ``parallel``
    records its serial-equivalent pattern (each worker walks its
    partition slice of the same streams).
    """
    m = plan.num_messages
    if m == 0:
        return
    resolved = resolve_kernel(kernel)
    runs = plan.num_runs
    space = trace.space
    src_name = f"{prefix}Src"
    msgs_name = f"{prefix}Msgs"
    if src_name not in space:
        space.register(src_name, m, 8)
        space.register(msgs_name, m, 4)
    # msgs = x[src] (* w): stream the index vector, gather x, stream the
    # materialized message buffer out.
    trace.sequential(src_name, 0, m)
    trace.gather(x_name, plan.src)
    trace.sequential(msgs_name, 0, m, write=True)
    if resolved == "bincount":
        dst_name = f"{prefix}Dst"
        if dst_name not in space:
            space.register(dst_name, m, 8)
        # bincount(dst, weights=msgs): both streams plus scattered adds.
        trace.sequential(dst_name, 0, m)
        trace.sequential(msgs_name, 0, m)
        trace.scatter(y_name, plan.dst)
        return
    if runs == 0:
        return
    starts_name = f"{prefix}RunStarts"
    run_dst_name = f"{prefix}RunDst"
    if starts_name not in space:
        space.register(starts_name, runs, 8)
        space.register(run_dst_name, runs, 8)
    # np.add.reduceat(msgs, run_starts) then y[run_dst] = ...
    trace.sequential(starts_name, 0, runs)
    trace.sequential(msgs_name, 0, m)
    trace.sequential(run_dst_name, 0, runs)
    trace.scatter(y_name, plan.run_dst)
