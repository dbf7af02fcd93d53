"""Interchangeable SpMV kernels for blocked propagation (the dispatch layer).

Every backend computes the same blocked propagation ``y = A^T x (+ static)``
over a :class:`~repro.frameworks.blocking.BlockLayout`; they differ only in
how the Gather accumulation is executed:

* ``bincount`` — the original serial kernel: stream the bins in gather
  order and accumulate with ``np.bincount`` (rank-k inputs go through one
  flattened bincount over ``(dst, column)`` pairs instead of a per-column
  Python loop).
* ``reduceat`` — segmented reduce: destination run boundaries are
  precomputed once at layout build time (:func:`build_reduce_plan`), and
  the accumulation is a single ``np.add.reduceat`` over the run-sorted
  message stream — O(m) work, no ``minlength=n`` zero-fill pass, no
  ``astype`` copy, and native rank-k support via ``axis=0``.  The
  default of every engine, CLI command and server: it is the fastest
  measured Main-Phase kernel on the skewed proxies (DESIGN.md).
* ``parallel`` — opt-in thread-pool execution: the Scatter phase walks
  the block tasks (e.g. Mixen's balanced
  :class:`~repro.core.partition.BlockTask` slices), the Gather phase the
  block-columns, each split into one contiguous pool job per worker, on
  top of either serial accumulation ``base``.  Worker count defaults to
  :func:`repro.parallel.threadpool.default_workers`.
* ``parallel-mp`` — process-pool execution: true multicore without the
  GIL.  A persistent worker pool (:mod:`repro.parallel.procpool`)
  attaches to the layout metadata and the input vector through
  ``multiprocessing.shared_memory`` and fuses Scatter and Gather per
  block-column, writing disjoint slices of a shared output buffer
  lock-free.  Plans are packed once per layout (cached by structure
  fingerprint); dispatch ships only a tiny manifest.
* ``auto`` — always ``reduceat``: neither pool rung wins end to end on
  any measured workload, so no size heuristic picks one (both stay
  opt-in by name).

Numerical equivalence contract: serial and parallel execution of the same
accumulation base are **bit-identical** (each thread owns the same
contiguous run segments the serial kernel reduces).  ``bincount`` and
``reduceat`` accumulate in different association orders (sequential vs
NumPy's pairwise reduce), so on arbitrary floating-point inputs they agree
to summation-order rounding (a few ulps); on integer-valued inputs —
degrees, frontiers, unit vectors — all backends are bit-identical.

Adding a backend: write a callable with the uniform kernel signature
``fn(layout, x, *, static=None, max_workers=None, scatter_tasks=None)``
and :func:`register_kernel` it; engines and the CLI pick it up by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import EngineError
from ..types import VALUE_DTYPE

#: kernel names accepted by engines and the CLI ``--kernel`` flag.
KERNEL_NAMES = ("bincount", "reduceat", "parallel", "parallel-mp", "auto")

#: rank-k bincount flattens ``(dst, column)`` into one bincount call up to
#: this many messages; beyond it the per-column fallback caps the
#: transient ``m * k`` index allocation.
_FLAT_BINCOUNT_MAX_MSGS = 1 << 24


@dataclass(frozen=True)
class ReducePlan:
    """Precomputed segmented-reduce schedule of one block layout.

    ``order`` maps reduce position -> scatter slot such that the message
    stream ``x[src]`` is grouped by destination (a stable sort of the
    gather stream, so each destination's messages keep their blocked
    order).  ``run_starts``/``run_dst`` delimit the per-destination runs;
    ``col_edge_ptr``/``col_run_ptr`` give each block-column's contiguous
    edge/run span, which is what lets the thread-pool kernel reduce
    columns independently yet bit-identically to the serial reduce.
    """

    order: np.ndarray = field(repr=False)
    src: np.ndarray = field(repr=False)
    run_starts: np.ndarray = field(repr=False)
    run_dst: np.ndarray = field(repr=False)
    col_edge_ptr: np.ndarray = field(repr=False)
    col_run_ptr: np.ndarray = field(repr=False)
    #: per-edge weights in reduce order (weighted SpMV), or None.
    values: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_runs(self) -> int:
        """Distinct destination runs (= nodes with in-edges)."""
        return int(self.run_dst.size)


def build_reduce_plan(layout) -> ReducePlan:
    """Compute the segmented-reduce schedule of ``layout`` (done once at
    layout build time; the per-SpMV cost is then one gather plus one
    ``reduceat``)."""
    dst = layout.dst_scatter
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    if dst_sorted.size:
        run_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(dst_sorted)) + 1)
        ).astype(np.int64)
        run_dst = dst_sorted[run_starts]
    else:
        run_starts = np.empty(0, dtype=np.int64)
        run_dst = np.empty(0, dtype=np.int64)
    bounds = (
        np.arange(layout.num_blocks_per_side + 1, dtype=np.int64)
        * layout.block_nodes
    )
    values = layout.values_scatter
    return ReducePlan(
        order=order,
        src=layout.src_scatter[order],
        run_starts=run_starts,
        run_dst=run_dst,
        col_edge_ptr=np.searchsorted(dst_sorted, bounds, side="left"),
        col_run_ptr=np.searchsorted(run_dst, bounds, side="left"),
        values=None if values is None else values[order],
    )


# --------------------------------------------------------------------- #
# serial kernels
# --------------------------------------------------------------------- #
def _flat_rank_indices(dst: np.ndarray, k: int) -> np.ndarray:
    """Flattened ``(dst, column)`` bincount indices, promoted to int64
    before the multiply: on int32-indexed layouts ``n * k`` near 2^31
    would otherwise wrap silently."""
    return dst.astype(np.int64, copy=False)[:, None] * np.int64(k) + np.arange(
        k, dtype=np.int64
    )


def spmv_bincount(
    layout, x, *, static=None, max_workers=None, scatter_tasks=None
) -> np.ndarray:
    """Serial bincount kernel (the original backend).

    ``max_workers``/``scatter_tasks`` are accepted for signature
    uniformity and ignored.
    """
    x = np.asarray(x, dtype=VALUE_DTYPE)
    n = layout.num_nodes
    # Scatter: stream x (block-row-confined gathers) into the bins;
    # Gather: stream the bins in block-column order and accumulate.
    bins = x[layout.src_scatter]
    if layout.values_scatter is not None:
        bins = (
            bins * layout.values_scatter
            if bins.ndim == 1
            else bins * layout.values_scatter[:, None]
        )
    msgs = bins[layout.gather_perm]
    if x.ndim == 1:
        y = np.bincount(
            layout.dst_gather, weights=msgs, minlength=n
        ).astype(VALUE_DTYPE, copy=False)
        if static is not None:
            y += static
        return y
    k = x.shape[1]
    if msgs.size <= _FLAT_BINCOUNT_MAX_MSGS:
        # One bincount over (dst, column) pairs instead of k Python-level
        # passes; accumulation order per pair matches the per-column loop.
        flat = _flat_rank_indices(layout.dst_gather, k)
        out = np.bincount(
            flat.ravel(), weights=msgs.ravel(), minlength=n * k
        ).reshape(n, k).astype(VALUE_DTYPE, copy=False)
    else:
        out = np.empty((n, k), dtype=VALUE_DTYPE)
        for col in range(k):
            out[:, col] = np.bincount(
                layout.dst_gather, weights=msgs[:, col], minlength=n
            )
    if static is not None:
        out += static
    return out


def spmv_reduceat(
    layout, x, *, static=None, max_workers=None, scatter_tasks=None
) -> np.ndarray:
    """Segmented-reduce kernel: one gather in reduce order plus one
    ``np.add.reduceat`` over the precomputed destination runs.

    With ``static`` the accumulation starts from a copy of the cached
    seed contribution instead of a zero-filled array (the Cache step
    without the ``minlength=n`` zero pass).  ``max_workers``/
    ``scatter_tasks`` are accepted for signature uniformity and ignored.
    """
    x = np.asarray(x, dtype=VALUE_DTYPE)
    plan = layout.reduce_plan
    msgs = x[plan.src]
    if plan.values is not None:
        if msgs.ndim == 1:
            msgs *= plan.values
        else:
            msgs *= plan.values[:, None]
    if static is not None:
        y = np.array(static, dtype=VALUE_DTYPE)
        if plan.num_runs:
            y[plan.run_dst] += np.add.reduceat(
                msgs, plan.run_starts, axis=0
            )
        return y
    n = layout.num_nodes
    shape = (n,) if x.ndim == 1 else (n, x.shape[1])
    y = np.zeros(shape, dtype=VALUE_DTYPE)
    if plan.num_runs:
        y[plan.run_dst] = np.add.reduceat(msgs, plan.run_starts, axis=0)
    return y


# --------------------------------------------------------------------- #
# thread-pool kernel
# --------------------------------------------------------------------- #
def pool_base(base: str | None, rank_k: bool, role: str = "parallel") -> str:
    """Serial accumulation base of a pool kernel: ``base`` when given,
    else ``bincount`` for 1-D inputs and ``reduceat`` for rank-k."""
    if base is None:
        return "reduceat" if rank_k else "bincount"
    if base not in ("bincount", "reduceat"):
        raise EngineError(
            f"unknown {role} base kernel {base!r}; "
            "expected 'bincount' or 'reduceat'"
        )
    return base


def spmv_parallel(
    layout,
    x,
    *,
    static=None,
    max_workers=None,
    scatter_tasks=None,
    base=None,
) -> np.ndarray:
    """Blocked propagation executed on a real thread pool.

    The Scatter phase runs the tasks (block edge slices, e.g. Mixen's
    balanced :class:`~repro.core.partition.BlockTask` list; default: one
    task per non-empty block), the Gather phase the block-columns, each
    cut into one contiguous pool job per worker
    (:func:`~repro.parallel.threadpool.parallel_for`).  NumPy releases
    the GIL inside the slice kernels, so multicore hosts overlap the
    work; each thread owns disjoint output ranges, making results
    bit-identical to the serial ``base`` accumulation (``bincount`` for
    1-D inputs, the natively rank-k ``reduceat`` otherwise).  With a
    single available worker the serial base runs directly — same bits,
    no pool dispatch overhead.
    """
    from ..parallel.threadpool import parallel_for, recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    n = layout.num_nodes
    m = layout.num_edges
    rank_k = x.ndim != 1
    base = pool_base(base, rank_k)
    workers = recommended_workers(
        max(len(scatter_tasks) if scatter_tasks is not None else m, 1),
        max_workers,
    )
    if workers == 1 and injector is None:
        # Single worker: pool dispatch adds overhead but no overlap, and
        # the serial base produces bit-identical output anyway.  An
        # armed fault injector disables the shortcut — drills must hit
        # the real task/bins structure on any host width.
        serial = spmv_reduceat if base == "reduceat" else spmv_bincount
        return serial(layout, x, static=static)
    shape = (m,) if not rank_k else (m, x.shape[1])
    bins = np.empty(shape, dtype=VALUE_DTYPE)
    if scatter_tasks is None:
        ptr = layout.scatter_block_ptr
        spans = [
            (int(ptr[blk]), int(ptr[blk + 1]))
            for blk in range(ptr.size - 1)
            if ptr[blk + 1] > ptr[blk]
        ]
    else:
        spans = [
            (int(t[0]), int(t[1]))
            if isinstance(t, tuple)
            else (int(t.start), int(t.end))
            for t in scatter_tasks
        ]

    def scatter(task):
        task_index, (lo, hi) = task
        if injector is not None:
            injector.task_event(task_index)
        bins[lo:hi] = x[layout.src_scatter[lo:hi]]
        if layout.values_scatter is not None:
            if rank_k:
                bins[lo:hi] *= layout.values_scatter[lo:hi, None]
            else:
                bins[lo:hi] *= layout.values_scatter[lo:hi]

    parallel_for(scatter, enumerate(spans), max_workers=workers)
    if injector is not None:
        injector.corrupt_bins(bins)

    out_shape = (n,) if not rank_k else (n, x.shape[1])
    y = np.zeros(out_shape, dtype=VALUE_DTYPE)
    b = layout.num_blocks_per_side
    c = layout.block_nodes

    if base == "bincount":
        gp = layout.gather_block_ptr

        def gather(j):
            lo, hi = int(gp[j * b]), int(gp[(j + 1) * b])
            if hi <= lo:
                return
            col_lo = j * c
            col_hi = min((j + 1) * c, n)
            msgs = bins[layout.gather_perm[lo:hi]]
            local_dst = layout.dst_gather[lo:hi] - col_lo
            if not rank_k:
                y[col_lo:col_hi] = np.bincount(
                    local_dst, weights=msgs, minlength=col_hi - col_lo
                )
            else:
                for col in range(x.shape[1]):
                    y[col_lo:col_hi, col] = np.bincount(
                        local_dst,
                        weights=msgs[:, col],
                        minlength=col_hi - col_lo,
                    )

    else:
        plan = layout.reduce_plan
        ep, rp = plan.col_edge_ptr, plan.col_run_ptr

        def gather(j):
            elo, ehi = int(ep[j]), int(ep[j + 1])
            if ehi <= elo:
                return
            rlo, rhi = int(rp[j]), int(rp[j + 1])
            msgs = bins[plan.order[elo:ehi]]
            y[plan.run_dst[rlo:rhi]] = np.add.reduceat(
                msgs, plan.run_starts[rlo:rhi] - elo, axis=0
            )

    parallel_for(gather, range(b), max_workers=workers)
    if static is not None:
        y += static
    return y


# --------------------------------------------------------------------- #
# process-pool kernel
# --------------------------------------------------------------------- #
def spmv_parallel_mp(
    layout,
    x,
    *,
    static=None,
    max_workers=None,
    scatter_tasks=None,
    base=None,
) -> np.ndarray:
    """Blocked propagation executed on a shared-memory process pool.

    Each worker process attaches to a packed, fingerprint-cached shm
    plan (:func:`repro.parallel.procpool.ensure_layout_plan`) and fuses
    Scatter and Gather over its stride of block-columns, accumulating
    with the serial ``base``'s exact per-destination order into a
    disjoint slice of the shared output buffer — bit-identical to the
    serial backend, proved disjoint by
    :func:`repro.analysis.races.prove_mp_reduce` at plan build.

    ``scatter_tasks`` is accepted for signature uniformity and ignored:
    the mp task unit is the block-column (fused), not the scatter slice.
    With a single available worker the serial base runs directly —
    same bits, no pool or segment overhead.
    """
    from ..parallel import procpool
    from ..parallel.threadpool import recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    m = layout.num_edges
    rank_k = x.ndim != 1
    base = pool_base(base, rank_k)
    serial = spmv_reduceat if base == "reduceat" else spmv_bincount
    if m == 0:
        return serial(layout, x, static=static)
    workers = recommended_workers(
        layout.num_blocks_per_side, max_workers
    )
    if workers == 1 and injector is None:
        # Same shortcut as the thread kernel: one worker means process
        # dispatch overhead with no overlap; an armed injector disables
        # it so fault drills exercise the real pool on any host width.
        return serial(layout, x, static=static)
    plan = procpool.ensure_layout_plan(layout, base)
    y = procpool.run_reduce(plan, x, base=base, workers=workers)
    if injector is not None:
        # Post-collection corruption drill: a torn/poisoned shared
        # output buffer must trip the executor's non-finite downgrade.
        injector.corrupt_bins(y)
    if static is not None:
        y += static
    return y


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #
#: name -> kernel callable with the uniform signature
#: ``fn(layout, x, *, static, max_workers, scatter_tasks)``.
KERNELS: dict[str, Callable] = {
    "bincount": spmv_bincount,
    "reduceat": spmv_reduceat,
    "parallel": spmv_parallel,
    "parallel-mp": spmv_parallel_mp,
}


def register_kernel(name: str, fn: Callable) -> None:
    """Register a kernel backend under ``name`` (idempotent
    re-register); ``auto`` is reserved for the resolver."""
    if name == "auto":
        raise EngineError("'auto' is reserved for the kernel resolver")
    KERNELS[name] = fn


def resolve_kernel(name: str) -> str:
    """Resolve ``name`` to a concrete backend; ``auto`` is the default
    ``reduceat``."""
    if name == "auto":
        return "reduceat"
    if name not in KERNELS:
        raise EngineError(
            f"unknown kernel {name!r}; "
            f"available: {', '.join((*KERNELS, 'auto'))}"
        )
    return name


def spmv(
    layout,
    x,
    *,
    kernel: str = "auto",
    static=None,
    max_workers=None,
    scatter_tasks=None,
) -> np.ndarray:
    """Dispatch one blocked propagation to the named kernel backend.

    With ``REPRO_RACE_CHECK`` set, the first parallel dispatch of each
    layout replays the schedule with instrumentation and cross-checks it
    against the static race proof (:mod:`repro.analysis.races`).
    """
    resolved = resolve_kernel(kernel)
    if resolved in ("parallel", "parallel-mp"):
        from ..analysis.races import (
            ensure_layout_checked,
            race_check_enabled,
        )

        if race_check_enabled():
            ensure_layout_checked(layout, scatter_tasks)
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.kernel_call(resolved)
    fn = KERNELS[resolved]
    return fn(
        layout,
        x,
        static=static,
        max_workers=max_workers,
        scatter_tasks=scatter_tasks,
    )
