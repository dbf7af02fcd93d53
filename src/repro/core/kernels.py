"""The segmented-reduce plan and its interchangeable backends.

Algorithm 3's three phases do one thing: gather messages ``x[src] * w``,
group them by destination and sum them.  The Main-Phase SpMV over a
:class:`~repro.frameworks.blocking.BlockLayout`, the Pre-Phase seed push
and the Post-Phase sink pull are therefore all one :class:`ReducePlan` —
the message stream stable-sorted by destination, its per-destination
runs, and partitions cut at run boundaries — run by one dispatcher,
:func:`reduce`.  The Main-Phase differs only by its partitions (cut at
block-column boundaries) and by the Cache step's ``static`` offset.

Backends (the ``--kernel`` rungs):

* ``bincount`` — compiled CSR row sums: the plan as a
  ``scipy.sparse.csr_array`` (:attr:`ReducePlan.row_matrix`, built on
  the first reduce and cached on the plan) times ``x``.  scipy's
  ``csr_matvec``/``csr_matvecs`` fuse the gather into the sum and add
  each row in stored order, which is ``np.bincount``'s order over the
  ``dst`` stream, so the bits are those of a gather + bincount without
  the message buffer.  ``scipy.sparse`` is imported lazily by that
  first reduce, never at module import or by ``prepare``.  The default
  of both blocked engines and the ``run``/``bfs`` commands: the fastest
  measured kernel (DESIGN.md).
* ``reduceat`` — one ``np.add.reduceat`` over the run table: O(m) work,
  no ``minlength`` zero-fill, native rank-k support via ``axis=0``.  The
  server's default: it holds no per-plan matrix (a server on
  ``bincount`` peaked 13–21 MB higher on e2ebench ``serve-mixed``).
* ``parallel`` — opt-in thread-pool execution: a Scatter pass gathers
  each partition's message slice, a Gather pass reduces each partition
  into its own output rows, each pass cut into one contiguous pool job
  per worker (:func:`repro.parallel.threadpool.parallel_for`).
* ``parallel-mp`` — process-pool execution: persistent workers attach
  to the packed plan and the input through shared memory and fuse
  Scatter and Gather per partition (:mod:`repro.parallel.procpool`).
* ``auto`` — always ``bincount``; both pool rungs stay opt-in by name.

The pool rungs accumulate with a serial base — a per-partition
``np.bincount`` for 1-D inputs, ``reduceat`` for rank-k — and run the
plan's partitions.

Numerical contract.  The stable sort keeps each destination's messages
in their original stream order, and every partition cut lands on a run
boundary, so a partition owns whole destinations and a disjoint output
row interval (proved by :func:`repro.analysis.races.prove_schedule`).
Serial and pool execution of the same base are therefore bit-identical
for any worker count.  ``bincount`` (sequential, whether CSR row sums or
``np.bincount``) and ``reduceat`` (pairwise) differ by summation-order
rounding only; on integer-valued inputs — degrees, frontiers, unit
vectors — every rung is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import EngineError
from ..graphs.csr import radix_order
from ..types import VALUE_DTYPE

#: kernel names accepted by engines and the CLI ``--kernel`` flag.
KERNEL_NAMES = ("bincount", "reduceat", "parallel", "parallel-mp", "auto")

#: rank-k bincount flattens ``(dst, column)`` into one bincount call up to
#: this many messages; beyond it the per-column fallback caps the
#: transient ``m * k`` index allocation.
_FLAT_BINCOUNT_MAX_MSGS = 1 << 24

#: balanced partition sizing: aim for at least this many messages per
#: partition (smaller phases gain nothing from pool dispatch) ...
_MIN_MESSAGES_PER_PART = 4096
#: ... and never more than this many partitions.
_MAX_PARTS = 64


@dataclass(frozen=True)
class ReducePlan:
    """Precomputed segmented-reduce schedule of one message stream.

    ``src`` gathers the message sources in reduce (destination-sorted)
    order and ``dst`` is the edge-aligned destination stream (the
    bincount base's index vector); ``run_starts``/``run_dst`` delimit
    the per-destination runs (the reduceat base's segment table);
    ``part_edge_ptr``/``part_run_ptr`` tile messages and runs into
    partitions whose cuts align with run boundaries, which is what
    makes partitioned execution bit-identical to its serial base.
    """

    name: str
    num_rows: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    run_starts: np.ndarray = field(repr=False)
    run_dst: np.ndarray = field(repr=False)
    part_edge_ptr: np.ndarray = field(repr=False)
    part_run_ptr: np.ndarray = field(repr=False)
    #: per-message weights in reduce order (weighted SpMV), or None.
    values: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_messages(self) -> int:
        """Messages the plan reduces (= edges of its structure)."""
        return int(self.src.size)

    @property
    def num_runs(self) -> int:
        """Distinct destinations written (= output rows touched)."""
        return int(self.run_dst.size)

    @property
    def num_partitions(self) -> int:
        """Partitions the pool backends dispatch."""
        return int(self.part_edge_ptr.size) - 1

    def partition(self, p: int) -> tuple[int, int, int, int]:
        """``(elo, ehi, rlo, rhi)``: partition ``p``'s message and run
        spans."""
        ep, rp = self.part_edge_ptr, self.part_run_ptr
        return int(ep[p]), int(ep[p + 1]), int(rp[p]), int(rp[p + 1])

    @cached_property
    def row_matrix(self):
        """The plan as a ``scipy.sparse.csr_array``: row ``d`` holds
        destination ``d``'s messages in stream order (``indices`` = the
        sources, ``data`` = the weights, or ones), so a matvec sums each
        row sequentially in exactly ``np.bincount``'s order.

        Built on first use by the ``bincount`` backend and cached on the
        plan; never built by :func:`build_plan` or stored by the layout
        store.  ``scipy.sparse`` is imported here, not at module import,
        so preparation and runs on other backends never pay for it.
        """
        import scipy.sparse

        indptr = np.searchsorted(
            self.dst, np.arange(self.num_rows + 1, dtype=np.int64)
        )
        num_cols = int(self.src.max()) + 1 if self.src.size else 0
        data = (
            np.ones(self.src.size, dtype=VALUE_DTYPE)
            if self.values is None
            else self.values
        )
        return scipy.sparse.csr_array(
            (data, self.src, indptr), shape=(self.num_rows, num_cols)
        )


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


def build_plan(
    name: str,
    num_rows: int,
    src,
    dst,
    *,
    values=None,
    row_bounds=None,
    max_parts: int | None = None,
) -> ReducePlan:
    """Plan the reduce of messages ``src -> dst`` into ``num_rows`` rows.

    The stream is stable-sorted by destination with the O(m) radix
    order (:func:`repro.graphs.csr.radix_order`; skipped when it already
    is sorted), so each destination's messages keep their input order — the
    bit-identity anchor of the bincount base.  ``values`` are per-message
    weights in input order.  Partitions are cut at the row boundaries
    ``row_bounds`` when given (the Main-Phase's block-columns), otherwise
    into ~equal-message partitions (at most ``max_parts``).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if values is not None:
        values = np.asarray(values, dtype=VALUE_DTYPE)
    if dst.size > 1 and bool((dst[1:] < dst[:-1]).any()):
        order = radix_order(dst)
        src, dst = src[order], dst[order]
        if values is not None:
            values = values[order]
    if dst.size:
        run_starts = np.flatnonzero(
            np.concatenate(([True], dst[1:] != dst[:-1]))
        ).astype(np.int64)
    else:
        run_starts = np.empty(0, dtype=np.int64)
    run_dst = dst[run_starts]
    if row_bounds is not None:
        part_edge_ptr = np.searchsorted(dst, row_bounds, side="left")
        part_run_ptr = np.searchsorted(run_dst, row_bounds, side="left")
    else:
        part_edge_ptr, part_run_ptr = _cut_partitions(
            run_starts, int(dst.size), max_parts
        )
    return ReducePlan(
        name=name,
        num_rows=int(num_rows),
        src=np.ascontiguousarray(src),
        dst=np.ascontiguousarray(dst),
        run_starts=run_starts,
        run_dst=np.ascontiguousarray(run_dst),
        part_edge_ptr=np.asarray(part_edge_ptr, dtype=np.int64),
        part_run_ptr=np.asarray(part_run_ptr, dtype=np.int64),
        values=None if values is None else np.ascontiguousarray(values),
    )


# --------------------------------------------------------------------- #
# building blocks shared by every backend (and the pool workers)
# --------------------------------------------------------------------- #
def _flat_rank_indices(dst: np.ndarray, k: int) -> np.ndarray:
    """Flattened ``(dst, column)`` bincount indices, promoted to int64
    before the multiply: on int32-indexed layouts ``n * k`` near 2^31
    would otherwise wrap silently."""
    return dst.astype(np.int64, copy=False)[:, None] * np.int64(k) + np.arange(
        k, dtype=np.int64
    )


def gather_messages(x: np.ndarray, src: np.ndarray, values=None) -> np.ndarray:
    """The message stream ``x[src] (* w)``.

    ``np.take`` along axis 0 is bit-identical to ``x[src]`` and far
    cheaper for rank-k ``x`` than 2-D fancy indexing.
    """
    msgs = np.take(x, src, axis=0)
    if values is not None:
        msgs *= values if msgs.ndim == 1 else values[:, None]
    return msgs


def bincount_rows(dst: np.ndarray, msgs: np.ndarray, rows: int) -> np.ndarray:
    """Sequential per-row sums of ``msgs`` at ``dst`` (rank-k aware)."""
    if msgs.ndim == 1:
        return np.bincount(dst, weights=msgs, minlength=rows).astype(
            VALUE_DTYPE, copy=False
        )
    k = msgs.shape[1]
    if msgs.size <= _FLAT_BINCOUNT_MAX_MSGS:
        # One bincount over (dst, column) pairs instead of k Python-level
        # passes; accumulation order per pair matches the per-column loop.
        return np.bincount(
            _flat_rank_indices(dst, k).ravel(),
            weights=msgs.ravel(),
            minlength=rows * k,
        ).reshape(rows, k).astype(VALUE_DTYPE, copy=False)
    out = np.empty((rows, k), dtype=VALUE_DTYPE)
    for col in range(k):
        out[:, col] = np.bincount(dst, weights=msgs[:, col], minlength=rows)
    return out


def reduce_partition(
    y: np.ndarray,
    msgs: np.ndarray,
    base: str,
    dst: np.ndarray,
    run_starts: np.ndarray,
    run_dst: np.ndarray,
    span: tuple[int, int, int, int],
) -> None:
    """Reduce one partition's messages into its own rows of ``y``.

    ``msgs`` holds the partition's messages ``[elo, ehi)``; ``span`` is
    ``(elo, ehi, rlo, rhi)``.  The partition owns whole runs, so the
    addends and their order per destination match the serial base.
    """
    elo, ehi, rlo, rhi = span
    if rhi <= rlo:
        return
    if base == "bincount":
        row_lo = int(run_dst[rlo])
        row_hi = int(run_dst[rhi - 1]) + 1
        y[row_lo:row_hi] = bincount_rows(
            dst[elo:ehi] - row_lo, msgs, row_hi - row_lo
        )
    else:
        y[run_dst[rlo:rhi]] = np.add.reduceat(
            msgs, run_starts[rlo:rhi] - elo, axis=0
        )


def _out_shape(plan: ReducePlan, x: np.ndarray) -> tuple:
    return (plan.num_rows,) + x.shape[1:]


# --------------------------------------------------------------------- #
# serial backends
# --------------------------------------------------------------------- #
def reduce_bincount(plan: ReducePlan, x, *, static=None, max_workers=None):
    """Serial bincount backend: compiled CSR row sums over
    :attr:`ReducePlan.row_matrix` (no materialized message buffer),
    then the ``static`` offset.  Bit-identical to ``np.bincount`` over
    the gathered stream (:func:`bincount_rows`): both add each row's
    messages sequentially in stream order."""
    x = np.asarray(x, dtype=VALUE_DTYPE)
    matrix = plan.row_matrix
    y = matrix @ x[: matrix.shape[1]]
    if static is not None:
        y += static
    return y


def reduce_reduceat(plan: ReducePlan, x, *, static=None, max_workers=None):
    """Segmented-reduce backend: one gather plus one ``np.add.reduceat``
    over the per-destination runs.

    With ``static`` the accumulation starts from a copy of the cached
    seed contribution instead of a zero-filled array (the Cache step
    without the zero pass).
    """
    x = np.asarray(x, dtype=VALUE_DTYPE)
    msgs = gather_messages(x, plan.src, plan.values)
    if static is not None:
        y = np.array(static, dtype=VALUE_DTYPE)
        if plan.num_runs:
            y[plan.run_dst] += np.add.reduceat(msgs, plan.run_starts, axis=0)
        return y
    y = np.zeros(_out_shape(plan, x), dtype=VALUE_DTYPE)
    if plan.num_runs:
        y[plan.run_dst] = np.add.reduceat(msgs, plan.run_starts, axis=0)
    return y


_SERIAL = {"bincount": reduce_bincount, "reduceat": reduce_reduceat}


def pool_base(x: np.ndarray) -> str:
    """Serial accumulation base of a pool backend: ``bincount`` for 1-D
    inputs, the natively rank-k ``reduceat`` otherwise."""
    return "bincount" if x.ndim == 1 else "reduceat"


# --------------------------------------------------------------------- #
# pool backends
# --------------------------------------------------------------------- #
def reduce_parallel(plan: ReducePlan, x, *, static=None, max_workers=None):
    """Partitioned reduce on a real thread pool.

    Scatter gathers each partition's message slice, Gather reduces each
    partition into its disjoint output rows.  NumPy releases the GIL
    inside the slice kernels, so multicore hosts overlap the work.  With
    a single available worker the serial base runs directly — same bits,
    no pool dispatch — unless a fault injector is armed, so drills hit
    the real partition structure on any host width.
    """
    from ..parallel.threadpool import parallel_for, recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    base = pool_base(x)
    parts = plan.num_partitions
    workers = recommended_workers(max(parts, 1), max_workers)
    if workers == 1 and injector is None:
        return _SERIAL[base](plan, x, static=static)
    ep = plan.part_edge_ptr
    msgs = np.empty((plan.num_messages,) + x.shape[1:], dtype=VALUE_DTYPE)

    def scatter(p):
        if injector is not None:
            injector.task_event(p)
        lo, hi = int(ep[p]), int(ep[p + 1])
        msgs[lo:hi] = gather_messages(
            x,
            plan.src[lo:hi],
            None if plan.values is None else plan.values[lo:hi],
        )

    parallel_for(scatter, range(parts), max_workers=workers)
    if injector is not None:
        injector.corrupt_bins(msgs)
    y = np.zeros(_out_shape(plan, x), dtype=VALUE_DTYPE)

    def gather(p):
        span = plan.partition(p)
        reduce_partition(
            y, msgs[span[0] : span[1]], base,
            plan.dst, plan.run_starts, plan.run_dst, span,
        )

    parallel_for(gather, range(parts), max_workers=workers)
    if static is not None:
        y += static
    return y


def reduce_parallel_mp(
    plan: ReducePlan, x, *, static=None, max_workers=None
):
    """Partitioned reduce on the shared-memory process pool.

    Each worker attaches to the packed, fingerprint-cached plan
    (:func:`repro.parallel.procpool.ensure_plan`), fuses Scatter and
    Gather over its stride of partitions and writes their row intervals
    into the shared output buffer lock-free.  Same serial shortcut and
    fault-injection sites as the thread backend.
    """
    from ..parallel import procpool
    from ..parallel.threadpool import recommended_workers
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.parallel_call()
    x = np.asarray(x, dtype=VALUE_DTYPE)
    base = pool_base(x)
    if plan.num_runs == 0:
        return _SERIAL[base](plan, x, static=static)
    workers = recommended_workers(plan.num_partitions, max_workers)
    if workers == 1 and injector is None:
        return _SERIAL[base](plan, x, static=static)
    y = procpool.run_reduce(
        procpool.ensure_plan(plan), x, base=base, workers=workers
    )
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
#: name -> backend with the uniform signature
#: ``fn(plan, x, *, static, max_workers)``.
KERNELS: dict[str, Callable] = {
    "bincount": reduce_bincount,
    "reduceat": reduce_reduceat,
    "parallel": reduce_parallel,
    "parallel-mp": reduce_parallel_mp,
}


def resolve_kernel(name: str) -> str:
    """Resolve ``name`` to a concrete backend; ``auto`` is the default
    ``bincount``."""
    if name == "auto":
        return "bincount"
    if name not in KERNELS:
        raise EngineError(
            f"unknown kernel {name!r}; "
            f"available: {', '.join((*KERNELS, 'auto'))}"
        )
    return name


def reduce(
    plan: ReducePlan,
    x,
    *,
    kernel: str = "auto",
    static=None,
    max_workers: int | None = None,
) -> np.ndarray:
    """Run one reduce of ``plan`` over ``x`` on the named backend.

    ``static`` offsets the result (the Main-Phase Cache step).  An armed
    fault injector sees one ``kernel_call`` per reduce; with
    ``REPRO_RACE_CHECK`` set, each plan's partitions are replayed once
    before their first pool dispatch (:mod:`repro.analysis.races`).
    """
    resolved = resolve_kernel(kernel)
    if resolved in ("parallel", "parallel-mp"):
        from ..analysis.races import ensure_plan_checked, race_check_enabled

        if race_check_enabled():
            ensure_plan_checked(plan)
    from ..resilience import faults

    injector = faults.active()
    if injector is not None:
        injector.kernel_call(resolved)
    return KERNELS[resolved](
        plan, x, static=static, max_workers=max_workers
    )
