"""The Pre-Phase seed push and the Post-Phase sink pull as reduce plans.

Algorithm 3's two one-shot phases are the same gather-group-sum the
Main-Phase SpMV runs, so each is a :class:`~repro.core.kernels.ReducePlan`
built once at prepare time and run through the one dispatcher,
:func:`repro.core.kernels.reduce` — same ``--kernel`` rungs, worker
selection, race proof and fault-injection sites as the Main-Phase.  Phase
plans cut their partitions into ~equal-message pieces at run boundaries.

Bit-identity: the plan stable-sorts the push stream on destination, so
each destination's messages keep their source-major order and the
bincount base reproduces the legacy ``np.repeat`` + ``bincount`` push bit
for bit; a CSC's pull stream is already destination-major, so the
reduceat base is exactly the legacy ``segment_reduce`` pull.
"""

from __future__ import annotations

import numpy as np

from .kernels import ReducePlan, build_plan, reduce, resolve_kernel


def build_push_plan(
    csr,
    *,
    values=None,
    num_rows: int | None = None,
    max_parts: int | None = None,
    name: str = "push",
) -> ReducePlan:
    """Plan a push phase (seed -> regular) over a CSR's edge stream.

    ``num_rows`` defaults to the CSR's column count; ``values`` are
    per-edge weights in the CSR's own edge order.
    """
    return build_plan(
        name,
        csr.num_cols if num_rows is None else num_rows,
        csr.row_ids(),
        csr.indices,
        values=values,
        max_parts=max_parts,
    )


def build_pull_plan(
    csc,
    *,
    values=None,
    max_parts: int | None = None,
    name: str = "pull",
) -> ReducePlan:
    """Plan a pull phase (sink <- sources) over a CSC: its edge stream is
    already destination-major, so the plan needs no sort and its runs are
    exactly the non-empty rows."""
    dst = np.repeat(
        np.arange(csc.num_rows, dtype=np.int64), np.diff(csc.indptr)
    )
    return build_plan(
        name, csc.num_rows, csc.indices, dst,
        values=values, max_parts=max_parts,
    )


def phase_reduce(
    plan: ReducePlan,
    x,
    *,
    kernel: str = "auto",
    max_workers: int | None = None,
) -> np.ndarray:
    """Run one phase reduce on the named backend
    (:func:`repro.core.kernels.reduce`)."""
    return reduce(plan, x, kernel=kernel, max_workers=max_workers)


# --------------------------------------------------------------------- #
# machine-model trace
# --------------------------------------------------------------------- #
def trace_phase_reduce(
    plan: ReducePlan,
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
