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

from .kernels import ReducePlan, build_plan, reduce


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

