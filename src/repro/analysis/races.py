"""Race-freedom prover for the thread-pool kernel's task schedule.

The ``parallel`` SpMV backend (:func:`repro.core.kernels.spmv_parallel`)
runs every Scatter block task and every Gather block-column on a thread
pool, with a barrier between the phases.  Its correctness rests on
structural invariants of the :class:`~repro.frameworks.blocking.BlockLayout`
metadata — disjoint per-task edge slices, column-confined destinations,
monotone block offsets — all checkable *before* any thread runs:

* **Static proof** (:func:`prove_schedule`): compute every task's read and
  write sets as half-open index intervals over the named shared arrays
  (``x``, ``bins``, ``y``) and prove pairwise write-write and read-write
  disjointness per phase, plus exact coverage of the bins by the Scatter
  writes (a gap would make Gather read stale slots).  Violations raise a
  structured :class:`~repro.errors.RaceError` naming the offending task
  pair and the overlapping range.
* **Dynamic cross-check** (:func:`dynamic_race_check`, enabled with the
  ``--race-check`` CLI flag or ``REPRO_RACE_CHECK=1``): replay the
  schedule's *actual* per-task touched indices — read straight from the
  permutation/offset arrays the kernel would index with — and verify each
  task stays inside its statically claimed intervals and that every bins
  slot is written exactly once.

Both run on metadata only (no SpMV executed); the static proof is cheap
enough — O(m) NumPy reductions — that the engines run it at every layout
build, amortized against the O(m log m) layout sorts.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..errors import RaceError

#: environment variable enabling the dynamic cross-check on kernel dispatch.
RACE_CHECK_ENV = "REPRO_RACE_CHECK"

#: shared-array names used by the blocked kernel's schedule.
X_ARRAY = "x"
BINS_ARRAY = "bins"
Y_ARRAY = "y"


@dataclass(frozen=True)
class AccessInterval:
    """One task's access to a half-open index range of a named array."""

    array: str
    lo: int
    hi: int
    write: bool

    def overlap(self, other: "AccessInterval") -> tuple[int, int] | None:
        """Overlapping ``(lo, hi)`` range with ``other``, or None."""
        if self.array != other.array:
            return None
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return (lo, hi) if lo < hi else None


@dataclass(frozen=True)
class TaskAccess:
    """One parallel task's full access set (its label plus intervals)."""

    label: str
    intervals: tuple

    def writes(self, array: str) -> list:
        """Write intervals touching ``array``."""
        return [
            iv for iv in self.intervals if iv.write and iv.array == array
        ]


@dataclass(frozen=True)
class RaceProof:
    """Evidence record of one successful schedule proof."""

    num_scatter_tasks: int
    num_gather_tasks: int
    num_intervals: int
    arrays: tuple
    bases: tuple
    num_edges: int
    num_nodes: int

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{self.num_scatter_tasks} scatter + "
            f"{self.num_gather_tasks} gather tasks over "
            f"{', '.join(self.arrays)} "
            f"({self.num_intervals} intervals, "
            f"bases: {', '.join(self.bases)}) — race-free"
        )

    def restricted(self, bases: tuple) -> "RaceProof":
        """This proof over a subset of its bases: each base's Gather is
        one two-interval task per block-column (:func:`gather_accesses`),
        so the subset's counts follow without re-proving."""
        if not set(bases) <= set(self.bases):
            raise RaceError(f"proof over {self.bases} does not cover {bases}")
        per_base = self.num_gather_tasks // len(self.bases)
        dropped = per_base * (len(self.bases) - len(bases))
        return replace(
            self,
            num_gather_tasks=self.num_gather_tasks - dropped,
            num_intervals=self.num_intervals - 2 * dropped,
            bases=tuple(bases),
        )


def race_check_enabled() -> bool:
    """True when ``REPRO_RACE_CHECK`` requests the dynamic cross-check."""
    return os.environ.get(RACE_CHECK_ENV, "").strip() not in (
        "", "0", "false", "off",
    )


# --------------------------------------------------------------------- #
# access-set computation
# --------------------------------------------------------------------- #
def _task_span(task: Any) -> tuple[int, int, int | None]:
    """Normalize one scatter task to ``(lo, hi, block_id-or-None)``."""
    if isinstance(task, tuple):
        lo, hi = int(task[0]), int(task[1])
        return lo, hi, None
    return int(task.start), int(task.end), getattr(task, "block_id", None)


def scatter_accesses(layout: Any, tasks: Any = None) -> list:
    """Read/write sets of the Scatter phase, one per task.

    Each task owns a contiguous edge slice ``[lo, hi)`` in scatter order:
    it writes ``bins[lo:hi]`` and reads the ``x`` segment of its owning
    block-row (derived from the task's block id, or from the slice's
    actual source range when the task carries no block id).  Raises
    :class:`RaceError` when a task's slice escapes its claimed block or
    the layout's edge range.
    """
    m = layout.num_edges
    c = layout.block_nodes
    b = layout.num_blocks_per_side
    src = layout.src_scatter
    ptr = layout.scatter_block_ptr
    if tasks is None:
        tasks = [
            (int(ptr[blk]), int(ptr[blk + 1]))
            for blk in range(ptr.size - 1)
            if ptr[blk + 1] > ptr[blk]
        ]
    accesses = []
    for index, task in enumerate(tasks):
        lo, hi, block_id = _task_span(task)
        label = (
            f"scatter[{index}]"
            if block_id is None
            else f"scatter[{index}](block {block_id})"
        )
        if not 0 <= lo <= hi <= m:
            raise RaceError(
                f"{label} writes bins[{lo}:{hi}) outside the layout's "
                f"edge range [0, {m})",
                task_a=label,
                array=BINS_ARRAY,
                overlap=(lo, hi),
            )
        if block_id is not None:
            if not 0 <= block_id < b * b:
                raise RaceError(
                    f"{label} claims block {block_id} outside the "
                    f"{b}x{b} grid",
                    task_a=label,
                    array=BINS_ARRAY,
                )
            blo, bhi = int(ptr[block_id]), int(ptr[block_id + 1])
            if not blo <= lo <= hi <= bhi:
                raise RaceError(
                    f"{label} slice [{lo}:{hi}) escapes its block's "
                    f"scatter span [{blo}:{bhi})",
                    task_a=label,
                    array=BINS_ARRAY,
                    overlap=(lo, hi),
                )
            row = block_id // b
            x_lo, x_hi = row * c, min((row + 1) * c, layout.num_nodes)
        elif hi > lo:
            x_lo = int(src[lo:hi].min())
            x_hi = int(src[lo:hi].max()) + 1
        else:
            x_lo = x_hi = 0
        if hi > lo and block_id is not None:
            s_min, s_max = int(src[lo:hi].min()), int(src[lo:hi].max())
            if s_min < x_lo or s_max >= x_hi:
                raise RaceError(
                    f"{label} reads x[{s_min}..{s_max}] outside its "
                    f"block-row range [{x_lo}:{x_hi})",
                    task_a=label,
                    array=X_ARRAY,
                    overlap=(s_min, s_max + 1),
                )
        accesses.append(
            TaskAccess(
                label,
                (
                    AccessInterval(BINS_ARRAY, lo, hi, write=True),
                    AccessInterval(X_ARRAY, x_lo, x_hi, write=False),
                ),
            )
        )
    return accesses


def gather_accesses(layout: Any, base: str = "bincount") -> list:
    """Read/write sets of the Gather phase, one per block-column.

    Column ``j`` writes the ``y`` segment ``[j*c, min((j+1)*c, n))`` and
    reads bins slots selected by the precomputed permutation.  The claimed
    write interval is verified against the actual destination data
    (``dst_gather`` for the bincount base, the reduce plan's ``run_dst``
    for the reduceat base); a destination escaping its column would be a
    cross-task write — raised as :class:`RaceError`.
    """
    if base not in ("bincount", "reduceat"):
        raise RaceError(f"unknown gather base kernel {base!r}")
    n = layout.num_nodes
    c = layout.block_nodes
    b = layout.num_blocks_per_side
    m = layout.num_edges
    accesses = []
    for j in range(b):
        label = f"gather[{j}]({base})"
        col_lo, col_hi = j * c, min((j + 1) * c, n)
        if base == "bincount":
            gp = layout.gather_block_ptr
            lo, hi = int(gp[j * b]), int(gp[(j + 1) * b])
            dsts = layout.dst_gather[lo:hi]
        else:
            plan = layout.reduce_plan
            rlo, rhi = int(plan.col_run_ptr[j]), int(plan.col_run_ptr[j + 1])
            dsts = plan.run_dst[rlo:rhi]
        if dsts.size:
            d_min, d_max = int(dsts.min()), int(dsts.max())
            if d_min < col_lo or d_max >= col_hi:
                raise RaceError(
                    f"{label} writes y[{d_min}..{d_max}] outside its "
                    f"column range [{col_lo}:{col_hi})",
                    task_a=label,
                    array=Y_ARRAY,
                    overlap=(d_min, d_max + 1),
                )
        accesses.append(
            TaskAccess(
                label,
                (
                    AccessInterval(Y_ARRAY, col_lo, col_hi, write=True),
                    AccessInterval(BINS_ARRAY, 0, m, write=False),
                ),
            )
        )
    return accesses


# --------------------------------------------------------------------- #
# disjointness proof
# --------------------------------------------------------------------- #
def prove_disjoint(accesses: list) -> None:
    """Prove no two tasks' accesses conflict (write-write or read-write
    overlap on the same array).  Raises :class:`RaceError` naming the
    offending pair; same-task overlaps are allowed."""
    by_array: dict = {}
    for access in accesses:
        for iv in access.intervals:
            if iv.hi > iv.lo:
                by_array.setdefault(iv.array, []).append(
                    (iv, access.label)
                )
    for array, entries in by_array.items():
        writes = sorted(
            (e for e in entries if e[0].write), key=lambda e: e[0].lo
        )
        for (iv_a, label_a), (iv_b, label_b) in zip(writes, writes[1:]):
            overlap = iv_a.overlap(iv_b)
            if overlap and label_a != label_b:
                raise RaceError(
                    f"write-write race on {array}[{overlap[0]}:"
                    f"{overlap[1]}) between {label_a} and {label_b}",
                    task_a=label_a,
                    task_b=label_b,
                    array=array,
                    overlap=overlap,
                )
        reads = [e for e in entries if not e[0].write]
        if not (reads and writes):
            continue
        write_los = [iv.lo for iv, _ in writes]
        for iv_r, label_r in reads:
            # Writes are sorted and (post-check) pairwise disjoint, so
            # both lo and hi are monotone: scan backward from the last
            # write starting before the read's end until overlap becomes
            # impossible.
            k = int(np.searchsorted(write_los, iv_r.hi)) - 1
            while k >= 0:
                iv_w, label_w = writes[k]
                overlap = iv_r.overlap(iv_w)
                if overlap is None:
                    break
                if label_r != label_w:
                    raise RaceError(
                        f"read-write race on {array}[{overlap[0]}:"
                        f"{overlap[1]}) between {label_r} (read) and "
                        f"{label_w} (write)",
                        task_a=label_r,
                        task_b=label_w,
                        array=array,
                        overlap=overlap,
                    )
                k -= 1


def _prove_bins_coverage(scatter: list, num_edges: int) -> None:
    """The Scatter writes must tile ``bins`` exactly: any gap is a slot
    the Gather phase would read without a writer."""
    spans = sorted(
        (iv.lo, iv.hi, access.label)
        for access in scatter
        for iv in access.writes(BINS_ARRAY)
        if iv.hi > iv.lo
    )
    cursor = 0
    for lo, hi, label in spans:
        if lo > cursor:
            raise RaceError(
                f"bins[{cursor}:{lo}) is read by the Gather phase but "
                "written by no Scatter task",
                array=BINS_ARRAY,
                overlap=(cursor, lo),
            )
        cursor = max(cursor, hi)
    if cursor < num_edges:
        raise RaceError(
            f"bins[{cursor}:{num_edges}) is read by the Gather phase "
            "but written by no Scatter task",
            array=BINS_ARRAY,
            overlap=(cursor, num_edges),
        )


def prove_schedule(
    layout: Any,
    tasks: Any = None,
    *,
    bases: tuple = ("bincount", "reduceat"),
) -> RaceProof:
    """Prove the full Scatter/Gather schedule of ``layout`` race-free.

    Per phase (the phases themselves are separated by a pool barrier):
    Scatter writes are pairwise disjoint and exactly tile the bins, the
    per-task ``x`` reads stay confined to the claimed block-rows, and for
    every accumulation ``base`` the Gather writes stay confined to (and
    pairwise disjoint across) their block-columns.  Returns the
    :class:`RaceProof` evidence record; raises :class:`RaceError` on the
    first conflict found.
    """
    scatter = scatter_accesses(layout, tasks)
    prove_disjoint(scatter)
    _prove_bins_coverage(scatter, layout.num_edges)
    num_gather = 0
    num_intervals = sum(len(a.intervals) for a in scatter)
    for base in bases:
        gather = gather_accesses(layout, base)
        prove_disjoint(gather)
        num_gather += len(gather)
        num_intervals += sum(len(a.intervals) for a in gather)
    return RaceProof(
        num_scatter_tasks=len(scatter),
        num_gather_tasks=num_gather,
        num_intervals=num_intervals,
        arrays=(X_ARRAY, BINS_ARRAY, Y_ARRAY),
        bases=tuple(bases),
        num_edges=layout.num_edges,
        num_nodes=layout.num_nodes,
    )


# --------------------------------------------------------------------- #
# dynamic cross-check
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DynamicCheckResult:
    """Summary of one instrumented schedule replay."""

    proof: RaceProof
    touched_bins: int
    touched_y: int

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"dynamic replay touched {self.touched_bins} bins slots and "
            f"{self.touched_y} y slots — all inside the static proof"
        )


def dynamic_race_check(
    layout: Any,
    tasks: Any = None,
    *,
    bases: tuple = ("bincount", "reduceat"),
) -> DynamicCheckResult:
    """Replay the schedule's actual per-task indices against the proof.

    For every Scatter task the actually-touched indices are recorded —
    writes are the task's bins slice, reads the concrete ``src`` values
    the kernel would gather — and checked to stay inside the statically
    claimed intervals, with a global write-count pass verifying each bins
    slot is written exactly once.  The Gather phase is replayed per base
    from the same permutation arrays the kernel indexes with
    (``gather_perm``/``dst_gather`` or the reduce plan): reads must land
    on written bins slots, writes inside the claimed column and nowhere
    twice across tasks.
    """
    proof = prove_schedule(layout, tasks, bases=bases)
    scatter = scatter_accesses(layout, tasks)
    m = layout.num_edges
    src = layout.src_scatter

    write_count = np.zeros(m, dtype=np.int32)
    for access in scatter:
        for iv in access.writes(BINS_ARRAY):
            write_count[iv.lo : iv.hi] += 1
        (x_claim,) = [
            iv for iv in access.intervals if iv.array == X_ARRAY
        ]
        (bins_claim,) = access.writes(BINS_ARRAY)
        touched = src[bins_claim.lo : bins_claim.hi]
        if touched.size and (
            int(touched.min()) < x_claim.lo
            or int(touched.max()) >= x_claim.hi
        ):
            raise RaceError(
                f"dynamic check: {access.label} read x indices outside "
                f"its claimed interval [{x_claim.lo}:{x_claim.hi})",
                task_a=access.label,
                array=X_ARRAY,
            )
    over = np.flatnonzero(write_count > 1)
    if over.size:
        slot = int(over[0])
        owners = [
            a.label
            for a in scatter
            for iv in a.writes(BINS_ARRAY)
            if iv.lo <= slot < iv.hi
        ]
        raise RaceError(
            f"dynamic check: bins[{slot}] written {int(write_count[slot])} "
            f"times (by {', '.join(owners[:2])})",
            task_a=owners[0] if owners else None,
            task_b=owners[1] if len(owners) > 1 else None,
            array=BINS_ARRAY,
            overlap=(slot, slot + 1),
        )
    written = write_count == 1

    n = layout.num_nodes
    touched_y = 0
    for base in bases:
        y_count = np.zeros(n, dtype=np.int32)
        read_count = np.zeros(m, dtype=np.int32)
        for j, access in enumerate(gather_accesses(layout, base)):
            (y_claim,) = access.writes(Y_ARRAY)
            if base == "bincount":
                gp = layout.gather_block_ptr
                b = layout.num_blocks_per_side
                lo, hi = int(gp[j * b]), int(gp[(j + 1) * b])
                read_slots = layout.gather_perm[lo:hi]
                dsts = layout.dst_gather[lo:hi]
            else:
                plan = layout.reduce_plan
                elo = int(plan.col_edge_ptr[j])
                ehi = int(plan.col_edge_ptr[j + 1])
                rlo = int(plan.col_run_ptr[j])
                rhi = int(plan.col_run_ptr[j + 1])
                read_slots = plan.order[elo:ehi]
                dsts = plan.run_dst[rlo:rhi]
            if read_slots.size:
                if not written[read_slots].all():
                    stale = int(read_slots[~written[read_slots]][0])
                    raise RaceError(
                        f"dynamic check: {access.label} reads "
                        f"bins[{stale}] which no Scatter task wrote",
                        task_a=access.label,
                        array=BINS_ARRAY,
                        overlap=(stale, stale + 1),
                    )
                read_count[read_slots] += 1
            if dsts.size:
                if (
                    int(dsts.min()) < y_claim.lo
                    or int(dsts.max()) >= y_claim.hi
                ):
                    raise RaceError(
                        f"dynamic check: {access.label} wrote y outside "
                        f"its claimed interval "
                        f"[{y_claim.lo}:{y_claim.hi})",
                        task_a=access.label,
                        array=Y_ARRAY,
                    )
                y_count[np.unique(dsts)] += 1
        # Every written bins slot must be consumed exactly once per
        # base: a skip drops a message, a duplicate double-counts it.
        uneven = np.flatnonzero(written & (read_count != 1))
        if uneven.size:
            slot = int(uneven[0])
            raise RaceError(
                f"dynamic check: bins[{slot}] consumed "
                f"{int(read_count[slot])} times by the {base} gather "
                "(expected exactly once)",
                array=BINS_ARRAY,
                overlap=(slot, slot + 1),
            )
        collisions = np.flatnonzero(y_count > 1)
        if collisions.size:
            slot = int(collisions[0])
            raise RaceError(
                f"dynamic check: y[{slot}] written by more than one "
                f"gather task ({base} base)",
                array=Y_ARRAY,
                overlap=(slot, slot + 1),
            )
        touched_y += int(np.count_nonzero(y_count))
    return DynamicCheckResult(
        proof=proof,
        touched_bins=int(np.count_nonzero(written)),
        touched_y=touched_y,
    )


# --------------------------------------------------------------------- #
# phase-plan proof (Pre-Phase seed push / Post-Phase sink pull)
# --------------------------------------------------------------------- #
#: shared-array name for a phase plan's message buffer.
MSGS_ARRAY = "msgs"


@dataclass(frozen=True)
class PhasePlanProof:
    """Evidence record of one successful phase-plan proof."""

    name: str
    num_partitions: int
    num_messages: int
    num_runs: int
    num_rows: int

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"phase plan {self.name!r}: {self.num_partitions} partitions "
            f"over {self.num_messages} messages / {self.num_runs} runs "
            f"into {self.num_rows} rows — race-free"
        )


def phase_plan_accesses(plan: Any) -> tuple[list, list]:
    """Scatter/Gather access sets of a phase plan's partition schedule.

    Partition ``p`` scatters messages ``msgs[elo:ehi]`` (reading ``x`` at
    the slice's actual source range) and, after the pool barrier, gathers
    that same slice into the output row interval
    ``[run_dst[rlo], run_dst[rhi-1] + 1)`` — disjointness of those row
    intervals across partitions is exactly the bit-identity contract.
    """
    ep = plan.part_edge_ptr
    rp = plan.part_run_ptr
    scatter = []
    gather = []
    for p in range(plan.num_partitions):
        elo, ehi = int(ep[p]), int(ep[p + 1])
        rlo, rhi = int(rp[p]), int(rp[p + 1])
        if ehi > elo:
            seg = plan.src[elo:ehi]
            x_lo, x_hi = int(seg.min()), int(seg.max()) + 1
        else:
            x_lo = x_hi = 0
        scatter.append(
            TaskAccess(
                f"{plan.name}-scatter[{p}]",
                (
                    AccessInterval(MSGS_ARRAY, elo, ehi, write=True),
                    AccessInterval(X_ARRAY, x_lo, x_hi, write=False),
                ),
            )
        )
        if rhi > rlo:
            row_lo = int(plan.run_dst[rlo])
            row_hi = int(plan.run_dst[rhi - 1]) + 1
        else:
            row_lo = row_hi = 0
        gather.append(
            TaskAccess(
                f"{plan.name}-gather[{p}]",
                (
                    AccessInterval(Y_ARRAY, row_lo, row_hi, write=True),
                    AccessInterval(MSGS_ARRAY, elo, ehi, write=False),
                ),
            )
        )
    return scatter, gather


def _require(condition: bool, plan: Any, message: str) -> None:
    if not condition:
        raise RaceError(f"phase plan {plan.name!r}: {message}")


def prove_phase_plan(plan: Any) -> PhasePlanProof:
    """Prove a phase plan's partition schedule race-free.

    Structural invariants first — partition pointers tile messages and
    runs exactly, every interior cut lands on a run boundary (a split
    destination would be a cross-partition write), ``run_starts`` starts
    at 0 and is strictly increasing, ``run_dst`` is strictly increasing
    inside ``[0, num_rows)``, and the edge-aligned ``dst`` stream is the
    run table's expansion — then the generic interval-disjointness proof
    over the partition access sets.  Raises :class:`RaceError` on the
    first violation.
    """
    m = plan.num_messages
    runs = plan.num_runs
    ep = np.asarray(plan.part_edge_ptr)
    rp = np.asarray(plan.part_run_ptr)
    _require(
        ep.size == rp.size and ep.size >= 2,
        plan,
        "partition pointer tables disagree in length",
    )
    _require(
        int(ep[0]) == 0 and int(ep[-1]) == m and bool((np.diff(ep) >= 0).all()),
        plan,
        f"part_edge_ptr must tile [0, {m}) monotonically",
    )
    _require(
        int(rp[0]) == 0
        and int(rp[-1]) == runs
        and bool((np.diff(rp) >= 0).all()),
        plan,
        f"part_run_ptr must tile [0, {runs}) monotonically",
    )
    if runs:
        _require(
            int(plan.run_starts[0]) == 0
            and bool((np.diff(plan.run_starts) > 0).all())
            and int(plan.run_starts[-1]) < m,
            plan,
            "run_starts must start at 0 and be strictly increasing",
        )
        _require(
            bool((np.diff(plan.run_dst) > 0).all())
            and int(plan.run_dst[0]) >= 0
            and int(plan.run_dst[-1]) < plan.num_rows,
            plan,
            "run_dst must be strictly increasing inside "
            f"[0, {plan.num_rows})",
        )
        lengths = np.diff(np.append(plan.run_starts, m))
        _require(
            plan.dst.size == m
            and bool(
                np.array_equal(np.repeat(plan.run_dst, lengths), plan.dst)
            ),
            plan,
            "dst stream does not match the run table's expansion",
        )
        # Interior cuts must land on run boundaries.
        interior = rp[1:-1]
        _require(
            bool(np.array_equal(ep[1:-1], plan.run_starts[interior]))
            if interior.size
            else True,
            plan,
            "a partition cut splits a destination run",
        )
    else:
        _require(m == 0, plan, "messages present but no runs")
    # Coverage of the message buffer is already implied by the edge-ptr
    # tiling check above; what remains is pairwise disjointness.
    scatter, gather = phase_plan_accesses(plan)
    prove_disjoint(scatter)
    prove_disjoint(gather)
    return PhasePlanProof(
        name=plan.name,
        num_partitions=plan.num_partitions,
        num_messages=m,
        num_runs=runs,
        num_rows=plan.num_rows,
    )


def dynamic_phase_check(plan: Any) -> PhasePlanProof:
    """Replay a phase plan's actual per-partition indices.

    Each message slot must be written by exactly one scatter partition
    and consumed by exactly one gather partition, and every partition's
    concrete ``dst`` values must stay inside its claimed output rows.
    """
    proof = prove_phase_plan(plan)
    m = plan.num_messages
    write_count = np.zeros(m, dtype=np.int32)
    read_count = np.zeros(m, dtype=np.int32)
    ep, rp = plan.part_edge_ptr, plan.part_run_ptr
    for p in range(plan.num_partitions):
        elo, ehi = int(ep[p]), int(ep[p + 1])
        write_count[elo:ehi] += 1
        read_count[elo:ehi] += 1
        rlo, rhi = int(rp[p]), int(rp[p + 1])
        if rhi <= rlo:
            _require(
                ehi == elo,
                plan,
                f"partition {p} owns messages but no runs",
            )
            continue
        row_lo = int(plan.run_dst[rlo])
        row_hi = int(plan.run_dst[rhi - 1]) + 1
        dsts = plan.dst[elo:ehi]
        _require(
            dsts.size > 0
            and int(dsts.min()) >= row_lo
            and int(dsts.max()) < row_hi,
            plan,
            f"partition {p} writes rows outside its claimed interval "
            f"[{row_lo}:{row_hi})",
        )
    _require(
        bool((write_count == 1).all()) and bool((read_count == 1).all()),
        plan,
        "a message slot is not written/consumed exactly once",
    )
    return proof


# --------------------------------------------------------------------- #
# process-pool reduce proof (the parallel-mp backend)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MPScheduleProof:
    """Evidence record of one successful process-pool schedule proof."""

    name: str
    num_tasks: int
    num_messages: int
    num_rows: int

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"mp schedule {self.name!r}: {self.num_tasks} tasks over "
            f"{self.num_messages} messages into {self.num_rows} rows — "
            "process-disjoint"
        )


def prove_mp_reduce(
    name: str,
    tasks: Any,
    num_rows: int,
    num_messages: int,
    *,
    dst: Any = None,
    run_dst: Any = None,
) -> MPScheduleProof:
    """Prove a process-pool reduce task table race-free.

    ``tasks`` is the ``(T, 6)`` table ``(elo, ehi, rlo, rhi, row_lo,
    row_hi)`` a :class:`~repro.parallel.procpool.ShmReducePlan` ships to
    the workers.  Unlike the thread schedule there is no shared bins
    buffer — each worker computes its messages privately — so the proof
    obligations are: the edge slices are pairwise disjoint and tile
    ``[0, num_messages)`` exactly (no message dropped or double-counted
    across processes), the claimed output row intervals are pairwise
    disjoint (the lock-free writes into the shared ``y`` segment), and
    the *actual* destinations (``dst`` for the bincount base, the run
    table's ``run_dst`` for reduceat) stay inside each task's claimed
    rows.  Raises :class:`RaceError` on the first violation.
    """
    table = np.asarray(tasks, dtype=np.int64).reshape(-1, 6)
    accesses = []
    for t in range(table.shape[0]):
        elo, ehi, rlo, rhi, row_lo, row_hi = (int(v) for v in table[t])
        label = f"{name}[{t}]"
        if not 0 <= elo < ehi <= num_messages:
            raise RaceError(
                f"{label} claims messages [{elo}:{ehi}) outside "
                f"[0, {num_messages})",
                task_a=label,
                array=MSGS_ARRAY,
                overlap=(elo, ehi),
            )
        if not 0 <= row_lo < row_hi <= num_rows:
            raise RaceError(
                f"{label} claims output rows [{row_lo}:{row_hi}) "
                f"outside [0, {num_rows})",
                task_a=label,
                array=Y_ARRAY,
                overlap=(row_lo, row_hi),
            )
        if rhi > rlo:
            if run_dst is None:
                raise RaceError(
                    f"{label} claims runs [{rlo}:{rhi}) but the plan "
                    "carries no run table",
                    task_a=label,
                    array=Y_ARRAY,
                )
            seg = np.asarray(run_dst)[rlo:rhi]
            if int(seg.min()) < row_lo or int(seg.max()) >= row_hi:
                raise RaceError(
                    f"{label} run destinations escape its claimed rows "
                    f"[{row_lo}:{row_hi})",
                    task_a=label,
                    array=Y_ARRAY,
                    overlap=(int(seg.min()), int(seg.max()) + 1),
                )
        elif dst is not None:
            seg = np.asarray(dst)[elo:ehi]
            if int(seg.min()) < row_lo or int(seg.max()) >= row_hi:
                raise RaceError(
                    f"{label} destinations escape its claimed rows "
                    f"[{row_lo}:{row_hi})",
                    task_a=label,
                    array=Y_ARRAY,
                    overlap=(int(seg.min()), int(seg.max()) + 1),
                )
        accesses.append(
            TaskAccess(
                label,
                (
                    AccessInterval(MSGS_ARRAY, elo, ehi, write=True),
                    AccessInterval(Y_ARRAY, row_lo, row_hi, write=True),
                ),
            )
        )
    prove_disjoint(accesses)
    # The edge slices must tile the message range exactly: a gap is a
    # message no process reduces, i.e. a silently dropped contribution.
    spans = sorted(
        (iv.lo, iv.hi)
        for access in accesses
        for iv in access.writes(MSGS_ARRAY)
    )
    cursor = 0
    for lo, hi in spans:
        if lo > cursor:
            raise RaceError(
                f"mp schedule {name!r}: messages [{cursor}:{lo}) are "
                "owned by no task",
                array=MSGS_ARRAY,
                overlap=(cursor, lo),
            )
        cursor = max(cursor, hi)
    if cursor < num_messages:
        raise RaceError(
            f"mp schedule {name!r}: messages [{cursor}:{num_messages}) "
            "are owned by no task",
            array=MSGS_ARRAY,
            overlap=(cursor, num_messages),
        )
    return MPScheduleProof(
        name=name,
        num_tasks=int(table.shape[0]),
        num_messages=int(num_messages),
        num_rows=int(num_rows),
    )


# --------------------------------------------------------------------- #
# dispatch hook
# --------------------------------------------------------------------- #
# Keyed by id() because BlockLayout (frozen dataclass over ndarrays) is
# not hashable; the weak value evicts the entry when the layout dies, and
# the identity re-check guards against id reuse.
_checked_layouts: "weakref.WeakValueDictionary" = (
    weakref.WeakValueDictionary()
)


def ensure_layout_checked(layout: Any, tasks: Any = None) -> None:
    """Dynamic-check ``layout`` once per process (the ``--race-check`` /
    ``REPRO_RACE_CHECK=1`` wrap around kernel dispatch)."""
    if _checked_layouts.get(id(layout)) is layout:
        return
    dynamic_race_check(layout, tasks)
    _checked_layouts[id(layout)] = layout


_checked_phase_plans: "weakref.WeakValueDictionary" = (
    weakref.WeakValueDictionary()
)


def ensure_phase_plan_checked(plan: Any) -> None:
    """Dynamic-check a phase plan once per process (same wrap as
    :func:`ensure_layout_checked`, for the phase dispatch path)."""
    if _checked_phase_plans.get(id(plan)) is plan:
        return
    dynamic_phase_check(plan)
    _checked_phase_plans[id(plan)] = plan
