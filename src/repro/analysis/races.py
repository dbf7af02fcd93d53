"""Race-freedom prover for the segmented-reduce plan.

Every kernel rung runs a :class:`~repro.core.kernels.ReducePlan` by its
partitions: the thread rung scatters each partition's message slice and
gathers it into the partition's output rows, the process rung fuses both
per partition inside a worker.  Their correctness rests on structural
invariants of the plan, all checkable *before* any worker runs:

* **Static proof** (:func:`prove_schedule`): each partition's message
  interval and output row interval are pairwise disjoint across
  partitions (:func:`prove_disjoint`); the partition pointers tile the
  messages and runs exactly; every cut lands on a run boundary (a split
  destination would be a cross-partition write); ``run_starts`` and
  ``run_dst`` are strictly increasing; and the edge-aligned ``dst``
  stream is the run table's expansion.  Violations raise a structured
  :class:`~repro.errors.RaceError` naming the offending partition pair
  or range.  The checks are O(m) NumPy
  reductions, so the engines run them at every prepare.
* **Dynamic replay** (:func:`replay_plan`, enabled with the
  ``--race-check`` CLI flag or ``REPRO_RACE_CHECK=1``): walk each
  partition's *actual* indices — the ``dst`` values its reduce writes —
  and verify every message slot is owned by exactly one partition and
  every output row is written by at most one, inside its claimed
  interval.

One plan means one proof for all four rungs and all three phases; the
process pool ships the plan's own partition table, so it needs no proof
of its own.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import RaceError

#: environment variable enabling the dynamic replay on kernel dispatch.
RACE_CHECK_ENV = "REPRO_RACE_CHECK"

#: shared-array names of the plan's schedule: the message buffer and the
#: output rows.
MSGS_ARRAY = "msgs"
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
class PlanProof:
    """Evidence record of one successful plan proof."""

    name: str
    num_partitions: int
    num_messages: int
    num_runs: int
    num_rows: int

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"plan {self.name!r}: {self.num_partitions} partitions over "
            f"{self.num_messages} messages / {self.num_runs} runs into "
            f"{self.num_rows} rows — race-free"
        )


def race_check_enabled() -> bool:
    """True when ``REPRO_RACE_CHECK`` requests the dynamic replay."""
    return os.environ.get(RACE_CHECK_ENV, "").strip() not in (
        "", "0", "false", "off",
    )


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


# --------------------------------------------------------------------- #
# the plan proof
# --------------------------------------------------------------------- #
def _row_span(plan: Any, rlo: int, rhi: int) -> tuple[int, int]:
    """Output row interval ``[run_dst[rlo], run_dst[rhi-1] + 1)`` a
    partition writes (empty when it owns no runs)."""
    if rhi <= rlo:
        return 0, 0
    return int(plan.run_dst[rlo]), int(plan.run_dst[rhi - 1]) + 1


def plan_accesses(plan: Any) -> list:
    """Access sets of the plan's partitions: partition ``p`` writes its
    messages ``msgs[elo:ehi]`` (and reads them back after the thread
    rung's barrier) and writes its output rows."""
    accesses = []
    for p in range(plan.num_partitions):
        elo, ehi, rlo, rhi = plan.partition(p)
        row_lo, row_hi = _row_span(plan, rlo, rhi)
        accesses.append(
            TaskAccess(
                f"{plan.name}[{p}]",
                (
                    AccessInterval(MSGS_ARRAY, elo, ehi, write=True),
                    AccessInterval(Y_ARRAY, row_lo, row_hi, write=True),
                ),
            )
        )
    return accesses


def _require(condition: bool, plan: Any, message: str) -> None:
    if not condition:
        raise RaceError(f"plan {plan.name!r}: {message}")


def _prove_coverage(ptr: np.ndarray, total: int, plan: Any) -> None:
    """The partitions' message slices must tile ``[0, total)``: a gap is
    a message no partition reduces, i.e. a silently dropped
    contribution."""
    for lo, hi in ((0, int(ptr[0])), (int(ptr[-1]), total)):
        if hi > lo:
            raise RaceError(
                f"plan {plan.name!r}: messages [{lo}:{hi}) are owned by "
                "no partition",
                array=MSGS_ARRAY,
                overlap=(lo, hi),
            )
    _require(
        bool((np.diff(ptr) >= 0).all()),
        plan,
        "part_edge_ptr is not monotone",
    )


def prove_schedule(plan: Any) -> PlanProof:
    """Prove a reduce plan's partition schedule race-free for every rung.

    In order: the partition pointers stay inside the message and run
    ranges; the partitions' message and output-row intervals are
    pairwise disjoint (:func:`prove_disjoint` names the first
    conflicting pair); their message slices tile every message; the run
    table is well formed and every cut lands on a run boundary.  Raises
    :class:`RaceError` on the first violation; returns the
    :class:`PlanProof` evidence record.
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
        int(ep.min()) >= 0 and int(ep.max()) <= m,
        plan,
        f"part_edge_ptr claims messages outside [0, {m})",
    )
    _require(
        int(rp.min()) >= 0 and int(rp.max()) <= runs,
        plan,
        f"part_run_ptr claims runs outside [0, {runs})",
    )
    _require(
        plan.dst.size == m
        and (plan.values is None or plan.values.shape[0] == m),
        plan,
        "dst/values streams are not aligned with the messages",
    )
    prove_disjoint(plan_accesses(plan))
    _prove_coverage(ep, m, plan)
    _require(
        bool((np.diff(rp) >= 0).all()),
        plan,
        "part_run_ptr is not monotone",
    )
    if runs:
        starts = np.asarray(plan.run_starts)
        _require(
            int(starts[0]) == 0
            and bool((np.diff(starts) > 0).all())
            and int(starts[-1]) < m,
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
        lengths = np.diff(np.append(starts, m))
        _require(
            bool(np.array_equal(np.repeat(plan.run_dst, lengths), plan.dst)),
            plan,
            "dst stream does not match the run table's expansion",
        )
        _require(
            bool(np.array_equal(np.append(starts, m)[rp], ep)),
            plan,
            "a partition cut splits a destination run",
        )
    else:
        _require(m == 0, plan, "messages present but no runs")
    return PlanProof(
        name=plan.name,
        num_partitions=plan.num_partitions,
        num_messages=m,
        num_runs=runs,
        num_rows=plan.num_rows,
    )


def replay_plan(plan: Any) -> PlanProof:
    """Replay a plan's actual per-partition indices against its proof.

    Each message slot must be owned by exactly one partition, and each
    partition's concrete ``dst`` values must stay inside its claimed
    output rows, which no other partition writes.
    """
    proof = prove_schedule(plan)
    owners = np.zeros(plan.num_messages, dtype=np.int32)
    writers = np.zeros(plan.num_rows, dtype=np.int32)
    for p in range(plan.num_partitions):
        elo, ehi, rlo, rhi = plan.partition(p)
        owners[elo:ehi] += 1
        if ehi <= elo:
            continue
        row_lo, row_hi = _row_span(plan, rlo, rhi)
        dsts = plan.dst[elo:ehi]
        _require(
            row_hi > row_lo
            and int(dsts.min()) >= row_lo
            and int(dsts.max()) < row_hi,
            plan,
            f"partition {p} writes rows outside its claimed interval "
            f"[{row_lo}:{row_hi})",
        )
        writers[np.unique(dsts)] += 1
    _require(
        bool((owners == 1).all()),
        plan,
        "a message slot is not owned by exactly one partition",
    )
    _require(
        bool((writers <= 1).all()),
        plan,
        "an output row is written by more than one partition",
    )
    return proof


# --------------------------------------------------------------------- #
# dispatch hook
# --------------------------------------------------------------------- #
# Keyed by id() because plans (frozen dataclasses over ndarrays) are not
# hashable; the weak value evicts the entry when the plan dies, and the
# identity re-check guards against id reuse.
_checked_plans: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def ensure_plan_checked(plan: Any) -> None:
    """Replay ``plan`` once per process (the ``--race-check`` /
    ``REPRO_RACE_CHECK=1`` wrap around pool dispatch)."""
    if _checked_plans.get(id(plan)) is plan:
        return
    replay_plan(plan)
    _checked_plans[id(plan)] = plan
