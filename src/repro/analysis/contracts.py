"""Layout contracts: validators for the structures the engines build.

Every validator encodes one structural invariant the paper's design relies
on (Section 4.1's filtering/relabeling, Fig. 2–3's mixed representation,
Section 4.2's 2-D blocking) and returns a :class:`Check` instead of
raising, so a whole report can be assembled even when early checks fail:

* :func:`check_csr` — monotone offsets spanning the index array, in-range
  column ids, sorted rows (the mixed CSR/CSC sub-structures);
* :func:`check_permutation` — the relabeling permutation is a bijection;
* :func:`check_class_boundaries` — the filter's class slices partition the
  id space, every relabeled node lands in its class's slice, hubs sit at
  the front of the regular range, and relative order inside each group is
  preserved (the paper's "minimal disruption" property);
* :func:`check_bins` — block offsets monotone and edge-covering, edges
  confined to their blocks in both scatter and gather order, and the
  gather permutation bijective;
* :func:`check_layout` — bins plus the race-freedom proof of the
  layout's reduce plan (:func:`repro.analysis.races.prove_schedule`,
  which owns every plan check) as one report.

:func:`analyze_graph` runs the full pipeline (filter → mixed → partition)
on a graph and reports every contract — the ``python -m repro analyze``
subcommand; engines run the same checks under ``--validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ContractError, RaceError
from .races import prove_schedule, replay_plan


@dataclass(frozen=True)
class Check:
    """Outcome of one contract validation."""

    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        """One report line."""
        status = "ok  " if self.passed else "FAIL"
        return f"  {status}  {self.name:<24} {self.detail}"


@dataclass(frozen=True)
class ContractReport:
    """A named collection of contract check outcomes."""

    title: str
    checks: tuple = field(default=())

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.passed for c in self.checks)

    @property
    def num_failed(self) -> int:
        """Count of failed checks."""
        return sum(not c.passed for c in self.checks)

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [self.title]
        lines.extend(c.render() for c in self.checks)
        lines.append(
            f"  {len(self.checks)} checks, {self.num_failed} failed"
            if self.num_failed
            else f"  {len(self.checks)} checks, all passed"
        )
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.ContractError` if any check failed."""
        if not self.ok:
            failed = [c for c in self.checks if not c.passed]
            raise ContractError(
                "; ".join(f"{c.name}: {c.detail}" for c in failed)
            )


def _check(name: str, ok: bool, good: str, bad: str) -> Check:
    return Check(name, bool(ok), good if ok else bad)


# --------------------------------------------------------------------- #
# individual validators
# --------------------------------------------------------------------- #
def check_csr(csr: Any, *, name: str = "csr") -> Check:
    """Validate one CSR/CSC sub-structure's offset and index arrays."""
    indptr = np.asarray(csr.indptr)
    indices = np.asarray(csr.indices)
    if indptr.ndim != 1 or indptr.size != csr.num_rows + 1:
        return Check(
            name, False,
            f"indptr length {indptr.size} != num_rows+1 "
            f"({csr.num_rows + 1})",
        )
    if indptr.size and (indptr[0] != 0 or indptr[-1] != indices.size):
        return Check(
            name, False,
            f"indptr spans [{indptr[0]}, {indptr[-1]}], expected "
            f"[0, {indices.size}]",
        )
    diffs = np.diff(indptr)
    if diffs.size and int(diffs.min()) < 0:
        row = int(np.argmax(diffs < 0))
        return Check(name, False, f"indptr decreases at row {row}")
    if indices.size:
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= csr.num_cols:
            return Check(
                name, False,
                f"indices span [{lo}, {hi}], outside [0, {csr.num_cols})",
            )
        within = np.ones(indices.size, dtype=bool)
        starts = indptr[1:-1]  # row starts may restart the order
        within[starts[starts < indices.size]] = False
        if not (np.diff(indices) >= 0)[within[1:]].all():
            return Check(name, False, "row neighbor lists are not sorted")
    return Check(
        name, True,
        f"{csr.num_rows}x{csr.num_cols}, {indices.size} edges",
    )


def check_permutation(
    perm: Any, *, name: str = "permutation"
) -> Check:
    """Validate that ``perm`` is a bijection of ``0..n-1``."""
    perm = np.asarray(perm)
    n = perm.size
    if perm.ndim != 1:
        return Check(name, False, f"expected 1-D, got shape {perm.shape}")
    if n and (int(perm.min()) < 0 or int(perm.max()) >= n):
        return Check(
            name, False,
            f"values span [{int(perm.min())}, {int(perm.max())}], "
            f"outside [0, {n})",
        )
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    missing = int(n - np.count_nonzero(seen))
    if missing:
        first = int(np.argmin(seen))
        return Check(
            name, False,
            f"{missing} ids never produced (first: {first}) — not a "
            "bijection",
        )
    return Check(name, True, f"bijection over [0, {n})")


def check_class_boundaries(plan: Any, graph: Any = None) -> Check:
    """Validate the filter plan's class boundary metadata.

    The four class slices must partition ``[0, n)`` in the paper's order
    (regular, seed, sink, isolated) with hubs at the front of the regular
    range, and the relabeling must preserve relative order inside every
    group.  With ``graph`` given, each relabeled node's class is also
    recomputed from the degree arrays and compared.
    """
    name = "class-boundaries"
    n = plan.num_nodes
    counts = (
        plan.num_regular, plan.num_seed, plan.num_sink, plan.num_isolated
    )
    if any(c < 0 for c in counts) or sum(counts) != n:
        return Check(
            name, False,
            f"class counts {counts} do not partition [0, {n})",
        )
    if not 0 <= plan.num_hubs <= plan.num_regular:
        return Check(
            name, False,
            f"hub count {plan.num_hubs} outside the regular range "
            f"[0, {plan.num_regular}]",
        )
    slices = (
        plan.regular_slice, plan.seed_slice,
        plan.sink_slice, plan.isolated_slice,
    )
    cursor = 0
    for s, count in zip(slices, counts):
        if s.start != cursor or s.stop - s.start != count:
            return Check(
                name, False,
                f"slice {s} misaligned (expected start {cursor}, "
                f"length {count})",
            )
        cursor = s.stop
    # Order preservation: within each group (hubs, regular non-hubs, and
    # the other classes) the inverse permutation must be increasing.
    groups = [
        (0, plan.num_hubs),
        (plan.num_hubs, plan.num_regular),
        (plan.seed_slice.start, plan.seed_slice.stop),
        (plan.sink_slice.start, plan.sink_slice.stop),
        (plan.isolated_slice.start, plan.isolated_slice.stop),
    ]
    for lo, hi in groups:
        segment = plan.inverse[lo:hi]
        if segment.size > 1 and int(np.diff(segment).min()) <= 0:
            return Check(
                name, False,
                f"relative order not preserved inside new-id range "
                f"[{lo}, {hi})",
            )
    if graph is not None:
        from ..graphs.classify import classify_nodes

        cc = classify_nodes(graph)
        expected = np.asarray(cc.classes, dtype=np.int64)
        boundaries = np.cumsum((0,) + counts)
        got = (
            np.searchsorted(boundaries[1:], plan.perm, side="right")
            if n
            else np.empty(0, dtype=np.int64)
        )
        if n and not np.array_equal(got, expected):
            bad = int(np.flatnonzero(got != expected)[0])
            return Check(
                name, False,
                f"node {bad} relabeled into class {int(got[bad])} but "
                f"classified as {int(expected[bad])}",
            )
        hub_front = cc.hub_mask[plan.inverse[: plan.num_hubs]]
        if plan.num_hubs and not hub_front.all():
            return Check(
                name, False,
                "non-hub node found inside the hub front-range",
            )
    return Check(
        name, True,
        f"regular {plan.num_regular} (hubs {plan.num_hubs}) | seed "
        f"{plan.num_seed} | sink {plan.num_sink} | isolated "
        f"{plan.num_isolated}",
    )


def check_bins(layout: Any) -> Check:
    """Validate the 2-D block layout's permutations and offsets."""
    name = "bins"
    m = layout.num_edges
    b = layout.num_blocks_per_side
    c = layout.block_nodes
    for ptr_name in ("scatter_block_ptr", "gather_block_ptr"):
        ptr = getattr(layout, ptr_name)
        if ptr.size != b * b + 1:
            return Check(
                name, False,
                f"{ptr_name} length {ptr.size} != b*b+1 ({b * b + 1})",
            )
        if ptr[0] != 0 or ptr[-1] != m:
            return Check(
                name, False,
                f"{ptr_name} spans [{int(ptr[0])}, {int(ptr[-1])}], "
                f"expected [0, {m}]",
            )
        if ptr.size > 1 and int(np.diff(ptr).min()) < 0:
            return Check(name, False, f"{ptr_name} decreases")
    perm_check = check_permutation(layout.gather_perm, name="gather_perm")
    if not perm_check.passed:
        return Check(name, False, f"gather_perm: {perm_check.detail}")
    if m:
        # int64 before the block product: i_s * b wraps int32 once
        # b*b crosses 2**31 (the PR 5 overflow class).
        i_s = layout.src_scatter.astype(np.int64) // c
        j_s = layout.dst_scatter.astype(np.int64) // c
        scatter_blocks = i_s * b + j_s
        if int(np.diff(scatter_blocks).min() if m > 1 else 0) < 0:
            return Check(
                name, False, "scatter order is not block-row major"
            )
        expected_ptr = np.zeros(b * b + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(scatter_blocks, minlength=b * b),
            out=expected_ptr[1:],
        )
        if not np.array_equal(expected_ptr, layout.scatter_block_ptr):
            return Check(
                name, False,
                "scatter_block_ptr does not match the edges' actual "
                "block membership",
            )
        gather_blocks = (
            j_s[layout.gather_perm] * b + i_s[layout.gather_perm]
        )
        if m > 1 and int(np.diff(gather_blocks).min()) < 0:
            return Check(
                name, False, "gather order is not block-column major"
            )
        if not np.array_equal(
            layout.dst_gather, layout.dst_scatter[layout.gather_perm]
        ):
            return Check(
                name, False,
                "dst_gather disagrees with gather_perm over dst_scatter",
            )
    if layout.values_scatter is not None and (
        layout.values_scatter.shape != layout.src_scatter.shape
    ):
        return Check(
            name, False,
            "values_scatter is not aligned with the edge arrays",
        )
    return Check(name, True, f"{b}x{b} blocks of {c} nodes, {m} edges")


def check_layout(layout: Any, *, dynamic: bool = False) -> ContractReport:
    """Full layout report: bin structure plus the race-freedom proof of
    the layout's reduce plan (and its dynamic replay)."""
    checks = [check_bins(layout)]
    try:
        proof = prove_schedule(layout.reduce_plan)
        checks.append(Check("race-proof", True, proof.describe()))
    except RaceError as exc:
        checks.append(Check("race-proof", False, str(exc)))
    if dynamic:
        try:
            replay_plan(layout.reduce_plan)
            checks.append(
                Check("race-replay", True, "replay stayed inside the proof")
            )
        except RaceError as exc:
            checks.append(Check("race-replay", False, str(exc)))
    return ContractReport(
        f"layout contract ({layout.num_nodes} nodes, "
        f"{layout.num_edges} edges)",
        tuple(checks),
    )


# --------------------------------------------------------------------- #
# whole-pipeline report
# --------------------------------------------------------------------- #
def analyze_graph(
    graph: Any,
    *,
    block_nodes: int = 512,
    balance: bool = True,
    dynamic: bool = False,
) -> ContractReport:
    """Run the filter → mixed → partition pipeline on ``graph`` and
    validate every contract along the way (the ``analyze`` subcommand)."""
    from ..core.filtering import filter_graph
    from ..core.mixed_format import build_mixed
    from ..core.partition import partition_regular

    checks = [check_csr(graph.csr, name="csr:graph")]
    plan = filter_graph(graph)
    checks.append(check_permutation(plan.perm, name="permutation"))
    checks.append(check_class_boundaries(plan, graph))
    mixed = build_mixed(graph, plan)
    checks.append(check_csr(mixed.rr, name="csr:regular"))
    checks.append(check_csr(mixed.seed_to_reg, name="csr:seed"))
    checks.append(check_csr(mixed.sink_csc, name="csc:sink"))
    edges_covered = (
        mixed.rr.num_edges
        + mixed.seed_to_reg.num_edges
        + mixed.sink_csc.num_edges
    )
    checks.append(
        _check(
            "edge-coverage",
            edges_covered == graph.num_edges,
            f"all {graph.num_edges} edges stored exactly once",
            f"mixed stores {edges_covered} of {graph.num_edges} edges",
        )
    )
    partition = partition_regular(
        mixed.rr, block_nodes, balance=balance
    )
    layout_report = check_layout(partition.layout, dynamic=dynamic)
    checks.extend(layout_report.checks)
    checks.append(
        _check(
            "task-coverage",
            int(partition.task_loads().sum()) == mixed.rr.num_edges,
            f"{partition.num_tasks} tasks cover all "
            f"{mixed.rr.num_edges} regular edges "
            f"(imbalance {partition.load_imbalance():.2f})",
            "block tasks do not cover the regular edge set",
        )
    )
    return ContractReport(
        f"contract report: {graph.num_nodes} nodes, {graph.num_edges} "
        f"edges, block_nodes={block_nodes}",
        tuple(checks),
    )
