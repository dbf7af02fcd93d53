"""Unit tests for the layout-contract validators
(`repro.analysis.contracts`)."""

import numpy as np
import pytest

from repro.analysis.contracts import (
    Check,
    ContractReport,
    analyze_graph,
    check_bins,
    check_class_boundaries,
    check_csr,
    check_layout,
    check_permutation,
)
from repro.core import MixenEngine, filter_graph
from repro.errors import ContractError
from repro.frameworks import BlockingEngine
from repro.frameworks.blocking import build_block_layout
from repro.graphs import load_dataset
from repro.graphs.csr import CSR


@pytest.fixture()
def small_csr():
    # Built fresh per test so in-place tampering cannot leak.
    src = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
    dst = np.array([1, 3, 2, 0, 1, 3], dtype=np.int64)
    return CSR.from_edges(4, src, dst)


@pytest.fixture(scope="module")
def layout():
    g = load_dataset("wiki", scale=0.5)
    csr = g.csr
    return build_block_layout(
        csr.row_ids(), csr.indices, g.num_nodes, 128
    )


class TestCheckCsr:
    def test_valid(self, small_csr):
        check = check_csr(small_csr)
        assert check.passed
        assert "4x4" in check.detail

    def test_out_of_range_index(self, small_csr):
        small_csr.indices[0] = 17
        assert not check_csr(small_csr).passed

    def test_unsorted_row(self, small_csr):
        # Row 2 holds [0, 1, 3]; swapping breaks within-row order.
        row = slice(
            int(small_csr.indptr[2]), int(small_csr.indptr[3])
        )
        small_csr.indices[row] = small_csr.indices[row][::-1]
        check = check_csr(small_csr)
        assert not check.passed
        assert "sorted" in check.detail

    def test_row_restart_is_not_flagged(self):
        # indices [3, 0]: descending across a row boundary is legal.
        csr = CSR.from_edges(
            2,
            np.array([0, 1], dtype=np.int64),
            np.array([3, 0], dtype=np.int64),
            num_cols=4,
        )
        assert check_csr(csr).passed

    def test_decreasing_indptr(self, small_csr):
        small_csr.indptr[1] = 5
        small_csr.indptr[2] = 2
        assert not check_csr(small_csr).passed

    def test_trailing_empty_rows(self):
        csr = CSR.from_edges(
            5,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        assert check_csr(csr).passed


class TestCheckPermutation:
    def test_identity(self):
        assert check_permutation(np.arange(10)).passed

    def test_shuffled(self):
        rng = np.random.default_rng(7)
        assert check_permutation(rng.permutation(100)).passed

    def test_duplicate_fails(self):
        check = check_permutation(np.array([0, 1, 1, 3]))
        assert not check.passed
        assert "bijection" in check.detail

    def test_out_of_range_fails(self):
        assert not check_permutation(np.array([0, 1, 4])).passed

    def test_empty(self):
        assert check_permutation(np.empty(0, dtype=np.int64)).passed


class TestClassBoundaries:
    def test_filter_plan_passes(self):
        g = load_dataset("wiki", scale=0.5)
        plan = filter_graph(g)
        check = check_class_boundaries(plan, g)
        assert check.passed
        assert "regular" in check.detail

    def test_cross_class_swap_is_caught(self):
        g = load_dataset("wiki", scale=0.5)
        plan = filter_graph(g)
        # Swap one regular with one sink destination: still a
        # bijection, but two nodes land in the wrong class slice.
        a = int(np.flatnonzero(plan.perm < plan.num_regular)[0])
        sink_lo = plan.sink_slice.start
        b = int(np.flatnonzero(plan.perm >= sink_lo)[0])
        plan.perm[[a, b]] = plan.perm[[b, a]]
        assert not check_class_boundaries(plan, g).passed


class TestCheckBins:
    def test_layout_passes(self, layout):
        check = check_bins(layout)
        assert check.passed
        assert "blocks" in check.detail

    def _clone(self, layout, **overrides):
        fields = dict(
            num_nodes=layout.num_nodes,
            block_nodes=layout.block_nodes,
            num_blocks_per_side=layout.num_blocks_per_side,
            src_scatter=layout.src_scatter,
            dst_scatter=layout.dst_scatter,
            gather_perm=layout.gather_perm,
            src_gather=layout.src_gather,
            dst_gather=layout.dst_gather,
            scatter_block_ptr=layout.scatter_block_ptr,
            gather_block_ptr=layout.gather_block_ptr,
        )
        fields.update(overrides)
        return type(layout)(**fields)

    def test_tampered_block_ptr_fails(self, layout):
        ptr = layout.scatter_block_ptr.copy()
        ptr[1] += 1
        bad = self._clone(layout, scatter_block_ptr=ptr)
        assert not check_bins(bad).passed

    def test_tampered_gather_perm_fails(self, layout):
        perm = layout.gather_perm.copy()
        perm[0] = perm[1]
        bad = self._clone(layout, gather_perm=perm)
        check = check_bins(bad)
        assert not check.passed
        assert "gather_perm" in check.detail

    def test_tampered_dst_gather_fails(self, layout):
        dst = layout.dst_gather.copy()
        dst[0] = (dst[0] + 1) % layout.num_nodes
        bad = self._clone(layout, dst_gather=dst)
        assert not check_bins(bad).passed


class TestCheckLayout:
    def test_report_ok(self, layout):
        report = check_layout(layout)
        assert report.ok
        names = [c.name for c in report.checks]
        assert "bins" in names and "race-proof" in names

    def test_dynamic_adds_replay(self, layout):
        report = check_layout(layout, dynamic=True)
        assert report.ok
        assert any(c.name == "race-replay" for c in report.checks)

    def test_failed_proof_is_reported_not_raised(self, layout):
        from dataclasses import replace

        # One partition claiming only the first message: the rest are
        # owned by no partition.
        tampered = replace(layout)
        tampered.__dict__["reduce_plan"] = replace(
            layout.reduce_plan,
            part_edge_ptr=np.array([0, 1]),
            part_run_ptr=np.array([0, 1]),
        )
        report = check_layout(tampered)
        assert not report.ok
        assert any(
            not c.passed and c.name == "race-proof"
            for c in report.checks
        )
        with pytest.raises(ContractError):
            report.raise_on_failure()


class TestContractReport:
    def test_render_marks_failures(self):
        report = ContractReport(
            "demo",
            (
                Check("good", True, "fine"),
                Check("bad", False, "broken"),
            ),
        )
        assert not report.ok
        assert report.num_failed == 1
        text = report.render()
        assert "FAIL" in text and "broken" in text
        assert "1 failed" in text

    def test_raise_lists_failed_checks(self):
        report = ContractReport(
            "demo", (Check("bad", False, "broken"),)
        )
        with pytest.raises(ContractError, match="bad: broken"):
            report.raise_on_failure()

    def test_empty_report_is_ok(self):
        ContractReport("demo").raise_on_failure()


class TestAnalyzeGraph:
    def test_wiki_all_passed(self):
        g = load_dataset("wiki", scale=0.25)
        report = analyze_graph(g, block_nodes=256)
        assert report.ok
        assert "all passed" in report.render()
        names = [c.name for c in report.checks]
        for required in (
            "csr:graph", "permutation", "class-boundaries",
            "csr:regular", "csr:seed", "csc:sink", "edge-coverage",
            "bins", "race-proof", "task-coverage",
        ):
            assert required in names

    def test_dynamic_mode(self):
        g = load_dataset("road", scale=0.25)
        report = analyze_graph(g, block_nodes=256, dynamic=True)
        assert report.ok
        assert any(c.name == "race-replay" for c in report.checks)


class TestEngineValidateFlag:
    def test_mixen_validate_passes(self):
        g = load_dataset("wiki", scale=0.25)
        e = MixenEngine(g, validate=True)
        e.prepare()
        assert e.race_proof is not None

    def test_blocking_validate_passes(self):
        g = load_dataset("wiki", scale=0.25)
        e = BlockingEngine(g, validate=True, race_check=True)
        e.prepare()
        assert e.race_proof.num_partitions == e.layout.num_blocks_per_side
