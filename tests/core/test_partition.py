"""Unit tests for the 2-D partitioning and load balancing (Section 4.2)."""

import numpy as np
import pytest

from repro.core import build_mixed, filter_graph, partition_regular
from repro.errors import PartitionError
from repro.frameworks.blocking import build_block_layout
from repro.graphs import CSR, load_dataset


@pytest.fixture(scope="module")
def wiki_rr():
    g = load_dataset("wiki", scale=0.5)
    plan = filter_graph(g)
    return build_mixed(g, plan).rr


class TestBlockLayout:
    def test_covers_all_edges(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 128
        )
        assert layout.num_edges == wiki_rr.num_edges

    def test_block_count(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 128
        )
        b = -(-wiki_rr.num_rows // 128)
        assert layout.num_blocks_per_side == b
        assert layout.block_nnz().size == b * b

    def test_scatter_order_is_block_row_major(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 128
        )
        c = layout.block_nodes
        b = layout.num_blocks_per_side
        blocks = (layout.src_scatter // c) * b + layout.dst_scatter // c
        assert np.all(np.diff(blocks) >= 0)

    def test_gather_order_is_block_column_major(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 128
        )
        c = layout.block_nodes
        b = layout.num_blocks_per_side
        blocks = (layout.dst_gather // c) * b + layout.src_gather // c
        assert np.all(np.diff(blocks) >= 0)

    def test_spmv_matches_plain(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 100
        )
        rng = np.random.default_rng(0)
        x = rng.random(wiki_rr.num_rows)
        expect = np.zeros(wiki_rr.num_rows)
        np.add.at(expect, wiki_rr.indices, x[wiki_rr.row_ids()])
        assert np.allclose(layout.spmv(x), expect, atol=1e-9)

    def test_spmv_with_static_offset(self, wiki_rr):
        layout = build_block_layout(
            wiki_rr.row_ids(), wiki_rr.indices, wiki_rr.num_rows, 100
        )
        rng = np.random.default_rng(1)
        x = rng.random(wiki_rr.num_rows)
        static = rng.random(wiki_rr.num_rows)
        assert np.allclose(
            layout.spmv(x, static=static), layout.spmv(x) + static
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(PartitionError):
            build_block_layout(np.array([0]), np.array([0]), 4, 0)
        with pytest.raises(PartitionError):
            build_block_layout(np.array([0]), np.array([0, 1]), 4, 2)
        with pytest.raises(PartitionError):
            build_block_layout(np.array([0]), np.array([0]), -1, 2)

    def test_empty_edge_set(self):
        layout = build_block_layout(
            np.array([], np.int64), np.array([], np.int64), 10, 4
        )
        assert layout.num_edges == 0
        assert np.allclose(layout.spmv(np.ones(10)), 0.0)


class TestLoadBalancing:
    def test_tasks_cover_all_edges(self, wiki_rr):
        part = partition_regular(wiki_rr, 128)
        assert int(part.task_loads().sum()) == wiki_rr.num_edges

    def test_tasks_are_disjoint_slices(self, wiki_rr):
        part = partition_regular(wiki_rr, 128)
        spans = sorted((t.start, t.end) for t in part.tasks)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_balanced_caps_task_load(self, wiki_rr):
        part = partition_regular(wiki_rr, 128, max_load_factor=2.0)
        nnz = part.layout.block_nnz()
        avg = nnz[nnz > 0].mean()
        assert part.task_loads().max() <= int(np.ceil(2.0 * avg))

    def test_balancing_splits_hot_blocks(self):
        # A star into node 0 makes the top-left block hold almost all
        # non-zeros; balancing must split it and reduce imbalance.
        n = 256
        src = np.concatenate([np.arange(1, n), np.arange(n)])
        dst = np.concatenate(
            [np.zeros(n - 1, np.int64), (np.arange(n) + 1) % n]
        )
        star = CSR.from_edges(n, src, dst)
        unbalanced = partition_regular(star, 32, balance=False)
        balanced = partition_regular(star, 32, balance=True)
        assert balanced.num_tasks > unbalanced.num_tasks
        assert balanced.load_imbalance() < unbalanced.load_imbalance()

    def test_unbalanced_has_one_task_per_nonempty_block(self, wiki_rr):
        part = partition_regular(wiki_rr, 128, balance=False)
        nnz = part.layout.block_nnz()
        assert part.num_tasks == int(np.count_nonzero(nnz))

    def test_rejects_rectangular(self):
        rect = CSR.from_edges(2, [0, 1], [3, 4], num_cols=5)
        with pytest.raises(PartitionError):
            partition_regular(rect, 2)

    def test_rejects_bad_load_factor(self, wiki_rr):
        with pytest.raises(PartitionError):
            partition_regular(wiki_rr, 128, max_load_factor=0)

    def test_task_block_ids_valid(self, wiki_rr):
        part = partition_regular(wiki_rr, 128)
        b = part.layout.num_blocks_per_side
        for t in part.tasks:
            assert 0 <= t.block_id < b * b
            assert t.load > 0


class TestParallelSpmv:
    def test_matches_serial_with_balanced_tasks(self, wiki_rr):
        part = partition_regular(wiki_rr, 100)
        rng = np.random.default_rng(7)
        x = rng.random(wiki_rr.num_rows)
        serial = part.layout.spmv(x)
        threaded = part.layout.spmv(
            x, kernel="parallel", max_workers=4, scatter_tasks=part.tasks
        )
        assert np.allclose(serial, threaded, atol=1e-9)

    def test_static_and_rank_k(self, wiki_rr):
        part = partition_regular(wiki_rr, 100)
        rng = np.random.default_rng(8)
        x = rng.random((wiki_rr.num_rows, 2))
        serial = part.layout.spmv(x)
        threaded = part.layout.spmv(x, kernel="parallel", max_workers=2)
        assert np.allclose(serial, threaded, atol=1e-9)

    def test_single_worker_path(self, wiki_rr):
        part = partition_regular(wiki_rr, 100)
        x = np.ones(wiki_rr.num_rows)
        assert np.allclose(
            part.layout.spmv(x),
            part.layout.spmv(x, kernel="parallel", max_workers=1),
            atol=1e-9,
        )
