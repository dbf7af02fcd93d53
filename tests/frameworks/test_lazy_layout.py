"""The 2-D block layout is built on first read, and equals the layout
that used to be built eagerly by every prepare.

:func:`eager_block_layout` keeps that eager build (two ``np.lexsort``
passes over the edge stream) as the oracle: every lazily built array of
:class:`~repro.frameworks.blocking.BlockLayout` must equal it, weighted
layouts included, and the Main-Phase plan must equal the plan it fed.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.algorithms.bfs as bfs_module
from repro.algorithms import PageRank
from repro.core.engine import MixenEngine
from repro.core.kernels import build_plan
from repro.frameworks.blocking import BlockingEngine, build_block_layout
from repro.graphs import load_dataset
from repro.types import VALUE_DTYPE

#: every array the machine model reads and a run never does.
BLOCKED = (
    "src_scatter",
    "dst_scatter",
    "values_scatter",
    "gather_perm",
    "src_gather",
    "dst_gather",
    "scatter_block_ptr",
    "gather_block_ptr",
)

PLAN_STREAMS = (
    "src", "dst", "run_starts", "run_dst", "part_edge_ptr", "part_run_ptr",
)


def eager_block_layout(src, dst, num_nodes, block_nodes, values=None):
    """The eager 2-D blocking every prepare used to run."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    c = block_nodes
    b = max(-(-num_nodes // c), 1)
    i_blk, j_blk = src // c, dst // c
    scatter_order = np.lexsort((src, j_blk, i_blk))
    src_s, dst_s = src[scatter_order], dst[scatter_order]
    i_s, j_s = i_blk[scatter_order], j_blk[scatter_order]
    gather_perm = np.lexsort((dst_s, i_s, j_s))

    def offsets(ids):
        ptr = np.zeros(b * b + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=b * b), out=ptr[1:])
        return ptr

    values_s = (
        None
        if values is None
        else np.asarray(values, dtype=VALUE_DTYPE)[scatter_order]
    )
    arrays = {
        "src_scatter": src_s,
        "dst_scatter": dst_s,
        "values_scatter": values_s,
        "gather_perm": gather_perm,
        "src_gather": src_s[gather_perm],
        "dst_gather": dst_s[gather_perm],
        "scatter_block_ptr": offsets(i_s * b + j_s),
        "gather_block_ptr": offsets(
            j_s[gather_perm] * b + i_s[gather_perm]
        ),
    }
    plan = build_plan(
        "main", num_nodes, src_s, dst_s, values=values_s,
        row_bounds=np.arange(b + 1, dtype=np.int64) * c,
    )
    return arrays, plan


def assert_matches_eager(layout, src, dst, values=None):
    arrays, plan = eager_block_layout(
        src, dst, layout.num_nodes, layout.block_nodes, values
    )
    for name in BLOCKED:
        expect, got = arrays[name], getattr(layout, name)
        if expect is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, expect, err_msg=name)
    for name in (*PLAN_STREAMS, "values"):
        expect = getattr(plan, name)
        got = getattr(layout.reduce_plan, name)
        if expect is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, expect, err_msg=name)


def lazily_built(layout) -> set:
    """Cached attributes of ``layout`` beyond its dataclass fields."""
    fields = {f.name for f in dataclasses.fields(layout)}
    return set(vars(layout)) - fields


@st.composite
def edge_sets(draw):
    n = draw(st.integers(1, 300))
    m = draw(st.integers(0, 400))
    src = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    dst = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    block_nodes = draw(st.sampled_from((1, 3, 16, 64, 1024)))
    weighted = draw(st.booleans())
    values = (
        draw(
            hnp.arrays(
                np.float64, m,
                elements=st.floats(-4, 4, allow_nan=False, width=32),
            )
        )
        if weighted
        else None
    )
    return n, src, dst, block_nodes, values


class TestLazyEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(edge_sets())
    def test_random_edges_any_order(self, case):
        # Unsorted sources and duplicate edges: the layout's stable radix
        # order must reproduce the lexsort tie-breaks, weights included.
        n, src, dst, block_nodes, values = case
        layout = build_block_layout(src, dst, n, block_nodes, values=values)
        assert_matches_eager(layout, src, dst, values)

    @pytest.mark.parametrize("block_nodes", (64, 512))
    @pytest.mark.parametrize("weighted", (False, True))
    def test_mixen_regular_layout(self, block_nodes, weighted):
        graph = load_dataset("pld", scale=0.5)
        values = (
            np.random.default_rng(5).random(graph.num_edges)
            if weighted
            else None
        )
        engine = MixenEngine(
            graph, block_nodes=block_nodes, edge_values=values
        )
        engine.prepare()
        rr = engine.mixed.rr
        assert_matches_eager(
            engine.partition.layout,
            rr.row_ids(),
            rr.indices,
            engine.mixed.rr_values,
        )

    @pytest.mark.parametrize("weighted", (False, True))
    def test_blocking_engine_layout(self, weighted):
        graph = load_dataset("road", scale=2.0)
        values = (
            np.random.default_rng(6).random(graph.num_edges)
            if weighted
            else None
        )
        engine = BlockingEngine(graph, block_nodes=256, edge_values=values)
        engine.prepare()
        csr = graph.csr
        assert_matches_eager(
            engine.layout, csr.row_ids(), csr.indices, values
        )


class TestExecutedPathBuildsNoBlockedArray:
    @pytest.mark.parametrize("engine_cls", (MixenEngine, BlockingEngine))
    def test_prepare_pagerank_and_dense_bfs(self, engine_cls, monkeypatch):
        graph = load_dataset("pld", scale=0.5)
        engine = engine_cls(graph)
        engine.prepare()
        layout = (
            engine.partition.layout
            if engine_cls is MixenEngine
            else engine.layout
        )
        assert lazily_built(layout) == {"reduce_plan"}
        engine.run(PageRank(), max_iterations=3)
        top_down_calls = []
        real_top_down = bfs_module.top_down

        def counting_top_down(*args, **kwargs):
            top_down_calls.append(1)
            return real_top_down(*args, **kwargs)

        monkeypatch.setattr(bfs_module, "top_down", counting_top_down)
        steps = []
        real_step = type(layout).frontier_step

        def counting_step(self, *args, **kwargs):
            steps.append(1)
            return real_step(self, *args, **kwargs)

        monkeypatch.setattr(type(layout), "frontier_step", counting_step)
        hub = int(np.argmax(np.diff(graph.csr.indptr)))
        levels = engine.run_bfs(hub)
        assert levels.max() > 1
        # At least one level took the dense sweep, yet nothing blocked
        # was built: only the BFS's own source-major index.
        assert len(top_down_calls) < len(steps)
        assert lazily_built(layout) == {"reduce_plan", "source_index"}

    def test_model_read_builds_on_demand(self):
        graph = load_dataset("wiki", scale=0.25)
        engine = MixenEngine(graph)
        engine.prepare()
        layout = engine.partition.layout
        engine.bin_stats
        engine.partition.tasks
        assert {"src_scatter", "dst_scatter", "scatter_block_ptr"} <= (
            lazily_built(layout)
        )
        assert "gather_perm" not in lazily_built(layout)
