"""Property tests for the SpMV kernel dispatch layer.

Contracts verified across random skewed graphs:

* every backend matches the dense reference (1-D, rank-k, weighted,
  ``static=`` cache inputs);
* serial vs thread-pool execution of the same accumulation base is
  bit-identical;
* all three backends are bit-identical on integer-valued inputs, where
  float addition is exact under any association order; on arbitrary
  floats, bincount vs reduceat agree to summation-order rounding;
* empty-graph / single-block edge cases, ``auto`` resolution, backend
  registration, and the reduceat-by-default engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import CollaborativeFiltering, InDegree, PageRank
from repro.core import MixenEngine
from repro.core.kernels import (
    KERNEL_NAMES,
    KERNELS,
    register_kernel,
    resolve_kernel,
    spmv,
    spmv_bincount,
    spmv_parallel,
    spmv_reduceat,
)
from repro.errors import EngineError
from repro.frameworks.blocking import BlockingEngine, build_block_layout
from repro.graphs import EdgeList, Graph

SERIAL = {"bincount": spmv_bincount, "reduceat": spmv_reduceat}


def skewed_edges(rng, n, m):
    """Random edges with hub concentration (cubed uniforms pile the
    sources, squared uniforms the destinations, onto low ids)."""
    src = np.minimum((rng.random(m) ** 3 * n).astype(np.int64), n - 1)
    dst = np.minimum((rng.random(m) ** 2 * n).astype(np.int64), n - 1)
    return src, dst


@st.composite
def layout_cases(draw):
    """(layout, src, dst, values) of one random skewed blocking."""
    n = draw(st.integers(min_value=1, max_value=80))
    m = draw(st.integers(min_value=0, max_value=400))
    block_nodes = draw(st.sampled_from((4, 16, 64, 128)))
    weighted = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    src, dst = skewed_edges(rng, n, m)
    values = rng.random(m) + 0.5 if weighted else None
    layout = build_block_layout(src, dst, n, block_nodes, values=values)
    return layout, src, dst, values, rng


def dense_ref(n, src, dst, values, x):
    """Reference ``y = A^T x`` directly off the edge arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros((n,) + x.shape[1:], dtype=np.float64)
    w = np.ones(src.size) if values is None else values
    contrib = x[src] * (w if x.ndim == 1 else w[:, None])
    np.add.at(y, dst, contrib)
    return y


class TestKernelEquivalence:
    @given(layout_cases(), st.sampled_from((None, 3)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, case, rank):
        layout, src, dst, values, rng = case
        n = layout.num_nodes
        x = rng.random(n) if rank is None else rng.random((n, rank))
        expect = dense_ref(n, src, dst, values, x)
        for name in ("bincount", "reduceat", "parallel"):
            got = spmv(layout, x, kernel=name, max_workers=3)
            assert got.shape == expect.shape
            assert np.allclose(got, expect, atol=1e-9), name

    @given(layout_cases(), st.sampled_from((None, 2)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_serial_parallel_bit_identical(self, case, rank, with_static):
        layout, _, _, _, rng = case
        n = layout.num_nodes
        x = rng.random(n) if rank is None else rng.random((n, rank))
        static = rng.random(x.shape) if with_static else None
        for base, serial in SERIAL.items():
            threaded = spmv_parallel(
                layout, x, static=static, max_workers=3, base=base
            )
            assert np.array_equal(
                serial(layout, x, static=static), threaded
            ), base

    @given(layout_cases(), st.sampled_from((None, 2)))
    @settings(max_examples=60, deadline=None)
    def test_integer_inputs_bit_identical_everywhere(self, case, rank):
        # Integer-valued float64 sums are exact in any association
        # order, so here ALL backends must agree to the bit — including
        # bincount vs reduceat.
        layout, src, dst, values, rng = case
        n = layout.num_nodes
        shape = (n,) if rank is None else (n, rank)
        x = np.floor(rng.random(shape) * 16)
        static = np.floor(rng.random(shape) * 16)
        if values is not None:
            layout = build_block_layout(
                src, dst, n, layout.block_nodes,
                values=np.floor(values * 8),
            )
        results = [
            spmv(layout, x, kernel=name, static=static, max_workers=3)
            for name in ("bincount", "reduceat", "parallel")
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    @given(layout_cases())
    @settings(max_examples=60, deadline=None)
    def test_reduceat_within_rounding_of_bincount(self, case):
        layout, _, _, _, rng = case
        x = rng.random(layout.num_nodes)
        np.testing.assert_allclose(
            spmv_reduceat(layout, x), spmv_bincount(layout, x),
            rtol=1e-10, atol=1e-12,
        )

    @given(layout_cases())
    @settings(max_examples=40, deadline=None)
    def test_static_offsets_the_result(self, case):
        layout, src, dst, values, rng = case
        n = layout.num_nodes
        x = rng.random(n)
        static = rng.random(n)
        expect = dense_ref(n, src, dst, values, x) + static
        for name in ("bincount", "reduceat", "parallel"):
            got = spmv(
                layout, x, kernel=name, static=static, max_workers=3
            )
            assert np.allclose(got, expect, atol=1e-9), name


class TestEdgeCases:
    @pytest.mark.parametrize("kernel", ("bincount", "reduceat", "parallel"))
    def test_no_edges(self, kernel):
        e = np.empty(0, dtype=np.int64)
        layout = build_block_layout(e, e, 10, 4)
        y = spmv(layout, np.ones(10), kernel=kernel)
        assert np.array_equal(y, np.zeros(10))
        yk = spmv(layout, np.ones((10, 3)), kernel=kernel)
        assert np.array_equal(yk, np.zeros((10, 3)))

    @pytest.mark.parametrize("kernel", ("bincount", "reduceat", "parallel"))
    def test_empty_node_set(self, kernel):
        e = np.empty(0, dtype=np.int64)
        layout = build_block_layout(e, e, 0, 4)
        assert spmv(layout, np.empty(0), kernel=kernel).shape == (0,)

    @pytest.mark.parametrize("kernel", ("bincount", "reduceat", "parallel"))
    def test_single_block(self, kernel):
        rng = np.random.default_rng(7)
        src, dst = skewed_edges(rng, 20, 100)
        layout = build_block_layout(src, dst, 20, 1024)
        assert layout.num_blocks_per_side == 1
        x = rng.random(20)
        expect = dense_ref(20, src, dst, None, x)
        assert np.allclose(
            spmv(layout, x, kernel=kernel, max_workers=2), expect,
            atol=1e-9,
        )

    def test_static_accumulation_is_exact_per_node(self):
        # sum + static and static + sum are the same IEEE addition, so
        # the reduceat Cache-step path must match bincount's bitwise.
        rng = np.random.default_rng(11)
        src, dst = skewed_edges(rng, 30, 200)
        layout = build_block_layout(src, dst, 30, 8)
        x, static = rng.random(30), rng.random(30)
        yb = spmv_bincount(layout, x, static=static)
        yr = spmv_reduceat(layout, x, static=static)
        diff = yb - (spmv_bincount(layout, x) + static)
        assert np.array_equal(diff, np.zeros(30))
        np.testing.assert_allclose(yr, yb, rtol=1e-10, atol=1e-12)


class TestDispatch:
    def test_kernel_names_cover_registry(self):
        assert set(KERNELS) | {"auto"} == set(KERNEL_NAMES)

    def test_unknown_kernel_raises(self):
        e = np.empty(0, dtype=np.int64)
        layout = build_block_layout(e, e, 4, 4)
        with pytest.raises(EngineError, match="unknown kernel"):
            spmv(layout, np.zeros(4), kernel="nope")

    def test_auto_small_graph_is_reduceat(self):
        e = np.empty(0, dtype=np.int64)
        layout = build_block_layout(e, e, 4, 4)
        assert resolve_kernel("auto") == "reduceat"
        x = np.arange(4.0)
        assert np.array_equal(
            spmv(layout, x, kernel="auto"), spmv_reduceat(layout, x)
        )

    @pytest.mark.parametrize("workers", (1, 2, 8))
    def test_auto_is_reduceat_at_any_size_and_width(
        self, monkeypatch, workers
    ):
        # auto has no size or host-width heuristic: a graph far above any
        # former threshold on a wide host still resolves to reduceat.
        monkeypatch.setenv("REPRO_NUM_THREADS", str(workers))
        rng = np.random.default_rng(workers)
        src, dst = skewed_edges(rng, 2000, 300_000)
        layout = build_block_layout(src, dst, 2000, 256)
        assert resolve_kernel("auto") == "reduceat"
        x = rng.random(2000)
        assert np.array_equal(
            spmv(layout, x, kernel="auto"), spmv_reduceat(layout, x)
        )

    def test_register_custom_backend(self):
        def doubled(layout, x, *, static=None, max_workers=None,
                    scatter_tasks=None):
            return 2.0 * spmv_bincount(layout, x, static=static)

        register_kernel("doubled", doubled)
        try:
            rng = np.random.default_rng(5)
            src, dst = skewed_edges(rng, 10, 40)
            layout = build_block_layout(src, dst, 10, 4)
            x = rng.random(10)
            assert np.array_equal(
                spmv(layout, x, kernel="doubled"),
                2.0 * spmv_bincount(layout, x),
            )
        finally:
            KERNELS.pop("doubled")

    def test_auto_is_not_registrable(self):
        with pytest.raises(EngineError, match="reserved"):
            register_kernel("auto", lambda *a, **k: None)


class TestParallelByDefaultEngines:
    """Engines built without a ``kernel`` argument (the default moved
    from the thread-pool rung to ``reduceat``)."""

    def test_engines_default_to_reduceat_kernel(self, random_graph):
        assert MixenEngine(random_graph).kernel == "reduceat"
        assert BlockingEngine(random_graph).kernel == "reduceat"

    def test_invalid_kernel_rejected_at_construction(self, random_graph):
        with pytest.raises(Exception, match="unknown kernel"):
            MixenEngine(random_graph, kernel="nope")
        with pytest.raises(Exception, match="unknown kernel"):
            BlockingEngine(random_graph, kernel="nope")

    @pytest.mark.parametrize("engine_cls", (MixenEngine, BlockingEngine))
    def test_propagate_unchanged_vs_serial_kernel(
        self, engine_cls, random_graph
    ):
        default = engine_cls(random_graph)
        serial = engine_cls(random_graph, kernel="reduceat")
        default.prepare()
        serial.prepare()
        rng = np.random.default_rng(3)
        x = rng.random(random_graph.num_nodes)
        assert np.array_equal(default.propagate(x), serial.propagate(x))

    @pytest.mark.parametrize(
        "algorithm", (PageRank, InDegree, CollaborativeFiltering)
    )
    def test_algorithms_unchanged_vs_serial_kernel(
        self, algorithm, random_graph
    ):
        default = MixenEngine(random_graph)
        serial = MixenEngine(random_graph, kernel="reduceat")
        default.prepare()
        serial.prepare()
        got = default.run(algorithm(), max_iterations=10)
        want = serial.run(algorithm(), max_iterations=10)
        assert np.array_equal(got.scores, want.scores)
        assert got.certificate_id == want.certificate_id

    def test_bfs_unchanged_vs_serial_kernel(self, random_graph):
        default = MixenEngine(random_graph)
        serial = MixenEngine(random_graph, kernel="bincount")
        default.prepare()
        serial.prepare()
        assert np.array_equal(default.run_bfs(0), serial.run_bfs(0))

    def test_reduceat_kernel_engine_matches(self, random_graph):
        fast = MixenEngine(random_graph, kernel="reduceat")
        serial = MixenEngine(random_graph, kernel="bincount")
        fast.prepare()
        serial.prepare()
        got = fast.run(PageRank(), max_iterations=10).scores
        want = serial.run(PageRank(), max_iterations=10).scores
        assert np.allclose(got, want, atol=1e-10)
