"""Integration tests for the Mixen engine (Sections 4.1-4.3)."""

import numpy as np
import pytest

from repro.algorithms import (
    CollaborativeFiltering,
    InDegree,
    PageRank,
    hits,
)
from repro.algorithms.bfs import default_source, reference_bfs
from repro.core import MixenEngine, measured_main_phase_counters, model_for_engine
from repro.errors import PartitionError
from repro.frameworks import PullEngine
from repro.graphs import load_dataset
from tests.conftest import dense_reference_spmv

GRAPHS = ["weibo", "track", "wiki", "pld", "rmat", "kron", "road", "urand"]


@pytest.fixture(scope="module")
def small_graphs():
    return {n: load_dataset(n, scale=0.25) for n in GRAPHS}


def prepared(graph, **opts):
    e = MixenEngine(graph, **opts)
    e.prepare()
    return e


@pytest.mark.parametrize("name", GRAPHS)
class TestOnAllProfiles:
    def test_propagate_matches_dense(self, name, small_graphs):
        g = small_graphs[name]
        e = prepared(g)
        rng = np.random.default_rng(0)
        x = rng.random(g.num_nodes)
        assert np.allclose(
            e.propagate(x), dense_reference_spmv(g, x), atol=1e-8
        )

    def test_indegree(self, name, small_graphs):
        g = small_graphs[name]
        e = prepared(g)
        res = e.run(InDegree(), max_iterations=2, check_convergence=False)
        assert np.array_equal(res.scores, g.in_degrees())

    def test_pagerank_converged_matches_pull(self, name, small_graphs):
        g = small_graphs[name]
        e = prepared(g)
        p = PullEngine(g)
        p.prepare()
        a = e.run(PageRank(tolerance=1e-13), max_iterations=300)
        b = p.run(PageRank(tolerance=1e-13), max_iterations=300)
        assert np.allclose(a.scores, b.scores, atol=1e-10)

    def test_bfs(self, name, small_graphs):
        g = small_graphs[name]
        e = prepared(g)
        src = default_source(g)
        assert np.array_equal(e.run_bfs(src), reference_bfs(g, src))


class TestOptions:
    def test_result_invariant_to_block_size(self):
        g = load_dataset("wiki", scale=0.25)
        results = [
            prepared(g, block_nodes=c)
            .run(PageRank(), max_iterations=10, check_convergence=False)
            .scores
            for c in (32, 128, 10_000)
        ]
        assert np.allclose(results[0], results[1], atol=1e-10)
        assert np.allclose(results[0], results[2], atol=1e-10)

    def test_result_invariant_to_hub_reorder(self):
        g = load_dataset("wiki", scale=0.25)
        a = prepared(g, hub_reorder=True)
        b = prepared(g, hub_reorder=False)
        alg = PageRank()
        ra = a.run(alg, max_iterations=10, check_convergence=False)
        rb = b.run(PageRank(), max_iterations=10, check_convergence=False)
        assert np.allclose(ra.scores, rb.scores, atol=1e-10)

    def test_result_invariant_to_cache_step(self):
        g = load_dataset("track", scale=0.25)
        a = prepared(g, cache_step=True)
        b = prepared(g, cache_step=False)
        ra = a.run(PageRank(), max_iterations=10, check_convergence=False)
        rb = b.run(PageRank(), max_iterations=10, check_convergence=False)
        assert np.allclose(ra.scores, rb.scores, atol=1e-10)

    def test_result_invariant_to_balance(self):
        g = load_dataset("wiki", scale=0.25)
        a = prepared(g, balance=True)
        b = prepared(g, balance=False)
        ra = a.run(PageRank(), max_iterations=10, check_convergence=False)
        rb = b.run(PageRank(), max_iterations=10, check_convergence=False)
        assert np.allclose(ra.scores, rb.scores, atol=1e-10)

    def test_rejects_bad_block_size(self):
        g = load_dataset("wiki", scale=0.25)
        with pytest.raises(PartitionError):
            MixenEngine(g, block_nodes=0)

    def test_prepare_breakdown_has_filter_and_partition(self):
        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        assert set(e.prepare_stats.breakdown) == {
            "filter", "partition", "prove"
        }

    def test_alpha_beta_properties(self):
        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        assert 0 < e.alpha < 1
        assert 0 < e.beta < 1


class TestLazyModelInputs:
    """The bin census and the block-task list feed only the machine
    model: no prepare, run, warm boot or served update may build them,
    and a later read still yields the eager functions' results."""

    def test_executed_paths_never_build_model_inputs(
        self, monkeypatch, tmp_path
    ):
        import asyncio

        import repro.core.engine as engine_mod
        import repro.core.partition as partition_mod
        from repro.core import dynamic_bin_stats, make_block_tasks
        from repro.graphs.updates import random_batches
        from repro.serve import (
            LayoutStore,
            MixenServer,
            ServeConfig,
            boot_engine,
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("model input built on the executed path")

        monkeypatch.setattr(engine_mod, "dynamic_bin_stats", forbidden)
        monkeypatch.setattr(partition_mod, "make_block_tasks", forbidden)

        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        e.run(PageRank(), max_iterations=5, check_convergence=False)
        e.run_bfs(default_source(g))
        store = LayoutStore(tmp_path)
        boot_engine(g, store)
        warm, boot = boot_engine(g, store)
        assert boot.hit
        server = MixenServer(warm, config=ServeConfig(iterations=5))
        (batch,) = random_batches(g, 1, 8, seed=1)

        async def update():
            await server.start()
            try:
                return await server.submit_update(batch)
            finally:
                await server.stop()

        assert asyncio.run(update())["epoch"] == 1

        monkeypatch.undo()
        for engine in (e, warm, server.engine):
            layout = engine.partition.layout
            assert engine.bin_stats == dynamic_bin_stats(layout)
            assert engine.partition.tasks == make_block_tasks(
                layout,
                balance=engine.balance,
                max_load_factor=engine.max_load_factor,
            )


class TestPhases:
    def test_phase_timings_reported(self):
        g = load_dataset("wiki", scale=0.25)
        res = prepared(g).run(PageRank(), max_iterations=5,
                              check_convergence=False)
        assert set(res.phases) == {"pre", "main", "post"}
        assert all(s.seconds >= 0 for s in res.phases.values())
        assert all(s.messages >= 0 and s.slots >= 0
                   for s in res.phases.values())

    def test_phase_traffic_counts(self):
        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        res = e.run(PageRank(), max_iterations=5,
                    check_convergence=False)
        assert res.phases["pre"].messages == e.mixed.seed_to_reg.num_edges
        assert res.phases["post"].messages == e.mixed.sink_csc.num_edges
        assert res.phases["main"].messages == e.mixed.rr.num_edges * 5
        assert res.phases["main"].slots == e.plan.num_regular

    def test_main_phase_dominates_on_many_iterations(self):
        g = load_dataset("pld", scale=0.5)
        res = prepared(g).run(PageRank(), max_iterations=50,
                              check_convergence=False)
        assert res.phases["main"].seconds > res.phases["post"].seconds

    def test_cf_rank_k(self):
        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        p = PullEngine(g)
        p.prepare()
        alg = CollaborativeFiltering(factors=4)
        a = e.run(alg, max_iterations=2, check_convergence=False)
        b = p.run(CollaborativeFiltering(factors=4), max_iterations=2,
                  check_convergence=False)
        assert np.allclose(a.scores, b.scores, atol=1e-9)

    def test_hits_via_generic_propagate(self):
        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        p = PullEngine(g)
        p.prepare()
        a = hits(e, max_iterations=20)
        b = hits(p, max_iterations=20)
        assert np.allclose(a.authorities, b.authorities, atol=1e-9)


class TestTracedExecution:
    def test_traced_propagate_matches_native(self):
        from repro.machine import AccessTrace, AddressSpace

        g = load_dataset("wiki", scale=0.25)
        e = prepared(g)
        trace = AccessTrace(AddressSpace(64))
        x = np.random.default_rng(1).random(g.num_nodes)
        y = e.traced_propagate(x, trace)
        assert np.allclose(y, dense_reference_spmv(g, x), atol=1e-8)
        assert trace.num_accesses > 0
        assert trace.traffic.total_bytes > 0

    def test_main_iteration_counters(self):
        g = load_dataset("wiki", scale=0.5)
        e = prepared(g)
        counters = measured_main_phase_counters(e)
        assert counters.caches["L1"].references > 0
        assert counters.traffic.total_bytes > 0

    def test_model_for_engine(self):
        g = load_dataset("wiki", scale=0.5)
        e = prepared(g)
        model = model_for_engine(e)
        assert model.alpha == pytest.approx(e.alpha)
        assert model.beta == pytest.approx(e.beta)
        assert model.traffic_bytes() > 0
