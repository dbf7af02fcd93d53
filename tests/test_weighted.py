"""Weighted-edge propagation: the library extension beyond the paper.

Per-edge values generalize the SpMV to weighted graphs (rating-weighted
CF, weighted link analysis).  Every SpMV-capable engine must agree with
the dense weighted reference; traversal-oriented engines declare
themselves unweighted.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core import FilteredEngine, MixenEngine
from repro.errors import EngineError
from repro.frameworks import (
    BlockingEngine,
    GraphMatEngine,
    LigraEngine,
    PolymerEngine,
    PullEngine,
    PushEngine,
)
from repro.graphs import Graph, load_dataset

WEIGHTED_ENGINES = [
    PullEngine,
    PushEngine,
    BlockingEngine,
    GraphMatEngine,
    MixenEngine,
]


@pytest.fixture(scope="module")
def weighted_case():
    g = load_dataset("wiki", scale=0.25)
    rng = np.random.default_rng(11)
    w = rng.random(g.num_edges) + 0.1
    return g, w


def dense_weighted_spmv(graph: Graph, w: np.ndarray, x: np.ndarray):
    dense = np.zeros((graph.num_nodes, graph.num_nodes))
    rows = graph.csr.row_ids()
    np.add.at(dense, (rows, graph.csr.indices), w)
    return dense.T @ x


@pytest.mark.parametrize(
    "engine_cls", WEIGHTED_ENGINES, ids=lambda c: c.name
)
class TestWeightedPropagate:
    def test_matches_dense(self, engine_cls, weighted_case):
        g, w = weighted_case
        engine = engine_cls(g, edge_values=w)
        engine.prepare()
        x = np.random.default_rng(0).random(g.num_nodes)
        assert np.allclose(
            engine.propagate(x), dense_weighted_spmv(g, w, x), atol=1e-8
        )

    def test_rank_k(self, engine_cls, weighted_case):
        g, w = weighted_case
        engine = engine_cls(g, edge_values=w)
        engine.prepare()
        x = np.random.default_rng(1).random((g.num_nodes, 3))
        got = engine.propagate(x)
        for k in range(3):
            assert np.allclose(
                got[:, k], dense_weighted_spmv(g, w, x[:, k]), atol=1e-8
            )

    def test_unit_weights_match_unweighted(self, engine_cls, weighted_case):
        g, _ = weighted_case
        ones = np.ones(g.num_edges)
        weighted = engine_cls(g, edge_values=ones)
        weighted.prepare()
        plain = engine_cls(g)
        plain.prepare()
        x = np.random.default_rng(2).random(g.num_nodes)
        assert np.allclose(
            weighted.propagate(x), plain.propagate(x), atol=1e-9
        )


class TestWeightedMixenDetails:
    def test_weighted_pagerank_matches_pull(self, weighted_case):
        g, w = weighted_case
        mix = MixenEngine(g, edge_values=w)
        mix.prepare()
        pull = PullEngine(g, edge_values=w)
        pull.prepare()
        a = mix.run(PageRank(tolerance=1e-13), max_iterations=300)
        b = pull.run(PageRank(tolerance=1e-13), max_iterations=300)
        assert np.allclose(a.scores, b.scores, atol=1e-10)

    def test_weighted_propagate_out(self, weighted_case):
        g, w = weighted_case
        engine = PullEngine(g, edge_values=w)
        engine.prepare()
        x = np.random.default_rng(3).random(g.num_nodes)
        dense = np.zeros((g.num_nodes, g.num_nodes))
        rows = g.csr.row_ids()
        np.add.at(dense, (rows, g.csr.indices), w)
        assert np.allclose(
            engine.propagate_out(x), dense @ x, atol=1e-8
        )

    def test_filtered_engine_carries_weights(self, weighted_case):
        g, w = weighted_case
        engine = FilteredEngine(g, base="pull", edge_values=w)
        engine.prepare()
        x = np.random.default_rng(4).random(g.num_nodes)
        assert np.allclose(
            engine.propagate(x), dense_weighted_spmv(g, w, x), atol=1e-8
        )

    def test_spmv_parallel_with_weights(self, weighted_case):
        g, w = weighted_case
        engine = BlockingEngine(g, block_nodes=100, edge_values=w)
        engine.prepare()
        x = np.random.default_rng(5).random(g.num_nodes)
        serial = engine.layout.spmv(x)
        threaded = engine.layout.spmv(x, kernel="parallel", max_workers=3)
        assert np.allclose(serial, threaded, atol=1e-9)

    def test_mixed_values_cover_all_edges(self, weighted_case):
        from repro.core import build_mixed, filter_graph

        g, w = weighted_case
        mixed = build_mixed(g, filter_graph(g), edge_values=w)
        total = (
            mixed.rr_values.size
            + mixed.seed_values.size
            + mixed.sink_values.size
        )
        assert total == g.num_edges
        # The weight multiset is preserved by the decomposition.
        combined = np.sort(
            np.concatenate(
                [mixed.rr_values, mixed.seed_values, mixed.sink_values]
            )
        )
        assert np.allclose(combined, np.sort(w))


class TestValidation:
    def test_wrong_length_rejected(self, weighted_case):
        g, _ = weighted_case
        with pytest.raises(EngineError):
            PullEngine(g, edge_values=np.ones(3))

    @pytest.mark.parametrize("engine_cls", [LigraEngine, PolymerEngine])
    def test_traversal_engines_reject_weights(
        self, engine_cls, weighted_case
    ):
        g, w = weighted_case
        with pytest.raises(EngineError):
            engine_cls(g, edge_values=w)


class TestWeightedNormalization:
    def test_out_strength_helper(self, weighted_case):
        from repro.algorithms import weighted_out_strength

        g, w = weighted_case
        strength = weighted_out_strength(g, w)
        assert strength.shape == (g.num_nodes,)
        assert strength.sum() == pytest.approx(w.sum())
        # Unit weights give plain out-degrees.
        ones = weighted_out_strength(g, np.ones(g.num_edges))
        assert np.array_equal(ones, g.out_degrees().astype(float))

    def test_out_strength_rejects_bad_shape(self, weighted_case):
        from repro.algorithms import weighted_out_strength

        g, _ = weighted_case
        with pytest.raises(ValueError):
            weighted_out_strength(g, np.ones(3))

    def test_weighted_pagerank_is_a_distribution(self, weighted_case):
        from repro.algorithms import weighted_out_strength

        g, w = weighted_case
        engine = PullEngine(g, edge_values=w)
        engine.prepare()
        pr = PageRank(
            tolerance=1e-12,
            out_strength=weighted_out_strength(g, w),
        )
        res = engine.run(pr, max_iterations=400)
        assert res.converged
        # Properly normalized: total rank bounded by 1 (mass only leaks
        # through dangling nodes), strictly positive where reachable.
        assert 0 < res.scores.sum() <= 1 + 1e-9
        assert np.all(res.scores >= 0)

    def test_unnormalized_weights_would_diverge(self, weighted_case):
        # The failure mode the out_strength option exists to prevent:
        # degree normalization with >1 average weight amplifies mass.
        g, _ = weighted_case
        w = np.full(g.num_edges, 3.0)
        engine = PullEngine(g, edge_values=w)
        engine.prepare()
        res = engine.run(
            PageRank(), max_iterations=50, check_convergence=False
        )
        assert res.scores.sum() > 10  # blew far past a distribution
