"""Property-based cross-engine tests on random graphs (hypothesis).

The strongest correctness statement in the repository: for *arbitrary*
directed graphs, every engine computes the same propagation as the dense
reference, Mixen's schedule matches the generic loop, and the filter
plan's structural invariants hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank
from repro.algorithms.bfs import reference_bfs
from repro.core import MixenEngine, build_mixed, filter_graph
from repro.core.permutation import is_permutation
from repro.frameworks import engine_names, make_engine
from repro.graphs import EdgeList, Graph

ENGINES = sorted(set(engine_names()) - {"filtered"})


@st.composite
def graphs(draw, max_nodes=24, max_edges=100):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    edges = EdgeList(n, src, dst).deduplicated()
    return Graph.from_edgelist(edges)


def dense_spmv(graph, x):
    return graph.csr.to_dense().astype(float).T @ x


class TestPropagateEverywhere:
    @given(graphs(), st.sampled_from(ENGINES), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense(self, graph, engine_name, seed):
        engine = make_engine(engine_name, graph)
        engine.prepare()
        x = np.random.default_rng(seed).random(graph.num_nodes)
        assert np.allclose(
            engine.propagate(x), dense_spmv(graph, x), atol=1e-9
        )

    @given(graphs(), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_mixen_block_size_invariance(self, graph, block_nodes):
        engine = MixenEngine(graph, block_nodes=block_nodes)
        engine.prepare()
        x = np.arange(graph.num_nodes, dtype=float)
        assert np.allclose(
            engine.propagate(x), dense_spmv(graph, x), atol=1e-9
        )


class TestMixenSchedule:
    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_pagerank_matches_reference(self, graph):
        engine = MixenEngine(graph, block_nodes=4)
        engine.prepare()
        res = engine.run(PageRank(), max_iterations=8,
                         check_convergence=False)
        expect = PageRank().reference_run(graph, 8)
        assert np.allclose(res.scores, expect, atol=1e-9)

    @given(graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_reference(self, graph, seed):
        engine = MixenEngine(graph, block_nodes=4)
        engine.prepare()
        source = int(
            np.random.default_rng(seed).integers(0, graph.num_nodes)
        )
        assert np.array_equal(
            engine.run_bfs(source), reference_bfs(graph, source)
        )


class TestFilterInvariants:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_plan_is_permutation_with_consistent_counts(self, graph):
        plan = filter_graph(graph)
        assert is_permutation(plan.perm)
        assert (
            plan.num_regular + plan.num_seed + plan.num_sink
            + plan.num_isolated
            == graph.num_nodes
        )
        assert plan.num_hubs <= plan.num_regular

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_mixed_stores_every_edge_once(self, graph):
        plan = filter_graph(graph)
        mixed = build_mixed(graph, plan)
        total = (
            mixed.rr.num_edges
            + mixed.seed_to_reg.num_edges
            + mixed.sink_csc.num_edges
        )
        assert total == graph.num_edges

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_spmv_commutes_with_relabeling(self, graph):
        from repro.core.permutation import (
            permute_values,
            unpermute_values,
        )

        plan = filter_graph(graph)
        relabeled = graph.relabeled(plan.perm)
        x = np.arange(graph.num_nodes, dtype=float)
        direct = dense_spmv(graph, x)
        via_relabel = unpermute_values(
            dense_spmv(relabeled, permute_values(x, plan.perm)),
            plan.perm,
        )
        assert np.allclose(direct, via_relabel, atol=1e-9)
