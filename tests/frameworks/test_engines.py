"""Cross-engine consistency: every engine must compute identical results.

These are the paper's implicit correctness requirements: all five
frameworks run the same algorithms on the same graphs, so any result
mismatch would invalidate the timing comparison.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.algorithms.bfs import default_source, reference_bfs
from repro.core import MixenEngine
from repro.frameworks import engine_names, make_engine
from repro.graphs import load_dataset
from tests.conftest import dense_reference_spmv

ALL_ENGINES = sorted(engine_names())
SMALL_GRAPHS = ["wiki", "road"]


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name, scale=0.25) for name in SMALL_GRAPHS}


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("graph_name", SMALL_GRAPHS)
class TestEveryEngine:
    def test_propagate_matches_dense(self, engine_name, graph_name, graphs):
        g = graphs[graph_name]
        e = make_engine(engine_name, g)
        e.prepare()
        rng = np.random.default_rng(1)
        x = rng.random(g.num_nodes)
        assert np.allclose(
            e.propagate(x), dense_reference_spmv(g, x), atol=1e-8
        )

    def test_propagate_rank_k(self, engine_name, graph_name, graphs):
        g = graphs[graph_name]
        e = make_engine(engine_name, g)
        e.prepare()
        rng = np.random.default_rng(2)
        x = rng.random((g.num_nodes, 3))
        got = e.propagate(x)
        assert got.shape == (g.num_nodes, 3)
        for k in range(3):
            assert np.allclose(
                got[:, k], dense_reference_spmv(g, x[:, k]), atol=1e-8
            )

    def test_propagate_out_matches_dense_transpose(
        self, engine_name, graph_name, graphs
    ):
        g = graphs[graph_name]
        e = make_engine(engine_name, g)
        e.prepare()
        rng = np.random.default_rng(3)
        x = rng.random(g.num_nodes)
        expect = g.csr.to_dense().astype(float) @ x
        assert np.allclose(e.propagate_out(x), expect, atol=1e-8)

    def test_bfs_matches_reference(self, engine_name, graph_name, graphs):
        g = graphs[graph_name]
        e = make_engine(engine_name, g)
        e.prepare()
        src = default_source(g)
        assert np.array_equal(e.run_bfs(src), reference_bfs(g, src))

    def test_pagerank_matches_reference(
        self, engine_name, graph_name, graphs
    ):
        g = graphs[graph_name]
        e = make_engine(engine_name, g)
        e.prepare()
        res = e.run(PageRank(), max_iterations=15, check_convergence=False)
        expect = PageRank().reference_run(g, 15)
        # Every node, sinks included, at step 15: Mixen's Post-Phase
        # pulls sinks from the last Main-Phase propagation's input.
        assert np.allclose(res.scores, expect, atol=1e-9)


class TestBfsFromEveryClass:
    """BFS must be correct regardless of the source's connectivity class."""

    @pytest.mark.parametrize("engine_name", ["mixen", "block", "ligra"])
    def test_sources_of_all_classes(self, engine_name):
        from repro.graphs import classify_nodes
        from repro.types import NodeClass

        g = load_dataset("pld", scale=0.25)
        cc = classify_nodes(g)
        e = make_engine(engine_name, g)
        e.prepare()
        for node_class in NodeClass:
            nodes = cc.nodes(node_class)
            if nodes.size == 0:
                continue
            src = int(nodes[0])
            assert np.array_equal(
                e.run_bfs(src), reference_bfs(g, src)
            ), f"{engine_name} BFS wrong from {node_class.name} source"


class TestLigraDirectionOptimization:
    def test_both_directions_used_on_dense_frontier(self):
        g = load_dataset("urand", scale=0.5)
        e = make_engine("ligra", g)
        e.prepare()
        src = default_source(g)
        # Correctness is the contract; the threshold decides internally.
        assert np.array_equal(e.run_bfs(src), reference_bfs(g, src))

    def test_pure_top_down(self):
        g = load_dataset("road", scale=0.25)
        e = make_engine("ligra", g, direction_threshold=1.1)
        e.prepare()
        src = default_source(g)
        assert np.array_equal(e.run_bfs(src), reference_bfs(g, src))

    def test_pure_bottom_up(self):
        g = load_dataset("road", scale=0.25)
        e = make_engine("ligra", g, direction_threshold=0.0)
        e.prepare()
        src = default_source(g)
        assert np.array_equal(e.run_bfs(src), reference_bfs(g, src))


class TestBlockingLayoutDetails:
    def test_block_nnz_sums_to_edges(self):
        g = load_dataset("wiki", scale=0.25)
        e = make_engine("block", g, block_nodes=128)
        e.prepare()
        assert int(e.block_nnz().sum()) == g.num_edges

    def test_result_invariant_to_block_size(self):
        g = load_dataset("wiki", scale=0.25)
        rng = np.random.default_rng(4)
        x = rng.random(g.num_nodes)
        results = []
        for c in (32, 100, 4096):
            e = make_engine("block", g, block_nodes=c)
            e.prepare()
            results.append(e.propagate(x))
        assert np.allclose(results[0], results[1], atol=1e-9)
        assert np.allclose(results[0], results[2], atol=1e-9)

    def test_rejects_bad_block_size(self, tiny_graph):
        from repro.errors import PartitionError

        with pytest.raises(PartitionError):
            make_engine("block", tiny_graph, block_nodes=0)

    def test_polymer_socket_count(self):
        g = load_dataset("wiki", scale=0.25)
        for sockets in (1, 2, 4):
            e = make_engine("polymer", g, sockets=sockets)
            e.prepare()
            x = np.ones(g.num_nodes)
            assert np.allclose(
                e.propagate(x), dense_reference_spmv(g, x), atol=1e-8
            )

    def test_polymer_rejects_bad_sockets(self, tiny_graph):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            make_engine("polymer", tiny_graph, sockets=0)
