"""Frontier-active BFS: the sparse top-down levels and the dense blocked
sweeps give bit-identical levels on every engine that expands through
them, supervised or not.

``BlockLayout.frontier_step`` switches per level on the frontier's
out-edge count (:data:`repro.algorithms.bfs.DIRECTION_THRESHOLD`); the
graphs below cover every level sparse (a long path), one dense level
(a hub with spokes back to it) and arbitrary mixes (random graphs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs as bfs_module
from repro.algorithms.bfs import FrontierBfsStep, reference_bfs
from repro.core import MixenEngine
from repro.core.driver import StepContext
from repro.core.extension import FilteredEngine
from repro.frameworks import make_engine
from repro.frameworks.blocking import build_block_layout
from repro.graphs import EdgeList, Graph, load_dataset
from repro.resilience import ResilienceContext, ResilienceOptions
from repro.types import UNREACHED


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
    return Graph.from_edgelist(edges.deduplicated())


def _path(n):
    return Graph.from_edges(n, np.arange(n - 1), np.arange(1, n))


def _hub(n):
    """Node 0 points at every other node and each of them back at it:
    from the hub, level 1 is one dense level over half the edges."""
    spokes = np.arange(1, n)
    return Graph.from_edges(
        n,
        np.concatenate([np.zeros(n - 1, dtype=np.int64), spokes]),
        np.concatenate([spokes, np.zeros(n - 1, dtype=np.int64)]),
    )


@st.composite
def bfs_graphs(draw):
    kind = draw(st.sampled_from(["random", "path", "hub"]))
    if kind == "path":
        return _path(draw(st.integers(min_value=30, max_value=80)))
    if kind == "hub":
        return _hub(draw(st.integers(min_value=25, max_value=60)))
    n = draw(st.integers(min_value=2, max_value=24))
    m = draw(st.integers(min_value=0, max_value=100))
    return _random_graph(n, m, draw(st.integers(0, 2**32 - 1)))


def _engines(graph):
    engines = {
        "mixen": MixenEngine(graph, block_nodes=4),
        "block": make_engine("block", graph, block_nodes=4),
        "filtered": FilteredEngine(graph, base="block", block_nodes=4),
        "ligra": make_engine("ligra", graph),
    }
    for engine in engines.values():
        engine.prepare()
    return engines


class TestLevelsMatchReference:
    @given(bfs_graphs())
    @settings(max_examples=40, deadline=None)
    def test_every_engine_matches_reference(self, graph):
        engines = _engines(graph)
        n = graph.num_nodes
        for source in range(0, n, max(n // 12, 1)):
            expect = reference_bfs(graph, source)
            for name, engine in engines.items():
                assert np.array_equal(
                    engine.run_bfs(source), expect
                ), f"{name} BFS wrong from source {source}"


def _step_with_threshold(layout, frontier, levels, threshold):
    levels = levels.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bfs_module, "DIRECTION_THRESHOLD", threshold)
        new_frontier = layout.frontier_step(frontier, levels, 7)
    return levels, new_frontier


class TestBranchesAgree:
    """The sparse (top-down) and dense (blocked sweep) branches of
    ``frontier_step`` return identical ``(levels, frontier)``."""

    @given(
        st.integers(2, 40),
        st.integers(0, 200),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_levels_and_frontier(self, n, m, block_nodes, seed):
        graph = _random_graph(n, m, seed)
        csr = graph.csr
        layout = build_block_layout(
            csr.row_ids(), csr.indices, n, block_nodes
        )
        rng = np.random.default_rng(seed)
        frontier = rng.random(n) < 0.3
        visited = frontier | (rng.random(n) < 0.3)
        levels = np.where(visited, rng.integers(0, 6, n), UNREACHED)
        sparse = _step_with_threshold(layout, frontier, levels, np.inf)
        dense = _step_with_threshold(layout, frontier, levels, 0.0)
        assert np.array_equal(sparse[0], dense[0])
        assert np.array_equal(sparse[1], dense[1])
        assert sparse[1].dtype == dense[1].dtype == bool

    def test_default_switch_takes_both_branches(self, monkeypatch):
        """From a spoke, level 1 (the hub) is sparse; the hub's own
        expansion, level 2, is dense."""
        graph = _hub(40)
        engine = make_engine("block", graph, block_nodes=8)
        engine.prepare()
        sparse_calls = []
        top_down = bfs_module.top_down
        monkeypatch.setattr(
            bfs_module,
            "top_down",
            lambda *args: sparse_calls.append(args[-1]) or top_down(*args),
        )
        levels = engine.run_bfs(1)
        assert np.array_equal(levels, reference_bfs(graph, 1))
        assert sparse_calls == [1]


class TestSupervisedCopy:
    def test_step_copies_levels_only_when_supervised(self):
        def expand(frontier, levels, level):
            levels[1] = level
            return np.zeros_like(frontier)

        step = FrontierBfsStep(expand)
        for supervisor, marks_input in ((None, True), (object(), False)):
            levels = np.array([0, UNREACHED], dtype=np.int64)
            state = {"levels": levels, "frontier": np.array([True, False])}
            new = step.step(state, 0, StepContext(supervisor))
            assert new["levels"][1] == 1
            assert bool(levels[1] == 1) is marks_input

    @pytest.mark.parametrize("engine_name", ["mixen", "block", "ligra"])
    def test_checkpointed_run_equals_unsupervised(
        self, engine_name, tmp_path
    ):
        graph = load_dataset("road", scale=0.25)
        engine = make_engine(engine_name, graph)
        engine.prepare()
        source = int(np.argmax(graph.out_degrees()))
        plain = engine.run_bfs(source)
        options = ResilienceOptions(
            checkpoint_dir=str(tmp_path),
            checkpoint_every=5,
            checkpoint_keep=None,
        )
        with ResilienceContext(options) as ctx:
            supervised = engine.run_bfs(source, resilience=ctx)
        snapshots = sorted(tmp_path.glob("ckpt-*.npz"))
        assert len(snapshots) > 2
        assert np.array_equal(supervised, plain)
        assert np.array_equal(plain, reference_bfs(graph, source))
        # Every snapshot holds the levels of its own iteration, so a
        # resume from the middle of the run lands on the same answer.
        for late in snapshots[len(snapshots) // 2:]:
            late.unlink()
        with ResilienceContext(
            ResilienceOptions(checkpoint_dir=str(tmp_path), resume=True)
        ) as ctx:
            resumed = engine.run_bfs(source, resilience=ctx)
        assert np.array_equal(resumed, plain)
