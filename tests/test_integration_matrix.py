"""Full integration matrix: engines x algorithms x datasets.

One compact sweep asserting that the whole system composes: every engine
runs every protocol algorithm on every proxy dataset and agrees with the
pull engine bit-for-bit (within FP tolerance).  Also covers the input
validation added to the Engine API.
"""

import numpy as np
import pytest

from repro.algorithms import (
    CollaborativeFiltering,
    InDegree,
    KatzCentrality,
    PageRank,
    PersonalizedPageRank,
)
from repro.errors import EngineError
from repro.frameworks import PullEngine, engine_names, make_engine
from repro.graphs import DATASET_NAMES, load_dataset

ENGINES = sorted(set(engine_names()) - {"filtered", "pull"})
ALGORITHM_FACTORIES = {
    "indegree": InDegree,
    "pagerank": PageRank,
    "cf": lambda: CollaborativeFiltering(factors=2),
    "katz": KatzCentrality,
    "ppr": lambda: PersonalizedPageRank([0, 1]),
}


@pytest.fixture(scope="module")
def baseline_scores():
    """Pull-engine reference scores per (algorithm, dataset)."""
    scores = {}
    for gname in DATASET_NAMES:
        g = load_dataset(gname, scale=0.25)
        engine = PullEngine(g)
        engine.prepare()
        for aname, factory in ALGORITHM_FACTORIES.items():
            res = engine.run(
                factory(), max_iterations=6, check_convergence=False
            )
            scores[(aname, gname)] = res.scores
    return scores


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("graph_name", DATASET_NAMES)
def test_engine_matches_pull_on_all_algorithms(
    engine_name, graph_name, baseline_scores
):
    g = load_dataset(graph_name, scale=0.25)
    engine = make_engine(engine_name, g)
    engine.prepare()
    for aname, factory in ALGORITHM_FACTORIES.items():
        res = engine.run(
            factory(), max_iterations=6, check_convergence=False
        )
        expect = baseline_scores[(aname, graph_name)]
        assert np.allclose(
            res.scores, expect, atol=1e-8
        ), f"{engine_name}/{aname}/{graph_name}"


class TestInputValidation:
    @pytest.mark.parametrize("engine_name", sorted(engine_names()))
    def test_wrong_length_rejected(self, engine_name):
        g = load_dataset("wiki", scale=0.25)
        engine = (
            make_engine(engine_name, g, base="pull")
            if engine_name == "filtered"
            else make_engine(engine_name, g)
        )
        engine.prepare()
        with pytest.raises((EngineError, Exception)):
            engine.propagate(np.ones(g.num_nodes + 1))

    def test_3d_rejected(self):
        g = load_dataset("wiki", scale=0.25)
        engine = PullEngine(g)
        engine.prepare()
        with pytest.raises(EngineError):
            engine.propagate(np.ones((g.num_nodes, 2, 2)))

    def test_nan_propagates_not_crashes(self):
        # NaN inputs follow IEEE semantics (garbage in, NaN out) rather
        # than crashing — documented numerical behaviour.
        g = load_dataset("wiki", scale=0.25)
        engine = PullEngine(g)
        engine.prepare()
        x = np.ones(g.num_nodes)
        x[0] = np.nan
        y = engine.propagate(x)
        assert np.isnan(y).any() or g.out_degrees()[0] == 0
