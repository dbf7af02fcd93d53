"""Cross-engine oracle: at a fixed iteration budget, every registered
engine returns what :meth:`Algorithm.reference_run` returns, on every
node — seeds, sinks and isolated nodes included, no class mask.

The bound is summation-order rounding only: ``rtol`` 1e-12 plus an
``atol`` of 1e-12 times the largest reference score.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import InDegree, PageRank, PersonalizedPageRank
from repro.frameworks import engine_names, make_engine
from repro.graphs import load_dataset
from tests.test_property_engines import graphs

ITERATIONS = 10
ENGINES = sorted(engine_names())
ALGORITHMS = {
    "pagerank": PageRank,
    "ppr": lambda: PersonalizedPageRank([0, 1]),
    "indegree": InDegree,
}


def assert_matches_reference(engine_name, graph, algorithm_name):
    factory = ALGORITHMS[algorithm_name]
    engine = make_engine(engine_name, graph)
    engine.prepare()
    got = engine.run(
        factory(), max_iterations=ITERATIONS, check_convergence=False
    ).scores
    expect = factory().reference_run(graph, ITERATIONS)
    np.testing.assert_allclose(
        got,
        expect,
        rtol=1e-12,
        atol=1e-12 * float(np.abs(expect).max(initial=0.0)),
        err_msg=f"{engine_name}/{algorithm_name}",
    )


@pytest.fixture(scope="module")
def proxies():
    return {name: load_dataset(name, scale=0.25) for name in ("wiki", "pld")}


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("graph_name", ("wiki", "pld"))
def test_proxy_matches_reference(
    graph_name, engine_name, algorithm_name, proxies
):
    assert_matches_reference(
        engine_name, proxies[graph_name], algorithm_name
    )


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
@given(graph=graphs())
@settings(max_examples=20, deadline=None)
def test_random_graph_matches_reference(algorithm_name, graph):
    for engine_name in ENGINES:
        assert_matches_reference(engine_name, graph, algorithm_name)
