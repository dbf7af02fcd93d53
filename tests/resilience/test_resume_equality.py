"""Resume-equality acceptance suite (the PR 5 bugfix drills).

A run checkpointed at every iteration, killed, and resumed — either
mid-run or exactly at the iteration cap — must report the **global**
iteration count and bit-identical scores, across engines and across both
``scores_from`` contracts.  The at-cap case is the one that used to fail:
no step runs in the resuming process, so ``last_y`` stayed ``None``
(zero scores for InDegree/CF) and ``iterations`` reported 0.
"""

import numpy as np
import pytest

from repro.algorithms import CollaborativeFiltering, InDegree, PageRank
from repro.core.engine import MixenEngine
from repro.frameworks.blocking import BlockingEngine
from repro.resilience import ResilienceContext, ResilienceOptions

ITERATIONS = 6

ENGINES = {"mixen": MixenEngine, "blocking": BlockingEngine}
ALGORITHMS = {
    "pagerank": PageRank,  # scores_from == "x"
    "indegree": InDegree,  # scores_from == "y", x constant
    "cf": lambda: CollaborativeFiltering(factors=3),  # "y", rank-k
}


def run_once(engine_cls, algorithm_factory, graph, options):
    with ResilienceContext(options) as ctx:
        engine = engine_cls(graph, kernel="bincount")
        engine.prepare()
        return engine.run(
            algorithm_factory(),
            max_iterations=ITERATIONS,
            check_convergence=False,
            resilience=ctx,
        )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("kill_after", (3, ITERATIONS))
def test_resume_bit_identical(
    engine_name, algorithm_name, kill_after, random_graph, tmp_path
):
    """Checkpoint every iteration, stop after ``kill_after`` of them,
    resume, and compare against the uninterrupted run."""
    engine_cls = ENGINES[engine_name]
    algorithm_factory = ALGORITHMS[algorithm_name]
    baseline = run_once(
        engine_cls,
        algorithm_factory,
        random_graph,
        ResilienceOptions(),
    )
    assert baseline.iterations == ITERATIONS

    # Phase 1: run only the first ``kill_after`` iterations (simulating
    # a kill right after that iteration's checkpoint landed).
    with ResilienceContext(
        ResilienceOptions(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    ) as ctx:
        engine = engine_cls(random_graph, kernel="bincount")
        engine.prepare()
        engine.run(
            algorithm_factory(),
            max_iterations=kill_after,
            check_convergence=False,
            resilience=ctx,
        )
    assert list(tmp_path.glob("ckpt-*.npz"))

    # Phase 2: a fresh process resumes to the full cap.
    resumed = run_once(
        engine_cls,
        algorithm_factory,
        random_graph,
        ResilienceOptions(checkpoint_dir=str(tmp_path), resume=True),
    )
    assert resumed.iterations == ITERATIONS
    assert np.array_equal(resumed.scores, baseline.scores)
    assert resumed.scores.any()


def test_resume_at_cap_reports_global_iterations(random_graph, tmp_path):
    """The second confirmed bug in isolation: a resume landing exactly at
    the cap must not report 0 iterations (the scheduler's Post-Phase
    feeds ``iterations - 1`` into ``algorithm.apply``)."""
    options = ResilienceOptions(
        checkpoint_dir=str(tmp_path), checkpoint_every=1
    )
    first = run_once(MixenEngine, PageRank, random_graph, options)
    assert first.iterations == ITERATIONS
    resumed = run_once(
        MixenEngine,
        PageRank,
        random_graph,
        ResilienceOptions(checkpoint_dir=str(tmp_path), resume=True),
    )
    assert resumed.iterations == ITERATIONS
    assert np.array_equal(resumed.scores, first.scores)


def test_resume_at_cap_returns_sinks_at_the_last_step(tmp_path):
    """Kill right after the last checkpoint: the resuming process runs
    no Main-Phase step, yet its Post-Phase must pull sinks from the
    input of the last propagation, exactly like the uninterrupted run
    (and the dense reference) — not from the final state, one step
    ahead."""
    from repro.graphs import classify_nodes, load_dataset
    from repro.types import NodeClass

    graph = load_dataset("wiki", scale=0.25)
    sinks = classify_nodes(graph).mask(NodeClass.SINK)
    assert sinks.any()
    uninterrupted = run_once(
        MixenEngine, PageRank, graph, ResilienceOptions()
    )
    run_once(
        MixenEngine,
        PageRank,
        graph,
        ResilienceOptions(checkpoint_dir=str(tmp_path), checkpoint_every=1),
    )
    resumed = run_once(
        MixenEngine,
        PageRank,
        graph,
        ResilienceOptions(checkpoint_dir=str(tmp_path), resume=True),
    )
    assert np.array_equal(resumed.scores, uninterrupted.scores)
    expect = PageRank().reference_run(graph, ITERATIONS)
    np.testing.assert_allclose(
        resumed.scores[sinks], expect[sinks], rtol=1e-12, atol=0
    )
