"""Unit tests for the timing harness."""

import pytest

from repro.algorithms import InDegree
from repro.algorithms.bfs import default_source
from repro.bench import (
    Timing,
    time_algorithm,
    time_bfs,
    time_coupled,
    time_prepare,
)
from repro.core import MixenEngine
from repro.errors import EngineError
from repro.frameworks import PullEngine
from repro.graphs import load_dataset


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki", scale=0.25)


class TestTiming:
    def test_per_iteration(self):
        t = Timing(seconds=2.0, iterations=4)
        assert t.per_iteration == 0.5

    def test_zero_iterations(self):
        assert Timing(1.0, 0).per_iteration == 0.0


class TestTimeAlgorithm:
    def test_positive_time(self, wiki):
        engine = PullEngine(wiki)
        t = time_algorithm(engine, InDegree, iterations=3, warmup=1)
        assert t.per_iteration > 0
        assert t.iterations == 3

    def test_prepares_engine(self, wiki):
        engine = MixenEngine(wiki)
        assert not engine.prepared
        time_algorithm(engine, InDegree, iterations=2)
        assert engine.prepared

    def test_rejects_bad_iterations(self, wiki):
        with pytest.raises(EngineError):
            time_algorithm(PullEngine(wiki), InDegree, iterations=0)

    def test_no_warmup(self, wiki):
        t = time_algorithm(
            PullEngine(wiki), InDegree, iterations=2, warmup=0
        )
        assert t.per_iteration > 0


class TestTimeBfs:
    def test_positive(self, wiki):
        engine = PullEngine(wiki)
        assert time_bfs(engine, default_source(wiki), repeats=2) > 0

    def test_rejects_bad_repeats(self, wiki):
        with pytest.raises(EngineError):
            time_bfs(PullEngine(wiki), 0, repeats=0)

    def test_supervised_timed_runs(self, wiki, tmp_path):
        from repro.resilience import (
            ResilienceContext,
            ResilienceOptions,
        )

        engine = MixenEngine(wiki)
        with ResilienceContext(
            ResilienceOptions(checkpoint_dir=str(tmp_path))
        ) as ctx:
            elapsed = time_bfs(
                engine, default_source(wiki), repeats=2,
                resilience=ctx,
            )
        assert elapsed > 0
        assert list(tmp_path.glob("ckpt-*.npz"))


class TestTimeCoupled:
    def test_positive_and_full_budget(self, wiki):
        from repro.algorithms import hits

        t = time_coupled(
            MixenEngine(wiki), hits, iterations=3, warmup=1
        )
        # tolerance=0.0 disables convergence: the full budget runs.
        assert t.iterations == 3
        assert t.seconds > 0

    def test_salsa_runner(self, wiki):
        from repro.algorithms import salsa

        t = time_coupled(
            MixenEngine(wiki), salsa, iterations=2, warmup=0
        )
        assert t.iterations == 2

    def test_rejects_bad_iterations(self, wiki):
        from repro.algorithms import hits

        with pytest.raises(EngineError):
            time_coupled(MixenEngine(wiki), hits, iterations=0)

    def test_supervised_timed_run(self, wiki, tmp_path):
        from repro.algorithms import hits
        from repro.resilience import (
            ResilienceContext,
            ResilienceOptions,
        )

        with ResilienceContext(
            ResilienceOptions(checkpoint_dir=str(tmp_path))
        ) as ctx:
            t = time_coupled(
                MixenEngine(wiki), hits, iterations=3, warmup=0,
                resilience=ctx,
            )
        assert t.iterations == 3
        assert list(tmp_path.glob("ckpt-*.npz"))


class TestTimePrepare:
    def test_median_and_breakdown(self, wiki):
        timing = time_prepare(lambda: MixenEngine(wiki), repeats=7)
        assert 0 < timing.q1 <= timing.median <= timing.q3
        assert set(timing.breakdown) == {"filter", "partition", "prove"}

    def test_rejects_bad_repeats(self, wiki):
        with pytest.raises(EngineError):
            time_prepare(lambda: PullEngine(wiki), repeats=0)
