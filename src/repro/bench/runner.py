"""Timing harness: per-iteration and preprocessing measurements.

The paper reports per-iteration execution time averaged over 100
iterations with convergence disabled (Section 6.1); these helpers follow
the same protocol at a configurable iteration budget, with warmup rounds
so one-time NumPy allocation costs don't pollute the numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import EngineError


@dataclass(frozen=True)
class Timing:
    """One timing measurement."""

    seconds: float
    iterations: int

    @property
    def per_iteration(self) -> float:
        """Seconds per iteration."""
        return self.seconds / self.iterations if self.iterations else 0.0


def time_algorithm(
    engine,
    algorithm_factory,
    *,
    iterations: int = 10,
    warmup: int = 2,
    resilience=None,
) -> Timing:
    """Per-iteration time of an algorithm on a prepared engine.

    ``algorithm_factory`` is called fresh for each run (algorithms may
    carry per-run state).  Convergence checking is disabled, matching the
    paper's measurement protocol.  ``resilience`` (a
    :class:`~repro.resilience.ResilienceContext`) supervises the timed
    run only — warmup stays unsupervised so injected faults fire in the
    measured window, letting the bench quantify degradation overhead.
    """
    if iterations <= 0:
        raise EngineError(
            f"iterations must be positive, got {iterations}"
        )
    engine.prepare()
    if warmup > 0:
        engine.run(
            algorithm_factory(), max_iterations=warmup,
            check_convergence=False,
        )
    start = time.perf_counter()
    result = engine.run(
        algorithm_factory(), max_iterations=iterations,
        check_convergence=False, resilience=resilience,
    )
    elapsed = time.perf_counter() - start
    return Timing(elapsed, result.iterations)


def time_bfs(
    engine, source: int, *, repeats: int = 3, resilience=None
) -> float:
    """Median full-BFS time (the paper times BFS to convergence).

    ``resilience`` supervises the *timed* traversals only — the warmup
    runs bare, so injected faults land inside the measured window and
    the median reflects recovery overhead.
    """
    if repeats <= 0:
        raise EngineError(f"repeats must be positive, got {repeats}")
    engine.prepare()
    engine.run_bfs(source)  # warmup
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        engine.run_bfs(source, resilience=resilience)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def time_coupled(
    engine,
    runner,
    *,
    iterations: int = 10,
    warmup: int = 2,
    resilience=None,
) -> Timing:
    """Per-iteration time of a coupled hub/authority algorithm.

    ``runner`` is :func:`~repro.algorithms.hits.hits` or
    :func:`~repro.algorithms.salsa.salsa` (any callable with the same
    keyword surface).  Convergence is disabled by driving the loop with
    ``tolerance=0.0`` so every run executes the full iteration budget,
    matching :func:`time_algorithm`'s protocol.  ``resilience``
    supervises the timed run only; warmup stays unsupervised.
    """
    if iterations <= 0:
        raise EngineError(
            f"iterations must be positive, got {iterations}"
        )
    engine.prepare()
    if warmup > 0:
        runner(engine, max_iterations=warmup, tolerance=0.0)
    start = time.perf_counter()
    result = runner(
        engine, max_iterations=iterations, tolerance=0.0,
        resilience=resilience,
    )
    elapsed = time.perf_counter() - start
    return Timing(elapsed, result.iterations)


@dataclass(frozen=True)
class PrepareTiming:
    """Preparation seconds of ``repeats`` fresh engines: the median and
    quartiles of the totals, and each stage's median (Table 4)."""

    median: float
    q1: float
    q3: float
    breakdown: dict


def time_prepare(engine_factory, *, repeats: int = 7) -> PrepareTiming:
    """Time ``repeats`` preparations (Table 4).

    ``engine_factory`` must build a *fresh, unprepared* engine per call.
    """
    if repeats <= 0:
        raise EngineError(f"repeats must be positive, got {repeats}")
    totals, stages = [], []
    for _ in range(repeats):
        stats = engine_factory().prepare()
        totals.append(stats.seconds)
        stages.append(stats.breakdown)
    q1, median, q3 = np.percentile(totals, [25, 50, 75])
    breakdown = {
        name: float(np.median([stage[name] for stage in stages]))
        for name in stages[0]
    }
    return PrepareTiming(float(median), float(q1), float(q3), breakdown)
