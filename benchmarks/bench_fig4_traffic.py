"""Figure 4: normalized execution time and memory traffic for Mixen and
its Block/Pull variants.

Micro-benchmarks time the traced simulation machinery itself; the report
regenerates the figure series and asserts its published shape.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, emit
from repro.bench import fig4
from repro.bench.experiments import _prepared
from repro.core import iteration_counters
from repro.graphs import load_dataset
from repro.machine import MemoryHierarchy


@pytest.mark.parametrize("variant", ["mixen", "block", "pull"])
def test_traced_iteration(benchmark, variant):
    g = load_dataset("wiki")
    benchmark.pedantic(
        lambda: iteration_counters(_prepared(variant, g)),
        rounds=3, iterations=1, warmup_rounds=1,
    )


def test_hierarchy_throughput(benchmark):
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 100_000, 500_000)
    def run():
        h = MemoryHierarchy()
        h.process(lines)
        return h
    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


def test_report_fig4(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: fig4(scale=bench_scale(2.0)), rounds=1, iterations=1
    )
    emit(result)
    by_graph = {row["graph"]: row for row in result.rows}
    # Paper shape: Mixen generates the least traffic on every skewed
    # graph; Pull generates the least on road (the locality exception).
    for name in ("weibo", "track", "wiki", "pld"):
        row = by_graph[name]
        assert row["mixen_traffic"] <= row["block_traffic"]
        assert row["mixen_traffic"] <= row["pull_traffic"]
    road = by_graph["road"]
    assert road["pull_traffic"] <= road["block_traffic"]
    assert road["pull_traffic"] <= road["mixen_traffic"]
    # Time follows traffic: Mixen is the fastest variant on the extreme
    # skew (weibo) and within wall-clock noise of the best elsewhere on
    # the skewed real graphs (single-core timings jitter ~20%).
    weibo = by_graph["weibo"]
    assert weibo["mixen_time"] == min(
        weibo["mixen_time"], weibo["block_time"], weibo["pull_time"]
    )
    for name in ("track", "wiki", "pld"):
        row = by_graph[name]
        best = min(row["mixen_time"], row["block_time"], row["pull_time"])
        assert row["mixen_time"] <= best * 1.25, name
