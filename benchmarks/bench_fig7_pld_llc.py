"""Figure 7: LLC hits and memory traffic vs block size for pld.

The report regenerates the figure's two series and asserts the paper's
trade-off: tiny blocks inflate memory traffic; the LLC- and traffic-
optimal points differ; the best overall time falls between them.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, emit
from repro.bench import fig7
from repro.machine import AccessTrace, AddressSpace
from repro.core import MixenEngine
from repro.graphs import load_dataset


@pytest.mark.parametrize("block_nodes", [64, 2048])
def test_trace_iteration(benchmark, block_nodes):
    g = load_dataset("pld")
    engine = MixenEngine(g, block_nodes=block_nodes)
    engine.prepare()

    def trace_once():
        trace = AccessTrace(AddressSpace(64))
        engine.trace_iteration(trace)
        return trace

    benchmark.pedantic(trace_once, rounds=3, iterations=1, warmup_rounds=1)


def test_report_fig7(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: fig7(scale=bench_scale(2.0)), rounds=1, iterations=1
    )
    emit(result)
    traffic = [row["dram_mbytes"] for row in result.rows]
    cycles = [row["modeled_cycles"] for row in result.rows]
    # Tiny blocks inflate memory traffic (the paper's 16KB case).
    assert traffic[0] > 1.5 * min(traffic)
    # Traffic improves monotonically-ish toward large blocks...
    assert traffic[-1] <= traffic[0]
    # ...but the best modeled time is NOT at either extreme.
    best = int(np.argmin(cycles))
    assert 0 < best < len(cycles) - 1
