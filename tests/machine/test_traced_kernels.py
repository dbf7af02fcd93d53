"""Tests for traced execution: the machine model records the paper's
access patterns (seed push, Scatter-Cache-Gather, sink pull) whatever
``--kernel`` backend executes the propagation."""

import numpy as np
import pytest

from repro.core.engine import MixenEngine
from repro.core.kernels import KERNEL_NAMES
from repro.frameworks.blocking import BlockingEngine
from repro.graphs import load_dataset
from repro.machine import (
    SCALED_MACHINE,
    AccessTrace,
    AddressSpace,
    MemoryHierarchy,
)
from repro.parallel import procpool

ENGINES = {"block": BlockingEngine, "mixen": MixenEngine}


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki", scale=0.25)


@pytest.fixture(autouse=True, scope="module")
def _cleanup_pool():
    yield
    procpool.cleanup()


def traced(graph, engine="block", kernel="bincount", **opts):
    engine = ENGINES[engine](graph, kernel=kernel, max_workers=2, **opts)
    engine.prepare()
    trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
    x = np.random.default_rng(7).random(graph.num_nodes)
    y = engine.traced_propagate(x, trace)
    return engine, trace, y


class TestTracedKernelDispatch:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_every_rung_traces_one_pattern(self, wiki, engine, kernel):
        def counters(kernel):
            _, trace, _ = traced(wiki, engine, kernel)
            return MemoryHierarchy(SCALED_MACHINE).run_trace(trace)

        assert counters(kernel).as_dict() == counters("bincount").as_dict()

    def test_traced_result_matches_native(self, wiki):
        engine, _, y = traced(wiki, kernel="reduceat")
        x = np.random.default_rng(7).random(wiki.num_nodes)
        assert np.array_equal(y, engine.propagate(x))


class TestTracedPhasePatterns:
    def test_seed_push_traced_in_ablation(self, wiki):
        # cache_step=False re-pushes the seed contribution per
        # iteration as the paper's CSR push: xSeed, seedIdx, scatter.
        _, trace, _ = traced(wiki, "mixen", cache_step=False)
        assert "seedIdx" in trace.space
        assert "xSeed" in trace.space
        assert "seedMsgs" not in trace.space

    def test_sink_pull_registers_csc_streams(self, wiki):
        _, trace, _ = traced(wiki, "mixen")
        assert "sinkPtr" in trace.space
        assert "sinkIdx" in trace.space
