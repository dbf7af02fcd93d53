"""Tests for tracing: the machine model records the paper's access
patterns (the Cache step or the seed re-push, then Scatter-Gather)
whatever ``--kernel`` backend the engine is built with."""

import pytest

import repro.core.kernels as kernels
from repro.bench.experiments import _prepared
from repro.core import FilteredEngine, ScgaKernel, iteration_counters
from repro.core.engine import MixenEngine
from repro.core.kernels import KERNEL_NAMES
from repro.frameworks import (
    BlockingEngine,
    GraphMatEngine,
    LigraEngine,
    PolymerEngine,
    PullEngine,
    PushEngine,
    engine_names,
)
from repro.frameworks.blocking import BlockLayout
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
    engine.trace_iteration(trace)
    return trace


class TestTracedKernelDispatch:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_every_rung_traces_one_pattern(self, wiki, engine, kernel):
        def counters(kernel):
            trace = traced(wiki, engine, kernel)
            return MemoryHierarchy(SCALED_MACHINE).run_trace(trace)

        assert counters(kernel).as_dict() == counters("bincount").as_dict()


class TestTracedPhasePatterns:
    def test_seed_push_traced_in_ablation(self, wiki):
        # cache_step=False re-pushes the seed contribution per
        # iteration as the paper's CSR push: xSeed, seedIdx, scatter.
        trace = traced(wiki, "mixen", cache_step=False)
        assert "seedIdx" in trace.space
        assert "xSeed" in trace.space
        assert "seedMsgs" not in trace.space


class TestTraceRunsNoKernel:
    """Tracing records a pattern and computes nothing: with every
    propagation entry point raising, each engine still traces the
    counters of an unpatched run."""

    ENGINE_CLASSES = (
        MixenEngine, FilteredEngine, BlockingEngine, PullEngine,
        PushEngine, LigraEngine, PolymerEngine, GraphMatEngine,
    )

    def test_every_engine_class_is_patched(self):
        names = {cls.name for cls in self.ENGINE_CLASSES}
        assert names == set(engine_names())

    @pytest.mark.parametrize("name", sorted(engine_names()))
    def test_trace_runs_no_kernel(self, wiki, monkeypatch, name):
        engine = _prepared(name, wiki)
        expected = iteration_counters(engine).as_dict()

        def refuse(*args, **kwargs):
            raise AssertionError("tracing ran a kernel")

        monkeypatch.setattr(kernels, "reduce", refuse)
        monkeypatch.setattr(BlockLayout, "spmv", refuse)
        monkeypatch.setattr(ScgaKernel, "iterate", refuse)
        monkeypatch.setattr(ScgaKernel, "set_seed_input", refuse)
        for cls in self.ENGINE_CLASSES:
            monkeypatch.setattr(cls, "propagate", refuse)
        assert iteration_counters(engine).as_dict() == expected
