"""Tests for kernel-aware traced execution: the simulator must report
the access pattern of the SpMV backend actually selected, not always
the blocked scatter/gather shape."""

import numpy as np
import pytest

from repro.frameworks.blocking import (
    BlockingEngine,
    trace_blocked_iteration,
)
from repro.graphs import load_dataset
from repro.machine import AccessTrace, AddressSpace


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki", scale=0.25)


def traced(graph, kernel):
    engine = BlockingEngine(graph, kernel=kernel)
    engine.prepare()
    trace = AccessTrace(AddressSpace(64))
    x = np.random.default_rng(7).random(graph.num_nodes)
    y = engine.traced_propagate(x, trace)
    return engine, trace, y


class TestTracedKernelDispatch:
    def test_reduceat_registers_run_arrays(self, wiki):
        _, trace, _ = traced(wiki, "reduceat")
        assert "runStarts" in trace.space
        assert "runDst" in trace.space

    def test_bincount_has_no_run_arrays(self, wiki):
        _, trace, _ = traced(wiki, "bincount")
        assert "runStarts" not in trace.space
        assert "runDst" not in trace.space

    def test_reduceat_trace_differs_from_blocked(self, wiki):
        # The destination-sorted reduceat kernel streams long runs: far
        # fewer stream jumps than the per-block scatter/gather shape.
        _, bincount_trace, _ = traced(wiki, "bincount")
        _, reduceat_trace, _ = traced(wiki, "reduceat")
        assert (
            reduceat_trace.traffic.stream_jumps
            < bincount_trace.traffic.stream_jumps
        )

    def test_parallel_traces_serial_equivalent_pattern(self, wiki):
        # The thread-pool kernel computes the same blocked accumulation
        # (bit-identical by design), so its traced pattern is the
        # blocked one.
        _, parallel_trace, _ = traced(wiki, "parallel")
        _, bincount_trace, _ = traced(wiki, "bincount")
        assert (
            parallel_trace.traffic.stream_jumps
            == bincount_trace.traffic.stream_jumps
        )
        assert (
            parallel_trace.traffic.bytes_read
            == bincount_trace.traffic.bytes_read
        )

    def test_traced_result_matches_native(self, wiki):
        engine, _, y = traced(wiki, "reduceat")
        x = np.random.default_rng(7).random(wiki.num_nodes)
        assert np.array_equal(y, engine.propagate(x))

    def test_auto_resolves_before_dispatch(self, wiki):
        # "auto" must trace whatever backend it resolves to — never a
        # literal "auto" pattern; the trace matches that kernel's
        # re-trace.
        from repro.core.kernels import resolve_kernel

        _, auto_trace, _ = traced(wiki, "auto")
        resolved = resolve_kernel("auto")
        _, direct_trace, _ = traced(wiki, resolved)
        assert (
            auto_trace.traffic.stream_jumps
            == direct_trace.traffic.stream_jumps
        )

    def test_compress_keeps_blocked_pattern(self, wiki):
        # Compressed-bin tracing models the blocked layout's in-cache
        # bins; the reduceat fast path does not apply there.
        engine = BlockingEngine(wiki, kernel="reduceat")
        engine.prepare()
        trace = AccessTrace(AddressSpace(64))
        b = engine.num_blocks_per_side
        space = trace.space
        space.register("x", wiki.num_nodes, 4)
        space.register("y", wiki.num_nodes, 4)
        pad = b * b * (space.line_bytes // 4 + 1)
        space.register("bins", wiki.num_edges + pad, 4)
        space.register("binPtr", b * b + 1, 8)
        trace_blocked_iteration(
            engine.layout, trace, compress=True, kernel="reduceat"
        )
        assert "runStarts" not in trace.space


class TestTracedPhasePatterns:
    """The one-shot Pre-/Post-Phase accesses go through the phase
    dispatch layer too: the trace must show the resolved backend's
    pattern over the plan's streams."""

    def mixen_traced(self, graph, kernel, **opts):
        from repro.core.engine import MixenEngine

        engine = MixenEngine(graph, kernel=kernel, **opts)
        engine.prepare()
        trace = AccessTrace(AddressSpace(64))
        x = np.random.default_rng(7).random(graph.num_nodes)
        engine.traced_propagate(x, trace)
        return engine, trace

    def test_sink_pull_registers_plan_streams(self, wiki):
        _, trace = self.mixen_traced(wiki, "reduceat")
        assert "sinkSrc" in trace.space
        assert "sinkMsgs" in trace.space
        assert "sinkRunStarts" in trace.space
        assert "sinkRunDst" in trace.space

    def test_sink_pull_bincount_streams_dst(self, wiki):
        _, trace = self.mixen_traced(wiki, "bincount")
        assert "sinkDst" in trace.space
        assert "sinkRunStarts" not in trace.space

    def test_seed_push_traced_in_ablation(self, wiki):
        # cache_step=False re-pushes the seed contribution per
        # iteration; the traced iteration must include the seed plan's
        # streams.
        _, trace = self.mixen_traced(wiki, "reduceat", cache_step=False)
        assert "seedSrc" in trace.space
        assert "seedMsgs" in trace.space
