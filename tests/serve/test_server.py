"""Behavioural tests of the batched query server: admission control,
deadlines, the degradation ladder and the circuit breaker."""

import asyncio

import numpy as np
import pytest

from repro.errors import DeadlineExpired, ServeError, ServerOverload
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    LayoutStore,
    MixenServer,
    ServeConfig,
    ServeReport,
    boot_engine,
)
from repro.serve.server import LATENCY_WINDOW


@pytest.fixture
def served_engine(random_graph, tmp_path):
    engine, boot = boot_engine(
        random_graph, LayoutStore(tmp_path / "store"), kernel="parallel"
    )
    return engine, boot


def _config(**overrides):
    defaults = dict(
        window=0.01,
        max_batch=4,
        max_queue=64,
        iterations=5,
        retry=RetryPolicy(max_retries=0, backoff=0.0, deadline=None),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _drive(server, source_sets):
    async def scenario():
        async def one(sources):
            try:
                return await server.submit(sources)
            except Exception as exc:
                return exc

        await server.start()
        try:
            return await asyncio.gather(
                *(one(s) for s in source_sets)
            )
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestLifecycle:
    def test_requires_prepared_engine(self, random_graph):
        from repro.core.engine import MixenEngine

        with pytest.raises(ServeError, match="prepared"):
            MixenServer(MixenEngine(random_graph))

    def test_submit_before_start_is_typed(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config())
        with pytest.raises(ServeError, match="not running"):
            asyncio.run(server.submit([1]))

    def test_stop_drains_queued_requests(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config(window=0.5))

        async def scenario():
            await server.start()
            pending = [
                asyncio.ensure_future(server.submit([i + 1]))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            await server.stop()
            return await asyncio.gather(*pending)

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(r.batch_size == 3 for r in results)


class TestAdmissionControl:
    def test_overload_sheds_typed(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(
            engine, config=_config(max_queue=2, max_batch=2)
        )
        outcomes = _drive(server, [[i + 1] for i in range(8)])
        shed = [o for o in outcomes if isinstance(o, ServerOverload)]
        completed = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed and completed
        assert shed[0].capacity == 2
        assert server.report.rejected_overload == len(shed)
        assert server.report.admitted == len(completed)

    def test_admit_fault_site_sheds(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config())
        faults.install(
            faults.parse_fault_spec("crash:site=serve_admit,times=2")
        )
        try:
            outcomes = _drive(server, [[1], [2], [3]])
        finally:
            faults.clear()
        shed = [o for o in outcomes if isinstance(o, ServerOverload)]
        assert len(shed) == 2
        assert "fault injection" in str(shed[0])

    def test_deadline_expiry_is_typed(self, served_engine):
        engine, _ = served_engine
        # The window is far longer than the deadline, so the request
        # expires while waiting for its batch.
        server = MixenServer(
            engine, config=_config(window=0.5, deadline=0.02)
        )
        outcomes = _drive(server, [[1]])
        assert isinstance(outcomes[0], DeadlineExpired)
        assert outcomes[0].waited >= 0.02
        assert server.report.rejected_deadline == 1


class TestDegradationLadder:
    def test_batch_crash_steps_down_and_completes(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config())
        faults.install(
            faults.parse_fault_spec("crash:site=serve_batch,times=1")
        )
        try:
            outcomes = _drive(server, [[3], [4]])
        finally:
            faults.clear()
        assert all(not isinstance(o, Exception) for o in outcomes)
        # parallel crashed once -> the whole batch restarted on reduceat.
        assert {o.kernel for o in outcomes} == {"reduceat"}
        assert server.report.downgrades == 1
        assert server.report.batch_kernels == {"reduceat"}

    def test_auto_serves_from_reduceat(self, random_graph, tmp_path):
        # Named for the pre-CSR default: auto now resolves to bincount,
        # the ladder's serial floor, so one crash leaves no rung below.
        engine, _ = boot_engine(
            random_graph, LayoutStore(tmp_path / "auto"), kernel="auto"
        )
        server = MixenServer(engine, config=_config())
        assert server.health()["kernel"] == "bincount"
        assert _drive(server, [[3]])[0].kernel == "bincount"
        faults.install(
            faults.parse_fault_spec("crash:site=serve_batch,times=1")
        )
        try:
            outcomes = _drive(server, [[3]])
        finally:
            faults.clear()
        assert isinstance(outcomes[0], ServeError)
        assert "serial floor" in str(outcomes[0])
        assert server.report.downgrades == 1

    def test_ladder_exhaustion_fails_typed(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config())
        faults.install(
            faults.parse_fault_spec("crash:site=serve_batch,times=-1")
        )
        try:
            outcomes = _drive(server, [[3]])
        finally:
            faults.clear()
        assert isinstance(outcomes[0], ServeError)
        assert "degradation ladder" in str(outcomes[0])
        assert server.report.failed == 1
        assert server.report.failed_batches == server.report.batches == 1
        assert server.report.batch_kernels == set()

    def test_breaker_pins_after_consecutive_trouble(
        self, served_engine
    ):
        engine, _ = served_engine
        server = MixenServer(
            engine, config=_config(window=0.0, breaker_threshold=1)
        )
        faults.install(
            faults.parse_fault_spec("crash:site=serve_batch,times=2")
        )
        try:
            # window=0: each request is its own batch, sequentially.
            first = _drive(server, [[3]])
            second = _drive(server, [[4]])
        finally:
            faults.clear()
        # Batch 1 crashed twice -> completed on bincount -> pinned.
        assert first[0].kernel == "bincount"
        assert server.report.pinned_kernel == "bincount"
        # Batch 2 starts directly at the pinned rung, no new downgrade.
        assert second[0].kernel == "bincount"
        assert server.report.downgrades == 2

    def test_clean_batches_reset_trouble(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(
            engine, config=_config(breaker_threshold=2)
        )
        faults.install(
            faults.parse_fault_spec("crash:site=serve_batch,times=1")
        )
        try:
            _drive(server, [[3]])
            _drive(server, [[4]])
        finally:
            faults.clear()
        health = server.health()
        assert health["pinned_kernel"] is None
        assert health["consecutive_trouble"] == 0


class TestHealth:
    def test_health_shape(self, served_engine):
        engine, boot = served_engine
        server = MixenServer(engine, config=_config(), boot=boot)
        _drive(server, [[1], [2]])
        health = server.health()
        assert health["ready"] is False  # stopped after the drive
        assert health["queue_capacity"] == 64
        assert health["kernel"] == "parallel"
        assert health["completed"] == 2
        assert server.report.fingerprint == boot.fingerprint

    def test_responses_are_contiguous_copies(self, served_engine):
        engine, _ = served_engine
        server = MixenServer(engine, config=_config())
        outcomes = _drive(server, [[1], [2]])
        for result in outcomes:
            assert result.scores.flags["C_CONTIGUOUS"]
            assert result.scores.ndim == 1
            assert np.isfinite(result.scores).all()


class TestServeReport:
    def test_memory_bounded_by_latency_window(self):
        report = ServeReport()
        replies = 10**5
        for i in range(replies):
            report.record_reply(float(i))
        assert report.completed == replies
        assert len(report.latencies) <= LATENCY_WINDOW
        # quantiles cover the most recent window only
        assert report.latency_quantile(0.0) == replies - len(
            report.latencies
        )
        assert report.latency_quantile(1.0) == replies - 1
        card = report.to_json()
        assert card["completed"] == replies
        assert card["latency_p50"] >= replies - LATENCY_WINDOW
