"""Serving with a live update stream: epoch-stamped replies, the
boot-cache store contract, and the update-stream chaos drill."""

import asyncio

import numpy as np
import pytest

from repro.core import MixenEngine
from repro.errors import UpdateError
from repro.graphs.updates import UpdateBatch, random_batches
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    LayoutStore,
    MixenServer,
    ServeConfig,
    boot_engine,
    run_update_drill,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


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


class TestEpochKeyedStore:
    """Epochs live in memory: the store holds boot layouts only, keyed
    on the adjacency and never on an epoch."""

    def test_same_epoch_boots_warm(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        boot_engine(random_graph, store, kernel="bincount")
        engine, boot = boot_engine(random_graph, store, kernel="bincount")
        assert boot.hit
        assert engine.certificate.epoch == 0

    def test_updates_leave_only_the_boot_entry(
        self, random_graph, tmp_path
    ):
        store = LayoutStore(tmp_path)
        report = run_update_drill(
            random_graph,
            store,
            updates=3,
            queries_per_epoch=2,
            update_batch_size=6,
            seed=8,
            kernel="bincount",
            config=_config(),
        )
        assert report.updates_applied == 3
        assert report.verified == report.completed
        assert LayoutStore(tmp_path).fingerprints() == (
            report.boot.fingerprint,
        )
        assert len(list(tmp_path.glob("layout-*"))) == 1


class TestServerUpdates:
    def _start(self, random_graph, tmp_path, **config_overrides):
        engine, boot = boot_engine(
            random_graph, LayoutStore(tmp_path / "store"), kernel="bincount"
        )
        return MixenServer(
            engine, config=_config(**config_overrides), boot=boot
        )

    def test_update_advances_epoch_and_stamps_replies(
        self, random_graph, tmp_path
    ):
        server = self._start(random_graph, tmp_path)
        (batch,) = random_batches(random_graph, 1, 8, seed=1)

        async def scenario():
            await server.start()
            try:
                before = await server.submit([3])
                summary = await server.submit_update(batch)
                after = await server.submit([3])
                return before, summary, after
            finally:
                await server.stop()

        before, summary, after = asyncio.run(scenario())
        assert before.epoch == 0
        assert summary["epoch"] == 1
        assert summary["inserts"] == batch.num_inserts
        assert after.epoch == 1
        assert server.report.updates_applied == 1
        assert server.health()["epoch"] == 1

    def test_updated_scores_match_fresh_engine(
        self, random_graph, tmp_path
    ):
        server = self._start(random_graph, tmp_path)
        (batch,) = random_batches(random_graph, 1, 8, seed=2)

        async def scenario():
            await server.start()
            try:
                await server.submit_update(batch)
                return await server.submit([5, 9])
            finally:
                await server.stop()

        result = asyncio.run(scenario())
        from repro.algorithms.personalized import PersonalizedPageRank
        from repro.graphs.updates import rebuild_from_batch

        fresh = MixenEngine(
            rebuild_from_batch(random_graph, batch), kernel="bincount"
        )
        fresh.prepare()
        reference = fresh.run(
            PersonalizedPageRank(np.asarray([5, 9])),
            max_iterations=5,
            check_convergence=False,
        )
        np.testing.assert_array_equal(result.scores, reference.scores)

    def test_malformed_update_is_typed(self, random_graph, tmp_path):
        server = self._start(random_graph, tmp_path)

        async def scenario():
            await server.start()
            try:
                await server.submit_update("not a batch")
            finally:
                await server.stop()

        with pytest.raises(UpdateError, match="UpdateBatch"):
            asyncio.run(scenario())

    def test_rejected_update_leaves_epoch_unchanged(
        self, random_graph, tmp_path
    ):
        server = self._start(random_graph, tmp_path)
        bad = UpdateBatch.from_pairs(
            inserts=[(0, random_graph.num_nodes + 5)]
        )

        async def scenario():
            await server.start()
            try:
                with pytest.raises(UpdateError):
                    await server.submit_update(bad)
                return await server.submit([2])
            finally:
                await server.stop()

        result = asyncio.run(scenario())
        assert result.epoch == 0
        assert server.report.update_errors == 1
        assert server.report.updates_applied == 0

    def test_inflight_queries_survive_update(
        self, random_graph, tmp_path
    ):
        server = self._start(random_graph, tmp_path, window=0.05)
        (batch,) = random_batches(random_graph, 1, 8, seed=3)

        async def scenario():
            await server.start()
            try:
                queries = [
                    asyncio.ensure_future(server.submit([i + 1]))
                    for i in range(3)
                ]
                await asyncio.sleep(0)  # enqueue ahead of the update
                summary = await server.submit_update(batch)
                results = await asyncio.gather(*queries)
                return summary, results
            finally:
                await server.stop()

        summary, results = asyncio.run(scenario())
        assert summary["epoch"] == 1
        assert len(results) == 3
        # queued queries executed, none dropped by the epoch swap
        assert all(r.scores.size for r in results)


class TestUpdateDrill:
    def test_clean_drill_bit_identity(self, random_graph, tmp_path):
        report = run_update_drill(
            random_graph,
            LayoutStore(tmp_path),
            updates=2,
            queries_per_epoch=3,
            update_batch_size=6,
            seed=4,
            kernel="bincount",
            config=_config(),
        )
        assert report.ok
        assert report.updates_applied == 2
        assert report.epochs_served >= 2
        assert report.verified == report.completed

    def test_crash_fault_stays_transactional(self, random_graph, tmp_path):
        report = run_update_drill(
            random_graph,
            LayoutStore(tmp_path),
            updates=2,
            queries_per_epoch=3,
            update_batch_size=6,
            seed=5,
            kernel="bincount",
            config=_config(),
            fault_spec="crash:site=update_apply,times=1",
        )
        assert report.ok
        assert report.update_errors == {"InjectedFault": 1}
        assert report.updates_applied == 2  # retry landed both batches
        assert report.verified == report.completed

    def test_corrupt_fault_never_changes_scores(
        self, random_graph, tmp_path
    ):
        report = run_update_drill(
            random_graph,
            LayoutStore(tmp_path),
            updates=2,
            queries_per_epoch=3,
            update_batch_size=6,
            seed=6,
            kernel="bincount",
            config=_config(),
            fault_spec="corrupt:site=update_patch,value=3,times=2",
        )
        assert report.ok
        assert report.update_fallbacks == 2
        assert report.verified == report.completed
