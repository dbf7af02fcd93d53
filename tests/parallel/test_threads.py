"""Unit tests for thread-pool helpers and the simulated-thread profile."""

import numpy as np
import pytest

from repro.core import MixenEngine
from repro.errors import EngineError, MachineError
from repro.frameworks import BlockingEngine, PullEngine
from repro.graphs import load_dataset
from repro.parallel import (
    chunked,
    default_workers,
    parallel_for,
    parallel_profile,
)


class TestChunked:
    def test_even_split(self):
        assert chunked(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_uneven_split(self):
        chunks = chunked(list(range(7)), 3)
        assert sum(chunks, []) == list(range(7))
        assert len(chunks) == 3

    def test_more_chunks_than_items(self):
        assert chunked([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_bad_count(self):
        with pytest.raises(MachineError):
            chunked([1], 0)


class TestParallelFor:
    def test_results_in_order(self):
        got = parallel_for(lambda v: v * v, range(20), max_workers=4)
        assert got == [v * v for v in range(20)]

    @pytest.mark.parametrize("workers", (2, 3, 8))
    def test_one_pool_job_per_worker(self, monkeypatch, workers):
        from concurrent.futures import ThreadPoolExecutor

        import repro.parallel.threadpool as threadpool

        slices = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                slices.append(list(args[0]))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(threadpool, "ThreadPoolExecutor", CountingPool)
        calls = []
        items = list(range(50))
        got = parallel_for(
            lambda item: calls.append(item) or 10 * item,
            items,
            max_workers=workers,
        )
        assert got == [10 * item for item in items]
        assert sorted(calls) == items  # fn once per item
        # at most one job per worker, each a contiguous slice in order
        assert 1 < len(slices) <= workers
        assert sum(slices, []) == items

    def test_single_worker_path(self):
        got = parallel_for(lambda v: v + 1, [1, 2, 3], max_workers=1)
        assert got == [2, 3, 4]

    def test_bad_workers(self):
        with pytest.raises(MachineError):
            parallel_for(lambda v: v, [1], max_workers=0)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_NUM_THREADS", "zero")
        with pytest.raises(MachineError):
            default_workers()
        monkeypatch.setenv("REPRO_NUM_THREADS", "-2")
        with pytest.raises(MachineError):
            default_workers()


class TestParallelProfile:
    def test_mixen_profile(self):
        g = load_dataset("wiki")
        e = MixenEngine(g, block_nodes=128)
        e.prepare()
        prof = parallel_profile(e, num_threads=20)
        assert prof.num_tasks == len(e.partition.tasks)
        assert 0 < prof.schedule.speedup <= 20

    def test_blocking_profile(self):
        g = load_dataset("wiki")
        e = BlockingEngine(g, block_nodes=128)
        e.prepare()
        prof = parallel_profile(e, num_threads=8)
        assert prof.num_tasks > 0

    def test_balancing_improves_modeled_speedup(self):
        g = load_dataset("weibo")
        balanced = MixenEngine(g, block_nodes=32, balance=True)
        balanced.prepare()
        unbalanced = MixenEngine(g, block_nodes=32, balance=False)
        unbalanced.prepare()
        pb = parallel_profile(balanced, num_threads=20)
        pu = parallel_profile(unbalanced, num_threads=20)
        assert pb.schedule.speedup >= pu.schedule.speedup

    def test_small_blocks_saturate_threads(self):
        g = load_dataset("pld")
        small = MixenEngine(g, block_nodes=64)
        small.prepare()
        assert parallel_profile(small, num_threads=20).saturates_threads

    def test_rejects_engines_without_tasks(self):
        g = load_dataset("wiki", scale=0.25)
        e = PullEngine(g)
        e.prepare()
        with pytest.raises(EngineError):
            parallel_profile(e)

    def test_modeled_seconds(self):
        g = load_dataset("wiki")
        e = MixenEngine(g, block_nodes=128)
        e.prepare()
        prof = parallel_profile(e, num_threads=4)
        assert prof.modeled_seconds(8.0) < 8.0
