"""Unit tests for the shared-memory process pool
(`repro.parallel.procpool`): segment registry ownership, pack/attach
round trips, plan caching, worker-crash fail-stop, and the no-leak
guarantees on abnormal exit."""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MachineError, WorkerCrashError
from repro.frameworks.blocking import build_block_layout
from repro.parallel import procpool

ROOT = Path(__file__).resolve().parents[2]


def shm_segments() -> list:
    """``/dev/shm`` entries this package created (any process)."""
    return sorted(glob.glob(f"/dev/shm/{procpool.SEGMENT_PREFIX}-*"))


@pytest.fixture(autouse=True)
def clean_pool():
    procpool.cleanup()
    yield
    procpool.cleanup()
    assert shm_segments() == []


def small_layout(seed=0, n=120, m=900, block_nodes=32, weighted=True):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    values = rng.random(m) + 0.5 if weighted else None
    return build_block_layout(
        src, dst, num_nodes=n, block_nodes=block_nodes, values=values
    )


def ensure(layout):
    """The packed shm copy of a layout's Main-Phase plan."""
    return procpool.ensure_plan(layout.reduce_plan)


def spmv_bincount(layout, x):
    from repro.core.kernels import reduce_bincount

    return reduce_bincount(layout.reduce_plan, x)


def process_alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper has exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


class TestShmRegistry:
    def test_create_tracks_and_release_unlinks(self):
        registry = procpool.ShmRegistry()
        shm = registry.create(128)
        assert shm.name in registry.names
        assert os.path.exists(f"/dev/shm/{shm.name}")
        registry.release(shm.name)
        assert registry.names == ()
        assert not os.path.exists(f"/dev/shm/{shm.name}")

    def test_release_is_idempotent(self):
        registry = procpool.ShmRegistry()
        shm = registry.create(64)
        registry.release(shm.name)
        registry.release(shm.name)  # second release: silent no-op

    def test_release_all(self):
        registry = procpool.ShmRegistry()
        names = [registry.create(64).name for _ in range(3)]
        registry.release_all()
        assert registry.names == ()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_forked_child_cannot_unlink_parent_segments(self):
        # The pid guard: a forked child (a pool worker) must never
        # unlink segments the parent still serves to its siblings.
        registry = procpool.ShmRegistry()
        shm = registry.create(64)
        pid = os.fork()
        if pid == 0:
            registry.release_all()
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert os.path.exists(f"/dev/shm/{shm.name}")
        registry.release_all()
        assert not os.path.exists(f"/dev/shm/{shm.name}")


class TestPackAttach:
    def test_roundtrip_preserves_arrays(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.linspace(0, 1, 33),
            "c": np.arange(12, dtype=np.float64).reshape(4, 3),
        }
        shm, manifest = procpool._pack_arrays(arrays)
        try:
            cache: dict = {}
            views = procpool._worker_arrays(manifest, cache)
            for name, arr in arrays.items():
                assert np.array_equal(views[name], arr)
                assert views[name].dtype == arr.dtype
            for seg in cache.values():
                seg.close()
        finally:
            procpool._REGISTRY.release(shm.name)

    def test_offsets_are_aligned(self):
        arrays = {
            "odd": np.ones(3, dtype=np.int8),
            "next": np.arange(4, dtype=np.int64),
        }
        shm, manifest = procpool._pack_arrays(arrays)
        try:
            for offset, _, _ in manifest["arrays"].values():
                assert offset % 64 == 0
        finally:
            procpool._REGISTRY.release(shm.name)


class TestPlanCache:
    def test_same_layout_hits_cache(self):
        layout = small_layout()
        first = ensure(layout)
        second = ensure(layout)
        assert first is second

    def test_identical_structure_shares_plan_across_objects(self):
        # The cache key is the structure fingerprint, not object
        # identity: two layouts built from the same edges share one
        # packed segment.
        a = small_layout(seed=3)
        b = small_layout(seed=3)
        assert a is not b
        plan_a = ensure(a)
        plan_b = ensure(b)
        assert plan_a is plan_b

    def test_bases_share_one_plan(self):
        # Both accumulation bases run from the same packed streams.
        layout = small_layout()
        plan = ensure(layout)
        x1 = np.random.default_rng(1).random(layout.num_nodes)
        xk = np.random.default_rng(2).random((layout.num_nodes, 3))
        procpool.run_reduce(plan, x1, base="bincount", workers=2)
        procpool.run_reduce(plan, xk, base="reduceat", workers=2)
        assert len(procpool._PLANS) == 1

    def test_lru_eviction_releases_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_PLAN_CACHE", "2")
        plans = [ensure(small_layout(seed=s)) for s in range(3)]
        assert len(procpool._PLANS) == 2
        evicted = plans[0]
        assert evicted.segment not in procpool._REGISTRY.names
        assert not os.path.exists(f"/dev/shm/{evicted.segment}")
        for plan in plans[1:]:
            assert os.path.exists(f"/dev/shm/{plan.segment}")

    def test_bad_cache_size_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_PLAN_CACHE", "0")
        with pytest.raises(MachineError, match="REPRO_MP_PLAN_CACHE"):
            ensure(small_layout())

    def test_plan_carries_proof(self):
        # The shipped task table is the proved plan's partition table.
        from repro.analysis.races import prove_schedule

        layout = small_layout()
        reduce_plan = layout.reduce_plan
        proof = prove_schedule(reduce_plan)
        plan = ensure(layout)
        cache: dict = {}
        shipped = procpool._worker_arrays(plan.manifest, cache)["tasks"]
        expected = [
            reduce_plan.partition(p)
            for p in range(proof.num_partitions)
            if reduce_plan.partition(p)[1] > reduce_plan.partition(p)[0]
        ]
        assert [tuple(row) for row in shipped.tolist()] == expected
        for seg in cache.values():
            seg.close()
        assert plan.num_messages == proof.num_messages


class TestPoolExecution:
    def test_reduce_matches_serial(self):
        layout = small_layout()
        plan = ensure(layout)
        x = np.random.default_rng(7).random(layout.num_nodes)
        y = procpool.run_reduce(plan, x, base="bincount", workers=2)
        assert np.array_equal(y, spmv_bincount(layout, x))

    def test_pool_is_reused_across_dispatches(self):
        layout = small_layout()
        plan = ensure(layout)
        x = np.random.default_rng(8).random((layout.num_nodes, 4))
        procpool.run_reduce(plan, x, base="reduceat", workers=2)
        pool = procpool._POOL
        procpool.run_reduce(plan, x, base="reduceat", workers=2)
        assert procpool._POOL is pool
        assert pool.alive()

    def test_killed_worker_raises_and_fail_stops(self):
        layout = small_layout()
        plan = ensure(layout)
        x = np.ones(layout.num_nodes)
        pool = procpool.get_pool(2)
        victim = pool._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashError) as exc_info:
            pool.run_reduce(plan, x, base="bincount", workers=2)
        assert exc_info.value.rank == 0
        # Fail-stop: everything torn down, nothing orphaned.
        assert procpool._POOL is None
        assert shm_segments() == []

    def test_pool_rebuilds_after_crash(self):
        layout = small_layout()
        plan = ensure(layout)
        x = np.ones(layout.num_nodes)
        pool = procpool.get_pool(2)
        os.kill(pool._procs[1].pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashError):
            pool.run_reduce(plan, x, base="bincount", workers=2)
        # Next dispatch lazily rebuilds the pool and the plan.
        plan = ensure(layout)
        y = procpool.run_reduce(plan, x, base="bincount", workers=2)
        assert np.array_equal(y, spmv_bincount(layout, x))

    def test_abandoned_dispatch_spares_the_successor_pool(self):
        # A dispatch abandoned by its watchdog can fail after its pool
        # was torn down and replaced; its fail-stop must not kill the
        # successor or unlink the successor's plans.
        layout = small_layout()
        x = np.ones(layout.num_nodes)
        abandoned = procpool.get_pool(2)
        procpool.cleanup()
        plan = ensure(layout)
        successor = procpool.get_pool(2)
        with pytest.raises(IndexError):  # no queues left to dispatch to
            abandoned.run_reduce(plan, x, base="bincount", workers=2)
        assert procpool._POOL is successor and successor.alive()
        y = procpool.run_reduce(plan, x, base="bincount", workers=2)
        assert np.array_equal(y, spmv_bincount(layout, x))

    def test_width_grows_on_demand(self):
        pool = procpool.get_pool(1)
        assert pool.width == 1
        wider = procpool.get_pool(3)
        assert wider.width == 3
        assert procpool.get_pool(2) is wider  # no shrink


class TestAbnormalExitCleanliness:
    def test_crashing_process_leaves_no_segments(self, tmp_path):
        # A child process builds a plan, dispatches once, then dies on
        # an unhandled exception; its atexit hook must unlink every
        # segment it created.
        marker = tmp_path / "segments.txt"
        code = textwrap.dedent(
            f"""
            import numpy as np
            from repro.frameworks.blocking import build_block_layout
            from repro.parallel import procpool

            rng = np.random.default_rng(0)
            layout = build_block_layout(
                rng.integers(0, 64, 400), rng.integers(0, 64, 400),
                num_nodes=64, block_nodes=16,
            )
            plan = procpool.ensure_plan(layout.reduce_plan)
            procpool.run_reduce(
                plan, np.ones(64), base="bincount", workers=2
            )
            with open({str(marker)!r}, "w") as fh:
                fh.write("\\n".join(procpool._REGISTRY.names))
            raise RuntimeError("simulated crash")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0
        assert "simulated crash" in result.stderr
        names = marker.read_text().splitlines()
        assert names, "child created no segments?"
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_workers_exit_when_parent_is_killed(self):
        # A forked child builds a pool and is SIGKILLed: its workers,
        # reparented, must notice and exit instead of blocking forever
        # on their task queues.
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                pool = procpool.ProcPool(2)
                pids = " ".join(str(p.pid) for p in pool._procs)
                os.write(write_fd, f"{pids}\n".encode())
                time.sleep(60)
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            workers = [int(p) for p in fh.readline().split()]
        assert len(workers) == 2
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            process_alive(w) for w in workers
        ):
            time.sleep(0.1)
        survivors = [w for w in workers if process_alive(w)]
        for w in survivors:
            os.kill(w, signal.SIGKILL)
        assert survivors == []

    def test_cleanup_idempotent(self):
        procpool.cleanup()
        procpool.cleanup()
        assert shm_segments() == []
