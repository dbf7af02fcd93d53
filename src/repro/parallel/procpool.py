"""Shared-memory process-pool execution (the ``parallel-mp`` backend).

The thread-pool kernel only overlaps NumPy's GIL-released sections; this
module executes the same provably race-free schedules on a persistent
pool of **worker processes** that attach read-only to the plan metadata
and input vector via :mod:`multiprocessing.shared_memory` and write
their output slices directly into a shared output buffer — lock-free,
because every task owns a disjoint half-open output interval
(:func:`repro.analysis.races.prove_mp_reduce` certifies this at plan
build time, extending the PR 2 interval-disjointness proofs and the
PR 5 run-aligned partition cuts to the process failure domain).

Architecture
------------
* :class:`ShmRegistry` — every segment this process creates is tracked
  here under an explicit ``repro-mp-<pid>-<seq>`` name and released
  (close + unlink) on eviction, on pool teardown, and from an
  ``atexit`` hook; the interpreter's ``resource_tracker`` is the
  crash backstop (it unlinks leftovers if the parent dies hard).
  Workers attach but never unlink: the parent owns segment lifetime.
* :class:`ShmReducePlan` — one packed segment per (structure
  fingerprint, variant) holding the reduce-ordered metadata arrays plus
  a ``(num_tasks, 6)`` task table ``(elo, ehi, rlo, rhi, row_lo,
  row_hi)``; plans are cached in a small LRU keyed by the layout/plan
  fingerprint so repeated dispatches ship only a tiny manifest.
* :class:`ProcPool` — persistent workers (fork start method where
  available, ``REPRO_MP_START_METHOD`` overrides), one task queue per
  worker plus a shared result queue.  Task assignment is a
  deterministic stride: worker ``r`` owns tasks ``r, r+W, r+2W, ...``
  — load-balanced for hub-skewed column loads and reproducible, which
  is what keeps fault drills bit-identical across runs.
* Failure domain — a worker that dies mid-dispatch is detected by
  liveness polling and surfaces as
  :class:`~repro.errors.WorkerCrashError` (not a hang); a stalled
  dispatch trips the ``REPRO_MP_DEADLINE`` watchdog as
  :class:`~repro.errors.StallError`.  Either way the pool is torn down
  (workers killed, every segment unlinked) and lazily rebuilt, so the
  degradation ladder can step the run down to the thread backend with
  no orphan shared memory left behind.

Bit-identity: workers fuse Scatter and Gather — each task gathers
``x[src]``, applies weights, and accumulates with exactly the serial
base's per-destination addend order (``bincount`` sequential,
``reduceat`` pairwise) into its own output interval — so ``parallel-mp``
is bit-identical to serial/threaded execution of the same base.
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from ..core.kernels import _flat_rank_indices
from ..errors import MachineError, ResilienceError, StallError, WorkerCrashError

#: prefix of every segment this module creates (``/dev/shm`` visible).
SEGMENT_PREFIX = "repro-mp"

#: default dispatch watchdog (seconds); ``REPRO_MP_DEADLINE`` overrides.
DEFAULT_DEADLINE = 60.0

#: plan-cache capacity; ``REPRO_MP_PLAN_CACHE`` overrides.
DEFAULT_PLAN_CACHE = 8

#: result-queue poll interval while watching worker liveness (seconds).
_POLL_SECONDS = 0.05

#: segment payload alignment (cache line).
_ALIGN = 64

#: exit status a ``kill:worker=`` directive uses (distinctive in logs).
KILL_EXIT_CODE = 47


# --------------------------------------------------------------------- #
# segment registry (parent-side ownership, guaranteed unlink)
# --------------------------------------------------------------------- #
class ShmRegistry:
    """Tracks every shared-memory segment this process created.

    Creation goes through :meth:`create` (explicit names, monotone
    sequence); release closes *and unlinks*.  All methods no-op in a
    forked child (pid guard): workers must never unlink segments the
    parent still serves to their siblings.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._seq = 0
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create and track one segment of at least ``nbytes`` bytes."""
        with self._lock:
            if os.getpid() != self._pid:
                # A forked child must build its own registry, never
                # reuse (and later unlink) the parent's.
                self._pid = os.getpid()
                self._segments = {}
                self._seq = 0
            name = f"{SEGMENT_PREFIX}-{self._pid}-{self._seq}"
            self._seq += 1
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=max(int(nbytes), 1)
            )
            self._segments[name] = shm
            return shm

    def release(self, name: str) -> None:
        """Close and unlink one tracked segment (idempotent)."""
        with self._lock:
            if os.getpid() != self._pid:
                return
            shm = self._segments.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass

    def release_all(self) -> None:
        """Close and unlink every tracked segment (idempotent)."""
        with self._lock:
            if os.getpid() != self._pid:
                return
            segments = list(self._segments)
        for name in segments:
            self.release(name)

    @property
    def names(self) -> tuple:
        """Currently tracked segment names."""
        with self._lock:
            return tuple(self._segments)


_REGISTRY = ShmRegistry()


def _round_up(nbytes: int) -> int:
    """Round a buffer request up (fewer reallocation cycles as the
    iteration vectors keep the same size)."""
    return max(-(-int(nbytes) // _ALIGN) * _ALIGN, _ALIGN)


def _pack_arrays(arrays: dict) -> tuple:
    """Copy named arrays into one fresh segment.

    Returns ``(shm, manifest)`` where the manifest carries the segment
    name and per-array ``(offset, shape, dtype)`` — everything a worker
    needs to rebuild zero-copy views.
    """
    packed = {
        name: np.ascontiguousarray(arr) for name, arr in arrays.items()
    }
    offsets: dict[str, int] = {}
    cursor = 0
    for name, arr in packed.items():
        cursor = -(-cursor // _ALIGN) * _ALIGN
        offsets[name] = cursor
        cursor += arr.nbytes
    shm = _REGISTRY.create(cursor)
    refs = {}
    for name, arr in packed.items():
        view = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=shm.buf,
            offset=offsets[name],
        )
        view[...] = arr
        refs[name] = (offsets[name], tuple(arr.shape), arr.dtype.str)
    return shm, {"segment": shm.name, "arrays": refs}


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _worker_segment(cache: dict, name: str):
    shm = cache.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        cache[name] = shm
    return shm


def _worker_view(ref, cache: dict) -> np.ndarray:
    name, offset, shape, dtype = ref
    shm = _worker_segment(cache, name)
    return np.ndarray(
        tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf,
        offset=int(offset),
    )


def _worker_arrays(manifest: dict, cache: dict) -> dict:
    name = manifest["segment"]
    return {
        arr: _worker_view((name, *ref), cache)
        for arr, ref in manifest["arrays"].items()
    }


def _execute_job(msg: dict, cache: dict) -> None:
    """Run this worker's task slice of one reduce job.

    Every task owns a disjoint output interval (proved at plan build),
    so the writes into the shared ``y`` buffer need no locks; the
    accumulation per task replicates the serial base bit for bit.
    """
    plan = _worker_arrays(msg["plan"], cache)
    x = _worker_view(msg["x"], cache)
    y = _worker_view(msg["y"], cache)
    base = msg["base"]
    tasks = plan["tasks"]
    src = plan["src"]
    values = plan.get("values")
    rank_k = x.ndim != 1
    for t in msg["task_ids"]:
        elo, ehi, rlo, rhi, row_lo, row_hi = (int(v) for v in tasks[t])
        if ehi <= elo:
            continue
        msgs = x[src[elo:ehi]]
        if values is not None:
            msgs = msgs * (
                values[elo:ehi] if not rank_k else values[elo:ehi, None]
            )
        if base == "bincount":
            local_dst = plan["dst"][elo:ehi] - row_lo
            span = row_hi - row_lo
            if not rank_k:
                y[row_lo:row_hi] = np.bincount(
                    local_dst, weights=msgs, minlength=span
                )
            else:
                k = x.shape[1]
                flat = _flat_rank_indices(local_dst, k)
                y[row_lo:row_hi] = np.bincount(
                    flat.ravel(), weights=msgs.ravel(),
                    minlength=span * k,
                ).reshape(span, k)
        else:
            run_dst = plan["run_dst"]
            run_starts = plan["run_starts"]
            y[run_dst[rlo:rhi]] = np.add.reduceat(
                msgs, run_starts[rlo:rhi] - elo, axis=0
            )


def _worker_main(rank: int, task_q, result_q) -> None:
    """Worker loop: obey fault directives, execute, acknowledge.

    Ends with ``os._exit`` so a forked child never runs the parent's
    ``atexit`` hooks (which would unlink segments the parent owns).
    """
    cache: dict = {}
    while True:
        msg = task_q.get()
        if msg is None:
            break
        try:
            for name in msg.get("drop") or ():
                shm = cache.pop(name, None)
                if shm is not None:
                    shm.close()
            inject = msg.get("inject")
            if inject:
                if inject.get("stall"):
                    time.sleep(float(inject["stall"]))
                if inject.get("kill"):
                    os._exit(KILL_EXIT_CODE)
            _execute_job(msg, cache)
            result_q.put(("done", rank, msg["job"]))
        except BaseException as exc:  # surfaced to the parent
            try:
                result_q.put(
                    ("error", rank, msg.get("job"),
                     f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                os._exit(1)
    for shm in cache.values():
        shm.close()
    os._exit(0)


# --------------------------------------------------------------------- #
# shm reduce plans (cached, fingerprint-keyed)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmReducePlan:
    """One packed, proven, shared-memory-resident reduce schedule."""

    key: tuple
    manifest: dict = field(repr=False)
    num_tasks: int = 0
    num_rows: int = 0
    num_messages: int = 0
    #: evidence record from :func:`repro.analysis.races.prove_mp_reduce`.
    proof: object = field(default=None, repr=False, compare=False)

    @property
    def segment(self) -> str:
        """Backing segment name."""
        return self.manifest["segment"]


_FP_OBJECTS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_FP_VALUES: dict[int, str] = {}


def _cached_fingerprint(obj, parts) -> str:
    """Memoized structure fingerprint (id-keyed, liveness-guarded —
    the same pattern :mod:`repro.analysis.races` uses for layouts)."""
    key = id(obj)
    if _FP_OBJECTS.get(key) is obj:
        return _FP_VALUES[key]
    for stale in [k for k in _FP_VALUES if k not in _FP_OBJECTS]:
        _FP_VALUES.pop(stale, None)
    from ..resilience.checkpoint import state_fingerprint

    fp = state_fingerprint(*parts)
    _FP_OBJECTS[key] = obj
    _FP_VALUES[key] = fp
    return fp


def _plan_cache_max() -> int:
    env = os.environ.get("REPRO_MP_PLAN_CACHE")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise MachineError(
                f"REPRO_MP_PLAN_CACHE must be an integer, got {env!r}"
            ) from None
        if value <= 0:
            raise MachineError(
                f"REPRO_MP_PLAN_CACHE must be positive, got {value}"
            )
        return value
    return DEFAULT_PLAN_CACHE


_PLANS: "OrderedDict[tuple, ShmReducePlan]" = OrderedDict()


def _cache_plan(key: tuple, builder) -> ShmReducePlan:
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
        return plan
    plan = builder()
    _PLANS[key] = plan
    while len(_PLANS) > _plan_cache_max():
        _, evicted = _PLANS.popitem(last=False)
        _release_segment(evicted.segment)
    return plan


def _finish_plan(
    key: tuple,
    arrays: dict,
    tasks: np.ndarray,
    *,
    num_rows: int,
    num_messages: int,
    proof_name: str,
    dst=None,
    run_dst=None,
) -> ShmReducePlan:
    from ..analysis.races import prove_mp_reduce

    proof = prove_mp_reduce(
        proof_name, tasks, num_rows, num_messages,
        dst=dst, run_dst=run_dst,
    )
    arrays = dict(arrays)
    arrays["tasks"] = tasks
    _, manifest = _pack_arrays(arrays)
    return ShmReducePlan(
        key=key,
        manifest=manifest,
        num_tasks=int(tasks.shape[0]),
        num_rows=int(num_rows),
        num_messages=int(num_messages),
        proof=proof,
    )


def layout_fingerprint(layout) -> str:
    """Structure fingerprint of a block layout (shm plan cache key)."""
    parts = [
        "layout",
        layout.num_nodes,
        layout.block_nodes,
        layout.src_scatter,
        layout.dst_scatter,
    ]
    if layout.values_scatter is not None:
        parts.append(layout.values_scatter)
    return _cached_fingerprint(layout, parts)


def phase_plan_fingerprint(plan) -> str:
    """Structure fingerprint of a phase reduce plan (cache key)."""
    parts = [
        "phase",
        plan.name,
        plan.num_rows,
        plan.src,
        plan.dst,
        plan.part_edge_ptr,
    ]
    if plan.values is not None:
        parts.append(plan.values)
    return _cached_fingerprint(plan, parts)


def layout_reduce_tasks(layout, base: str) -> tuple:
    """The ``(num_tasks, 6)`` task table and metadata arrays of one
    block layout for one accumulation base — the pure (no shared
    memory, no pool) half of :func:`ensure_layout_plan`.

    Tasks are the layout's block-columns (the same disjoint output
    intervals the thread kernel's Gather phase owns); the metadata is
    pre-permuted so workers fuse Scatter and Gather into one pass.
    Returns ``(tasks, arrays, dst, run_dst)`` ready for
    :func:`repro.analysis.races.prove_mp_reduce` — which is how the
    plan certifier proves the mp schedule without spawning workers.
    """
    n = layout.num_nodes
    b = layout.num_blocks_per_side
    c = layout.block_nodes
    rows = []
    if base == "bincount":
        gp = layout.gather_block_ptr
        for j in range(b):
            elo, ehi = int(gp[j * b]), int(gp[(j + 1) * b])
            if ehi <= elo:
                continue
            rows.append(
                (elo, ehi, 0, 0, j * c, min((j + 1) * c, n))
            )
        values = layout.values_scatter
        arrays = {
            "src": layout.src_gather,
            "dst": layout.dst_gather,
        }
        if values is not None:
            arrays["values"] = values[layout.gather_perm]
        dst, run_dst = layout.dst_gather, None
    else:
        plan = layout.reduce_plan
        ep, rp = plan.col_edge_ptr, plan.col_run_ptr
        for j in range(b):
            elo, ehi = int(ep[j]), int(ep[j + 1])
            if ehi <= elo:
                continue
            rows.append(
                (elo, ehi, int(rp[j]), int(rp[j + 1]),
                 j * c, min((j + 1) * c, n))
            )
        arrays = {
            "src": plan.src,
            "run_starts": plan.run_starts,
            "run_dst": plan.run_dst,
        }
        if plan.values is not None:
            arrays["values"] = plan.values
        dst, run_dst = None, plan.run_dst
    tasks = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    return tasks, arrays, dst, run_dst


def phase_reduce_tasks(plan) -> tuple:
    """Pure task table of one phase reduce plan (both bases share it:
    the partition table already carries runs and edges).  Returns
    ``(tasks, arrays, dst, run_dst)`` like :func:`layout_reduce_tasks`.
    """
    ep, rp = plan.part_edge_ptr, plan.part_run_ptr
    rows = []
    for p in range(plan.num_partitions):
        elo, ehi = int(ep[p]), int(ep[p + 1])
        rlo, rhi = int(rp[p]), int(rp[p + 1])
        if ehi <= elo or rhi <= rlo:
            continue
        rows.append(
            (elo, ehi, rlo, rhi,
             int(plan.run_dst[rlo]), int(plan.run_dst[rhi - 1]) + 1)
        )
    arrays = {
        "src": plan.src,
        "dst": plan.dst,
        "run_starts": plan.run_starts,
        "run_dst": plan.run_dst,
    }
    if plan.values is not None:
        arrays["values"] = plan.values
    tasks = np.asarray(rows, dtype=np.int64).reshape(-1, 6)
    return tasks, arrays, plan.dst, plan.run_dst


def ensure_layout_plan(layout, base: str) -> ShmReducePlan:
    """Packed shm plan of one block layout for one accumulation base."""
    key = (layout_fingerprint(layout), "layout", base)

    def build() -> ShmReducePlan:
        tasks, arrays, dst, run_dst = layout_reduce_tasks(layout, base)
        return _finish_plan(
            key, arrays, tasks,
            num_rows=layout.num_nodes, num_messages=layout.num_edges,
            proof_name=f"mp-layout-{base}",
            dst=dst, run_dst=run_dst,
        )

    return _cache_plan(key, build)


def ensure_phase_plan(plan, base: str) -> ShmReducePlan:
    """Packed shm plan of one phase reduce plan."""
    key = (phase_plan_fingerprint(plan), "phase", base)

    def build() -> ShmReducePlan:
        tasks, arrays, dst, run_dst = phase_reduce_tasks(plan)
        return _finish_plan(
            key, arrays, tasks,
            num_rows=plan.num_rows, num_messages=plan.num_messages,
            proof_name=f"mp-phase-{plan.name}",
            dst=dst, run_dst=run_dst,
        )

    return _cache_plan(key, build)


def _release_segment(name: str) -> None:
    _REGISTRY.release(name)
    pool = _POOL
    if pool is not None:
        pool.note_dropped(name)


# --------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------- #
def _default_deadline() -> float:
    env = os.environ.get("REPRO_MP_DEADLINE")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise MachineError(
                f"REPRO_MP_DEADLINE must be a number, got {env!r}"
            ) from None
        if value <= 0:
            raise MachineError(
                f"REPRO_MP_DEADLINE must be positive, got {value}"
            )
        return value
    return DEFAULT_DEADLINE


def _start_method() -> str:
    method = os.environ.get("REPRO_MP_START_METHOD")
    available = mp.get_all_start_methods()
    if method:
        if method not in available:
            raise MachineError(
                f"REPRO_MP_START_METHOD {method!r} not available; "
                f"expected one of {', '.join(available)}"
            )
        return method
    return "fork" if "fork" in available else available[0]


class ProcPool:
    """Persistent worker-process pool with per-worker task queues.

    One pool per parent process (see :func:`get_pool`); it survives
    across dispatches so workers keep their attached-segment caches
    warm.  Any failure — worker death, stall, execution error — tears
    the whole pool down (and unlinks every segment) rather than trying
    to limp along with a partial worker set; the next dispatch rebuilds
    lazily.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise MachineError(f"pool width must be positive, got {width}")
        self._pid = os.getpid()
        self._ctx = mp.get_context(_start_method())
        self._results = self._ctx.Queue()
        self._queues: list = []
        self._procs: list = []
        self._drops: dict[int, list] = {}
        self._io: dict[str, shared_memory.SharedMemory] = {}
        self._job = 0
        self._busy = False
        self._lock = threading.Lock()
        for rank in range(width):
            self._spawn(rank)

    # ------------------------------------------------------------------ #
    def _spawn(self, rank: int) -> None:
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, task_q, self._results),
            name=f"repro-mp-worker-{rank}",
            daemon=True,
        )
        proc.start()
        self._queues.append(task_q)
        self._procs.append(proc)

    @property
    def width(self) -> int:
        """Current worker count."""
        return len(self._procs)

    def alive(self) -> bool:
        """True when every worker process is still running."""
        return bool(self._procs) and all(
            p.is_alive() for p in self._procs
        )

    def note_dropped(self, name: str) -> None:
        """Queue a segment-drop notice for every worker (delivered with
        its next job so workers close stale mappings)."""
        for rank in range(len(self._procs)):
            self._drops.setdefault(rank, []).append(name)

    # ------------------------------------------------------------------ #
    def _io_view(self, tag: str, shape: tuple, dtype) -> tuple:
        """Reused (grow-on-demand) pool-owned io buffer view + ref."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = self._io.get(tag)
        if shm is None or shm.size < nbytes:
            if shm is not None:
                _release_segment(shm.name)
                self._io.pop(tag, None)
            shm = _REGISTRY.create(_round_up(nbytes))
            self._io[tag] = shm
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        return view, (shm.name, 0, tuple(shape), dtype.str)

    def run_reduce(
        self,
        plan: ShmReducePlan,
        x: np.ndarray,
        *,
        base: str,
        workers: int,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Dispatch one reduce over ``plan`` and collect the output.

        Raises :class:`WorkerCrashError` when a worker dies
        mid-dispatch, :class:`StallError` past the watchdog deadline;
        both tear the pool down first (fail-stop, no orphan segments,
        no hung queues) so the degradation ladder sees a clean error.
        """
        from ..resilience import faults

        deadline = deadline if deadline is not None else _default_deadline()
        x = np.ascontiguousarray(x)
        with self._lock:
            if self._busy:
                # A previous dispatch was abandoned by its watchdog and
                # may still be draining the result queue from its
                # thread: restart with fresh queues and workers.
                self._restart_locked()
            self._busy = True
            workers = max(1, min(workers, plan.num_tasks, self.width))
            self._job += 1
            job = self._job
        try:
            x_view, x_ref = self._io_view("x", x.shape, x.dtype)
            y_shape = (plan.num_rows,) + x.shape[1:]
            y_view, y_ref = self._io_view("y", y_shape, x.dtype)
            x_view[...] = x
            y_view[...] = 0
            injector = faults.active()
            pending = set(range(workers))
            for rank in pending:
                inject = (
                    injector.worker_directive(rank)
                    if injector is not None
                    else None
                )
                self._queues[rank].put(
                    {
                        "job": job,
                        "base": base,
                        "plan": plan.manifest,
                        "x": x_ref,
                        "y": y_ref,
                        "task_ids": list(
                            range(rank, plan.num_tasks, workers)
                        ),
                        "inject": inject,
                        "drop": self._drops.pop(rank, None),
                    }
                )
            started = time.monotonic()
            while pending:
                try:
                    ack = self._results.get(timeout=_POLL_SECONDS)
                except queue.Empty:
                    ack = None
                if ack is not None:
                    status, rank, ack_job, *rest = ack
                    if ack_job != job:
                        continue  # stale ack from an abandoned dispatch
                    if status == "error":
                        raise ResilienceError(
                            f"parallel-mp worker {rank} failed: {rest[0]}"
                        )
                    pending.discard(rank)
                    continue
                for rank in sorted(pending):
                    proc = self._procs[rank]
                    if not proc.is_alive():
                        raise WorkerCrashError(
                            f"parallel-mp worker {rank} died "
                            f"mid-dispatch (exit code {proc.exitcode})",
                            rank=rank,
                            exitcode=proc.exitcode,
                        )
                if time.monotonic() - started > deadline:
                    raise StallError(
                        "parallel-mp dispatch exceeded its "
                        f"{deadline:g}s watchdog deadline",
                        deadline=deadline,
                    )
            y = np.array(y_view)
            with self._lock:
                self._busy = False
            return y
        except Exception:
            # Fail-stop: kill workers, unlink every segment (io and
            # cached plans), leave nothing orphaned for the ladder's
            # serial rungs to trip over.  A dispatch its watchdog
            # abandoned may fail after its pool was already torn down:
            # it must not tear down the successor pool and its plans.
            if _POOL is self:
                crash_cleanup()
            raise

    # ------------------------------------------------------------------ #
    def _restart_locked(self) -> None:
        width = max(self.width, 1)
        self._teardown_locked(graceful=False)
        self._results = self._ctx.Queue()
        for rank in range(width):
            self._spawn(rank)
        self._busy = False

    def _teardown_locked(self, *, graceful: bool) -> None:
        if os.getpid() != self._pid:
            # Forked child: the parent owns these workers and queues.
            self._procs, self._queues = [], []
            return
        if graceful:
            for task_q in self._queues:
                try:
                    task_q.put(None)
                except Exception:
                    pass
            for proc in self._procs:
                proc.join(timeout=0.5)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        for q in (*self._queues, self._results):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        for shm in self._io.values():
            _REGISTRY.release(shm.name)
        self._io.clear()
        self._drops.clear()
        self._procs, self._queues = [], []

    def shutdown(self, *, graceful: bool = True) -> None:
        """Stop the workers and release the pool's io segments."""
        with self._lock:
            self._teardown_locked(graceful=graceful)
            self._busy = False


# --------------------------------------------------------------------- #
# module-level lifecycle
# --------------------------------------------------------------------- #
_POOL: ProcPool | None = None


def get_pool(width: int) -> ProcPool:
    """The process-wide pool, (re)built lazily at >= ``width`` workers."""
    global _POOL
    pool = _POOL
    if pool is not None:
        if pool._pid != os.getpid():
            _POOL = pool = None  # forked child: never reuse
        elif not pool.alive():
            pool.shutdown(graceful=False)
            _POOL = pool = None
    if pool is not None and pool.width < width:
        pool.shutdown()
        _POOL = pool = None
    if pool is None:
        _POOL = pool = ProcPool(width)
    return pool


def cleanup() -> None:
    """Tear down the pool and unlink every tracked segment (atexit
    hook; also the test hook for the no-leak assertions)."""
    global _POOL
    pool = _POOL
    _POOL = None
    if pool is not None:
        pool.shutdown()
    _PLANS.clear()
    _REGISTRY.release_all()


def crash_cleanup() -> None:
    """Fail-stop teardown after a worker crash/stall/error: like
    :func:`cleanup` but with no graceful handshake."""
    global _POOL
    pool = _POOL
    _POOL = None
    if pool is not None:
        pool.shutdown(graceful=False)
    _PLANS.clear()
    _REGISTRY.release_all()


atexit.register(cleanup)


def run_reduce(
    plan: ShmReducePlan,
    x: np.ndarray,
    *,
    base: str,
    workers: int,
    deadline: float | None = None,
) -> np.ndarray:
    """Module-level dispatch: get/build the pool and run one reduce."""
    return get_pool(workers).run_reduce(
        plan, x, base=base, workers=workers, deadline=deadline
    )
