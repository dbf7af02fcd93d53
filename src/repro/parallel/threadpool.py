"""Real thread-pool execution helpers.

CPython's GIL serializes pure-Python work, but the NumPy kernels this
package runs release the GIL for large array operations, so a thread pool
still overlaps some work on multicore hosts.  These helpers exist for API
completeness and for running the engines on real multicore machines; the
benchmarks use the deterministic model in
:mod:`repro.parallel.scheduling` instead (see DESIGN.md).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from ..errors import MachineError, StallError


def _positive_env_int(name: str) -> int | None:
    """Validated positive-integer environment override, or None."""
    env = os.environ.get(name)
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise MachineError(
            f"{name} must be an integer, got {env!r}"
        ) from None
    if value <= 0:
        raise MachineError(f"{name} must be positive, got {value}")
    return value


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the whole machine, which overcommits
    pools on cgroup/affinity-limited hosts (CI runners, containers,
    ``taskset``); the scheduler affinity mask is the real budget where
    the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def default_workers() -> int:
    """Worker count shared by the thread and process pools.

    ``REPRO_NUM_THREADS`` is an explicit request and wins outright;
    otherwise the affinity-aware CPU budget (:func:`available_cpus`),
    capped by ``REPRO_MAX_WORKERS`` when set.
    """
    requested = _positive_env_int("REPRO_NUM_THREADS")
    if requested is not None:
        return requested
    workers = available_cpus()
    cap = _positive_env_int("REPRO_MAX_WORKERS")
    if cap is not None:
        workers = min(workers, cap)
    return workers


def recommended_workers(
    num_tasks: int, max_workers: int | None = None
) -> int:
    """Worker count for a job of ``num_tasks`` units: the requested (or
    host-default) width, clamped so no thread sits idle."""
    workers = max_workers if max_workers is not None else default_workers()
    if workers <= 0:
        raise MachineError(
            f"max_workers must be positive, got {workers}"
        )
    return max(1, min(workers, num_tasks))


def chunked(items: Sequence, num_chunks: int) -> list:
    """Split a sequence into up to ``num_chunks`` contiguous chunks."""
    if num_chunks <= 0:
        raise MachineError(
            f"num_chunks must be positive, got {num_chunks}"
        )
    n = len(items)
    if n == 0:
        return []
    num_chunks = min(num_chunks, n)
    bounds = [n * i // num_chunks for i in range(num_chunks + 1)]
    return [
        items[bounds[i] : bounds[i + 1]] for i in range(num_chunks)
    ]


def parallel_for(
    fn: Callable, items: Iterable, *, max_workers: int | None = None
) -> list:
    """Apply ``fn`` to every item on a thread pool; returns results in
    input order.  Falls back to a plain loop for a single worker.  The
    pool runs one job per worker, each over a contiguous :func:`chunked`
    slice of ``items`` in input order."""
    items = list(items)
    workers = max_workers if max_workers is not None else default_workers()
    if workers <= 0:
        raise MachineError(f"max_workers must be positive, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunks = chunked(items, workers)
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = pool.map(lambda chunk: [fn(item) for item in chunk], chunks)
        return [result for part in parts for result in part]


def call_with_deadline(fn: Callable, deadline: float | None):
    """Run ``fn()`` under a watchdog: raise :class:`StallError` when it
    has not returned within ``deadline`` seconds.

    ``deadline=None`` calls ``fn`` directly (no watchdog thread).  A
    stalled call cannot be killed — its daemon thread keeps running
    against buffers the caller has abandoned — but the caller regains
    control and can fall back to a serial kernel (the degradation
    ladder in :mod:`repro.resilience.executor`).
    """
    if deadline is None:
        return fn()
    if deadline <= 0:
        raise MachineError(
            f"deadline must be positive, got {deadline}"
        )
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # delivered to the caller below
            outcome["error"] = exc

    worker = threading.Thread(
        target=target, name="repro-watchdog-call", daemon=True
    )
    worker.start()
    worker.join(deadline)
    if worker.is_alive():
        raise StallError(
            f"dispatched call exceeded its {deadline:g}s watchdog "
            "deadline",
            deadline=deadline,
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]
