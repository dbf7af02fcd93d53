"""Dynamic scheduling model for the simulated multicore.

Substitution note (see DESIGN.md): the paper runs 20 OpenMP threads with
the dynamic scheduler; under CPython's GIL (and this host's single core)
real thread-level parallelism is unavailable, so thread behaviour is
*modelled*: the per-block task loads feed a deterministic simulation of an
OpenMP-style dynamic work queue, yielding the makespan, per-thread loads
and the parallel speedup the paper's load-balancing scheme (Section 4.2)
is designed to protect.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import MachineError


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one task list onto ``num_threads`` workers."""

    num_threads: int
    makespan: float  #: finishing time of the last worker
    thread_loads: np.ndarray  #: total work per worker
    total_load: float

    @property
    def speedup(self) -> float:
        """Parallel speedup over serial execution (<= num_threads)."""
        if self.makespan == 0:
            return float(self.num_threads)
        return self.total_load / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by thread count (1.0 = perfect scaling)."""
        return self.speedup / self.num_threads

    @property
    def imbalance(self) -> float:
        """max/mean thread load (1.0 = perfectly balanced)."""
        mean = self.thread_loads.mean() if self.thread_loads.size else 0.0
        if mean == 0:
            return 1.0
        return float(self.thread_loads.max() / mean)


def _check(loads: np.ndarray, num_threads: int) -> np.ndarray:
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1:
        raise MachineError("task loads must be 1-D")
    if np.any(loads < 0):
        raise MachineError("task loads must be non-negative")
    if num_threads <= 0:
        raise MachineError(
            f"num_threads must be positive, got {num_threads}"
        )
    return loads


def dynamic_schedule(loads, num_threads: int) -> ScheduleResult:
    """OpenMP-style dynamic scheduling: each idle worker grabs the next
    task from a shared queue, in task order."""
    loads = _check(loads, num_threads)
    finish = [(0.0, t) for t in range(num_threads)]
    heapq.heapify(finish)
    thread_loads = np.zeros(num_threads, dtype=np.float64)
    for load in loads.tolist():
        at, t = heapq.heappop(finish)
        thread_loads[t] += load
        heapq.heappush(finish, (at + load, t))
    makespan = max(at for at, _ in finish) if loads.size else 0.0
    return ScheduleResult(
        num_threads, makespan, thread_loads, float(loads.sum())
    )
