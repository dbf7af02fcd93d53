"""Simulated multicore executor tying the scheduler model to engines.

Given a prepared engine with a blocked task list (Mixen or GPOP-style
blocking), this derives the modeled parallel behaviour of its Main-Phase:
the dynamic-schedule makespan over the per-block loads, the modeled
speedup, and the "enough tasks to feed the threads" diagnostic behind the
paper's small-block rule (Section 6.4: at least 4 tasks per thread for
effective parallelization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EngineError
from .scheduling import ScheduleResult, dynamic_schedule


@dataclass(frozen=True)
class ParallelProfile:
    """Modeled parallel execution profile of one blocked engine."""

    num_threads: int
    num_tasks: int
    schedule: ScheduleResult

    @property
    def tasks_per_thread(self) -> float:
        """Scheduling slack; the paper wants >= 4 (Section 6.4)."""
        return self.num_tasks / self.num_threads

    @property
    def saturates_threads(self) -> bool:
        """True when the task count satisfies the paper's 4x rule."""
        return self.tasks_per_thread >= 4.0

    def modeled_seconds(self, serial_seconds: float) -> float:
        """Serial Main-Phase time shrunk by the achieved speedup."""
        if self.schedule.speedup == 0:
            return serial_seconds
        return serial_seconds / self.schedule.speedup


def _task_loads(engine) -> np.ndarray:
    """Per-task non-zero loads of a prepared blocked engine."""
    if hasattr(engine, "partition"):  # MixenEngine
        return engine.partition.task_loads()
    if hasattr(engine, "layout"):  # BlockingEngine
        nnz = engine.layout.block_nnz()
        return nnz[nnz > 0]
    raise EngineError(
        f"{type(engine).__name__} has no blocked task list to schedule"
    )


def parallel_profile(engine, *, num_threads: int | None = None
                     ) -> ParallelProfile:
    """Modeled dynamic-scheduling profile for a prepared blocked engine.

    ``num_threads`` defaults to the simulated machine's core count (20,
    matching the paper's setup).
    """
    engine._require_prepared()
    if num_threads is None:
        from ..machine.hierarchy import SCALED_MACHINE

        num_threads = SCALED_MACHINE.cores
    loads = _task_loads(engine)
    return ParallelProfile(
        num_threads=num_threads,
        num_tasks=int(loads.size),
        schedule=dynamic_schedule(loads, num_threads),
    )


@dataclass(frozen=True)
class MPProfile:
    """Modeled profile of the process pool's static stride assignment.

    Unlike the thread model's dynamic schedule, ``parallel-mp`` assigns
    task ``t`` to worker ``t mod W`` deterministically (reproducibility
    over work stealing), so the makespan is the heaviest stride sum —
    hubs clustered at one stride phase show up as load imbalance here
    before a benchmark ever runs.
    """

    num_workers: int
    num_tasks: int
    #: per-worker summed loads under the stride assignment.
    worker_loads: tuple
    total_load: int
    makespan: int

    @property
    def modeled_speedup(self) -> float:
        """Total work over the heaviest worker's share."""
        if self.makespan == 0:
            return 1.0
        return self.total_load / self.makespan

    @property
    def balance(self) -> float:
        """Mean worker load over the heaviest (1.0 = perfectly even)."""
        if self.makespan == 0 or self.num_workers == 0:
            return 1.0
        mean = self.total_load / self.num_workers
        return mean / self.makespan


def mp_parallel_profile(loads, num_workers: int) -> MPProfile:
    """Model the process pool's stride assignment over per-task loads.

    ``loads`` is any per-task cost vector (block-column nnz for the
    layout plans, partition message counts for phase plans); benchmarks
    compare :attr:`MPProfile.modeled_speedup` against the measured
    thread-vs-process ratio.
    """
    if num_workers <= 0:
        raise EngineError(
            f"num_workers must be positive, got {num_workers}"
        )
    loads = np.asarray(loads, dtype=np.int64)
    width = min(num_workers, max(int(loads.size), 1))
    worker_loads = tuple(
        int(loads[rank::width].sum()) for rank in range(width)
    )
    return MPProfile(
        num_workers=width,
        num_tasks=int(loads.size),
        worker_loads=worker_loads,
        total_load=int(loads.sum()),
        makespan=max(worker_loads) if worker_loads else 0,
    )
