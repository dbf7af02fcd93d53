"""Thread scheduling: the modeled multicore, real thread-pool helpers,
and the shared-memory process pool.

:mod:`repro.parallel.procpool` (the ``parallel-mp`` backend's engine
room) is deliberately not imported here: it is reached lazily from the
kernel dispatch so that merely importing :mod:`repro.parallel` never
touches :mod:`multiprocessing` machinery.
"""

from .scheduling import ScheduleResult, dynamic_schedule
from .simthreads import (
    MPProfile,
    ParallelProfile,
    mp_parallel_profile,
    parallel_profile,
)
from .threadpool import (
    available_cpus,
    chunked,
    default_workers,
    parallel_for,
)

__all__ = [
    "MPProfile",
    "ParallelProfile",
    "ScheduleResult",
    "available_cpus",
    "chunked",
    "default_workers",
    "dynamic_schedule",
    "mp_parallel_profile",
    "parallel_for",
    "parallel_profile",
]
