"""2-D partitioning of the regular subgraph with load balancing
(Section 4.2).

The filtered regular subgraph is cut into ``b x b`` cache-sized blocks via
the shared :class:`~repro.frameworks.blocking.BlockLayout`, which takes
the regular CSR as is and builds only the Main-Phase plan up front; its
blocked orders are built when the machine model first reads them.
Because the filtering step concentrates hubs at the front of the vertex set, the
top-left blocks can hold a disproportionate share of the non-zeros; the
paper's balancing scheme estimates per-block load by non-zero count and
splits any block above twice the average into smaller scheduling units.
The resulting :class:`BlockTask` list is what the simulated thread pool
(:mod:`repro.parallel.simthreads`) schedules; no kernel runs it, so a
partition builds it on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import PartitionError
from ..frameworks.blocking import BlockLayout
from ..graphs.csr import CSR


@dataclass(frozen=True)
class BlockTask:
    """One scheduling unit: a contiguous edge slice of one block
    (in scatter order)."""

    block_id: int  #: ``i * b + j`` of the owning block
    start: int  #: first edge offset (scatter order)
    end: int  #: one-past-last edge offset

    @property
    def load(self) -> int:
        """Estimated work: the non-zero count."""
        return self.end - self.start


@dataclass(frozen=True)
class RegularPartition:
    """Blocked layout of the regular subgraph plus its balancing policy.

    The task list is derived from ``layout`` under that policy on first
    read (cached, like :attr:`BlockLayout.reduce_plan`).
    """

    layout: BlockLayout
    balanced: bool
    max_load_factor: float

    @cached_property
    def tasks(self) -> tuple:
        """The balanced :class:`BlockTask` list of the layout."""
        return make_block_tasks(
            self.layout,
            balance=self.balanced,
            max_load_factor=self.max_load_factor,
        )

    @property
    def num_tasks(self) -> int:
        """Scheduling units after splitting."""
        return len(self.tasks)

    def task_loads(self) -> np.ndarray:
        """Per-task non-zero counts."""
        return np.array([t.load for t in self.tasks], dtype=np.int64)

    def load_imbalance(self) -> float:
        """max/mean task load (1.0 = perfectly balanced)."""
        loads = self.task_loads()
        loads = loads[loads > 0]
        if loads.size == 0:
            return 1.0
        return float(loads.max() / loads.mean())


def partition_regular(
    rr: CSR,
    block_nodes: int,
    *,
    balance: bool = True,
    max_load_factor: float = 2.0,
    values=None,
) -> RegularPartition:
    """Partition the regular subgraph ``rr`` into cache-sized blocks.

    ``balance=False`` keeps one task per non-empty block (the ablation
    baseline); otherwise blocks holding more than ``max_load_factor`` times
    the average non-zero count are split into equal sub-slices.
    """
    if rr.num_rows != rr.num_cols:
        raise PartitionError(
            "the regular subgraph must be square "
            f"(got {rr.num_rows}x{rr.num_cols})"
        )
    if max_load_factor <= 0:
        raise PartitionError(
            f"max_load_factor must be positive, got {max_load_factor}"
        )
    layout = BlockLayout(
        rr.num_rows, block_nodes, rr.indptr, rr.indices, values
    )
    # The Main-Phase plan is the one structure a run executes; the
    # blocked orders wait for the machine model.
    layout.reduce_plan
    return RegularPartition(layout, balance, max_load_factor)


def make_block_tasks(
    layout: BlockLayout,
    *,
    balance: bool = True,
    max_load_factor: float = 2.0,
) -> tuple:
    """Balanced :class:`BlockTask` list of a layout — the scheduling
    units of the simulated thread pool and the experiments."""
    return tuple(
        _iter_tasks(layout, balance=balance, max_load_factor=max_load_factor)
    )


def _iter_tasks(
    layout: BlockLayout, *, balance: bool, max_load_factor: float
):
    nnz = layout.block_nnz()
    nonempty = nnz[nnz > 0]
    cap = None
    if balance and nonempty.size:
        cap = max(int(np.ceil(max_load_factor * nonempty.mean())), 1)
    ptr = layout.scatter_block_ptr
    for block_id in range(nnz.size):
        lo, hi = int(ptr[block_id]), int(ptr[block_id + 1])
        if hi == lo:
            continue
        load = hi - lo
        if cap is None or load <= cap:
            yield BlockTask(block_id, lo, hi)
            continue
        # Split the overloaded block into equal edge slices.
        pieces = -(-load // cap)
        edges_per_piece = -(-load // pieces)
        for s in range(lo, hi, edges_per_piece):
            yield BlockTask(block_id, s, min(s + edges_per_piece, hi))
