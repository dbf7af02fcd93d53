"""GAS blocking engine (GPOP-style, Algorithm 2) and the shared 2-D
block layout.

The graph is partitioned into ``b x b`` cache-sized blocks.  Per iteration:

* **Scatter** walks block-rows: for block-row ``i`` it reads the x segment
  of that row range and appends each edge's message to the bin of block
  ``(i, j)`` — sequential bin writes, x reads confined to one block-row.
* **Gather** walks block-columns: for block-column ``j`` it streams the bins
  of blocks ``(:, j)`` and accumulates into the y segment of that column
  range — random jumps only when switching bins, i.e. ``b^2`` per iteration
  (the Section 3 blocking model).

That blocked two-phase pattern is the machine model's (Figures 4–7,
Table 3 modeled, the tuner).  The executed kernels stream one
destination-major :class:`~repro.core.kernels.ReducePlan` instead, made
from the source-major edges by one stable O(m) radix sort
(:func:`repro.graphs.csr.radix_order`) and cut into block-column
partitions.  :class:`BlockLayout` therefore holds only the source-major
edges and that plan; its blocked orders — ``scatter order`` (edges by
block-row, block-col, src), the ``gather permutation`` into
(block-col, block-row) order and both block pointers — are built on
first read, so preparation never pays for the 2-D blocking.  Mixen
reuses the layout for its regular subgraph (:mod:`repro.core.partition`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import PartitionError
from ..graphs.csr import radix_order
from ..types import UNREACHED, VALUE_DTYPE
from .base import Engine


@dataclass(frozen=True)
class BlockLayout:
    """One edge set under a 2-D blocking of ``block_nodes``-node blocks.

    The edges are held source-major, as a CSR: ``indices[indptr[u]:
    indptr[u + 1]]`` are ``u``'s out-neighbours, and ``values`` (or
    ``None``) are per-edge weights in that order.  From them come the
    executed structures — :attr:`reduce_plan` (built by
    :func:`build_block_layout` and the engines' prepare) and
    :attr:`source_index` — and, on first read only, the machine model's
    blocked orders: ``b = ceil(n / block_nodes)`` blocks per side,
    *scatter order* (block-row major, :attr:`src_scatter` /
    :attr:`dst_scatter` / :attr:`values_scatter`), *gather order*
    (block-column major, :attr:`src_gather` / :attr:`dst_gather`),
    :attr:`gather_perm` mapping scatter slots to gather sequence, and
    :attr:`scatter_block_ptr` / :attr:`gather_block_ptr` giving each
    block's contiguous slice in its order (block id ``i * b + j`` for
    scatter, ``j * b + i`` for gather).
    """

    num_nodes: int
    block_nodes: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.block_nodes <= 0:
            raise PartitionError(
                f"block_nodes must be positive, got {self.block_nodes}"
            )
        if self.num_nodes < 0:
            raise PartitionError(
                f"num_nodes must be >= 0, got {self.num_nodes}"
            )
        if np.shape(self.indptr) != (self.num_nodes + 1,):
            raise PartitionError(
                f"indptr must have length num_nodes+1={self.num_nodes + 1}"
            )
        if self.values is not None and np.shape(self.values) != np.shape(
            self.indices
        ):
            raise PartitionError(
                "edge values must align with the edge arrays"
            )

    @property
    def num_blocks_per_side(self) -> int:
        """``b = ceil(n / c)`` (at least 1)."""
        return max(-(-self.num_nodes // self.block_nodes), 1)

    @property
    def num_edges(self) -> int:
        """Edges covered by the layout."""
        return int(self.indices.size)

    def row_ids(self) -> np.ndarray:
        """Per-edge sources, source-major (int64)."""
        return np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
        )

    def block_nnz(self) -> np.ndarray:
        """Non-zeros per block (b*b,), block-row-major — the load estimate
        used by the paper's balancing scheme."""
        return np.diff(self.scatter_block_ptr)

    @cached_property
    def reduce_plan(self):
        """The Main-Phase segmented-reduce plan of this layout: the
        source-major edges stable-sorted by destination, partitioned at
        the block-columns (run-aligned by construction, because a
        destination never spans two columns)."""
        from ..core.kernels import build_plan

        bounds = (
            np.arange(self.num_blocks_per_side + 1, dtype=np.int64)
            * self.block_nodes
        )
        return build_plan(
            "main",
            self.num_nodes,
            self.row_ids(),
            self.indices,
            values=self.values,
            row_bounds=bounds,
        )

    # ------------------------------------------------------------------ #
    # the blocked orders: machine-model inputs, built on first read
    # ------------------------------------------------------------------ #
    def _block_ids(self, *, transpose: bool = False) -> np.ndarray:
        """Per-edge block id in source-major order: ``i * b + j`` (or
        ``j * b + i`` with ``transpose``), in int64 so ``b * b`` past
        2**31 cannot wrap."""
        c, b = self.block_nodes, self.num_blocks_per_side
        i_blk = self.row_ids() // c
        j_blk = self.indices.astype(np.int64) // c
        return j_blk * b + i_blk if transpose else i_blk * b + j_blk

    @cached_property
    def _scatter_order(self) -> np.ndarray:
        """Source-major slot of each scatter-order edge.  One stable
        sort by block id: the stream is already sorted by source, so
        this is the (block-row, block-col, src) order with duplicate
        edges in input order."""
        b = self.num_blocks_per_side
        return radix_order(self._block_ids(), b * b)

    @cached_property
    def src_scatter(self) -> np.ndarray:
        """Edge sources in scatter order."""
        return self.row_ids()[self._scatter_order]

    @cached_property
    def dst_scatter(self) -> np.ndarray:
        """Edge destinations in scatter order."""
        return self.indices.astype(np.int64)[self._scatter_order]

    @cached_property
    def values_scatter(self) -> np.ndarray | None:
        """Per-edge weights in scatter order (``None`` if unweighted)."""
        if self.values is None:
            return None
        return np.asarray(self.values, dtype=VALUE_DTYPE)[
            self._scatter_order
        ]

    @cached_property
    def gather_perm(self) -> np.ndarray:
        """Scatter slot of each gather-order edge: scatter order
        stable-sorted by (block-col, block-row, dst), as two radix
        passes, minor key first."""
        b = self.num_blocks_per_side
        order = radix_order(self.dst_scatter)
        blocks = self._block_ids(transpose=True)[self._scatter_order]
        return order[radix_order(blocks[order], b * b)]

    @cached_property
    def src_gather(self) -> np.ndarray:
        """Edge sources in gather order."""
        return self.src_scatter[self.gather_perm]

    @cached_property
    def dst_gather(self) -> np.ndarray:
        """Edge destinations in gather order."""
        return self.dst_scatter[self.gather_perm]

    @cached_property
    def scatter_block_ptr(self) -> np.ndarray:
        """Each block's slice of the scatter order (id ``i * b + j``)."""
        b = self.num_blocks_per_side
        return _block_offsets(self._block_ids(), b * b)

    @cached_property
    def gather_block_ptr(self) -> np.ndarray:
        """Each block's slice of the gather order (id ``j * b + i``)."""
        b = self.num_blocks_per_side
        return _block_offsets(self._block_ids(transpose=True), b * b)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def spmv(
        self,
        x: np.ndarray,
        *,
        static: np.ndarray | None = None,
        kernel: str = "bincount",
        max_workers: int | None = None,
        scatter_tasks=None,
    ) -> np.ndarray:
        """Blocked propagation ``y = A^T x (+ static)`` over the layout.

        ``static`` is Mixen's cached seed contribution (the Cache step);
        ``kernel`` selects the backend that runs :attr:`reduce_plan`
        (:func:`repro.core.kernels.reduce`).  ``scatter_tasks`` is
        accepted and ignored: every backend runs the plan's partitions.
        """
        from ..core.kernels import reduce

        return reduce(
            self.reduce_plan,
            x,
            kernel=kernel,
            static=static,
            max_workers=max_workers,
        )

    @cached_property
    def source_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Source-major view ``(indptr, dst)`` of the layout's edges:
        ``dst[indptr[u]:indptr[u + 1]]`` are ``u``'s out-neighbours.

        The layout's own CSR, with its ids widened to ``intp`` on the
        first BFS (never by prepare): a top-down level indexes
        ``levels`` with the neighbour ids three times, and numpy would
        otherwise convert a narrower index array on every one."""
        return self.indptr, self.indices.astype(np.intp, copy=False)

    def frontier_step(
        self, frontier: np.ndarray, visited_levels: np.ndarray, level: int
    ) -> np.ndarray:
        """One BFS level: mark the frontier's unvisited out-neighbours
        at ``level`` in ``visited_levels`` and return them as the next
        frontier mask.

        A level whose frontier has fewer out-edges than
        :data:`~repro.algorithms.bfs.DIRECTION_THRESHOLD` of the
        layout's edges expands top-down over :attr:`source_index`;
        wider levels sweep every edge of the destination-major
        :attr:`reduce_plan`.
        """
        from ..algorithms.bfs import DIRECTION_THRESHOLD, top_down

        indptr, dst = self.source_index
        active = np.flatnonzero(frontier)
        frontier_edges = int((indptr[active + 1] - indptr[active]).sum())
        if frontier_edges < DIRECTION_THRESHOLD * self.num_edges:
            return top_down(indptr, dst, active, visited_levels, level)
        plan = self.reduce_plan
        new_frontier = np.zeros(self.num_nodes, dtype=bool)
        new_frontier[plan.dst[frontier[plan.src]]] = True
        new_frontier &= visited_levels == UNREACHED
        visited_levels[new_frontier] = level
        return new_frontier


def build_block_layout(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    block_nodes: int,
    *,
    values: np.ndarray | None = None,
) -> BlockLayout:
    """The block layout of an edge set, with its Main-Phase plan built.

    Edges not already source-major are put in that order by a stable
    radix sort on ``src`` (duplicates keep their input order, and
    ``values`` follow them).  The blocked orders are left to first read
    (:class:`BlockLayout`).
    """
    if num_nodes < 0:
        raise PartitionError(f"num_nodes must be >= 0, got {num_nodes}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise PartitionError("src and dst lengths differ")
    if values is not None:
        values = np.asarray(values, dtype=VALUE_DTYPE)
        if values.shape != src.shape:
            raise PartitionError(
                "edge values must align with the edge arrays"
            )
    if src.size and (int(src.min()) < 0 or int(src.max()) >= num_nodes):
        raise PartitionError(f"edge sources fall outside [0, {num_nodes})")
    if src.size > 1 and bool((src[1:] < src[:-1]).any()):
        order = radix_order(src, num_nodes)
        src, dst = src[order], dst[order]
        if values is not None:
            values = values[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    layout = BlockLayout(num_nodes, block_nodes, indptr, dst, values)
    layout.reduce_plan
    return layout


def _block_offsets(block_ids: np.ndarray, num_blocks: int) -> np.ndarray:
    """Offsets of each block's slice inside a block-sorted edge array."""
    counts = np.bincount(block_ids, minlength=num_blocks)
    ptr = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def trace_blocked_iteration(
    layout: BlockLayout,
    trace,
    *,
    x_name: str = "x",
    y_name: str = "y",
    bins_name: str = "bins",
    bin_ptr_name: str = "binPtr",
    compress: bool = False,
) -> None:
    """Record one blocked Scatter+Gather iteration into ``trace``.

    Scatter per block: x gathers confined to the block's row range plus a
    sequential write of the block's bin.  Gather per block: one sequential
    bin read (``b^2`` block switches total) plus y scatters confined to the
    column range.  Two second-order effects the paper's block-size study
    depends on are modelled faithfully:

    * each block's bin is padded to a cache-line boundary (small blocks
      waste proportionally more traffic);
    * visiting a block costs one read of its bin-pointer entry (``b^2``
      metadata touches per phase).

    With ``compress=True`` (edge compression, Section 4.2) the bins hold
    one message per unique (block, source) pair instead of one per edge.

    Every ``--kernel`` rung records this same pattern (module docstring).
    """
    if layout.num_edges == 0:
        return
    b = layout.num_blocks_per_side
    sp = layout.scatter_block_ptr
    gp = layout.gather_block_ptr
    line_elems = max(trace.space.line_bytes // 4, 1)

    def aligned(offset: int) -> int:
        return -(-offset // line_elems) * line_elems

    # Bin start offsets (scatter-order blocks), line-aligned per block.
    bin_start = {}
    offset = 0
    for blk in range(b * b):
        lo, hi = int(sp[blk]), int(sp[blk + 1])
        if hi == lo:
            continue
        count = hi - lo
        if compress:
            count = int(np.unique(layout.src_scatter[lo:hi]).size)
        bin_start[blk] = (offset, count)
        offset = aligned(offset + count)

    # Scatter phase, block-row major.
    for blk in range(b * b):
        lo, hi = int(sp[blk]), int(sp[blk + 1])
        if hi == lo:
            continue
        trace.sequential(bin_ptr_name, blk, 1)
        seg_src = layout.src_scatter[lo:hi]
        if compress:
            seg_src = np.unique(seg_src)
        start, count = bin_start[blk]
        trace.gather(x_name, seg_src)
        trace.sequential(bins_name, start, count, write=True)

    # Gather phase, block-column major: block (i, j) sits at gather slot
    # j * b + i but its bin lives at scatter slot i * b + j.
    for g_blk in range(b * b):
        lo, hi = int(gp[g_blk]), int(gp[g_blk + 1])
        if hi == lo:
            continue
        j, i = divmod(g_blk, b)
        s_blk = i * b + j
        trace.sequential(bin_ptr_name, s_blk, 1)
        start, count = bin_start[s_blk]
        trace.sequential(bins_name, start, count)
        trace.scatter(y_name, layout.dst_gather[lo:hi])


class BlockingEngine(Engine):
    """Blocked Scatter/Gather propagation over the *whole* node set
    (the GPOP baseline and the "Block" variant of Figures 4–5).

    Parameters
    ----------
    block_nodes:
        Block side length ``c`` in nodes (the paper sets 256 KB ~ 64K nodes
        on the real machine; the scaled default matches the simulated L2).
    kernel:
        SpMV backend (:data:`repro.core.kernels.KERNEL_NAMES`); the
        serial ``bincount`` kernel is the default, and the opt-in pool
        kernels run the plan's block-column partitions with auto worker
        selection.
    max_workers:
        Thread-pool width for the parallel kernel (default: the host's
        :func:`repro.parallel.threadpool.default_workers`).
    """

    name = "block"
    accepts_csr_binary = True

    def __init__(
        self,
        graph,
        *,
        block_nodes: int = 512,
        edge_values=None,
        kernel: str = "bincount",
        max_workers: int | None = None,
        validate: bool = False,
        race_check: bool | None = None,
    ) -> None:
        super().__init__(graph, edge_values=edge_values)
        if block_nodes <= 0:
            raise PartitionError(
                f"block_nodes must be positive, got {block_nodes}"
            )
        from ..core.kernels import KERNEL_NAMES

        if kernel not in KERNEL_NAMES:
            raise PartitionError(
                f"unknown kernel {kernel!r}; "
                f"available: {', '.join(KERNEL_NAMES)}"
            )
        self.block_nodes = block_nodes
        self.kernel = kernel
        self.max_workers = max_workers
        self.validate = validate
        self.race_check = race_check

    @property
    def num_blocks_per_side(self) -> int:
        """``b = ceil(n / c)``."""
        return max(-(-self.graph.num_nodes // self.block_nodes), 1)

    def _prepare(self) -> dict:
        start = time.perf_counter()
        csr = self.graph.csr
        self.layout = BlockLayout(
            self.graph.num_nodes, self.block_nodes,
            csr.indptr, csr.indices, self.edge_values,
        )
        self.layout.reduce_plan
        t_partition = time.perf_counter()
        # Race proof and certificate of the Main-Phase plan; the
        # certificate id travels on every result.
        from ..analysis.certify import prove_and_certify

        self.race_proof, self.certificate = prove_and_certify(
            self.layout, self.kernel, structure="block-main",
            race_check=self.race_check,
        )
        if self.validate:
            from ..analysis.contracts import check_layout

            check_layout(self.layout).raise_on_failure()
        return {
            "partition": t_partition - start,
            "prove": time.perf_counter() - t_partition,
        }

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        return self.layout.spmv(
            self._check_x(x),
            kernel=self.kernel,
            max_workers=self.max_workers,
        )

    def trace_iteration(self, trace) -> None:
        """Blocked GAS with its access pattern recorded."""
        self._require_prepared()
        n, m = self.graph.num_nodes, self.graph.num_edges
        space = trace.space
        if "bins" not in space:
            space.register("csrPtr", n + 1, 4)
            space.register("csrIdx", max(m, 1), 4)
            space.register("x", n, 4)
            space.register("y", n, 4)
            b = self.num_blocks_per_side
            pad = b * b * (trace.space.line_bytes // 4 + 1)
            space.register("bins", max(m, 1) + pad, 4)
            space.register("binPtr", b * b + 1, 8)
        trace.sequential("csrPtr", 0, n + 1)
        if m:
            trace.sequential("csrIdx", 0, m)
            trace_blocked_iteration(self.layout, trace)

    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        """Frontier BFS over the layout
        (:meth:`BlockLayout.frontier_step`)."""
        self._require_prepared()
        from ..algorithms.bfs import bfs_fingerprint, run_frontier_bfs

        n = self.graph.num_nodes
        if not 0 <= source < n:
            raise PartitionError(f"BFS source {source} outside [0, {n})")
        levels = np.full(n, UNREACHED, dtype=np.int64)
        levels[source] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[source] = True
        return run_frontier_bfs(
            self.layout.frontier_step,
            levels,
            frontier,
            resilience=resilience,
            fingerprint=bfs_fingerprint(self, source),
        )

    def block_nnz(self) -> np.ndarray:
        """Non-zeros per block (b*b,), block-row-major."""
        self._require_prepared()
        return self.layout.block_nnz()
