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

The native kernel realizes this with two precomputed edge permutations:
``scatter order`` = edges sorted by (block-row, block-col, src), in which
bin writes are one sequential stream; and a ``gather permutation`` mapping
bin slots into (block-col, block-row) order for the accumulation.
:class:`BlockLayout` packages those permutations; Mixen reuses it for its
regular subgraph (:mod:`repro.core.partition`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import PartitionError
from ..types import UNREACHED, VALUE_DTYPE
from .base import Engine


@dataclass(frozen=True)
class BlockLayout:
    """Edge permutations and block offsets of one 2-D blocking.

    ``b = ceil(n / block_nodes)`` blocks per side.  Edges live in two
    orders: *scatter order* (block-row major) and *gather order*
    (block-column major); ``gather_perm`` maps scatter slots to gather
    sequence.  ``scatter_block_ptr``/``gather_block_ptr`` give each block's
    contiguous slice in its respective order (block id ``i * b + j`` for
    scatter, ``j * b + i`` for gather).
    """

    num_nodes: int
    block_nodes: int
    num_blocks_per_side: int
    src_scatter: np.ndarray = field(repr=False)
    dst_scatter: np.ndarray = field(repr=False)
    gather_perm: np.ndarray = field(repr=False)
    src_gather: np.ndarray = field(repr=False)
    dst_gather: np.ndarray = field(repr=False)
    scatter_block_ptr: np.ndarray = field(repr=False)
    gather_block_ptr: np.ndarray = field(repr=False)
    #: optional per-edge values in scatter order (weighted SpMV).
    values_scatter: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_edges(self) -> int:
        """Edges covered by the layout."""
        return int(self.src_scatter.size)

    def block_nnz(self) -> np.ndarray:
        """Non-zeros per block (b*b,), block-row-major — the load estimate
        used by the paper's balancing scheme."""
        return np.diff(self.scatter_block_ptr)

    @cached_property
    def reduce_plan(self):
        """The Main-Phase segmented-reduce plan of this layout (built
        eagerly by :func:`build_block_layout`): its partitions are the
        block-columns, run-aligned by construction because a destination
        never spans two columns."""
        from ..core.kernels import build_plan

        bounds = (
            np.arange(self.num_blocks_per_side + 1, dtype=np.int64)
            * self.block_nodes
        )
        return build_plan(
            "main",
            self.num_nodes,
            self.src_scatter,
            self.dst_scatter,
            values=self.values_scatter,
            row_bounds=bounds,
        )

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

    def frontier_step(
        self, frontier: np.ndarray, visited_levels: np.ndarray, level: int
    ) -> np.ndarray:
        """One blocked BFS step: propagate the frontier through the bins.

        Returns the new frontier mask and marks ``visited_levels``.
        """
        active = frontier[self.src_gather]
        candidates = self.dst_gather[active]
        new_frontier = np.zeros(self.num_nodes, dtype=bool)
        new_frontier[candidates] = True
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
    """Compute the 2-D block layout of an edge set (one parallel-friendly
    pass of lexsorts, as in Section 4.2's "easily implemented by
    partitioning the CSR into multiple local CSRs")."""
    if block_nodes <= 0:
        raise PartitionError(
            f"block_nodes must be positive, got {block_nodes}"
        )
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
    c = block_nodes
    b = max(-(-num_nodes // c), 1)
    i_blk = src // c
    j_blk = dst // c

    scatter_order = np.lexsort((src, j_blk, i_blk))
    src_s = src[scatter_order]
    dst_s = dst[scatter_order]
    i_s = i_blk[scatter_order]
    j_s = j_blk[scatter_order]

    gather_perm = np.lexsort((dst_s, i_s, j_s))
    dst_g = dst_s[gather_perm]
    src_g = src_s[gather_perm]

    scatter_ptr = _block_offsets(i_s * b + j_s, b * b)
    gather_ptr = _block_offsets(
        j_s[gather_perm] * b + i_s[gather_perm], b * b
    )
    layout = BlockLayout(
        num_nodes=num_nodes,
        block_nodes=c,
        num_blocks_per_side=b,
        src_scatter=src_s,
        dst_scatter=dst_s,
        gather_perm=gather_perm,
        src_gather=src_g,
        dst_gather=dst_g,
        scatter_block_ptr=scatter_ptr,
        gather_block_ptr=gather_ptr,
        values_scatter=None if values is None else values[scatter_order],
    )
    # Precompute the segmented-reduce schedule while the sort results are
    # hot, so every later spmv pays only the gather + reduceat.
    layout.reduce_plan
    return layout


def _block_offsets(
    sorted_block_ids: np.ndarray, num_blocks: int
) -> np.ndarray:
    """Offsets of each block's slice inside a block-sorted edge array."""
    counts = np.bincount(sorted_block_ids, minlength=num_blocks)
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
    kernel: str = "bincount",
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

    ``kernel`` selects which backend's access pattern is recorded (the
    ``--kernel`` dispatch of the execution path, mirrored into the
    machine model):

    * ``bincount`` and ``parallel`` — the paper's blocked two-phase
      pattern above (the model of Section 3; the executed kernels
      stream the reduce plan in destination order instead);
    * ``reduceat`` — the segmented-reduce kernel
      (:func:`repro.core.kernels.reduce_reduceat`), which skips the bins
      entirely: one x gather in destination-sorted order, a streamed
      message buffer, the run-start/run-destination metadata streams
      and one y scatter per destination run;
    * ``auto`` — resolved exactly like the execution dispatch
      (:func:`repro.core.kernels.resolve_kernel`).

    Edge compression only exists in the binned path, so ``compress=True``
    always records the blocked pattern.
    """
    from ..core.kernels import resolve_kernel

    b = layout.num_blocks_per_side
    sp = layout.scatter_block_ptr
    gp = layout.gather_block_ptr
    if layout.num_edges == 0:
        return
    resolved = resolve_kernel(kernel)
    if resolved == "reduceat" and not compress:
        _trace_reduceat_iteration(
            layout, trace, x_name=x_name, y_name=y_name,
            bins_name=bins_name,
        )
        return
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


def _trace_reduceat_iteration(
    layout: BlockLayout,
    trace,
    *,
    x_name: str,
    y_name: str,
    bins_name: str,
) -> None:
    """Record one segmented-reduce iteration
    (:func:`repro.core.kernels.reduce_reduceat`) into ``trace``.

    The kernel gathers ``x`` at the destination-sorted edge sources
    (``plan.src``), materializes the message stream (modelled in the
    bins region — it is the message buffer of this backend), streams
    the per-run metadata (``runStarts``/``runDst``, registered lazily
    on first use) while ``reduceat`` re-reads the messages, and
    scatters one accumulated value per destination run into ``y``.
    """
    plan = layout.reduce_plan
    m = layout.num_edges
    runs = plan.num_runs
    space = trace.space
    if "runStarts" not in space:
        space.register("runStarts", max(runs, 1), 8)
        space.register("runDst", max(runs, 1), 8)
    # msgs = x[plan.src]: the gather plus the streamed materialization.
    trace.gather(x_name, plan.src)
    trace.sequential(bins_name, 0, m, write=True)
    if runs == 0:
        return
    # np.add.reduceat(msgs, run_starts): metadata and message streams.
    trace.sequential("runStarts", 0, runs)
    trace.sequential(bins_name, 0, m)
    # y[run_dst] = ...: one write per destination run.
    trace.sequential("runDst", 0, runs)
    trace.scatter(y_name, plan.run_dst)


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
        serial ``reduceat`` kernel is the default, and the opt-in pool
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
        kernel: str = "reduceat",
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
        self.layout = build_block_layout(
            csr.row_ids(), csr.indices, self.graph.num_nodes,
            self.block_nodes, values=self.edge_values,
        )
        # Static race-freedom proof of the Main-Phase plan — always on;
        # O(m) vectorized checks amortized against the layout sorts.
        from ..analysis.races import (
            prove_schedule,
            race_check_enabled,
            replay_plan,
        )

        plan = self.layout.reduce_plan
        self.race_proof = prove_schedule(plan)
        if self.race_check or (
            self.race_check is None and race_check_enabled()
        ):
            replay_plan(plan)
        # Machine-readable proof certificate of the plan under this
        # engine's kernel; its id travels on every result.
        from ..analysis.certify import certify_layout

        self.certificate = certify_layout(
            self.layout, self.kernel, structure="block-main",
            proof=self.race_proof,
        )
        if self.validate:
            from ..analysis.contracts import check_layout

            check_layout(self.layout).raise_on_failure()
        return {"partition": time.perf_counter() - start}

    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        return self.layout.spmv(
            self._check_x(x),
            kernel=self.kernel,
            max_workers=self.max_workers,
        )

    def traced_propagate(self, x: np.ndarray, trace) -> np.ndarray:
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
            trace_blocked_iteration(
                self.layout, trace, kernel=self.kernel
            )
        return self.propagate(x)

    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        """Blocked frontier BFS: per iteration only the messages of active
        sources flow through the (pre-sorted) bins."""
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
