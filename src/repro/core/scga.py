"""The Scatter-Cache-Gather-Apply (SCGA) Main-Phase kernel (Section 4.3).

Per iteration over the ``b x b`` blocked regular subgraph:

* **Scatter** — block-row-parallel: buffer each edge's message into its
  block's dynamic bin (sequential bin writes, x reads confined to the
  block-row's range);
* **Cache** — the novel step: instead of starting the accumulation from
  zero, the destination properties are reset from the *static bins* holding
  the seed->regular contribution cached by the Pre-Phase;
* **Gather** — block-column-parallel: stream the bins and accumulate into
  the destination segment;
* **Apply** — the algorithm's vertex-local update (performed by the
  scheduler, which owns the algorithm object).

``cache_step=False`` gives the ablation variant that recomputes the seed
contribution every iteration instead of reusing the cache.
"""

from __future__ import annotations

import numpy as np

from ..frameworks.blocking import trace_blocked_iteration
from ..graphs.csr import CSR
from ..types import VALUE_DTYPE
from .partition import RegularPartition
from .kernels import ReducePlan
from .phases import build_push_plan, phase_reduce


class ScgaKernel:
    """One prepared Main-Phase kernel over a partitioned regular subgraph.

    Parameters
    ----------
    partition:
        The blocked regular subgraph.
    seed_to_reg:
        The seed rows (needed to build — or, in the ablation, rebuild —
        the seed contribution).
    cache_step:
        True: build static bins once (:meth:`set_seed_input`), reuse every
        iteration.  False: recompute the seed contribution per iteration.
    kernel:
        Backend name (:mod:`repro.core.kernels`) running the layout's
        reduce plan and the seed push.  The attribute stays writable
        mid-run: the resilient runtime (:mod:`repro.resilience.executor`)
        downgrades it one rung at a time (``parallel-mp -> parallel ->
        reduceat -> bincount``) when a backend keeps failing, and the
        next :meth:`iterate` picks it up.
    max_workers:
        Thread-pool width for the parallel kernel (None: host default).
    """

    def __init__(
        self,
        partition: RegularPartition,
        seed_to_reg: CSR,
        *,
        cache_step: bool = True,
        seed_values: np.ndarray | None = None,
        kernel: str = "bincount",
        max_workers: int | None = None,
        seed_plan: ReducePlan | None = None,
    ) -> None:
        self.partition = partition
        self.seed_to_reg = seed_to_reg
        self.cache_step = cache_step
        self.seed_values = seed_values
        self.kernel = kernel
        self.max_workers = max_workers
        self._seed_plan = seed_plan
        self.static: np.ndarray | None = None
        self._xs_seed: np.ndarray | None = None

    @property
    def num_regular(self) -> int:
        """Regular node count ``r``."""
        return self.partition.layout.num_nodes

    @property
    def seed_plan(self) -> ReducePlan:
        """Pre-Phase segmented-reduce plan (built lazily when the engine
        did not pass the mixed format's cached one)."""
        if self._seed_plan is None:
            self._seed_plan = build_push_plan(
                self.seed_to_reg,
                values=self.seed_values,
                name="seed-push",
            )
        return self._seed_plan

    def push_seed(self, xs_seed: np.ndarray) -> np.ndarray:
        """One seed push through the kernel dispatch layer: the Pre-Phase
        computation as a pure function (used directly by the ablation's
        per-iteration re-push, and by the scheduler's resilient Pre-Phase
        executor as its retryable/downgradable call)."""
        contrib = phase_reduce(
            self.seed_plan,
            np.asarray(xs_seed, dtype=VALUE_DTYPE),
            kernel=self.kernel,
            max_workers=self.max_workers,
        )
        # The seed sub-CSR uses a padded column space on empty graphs;
        # clip to the regular range.
        return contrib[: self.num_regular]

    def set_seed_input(self, xs_seed: np.ndarray, *, executor=None) -> None:
        """Pre-Phase: push the (pre-scaled) seed values into the static
        bins (Algorithm 3, line 3).  With ``cache_step=False`` the values
        are kept and re-accumulated on every iteration instead.  An
        optional resilient ``executor`` wraps the push with the runtime's
        retry/downgrade ladder (sharing the Main-Phase's chain)."""
        self._xs_seed = np.asarray(xs_seed, dtype=VALUE_DTYPE)
        if self.cache_step and self.num_regular:
            if executor is not None:
                self.static = executor.run(
                    self._xs_seed, 0, call=self.push_seed
                )
            else:
                self.static = self.push_seed(self._xs_seed)

    def _spmv(self, xs_reg: np.ndarray, static=None) -> np.ndarray:
        return self.partition.layout.spmv(
            xs_reg,
            static=static,
            kernel=self.kernel,
            max_workers=self.max_workers,
        )

    def iterate(self, xs_reg: np.ndarray) -> np.ndarray:
        """One Scatter-Cache-Gather pass: ``y = RR^T xs (+ seed cache)``."""
        if self.cache_step:
            return self._spmv(xs_reg, static=self.static)
        y = self._spmv(xs_reg)
        if self._xs_seed is not None and self.seed_to_reg.num_edges:
            y = y + self.push_seed(self._xs_seed)
        return y


def trace_scga_iteration(
    partition: RegularPartition,
    seed_to_reg: CSR,
    trace,
    *,
    cache_step: bool = True,
    compress: bool = False,
) -> None:
    """Record one Main-Phase iteration's access pattern; runs no kernel.

    Registers the iteration's arrays in the trace's address space on
    first use: the regular x/y segments, the dynamic bins, and the
    static bins (or the seed structures, for the no-cache ablation).
    The recorded pattern is the paper's Scatter-Cache-Gather whatever
    ``--kernel`` executes.
    """
    layout = partition.layout
    r = layout.num_nodes
    space = trace.space
    if "x" not in space:
        b = layout.num_blocks_per_side
        pad = b * b * (space.line_bytes // 4 + 1)
        space.register("x", max(r, 1), 4)
        space.register("y", max(r, 1), 4)
        space.register("bins", max(layout.num_edges, 1) + pad, 4)
        space.register("binPtr", b * b + 1, 8)
        space.register("sta", max(r, 1), 4)
        space.register("seedIdx", max(seed_to_reg.num_edges, 1), 4)
        space.register("xSeed", max(seed_to_reg.num_rows, 1), 4)
    if cache_step:
        # Cache step: stream the static bins into the destination
        # segment (the reset of the accumulation base).
        if r:
            trace.sequential("sta", 0, r)
            trace.sequential("y", 0, r, write=True)
    elif seed_to_reg.num_edges:
        # Ablation: re-push every seed message each iteration.
        trace.sequential("xSeed", 0, seed_to_reg.num_rows)
        trace.sequential("seedIdx", 0, seed_to_reg.num_edges)
        trace.scatter("y", seed_to_reg.indices)
    trace_blocked_iteration(layout, trace, compress=compress)
