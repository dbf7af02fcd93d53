"""The Mixen engine: the paper's contribution, behind the common Engine API.

Preparation (the Table 4 costs) = **filter** (classification, relabeling,
mixed-format extraction; Section 4.1) + **partition** (2-D blocking, load
balancing, bin setup; Section 4.2).  Execution follows Algorithm 3's
Pre/Main/Post schedule (:mod:`repro.core.scheduler`).

Options expose the paper's design knobs for the ablation benches:
``hub_reorder`` (step 2 of the filter), ``cache_step`` (the static-bin
Cache step), ``balance`` (block splitting), ``compress`` (edge compression
in the traced bins) and ``block_nodes`` (the Figure 6/7 sweep parameter).
``kernel`` selects the backend that runs every phase's reduce plan
(:mod:`repro.core.kernels`); the serial segmented-reduce ``reduceat``
kernel is the default, and the opt-in pool kernels run each plan's
partitions.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import EngineError, PartitionError
from ..frameworks.base import Engine
from ..frameworks.registry import register_engine
from ..graphs.graph import Graph
from ..types import UNREACHED, VALUE_DTYPE
from .bins import DynamicBinStats, dynamic_bin_stats
from .filtering import FilterPlan, filter_graph
from .mixed_format import MixedGraph, build_mixed
from .partition import RegularPartition, partition_regular
from .permutation import permute_values, unpermute_values
from .scga import ScgaKernel
from .scheduler import MixenRunResult, run_schedule
from .semiring import MIN_PLUS


class MixenEngine(Engine):
    """Connectivity-aware blocked engine (Sections 4.1–4.3)."""

    name = "mixen"
    #: Mixen ingests the CSR binary directly (Table 4).
    accepts_csr_binary = True

    def __init__(
        self,
        graph: Graph,
        *,
        block_nodes: int = 512,
        balance: bool = True,
        max_load_factor: float = 2.0,
        hub_reorder: bool = True,
        cache_step: bool = True,
        compress: bool = False,
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
        from .kernels import KERNEL_NAMES

        if kernel not in KERNEL_NAMES:
            raise EngineError(
                f"unknown kernel {kernel!r}; "
                f"available: {', '.join(KERNEL_NAMES)}"
            )
        self.block_nodes = block_nodes
        self.balance = balance
        self.max_load_factor = max_load_factor
        self.hub_reorder = hub_reorder
        self.cache_step = cache_step
        self.compress = compress
        self.kernel = kernel
        self.max_workers = max_workers
        self.validate = validate
        self.race_check = race_check

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def _prepare(self) -> dict:
        t0 = time.perf_counter()
        self.plan: FilterPlan = filter_graph(
            self.graph, hub_reorder=self.hub_reorder
        )
        self.mixed: MixedGraph = build_mixed(
            self.graph, self.plan, edge_values=self.edge_values
        )
        t_filter = time.perf_counter()
        self.partition: RegularPartition = partition_regular(
            self.mixed.rr,
            self.block_nodes,
            balance=self.balance,
            max_load_factor=self.max_load_factor,
            values=self.mixed.rr_values,
        )
        self.bin_stats: DynamicBinStats = dynamic_bin_stats(
            self.partition.layout
        )
        # Force the one-shot phase plans now (cached on the mixed graph):
        # building them is part of preparation, so run-phase timings
        # exclude the sorts.
        self.mixed.seed_push_plan
        self.mixed.sink_pull_plan
        self._prove_plans()
        if self.validate:
            self._validate_contracts()
        t_partition = time.perf_counter()
        return {
            "filter": t_filter - t0,
            "partition": t_partition - t_filter,
        }

    def _prove_plans(self) -> None:
        """Static race-freedom proof of the three reduce plans a run
        dispatches — always on, O(m) vectorized checks amortized against
        the layout sorts (:mod:`repro.analysis.races`) — plus the
        Main-Phase certificate whose id travels on every result."""
        from ..analysis.certify import certify_layout
        from ..analysis.races import (
            prove_schedule,
            race_check_enabled,
            replay_plan,
        )

        layout = self.partition.layout
        plans = (
            layout.reduce_plan,
            self.mixed.seed_push_plan,
            self.mixed.sink_pull_plan,
        )
        self.race_proof = prove_schedule(plans[0])
        for plan in plans[1:]:
            prove_schedule(plan)
        if self.race_check or (
            self.race_check is None and race_check_enabled()
        ):
            for plan in plans:
                replay_plan(plan)
        self.certificate = certify_layout(
            layout,
            self.kernel,
            structure="mixen-main",
            proof=self.race_proof,
        )

    def _validate_contracts(self) -> None:
        """Check every layout/format contract of the prepared structures
        (the ``--validate`` path); raises ContractError on violation."""
        from ..analysis.contracts import (
            ContractReport,
            check_bins,
            check_class_boundaries,
            check_csr,
            check_permutation,
        )

        report = ContractReport(
            "mixen prepare",
            (
                check_permutation(self.plan.perm, name="permutation"),
                check_class_boundaries(self.plan, self.graph),
                check_csr(self.mixed.rr, name="csr:regular"),
                check_csr(self.mixed.seed_to_reg, name="csr:seed"),
                check_csr(self.mixed.sink_csc, name="csc:sink"),
                check_bins(self.partition.layout),
            ),
        )
        report.raise_on_failure()

    def _make_kernel(self) -> ScgaKernel:
        return ScgaKernel(
            self.partition,
            self.mixed.seed_to_reg,
            cache_step=self.cache_step,
            seed_values=self.mixed.seed_values,
            kernel=self.kernel,
            max_workers=self.max_workers,
            seed_plan=self.mixed.seed_push_plan,
        )

    def _pull_sinks(self, sources: np.ndarray) -> np.ndarray:
        """Post-Phase sink pull through the phase dispatch layer."""
        from .phases import phase_reduce

        return phase_reduce(
            self.mixed.sink_pull_plan,
            sources,
            kernel=self.kernel,
            max_workers=self.max_workers,
        )

    # ------------------------------------------------------------------ #
    # generic propagation (full-graph SpMV, e.g. for HITS/SALSA)
    # ------------------------------------------------------------------ #
    def propagate(self, x: np.ndarray) -> np.ndarray:
        self._require_prepared()
        plan = self.plan
        r = plan.num_regular
        xp = permute_values(self._check_x(x), plan.perm)
        kernel = self._make_kernel()
        kernel.set_seed_input(xp[plan.seed_slice])
        y_reg = kernel.iterate(xp[:r])
        sink_csc = self.mixed.sink_csc
        sources = xp[: r + plan.num_seed]
        if sink_csc.num_rows:
            y_sink = self._pull_sinks(sources)
        else:
            y_sink = y_reg[:0]
        zero_shape = (
            (plan.num_seed,)
            if xp.ndim == 1
            else (plan.num_seed, xp.shape[1])
        )
        iso_shape = (
            (plan.num_isolated,)
            if xp.ndim == 1
            else (plan.num_isolated, xp.shape[1])
        )
        y_p = np.concatenate(
            [
                y_reg,
                np.zeros(zero_shape, dtype=VALUE_DTYPE),
                y_sink,
                np.zeros(iso_shape, dtype=VALUE_DTYPE),
            ],
            axis=0,
        )
        return unpermute_values(y_p, plan.perm)

    def traced_propagate(self, x: np.ndarray, trace) -> np.ndarray:
        """One full traced propagation: Main-Phase iteration plus the
        (normally amortized) sink pull; see :meth:`traced_main_iteration`
        for the per-iteration figure experiments."""
        self._require_prepared()
        plan = self.plan
        xp = permute_values(np.asarray(x, dtype=VALUE_DTYPE), plan.perm)
        kernel = self._make_kernel()
        kernel.set_seed_input(xp[plan.seed_slice])
        kernel.traced_iterate(
            xp[: plan.num_regular], trace, compress=self.compress
        )
        self._trace_post_phase(trace)
        return self.propagate(x)

    def traced_main_iteration(self, trace) -> None:
        """Record exactly one Main-Phase iteration's access pattern — the
        per-iteration workload Figures 4–7 measure."""
        self._require_prepared()
        kernel = self._make_kernel()
        r = self.plan.num_regular
        xs = np.ones(r, dtype=VALUE_DTYPE)
        kernel.set_seed_input(
            np.ones(self.plan.num_seed, dtype=VALUE_DTYPE)
        )
        kernel.traced_iterate(xs, trace, compress=self.compress)

    def _trace_post_phase(self, trace) -> None:
        sink_csc = self.mixed.sink_csc
        if sink_csc.num_edges == 0:
            return
        from .phases import trace_phase_reduce

        space = trace.space
        if "xSources" not in space:
            space.register("xSources", max(sink_csc.num_cols, 1), 4)
            space.register("ySink", max(sink_csc.num_rows, 1), 4)
        # The pull now runs through the phase dispatch layer; trace the
        # resolved backend's actual pattern over the pull plan's streams.
        trace_phase_reduce(
            self.mixed.sink_pull_plan,
            trace,
            kernel=self.kernel,
            x_name="xSources",
            y_name="ySink",
            prefix="sink",
        )

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def run(
        self,
        algorithm,
        *,
        max_iterations: int = 20,
        check_convergence: bool = True,
        resilience=None,
    ) -> MixenRunResult:
        self._require_prepared()
        result = run_schedule(
            self.mixed,
            self._make_kernel(),
            algorithm,
            graph=self.graph,
            max_iterations=max_iterations,
            check_convergence=check_convergence,
            resilience=resilience,
        )
        if self.certificate is not None:
            result.certificate_id = self.certificate.certificate_id
        return result

    # ------------------------------------------------------------------ #
    # BFS (Post-Phase handles sinks; seeds are only reachable as source)
    # ------------------------------------------------------------------ #
    def run_bfs(self, source: int, *, resilience=None) -> np.ndarray:
        self._require_prepared()
        from ..algorithms.bfs import bfs_fingerprint, run_frontier_bfs

        plan = self.plan
        n = self.graph.num_nodes
        if not 0 <= source < n:
            raise EngineError(f"BFS source {source} outside [0, {n})")
        r = plan.num_regular
        p = int(plan.perm[source])
        levels_reg = np.full(r, UNREACHED, dtype=np.int64)
        source_is_seed = plan.seed_slice.start <= p < plan.seed_slice.stop

        frontier = np.zeros(r, dtype=bool)
        if p < r:
            levels_reg[p] = 0
            frontier[p] = True
        elif source_is_seed:
            # The seed's out-edges seed the regular frontier at level 1.
            local = p - plan.seed_slice.start
            nbrs = self.mixed.seed_to_reg.row(local)
            nbrs = nbrs[nbrs < r]
            levels_reg[nbrs] = 1
            frontier[nbrs] = True
        # else: sink or isolated source reaches only itself.

        base_level = int(levels_reg[frontier].max()) if frontier.any() else 0
        levels_reg = run_frontier_bfs(
            self.partition.layout.frontier_step,
            levels_reg,
            frontier,
            base_level=base_level,
            resilience=resilience,
            fingerprint=bfs_fingerprint(self, source),
        )

        # Post-Phase: sinks take min over in-neighbor levels + 1.
        source_levels = np.full(
            r + plan.num_seed, UNREACHED, dtype=np.int64
        )
        source_levels[:r] = levels_reg
        if source_is_seed:
            source_levels[p] = 0
        sink_csc = self.mixed.sink_csc
        if sink_csc.num_rows:
            gathered = source_levels[sink_csc.indices]
            best = MIN_PLUS.segment_reduce(gathered, sink_csc.indptr)
            levels_sink = best.copy()
            reached = best != UNREACHED
            levels_sink[reached] += 1
        else:
            levels_sink = np.empty(0, dtype=np.int64)

        levels_p = np.concatenate(
            [
                levels_reg,
                np.full(plan.num_seed, UNREACHED, dtype=np.int64),
                levels_sink,
                np.full(plan.num_isolated, UNREACHED, dtype=np.int64),
            ]
        )
        levels_p[p] = 0  # the source itself, whatever its class
        return unpermute_values(levels_p, plan.perm)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def alpha(self) -> float:
        """Measured regular-node ratio (Section 5)."""
        self._require_prepared()
        return self.plan.alpha

    @property
    def beta(self) -> float:
        """Measured regular-edge ratio (Section 5)."""
        self._require_prepared()
        return self.mixed.beta


register_engine(MixenEngine.name, MixenEngine)
