"""Mixen's mixed CSR/CSC representation (Section 4.1, Fig. 3).

After filtering, the edge set splits into exactly three sub-structures
(seed nodes receive nothing and isolated nodes touch nothing, so these
cover every edge):

* ``rr`` — the regular subgraph, encoded in CSR (rows = regular sources),
  the input to 2-D blocking;
* ``seed_to_reg`` — seed rows in CSR, consumed once by the Pre-Phase;
* ``sink_csc`` — sink rows in CSC (rows = sink destinations, indices =
  their in-neighbors among regular+seed nodes), pulled once by the
  Post-Phase.

All ids inside are *relabeled* ids; class-local rows start at 0.  The
boundary metadata lives in the :class:`~repro.core.filtering.FilterPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import GraphFormatError
from ..graphs.csr import CSR
from ..graphs.graph import Graph
from .filtering import FilterPlan


@dataclass(frozen=True)
class MixedGraph:
    """The three extracted sub-structures plus their plan.

    The three ``*_values`` arrays carry optional per-edge weights,
    aligned to each sub-structure's own edge order (``None`` when the
    graph is unweighted).
    """

    plan: FilterPlan
    rr: CSR  #: regular -> regular (r x r)
    seed_to_reg: CSR  #: seed rows (local) -> regular columns (n_seed x r)
    #: sink rows (local) -> in-neighbor columns (n_sink x (r + n_seed))
    sink_csc: CSR
    rr_values: np.ndarray | None = None
    seed_values: np.ndarray | None = None
    sink_values: np.ndarray | None = None

    @property
    def beta(self) -> float:
        """``m~ / m``."""
        total = (
            self.rr.num_edges
            + self.seed_to_reg.num_edges
            + self.sink_csc.num_edges
        )
        return self.rr.num_edges / total if total else 0.0

    @cached_property
    def seed_push_plan(self):
        """Pre-Phase segmented-reduce plan (seed rows -> regular bins),
        built lazily once and cached (engines force it at prepare time
        so run-phase timings exclude the plan sort)."""
        from .phases import build_push_plan

        return build_push_plan(
            self.seed_to_reg, values=self.seed_values, name="seed-push"
        )

    @cached_property
    def sink_pull_plan(self):
        """Post-Phase segmented-reduce plan (sink rows <- their
        regular/seed in-neighbors), built lazily once and cached."""
        from .phases import build_pull_plan

        return build_pull_plan(
            self.sink_csc, values=self.sink_values, name="sink-pull"
        )

    def nbytes(self, *, id_bytes: int = 4) -> int:
        """Footprint of the mixed representation.

        The paper notes this is *smaller* than keeping the full CSR plus
        CSC, because every edge is stored exactly once.
        """
        return (
            self.rr.nbytes(id_bytes=id_bytes)
            + self.seed_to_reg.nbytes(id_bytes=id_bytes)
            + self.sink_csc.nbytes(id_bytes=id_bytes)
        )


def build_mixed(
    graph: Graph, plan: FilterPlan, *, edge_values=None
) -> MixedGraph:
    """Extract the mixed representation from the graph under ``plan``.

    ``edge_values`` (aligned to ``graph.csr`` edge order) are split along
    the same decomposition.
    """
    r = plan.num_regular
    n_seed = plan.num_seed
    n_sink = plan.num_sink

    src = plan.perm[graph.csr.row_ids()]
    dst = plan.perm[graph.csr.indices]

    src_is_reg = src < r
    src_is_seed = (src >= r) & (src < r + n_seed)
    dst_is_reg = dst < r
    dst_is_sink = (dst >= r + n_seed) & (dst < r + n_seed + n_sink)

    rr_mask = src_is_reg & dst_is_reg
    s2r_mask = src_is_seed & dst_is_reg
    sink_mask = dst_is_sink

    covered = rr_mask | s2r_mask | sink_mask
    if not covered.all():
        # By the class definitions this cannot happen on a consistent
        # graph; guard against stale plans or mutated graphs.
        bad = int(np.count_nonzero(~covered))
        raise GraphFormatError(
            f"{bad} edges fall outside the mixed decomposition — the "
            "FilterPlan does not match this graph"
        )

    rr, rr_order = CSR.from_edges_with_order(
        r, src[rr_mask], dst[rr_mask], num_cols=r
    )
    seed_to_reg, seed_order = CSR.from_edges_with_order(
        n_seed, src[s2r_mask] - r, dst[s2r_mask], num_cols=r
    )
    # Sink rows in CSC: row = local sink id, indices = source (regular or
    # seed) new ids.
    sink_csc, sink_order = CSR.from_edges_with_order(
        n_sink,
        dst[sink_mask] - (r + n_seed),
        src[sink_mask],
        num_cols=r + n_seed,
    )
    if edge_values is None:
        rr_values = seed_values = sink_values = None
    else:
        edge_values = np.asarray(edge_values)
        if edge_values.shape != (graph.num_edges,):
            raise GraphFormatError(
                f"edge_values must have shape ({graph.num_edges},), "
                f"got {edge_values.shape}"
            )
        rr_values = edge_values[rr_mask][rr_order]
        seed_values = edge_values[s2r_mask][seed_order]
        sink_values = edge_values[sink_mask][sink_order]
    return MixedGraph(
        plan, rr, seed_to_reg, sink_csc,
        rr_values, seed_values, sink_values,
    )
