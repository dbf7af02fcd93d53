"""Dynamic and static bins (Section 4.2).

*Dynamic bins* buffer the per-iteration propagation inside each block,
turning random in-block jumps into sequential streams; with *edge
compression* a source that sends to several destinations inside one block
occupies a single bin slot.  The native kernels realize the bins through
the block-sorted edge permutations (:class:`~repro.frameworks.blocking.
BlockLayout`), so this module's dynamic-bin role is bookkeeping: slot
counts and byte sizes for the machine model and the compression ablation.
No kernel reads them, so an engine computes its census on first read
(:attr:`~repro.core.engine.MixenEngine.bin_stats`), never at prepare.

*Static bins* cache the seed->regular contribution: written once during the
Pre-Phase, read-only afterwards, allocated per block-row as a 1-D vector
(all blocks sharing a row range share the cached data).

The engines no longer call :func:`build_static_bins` on the hot path —
the Pre-Phase seed push runs through the segmented-reduce plans in
:mod:`repro.core.phases` so it shares the kernel dispatch, thread pool,
and fault-injection sites with the Main-Phase.  The function stays as
the serial reference oracle: ``tests/core/test_phase_kernels.py`` pins
the phase kernels bitwise against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..frameworks.blocking import BlockLayout
from ..graphs.csr import CSR
from ..types import VALUE_DTYPE


@dataclass(frozen=True)
class DynamicBinStats:
    """Slot accounting of the dynamic bins for one layout."""

    raw_messages: int  #: one slot per edge (no compression)
    compressed_messages: int  #: one slot per unique (block, source)

    @property
    def compression_ratio(self) -> float:
        """raw / compressed (1.0 = nothing to compress)."""
        if self.compressed_messages == 0:
            return 1.0
        return self.raw_messages / self.compressed_messages

    def nbytes(self, *, compressed: bool, property_bytes: int = 4) -> int:
        """Bin buffer size under either mode."""
        slots = self.compressed_messages if compressed else self.raw_messages
        return slots * property_bytes


def dynamic_bin_stats(layout: BlockLayout) -> DynamicBinStats:
    """Count raw and compressed bin slots of a block layout."""
    m = layout.num_edges
    if m == 0:
        return DynamicBinStats(0, 0)
    b = layout.num_blocks_per_side
    c = layout.block_nodes
    # Unique (block, source) pairs; block of a scatter-order edge is
    # (src // c) * b + (dst // c).  Promote before the multiply: the
    # int32 scatter ids would wrap once block_ids * n crosses 2**31
    # (value-based casting ignores the np.int64 scalar's width).
    block_ids = (
        layout.src_scatter.astype(np.int64) // c
    ) * b + layout.dst_scatter // c
    keys = block_ids * np.int64(layout.num_nodes) + layout.src_scatter
    compressed = int(np.unique(keys).size)
    return DynamicBinStats(m, compressed)


def build_static_bins(
    seed_to_reg: CSR,
    xs_seed: np.ndarray,
    *,
    edge_values: np.ndarray | None = None,
) -> np.ndarray:
    """Accumulate the (pre-scaled) seed values into per-regular-node
    static bins: ``static[v] = sum(w * xs_seed[u] for seed u -> v)``.

    This is the Pre-Phase push (Algorithm 3, line 3).  ``xs_seed`` has
    shape ``(n_seed,)`` or ``(n_seed, k)``; the result covers the regular
    id range ``[0, r)``.  ``edge_values`` are optional per-edge weights
    in ``seed_to_reg`` edge order.
    """
    xs_seed = np.asarray(xs_seed, dtype=VALUE_DTYPE)
    r = seed_to_reg.num_cols
    dst = seed_to_reg.indices
    degs = seed_to_reg.degrees()
    if xs_seed.ndim == 1:
        vals = np.repeat(xs_seed, degs)
        if edge_values is not None:
            vals = vals * edge_values
        return np.bincount(dst, weights=vals, minlength=r).astype(
            VALUE_DTYPE
        )
    k = xs_seed.shape[1]
    out = np.empty((r, k), dtype=VALUE_DTYPE)
    for col in range(k):
        vals = np.repeat(xs_seed[:, col], degs)
        if edge_values is not None:
            vals = vals * edge_values
        out[:, col] = np.bincount(dst, weights=vals, minlength=r)
    return out
