"""The one graph-update path (DESIGN 4i): a fault-probed CSR patch.

Every applied :class:`~repro.graphs.updates.UpdateBatch` goes through
:func:`checked_apply`, and the caller then prepares a fresh
:class:`~repro.core.engine.MixenEngine` on the updated graph, stamped
with the next **epoch** (see :meth:`repro.serve.server.MixenServer.
_rebuild_for`).  The layout is built once per graph version, so every
answer at an epoch is bit-identical to a from-scratch build.

Fault sites: ``update_apply`` fires before any work (a crash leaves
the caller's graph untouched; the retried apply succeeds) and
``update_patch`` after patching but before verification (a corrupted
patch fails :func:`~repro.graphs.updates.verify_patch` and falls back
to the from-scratch rebuild, whose adjacency is bitwise identical — so
a faulted patch can never change a score).
"""

from __future__ import annotations

import math

from ..graphs.graph import Graph
from ..graphs.updates import (
    UpdateBatch,
    apply_batch,
    rebuild_from_batch,
    verify_patch,
)


def checked_apply(
    graph: Graph, batch: UpdateBatch
) -> tuple[Graph, bool]:
    """Apply ``batch`` to ``graph`` through the fault-probed patch path.

    Probes the ``update_apply`` site before any work (a crash here is
    transactional — the caller's graph is untouched) and the
    ``update_patch`` site after patching; a corrupted patch fails
    :func:`~repro.graphs.updates.verify_patch` and falls back to the
    from-scratch rebuild, whose adjacency is bitwise identical to a
    sound patch.  Returns ``(new_graph, fell_back)``.
    """
    from ..resilience.faults import active as active_faults

    injector = active_faults()
    if injector is not None:
        injector.update_apply()
    new_graph = apply_batch(graph, batch)
    directive = injector.update_patch() if injector is not None else None
    if directive is not None and "corrupt" in directive:
        _vandalize_patch(new_graph, directive["corrupt"])
    if verify_patch(new_graph.csr):
        return new_graph, False
    return rebuild_from_batch(graph, batch), True


def _vandalize_patch(graph: Graph, value) -> None:
    """Corrupt a patched index array in place (fault directive)."""
    indices = graph.csr.indices
    if indices.size == 0:
        return
    slot = indices.size // 2
    bad = -1
    if isinstance(value, (int, float)) and math.isfinite(value):
        bad = int(value)
    indices[slot] = bad
