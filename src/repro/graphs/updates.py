"""Edge insert/delete streams with batched application.

The dynamic-graph layer (DESIGN 4i) consumes mutations as
:class:`UpdateBatch` values: parallel endpoint arrays of edges to
insert and delete, applied atomically.  Three operations matter:

* :func:`apply_batch` — incremental: splice the batch into the existing
  CSR via :meth:`~repro.graphs.csr.CSR.patched` (``O(m + k log k)``,
  no global re-sort);
* :func:`rebuild_from_batch` — the from-scratch oracle: materialize the
  updated edge multiset and run the canonical
  :meth:`~repro.graphs.csr.CSR.from_edges` build.  Both paths produce
  **bitwise identical** adjacencies, which is what lets a corrupted
  patch fall back to a rebuild without changing any downstream score;
* :func:`verify_patch` — the cheap structural check (index bounds,
  per-row sortedness, pointer/edge-count agreement) the epoch layer
  runs on every patched CSR before committing it.

Batches are validated eagerly: out-of-range endpoints, duplicate
entries, inserting an edge that already exists, or deleting one that
does not, all raise :class:`~repro.errors.UpdateError` — the graph is
never left half-updated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GraphFormatError, UpdateError
from ..types import VID_DTYPE, as_vids
from .csr import CSR
from .graph import Graph


def _pair_keys(src: np.ndarray, dst: np.ndarray, num_cols: int) -> np.ndarray:
    """int64 ``src * num_cols + dst`` keys for endpoint arrays."""
    return src.astype(np.int64) * int(num_cols) + dst.astype(np.int64)


@dataclass(frozen=True)
class UpdateBatch:
    """One atomic set of edge inserts and deletes.

    Endpoint arrays are int32 node ids; validation here is
    graph-independent (shape agreement, non-negative ids, no duplicate
    entries, no edge both inserted and deleted in the same batch).
    Graph-dependent checks — bounds, existence — happen at apply time.
    """

    insert_src: np.ndarray = field(repr=False)
    insert_dst: np.ndarray = field(repr=False)
    delete_src: np.ndarray = field(repr=False)
    delete_dst: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in (
            "insert_src", "insert_dst", "delete_src", "delete_dst",
        ):
            object.__setattr__(self, name, as_vids(getattr(self, name)))
        if (
            self.insert_src.shape != self.insert_dst.shape
            or self.delete_src.shape != self.delete_dst.shape
        ):
            raise UpdateError("update batch src/dst lengths differ")
        for side, (src, dst) in (
            ("insert", (self.insert_src, self.insert_dst)),
            ("delete", (self.delete_src, self.delete_dst)),
        ):
            if src.size and (int(src.min()) < 0 or int(dst.min()) < 0):
                raise UpdateError(
                    f"update batch has negative {side} endpoints"
                )
        # duplicate/overlap detection in one key space: node ids are
        # int32, so (src << 32) | dst is collision-free in int64.
        span = 1 << 32
        ins = _pair_keys(self.insert_src, self.insert_dst, span)
        dels = _pair_keys(self.delete_src, self.delete_dst, span)
        if np.unique(ins).size != ins.size:
            raise UpdateError("update batch inserts the same edge twice")
        if np.unique(dels).size != dels.size:
            raise UpdateError("update batch deletes the same edge twice")
        if ins.size and dels.size and np.intersect1d(ins, dels).size:
            raise UpdateError(
                "update batch both inserts and deletes the same edge"
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, inserts=(), deletes=()) -> "UpdateBatch":
        """Build a batch from ``(src, dst)`` pair sequences."""
        ins = np.asarray(list(inserts), dtype=VID_DTYPE).reshape(-1, 2)
        dels = np.asarray(list(deletes), dtype=VID_DTYPE).reshape(-1, 2)
        return cls(ins[:, 0], ins[:, 1], dels[:, 0], dels[:, 1])

    @classmethod
    def empty(cls) -> "UpdateBatch":
        """A batch with no operations."""
        zero = np.empty(0, dtype=VID_DTYPE)
        return cls(zero, zero, zero, zero)

    @property
    def num_inserts(self) -> int:
        """Count of inserted edges."""
        return int(self.insert_src.size)

    @property
    def num_deletes(self) -> int:
        """Count of deleted edges."""
        return int(self.delete_src.size)

    @property
    def size(self) -> int:
        """Total operation count."""
        return self.num_inserts + self.num_deletes

    def to_json(self) -> dict:
        """JSON-friendly form (the serve protocol's ``update`` op)."""
        return {
            "inserts": np.stack(
                [self.insert_src, self.insert_dst], axis=1
            ).tolist(),
            "deletes": np.stack(
                [self.delete_src, self.delete_dst], axis=1
            ).tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "UpdateBatch":
        """Inverse of :meth:`to_json` (typed errors on bad payloads)."""
        try:
            return cls.from_pairs(
                payload.get("inserts", ()), payload.get("deletes", ())
            )
        except (TypeError, ValueError) as exc:
            raise UpdateError(f"malformed update payload: {exc}") from exc


# --------------------------------------------------------------------- #
# application
# --------------------------------------------------------------------- #
def _check_against_graph(graph: Graph, batch: UpdateBatch) -> None:
    """Graph-dependent validation: bounds, existence, absence."""
    n = graph.num_nodes
    for side, (src, dst) in (
        ("insert", (batch.insert_src, batch.insert_dst)),
        ("delete", (batch.delete_src, batch.delete_dst)),
    ):
        if src.size and (int(src.max()) >= n or int(dst.max()) >= n):
            raise UpdateError(
                f"update batch {side} endpoints exceed the graph's "
                f"{n} nodes"
            )
    keys = graph.csr.edge_keys()
    if batch.num_deletes:
        del_keys = _pair_keys(batch.delete_src, batch.delete_dst, n)
        pos = np.searchsorted(keys, del_keys, side="left")
        missing = (pos >= keys.size) | (
            keys[np.minimum(pos, max(keys.size - 1, 0))] != del_keys
            if keys.size
            else True
        )
        if keys.size == 0 or bool(np.any(missing)):
            raise UpdateError(
                "update batch deletes edges absent from the graph"
            )
    if batch.num_inserts:
        ins_keys = _pair_keys(batch.insert_src, batch.insert_dst, n)
        pos = np.searchsorted(keys, ins_keys, side="left")
        inside = pos < keys.size
        present = np.zeros(ins_keys.size, dtype=bool)
        present[inside] = keys[pos[inside]] == ins_keys[inside]
        if bool(np.any(present)):
            raise UpdateError(
                "update batch inserts edges already present in the graph"
            )


def apply_batch(graph: Graph, batch: UpdateBatch) -> Graph:
    """Apply ``batch`` incrementally, returning the patched graph.

    The input graph is untouched (apply is transactional: validation
    errors leave no partial state).  The result's CSR is bitwise
    identical to :func:`rebuild_from_batch`.
    """
    _check_against_graph(graph, batch)
    try:
        csr = graph.csr.patched(
            batch.insert_src,
            batch.insert_dst,
            batch.delete_src,
            batch.delete_dst,
        )
    except GraphFormatError as exc:
        raise UpdateError(f"incremental patch failed: {exc}") from exc
    return Graph(csr, graph.directed, graph.name)


def rebuild_from_batch(graph: Graph, batch: UpdateBatch) -> Graph:
    """From-scratch oracle: materialize the updated edge multiset and
    run the canonical sorted build.  Bitwise identical to
    :func:`apply_batch` — the fallback target when a patch fails
    verification."""
    _check_against_graph(graph, batch)
    n = graph.num_nodes
    src = graph.csr.row_ids()
    dst = graph.csr.indices
    keep = np.ones(src.size, dtype=bool)
    if batch.num_deletes:
        keys = graph.csr.edge_keys()
        del_keys = _pair_keys(batch.delete_src, batch.delete_dst, n)
        keep[np.searchsorted(keys, del_keys, side="left")] = False
    src = np.concatenate([src[keep], batch.insert_src])
    dst = np.concatenate([dst[keep], batch.insert_dst])
    return Graph(
        CSR.from_edges(n, src, dst), graph.directed, graph.name
    )


def verify_patch(csr: CSR) -> bool:
    """Structural soundness of a (possibly vandalized) patched CSR.

    Checks what the constructor cannot re-check after an in-place
    corruption: index bounds, pointer/edge-count agreement, and the
    global per-row sorted order every downstream searchsorted relies
    on.  The epoch layer discards a CSR failing this and rebuilds from
    scratch.
    """
    ind = csr.indices
    if int(csr.indptr[0]) != 0 or int(csr.indptr[-1]) != ind.size:
        return False
    if np.any(np.diff(csr.indptr) < 0):
        return False
    if ind.size == 0:
        return True
    if int(ind.min()) < 0 or int(ind.max()) >= csr.num_cols:
        return False
    return bool(np.all(np.diff(csr.edge_keys()) >= 0))


# --------------------------------------------------------------------- #
# randomized streams (tests, drills, benches)
# --------------------------------------------------------------------- #
def random_batches(
    graph: Graph,
    count: int,
    batch_size: int,
    *,
    seed: int = 0,
    insert_fraction: float = 0.5,
) -> list[UpdateBatch]:
    """A deterministic stream of ``count`` valid batches against an
    evolving copy of ``graph``'s edge set.

    Each batch mixes ``insert_fraction`` fresh edges (absent from the
    current set) with deletes sampled from the current set, so the
    whole stream replays cleanly through :func:`apply_batch`.
    """
    if count < 0 or batch_size <= 0:
        raise UpdateError("random_batches needs count >= 0, batch_size > 0")
    n = graph.num_nodes
    if n < 2:
        raise UpdateError("random_batches needs at least 2 nodes")
    rng = np.random.default_rng(seed)
    # distinct present keys; deletes are only drawn once per key, so a
    # duplicated edge never gets double-deleted by the stream.
    present = np.unique(graph.csr.edge_keys())
    batches: list[UpdateBatch] = []
    for _ in range(count):
        n_ins = int(round(batch_size * insert_fraction))
        n_del = min(batch_size - n_ins, int(present.size))
        ins_keys = np.empty(0, dtype=np.int64)
        while ins_keys.size < n_ins:
            cand = rng.integers(
                0, n, size=(2 * (n_ins - ins_keys.size) + 2, 2)
            )
            ck = cand[:, 0].astype(np.int64) * n + cand[:, 1]
            pos = np.searchsorted(present, ck)
            hit = np.zeros(ck.size, dtype=bool)
            inside = pos < present.size
            hit[inside] = present[pos[inside]] == ck[inside]
            fresh = np.unique(ck[~hit])
            ins_keys = np.unique(np.concatenate([ins_keys, fresh]))
            ins_keys = ins_keys[:n_ins]
        del_keys = np.empty(0, dtype=np.int64)
        if n_del:
            del_keys = present[
                rng.choice(present.size, size=n_del, replace=False)
            ]
        batch = UpdateBatch(
            (ins_keys // n).astype(VID_DTYPE),
            (ins_keys % n).astype(VID_DTYPE),
            (del_keys // n).astype(VID_DTYPE),
            (del_keys % n).astype(VID_DTYPE),
        )
        present = np.union1d(
            np.setdiff1d(present, del_keys, assume_unique=True), ins_keys
        )
        batches.append(batch)
    return batches
