"""Compressed sparse row adjacency, built from scratch.

``CSR`` stores one direction of adjacency: ``indptr`` (length
``num_rows + 1``) and ``indices`` (length ``m``).  The same class represents
both the paper's CSR (rows = sources, indices = out-neighbors) and CSC
(rows = destinations, indices = in-neighbors): a CSC of graph ``G`` is simply
the CSR of the transposed graph, which is how :meth:`CSR.transposed` produces
it.

Matrices may be rectangular (``num_rows != num_cols``): Mixen's mixed
representation carves rectangular sub-blocks out of the square adjacency
(seed rows -> regular columns, sink rows -> regular+seed columns), exactly the
"direct extraction from the existing CSR and CSC" described in Section 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import GraphFormatError
from ..types import EID_DTYPE, VID_DTYPE, as_vids
from .edgelist import EdgeList


@dataclass(frozen=True)
class CSR:
    """Compressed adjacency with ``num_rows`` rows over ``num_cols`` columns.

    ``indices[indptr[i]:indptr[i+1]]`` are the column ids adjacent to row
    ``i``, sorted ascending within each row.
    """

    num_rows: int
    num_cols: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=EID_DTYPE))
        indices = as_vids(self.indices)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.num_rows < 0 or self.num_cols < 0:
            raise GraphFormatError("matrix dimensions must be non-negative")
        if indptr.ndim != 1 or indptr.size != self.num_rows + 1:
            raise GraphFormatError(
                f"indptr must have length num_rows+1={self.num_rows + 1}, "
                f"got {indptr.size}"
            )
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphFormatError(
                f"indptr must span [0, {indices.size}], got "
                f"[{indptr[0]}, {indptr[-1]}]"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.num_cols
        ):
            raise GraphFormatError(
                f"indices fall outside [0, {self.num_cols})"
            )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, num_rows: int, src, dst, *, num_cols: int | None = None
    ) -> "CSR":
        """Build a CSR (rows = ``src``) from parallel endpoint arrays."""
        csr, _ = cls.from_edges_with_order(
            num_rows, src, dst, num_cols=num_cols
        )
        return csr

    @classmethod
    def from_edges_with_order(
        cls, num_rows: int, src, dst, *, num_cols: int | None = None
    ) -> tuple["CSR", np.ndarray]:
        """Like :meth:`from_edges`, also returning the edge order.

        ``order[k]`` is the input position of the edge stored at CSR slot
        ``k`` — the mapping needed to carry per-edge values (weights)
        through the build.
        """
        if num_cols is None:
            num_cols = num_rows
        src = as_vids(src)
        dst = as_vids(dst)
        if src.shape != dst.shape:
            raise GraphFormatError("src and dst lengths differ")
        if src.size:
            if int(src.min()) < 0 or int(src.max()) >= num_rows:
                raise GraphFormatError(
                    f"row ids fall outside [0, {num_rows})"
                )
        # lexsort((dst, src)) as two stable radix passes: minor key
        # first, so duplicate edges keep their input order.
        order = radix_order(dst, num_cols)
        order = order[radix_order(src[order], num_rows)]
        counts = np.bincount(src, minlength=num_rows)
        indptr = np.zeros(num_rows + 1, dtype=EID_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_rows, num_cols, indptr, dst[order]), order

    @classmethod
    def from_edgelist(cls, edges: EdgeList) -> "CSR":
        """Build a square CSR (rows = sources) from an :class:`EdgeList`."""
        return cls.from_edges(edges.num_nodes, edges.src, edges.dst)

    @classmethod
    def empty(cls, num_rows: int, num_cols: int | None = None) -> "CSR":
        """A CSR with no edges."""
        if num_cols is None:
            num_cols = num_rows
        return cls(
            num_rows,
            num_cols,
            np.zeros(num_rows + 1, dtype=EID_DTYPE),
            np.empty(0, dtype=VID_DTYPE),
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Node count for square adjacencies (raises if rectangular)."""
        if self.num_rows != self.num_cols:
            raise GraphFormatError(
                f"adjacency is rectangular ({self.num_rows}x{self.num_cols}); "
                "num_nodes is only defined for square matrices"
            )
        return self.num_rows

    @property
    def num_edges(self) -> int:
        """Number of stored non-zeros."""
        return int(self.indices.size)

    def degrees(self) -> np.ndarray:
        """Per-row neighbor counts."""
        return np.diff(self.indptr)

    def col_degrees(self) -> np.ndarray:
        """Per-column neighbor counts."""
        return np.bincount(self.indices, minlength=self.num_cols).astype(
            EID_DTYPE
        )

    def row(self, i: int) -> np.ndarray:
        """Column ids of row ``i`` (a view, do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def iter_rows(self) -> Iterator[np.ndarray]:
        """Iterate neighbor arrays row by row."""
        for i in range(self.num_rows):
            yield self.row(i)

    def nbytes(self, *, id_bytes: int = 4) -> int:
        """Memory footprint in bytes using ``id_bytes``-wide ids.

        Matches the paper's accounting where CSR occupies ``n + m``
        elements (we also count the final pointer slot).
        """
        return (self.indptr.size + self.indices.size) * id_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.num_rows, self.num_cols, self.num_edges))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def row_ids(self) -> np.ndarray:
        """Expanded per-edge row ids (the implicit CSR row of every edge)."""
        return np.repeat(
            np.arange(self.num_rows, dtype=VID_DTYPE), self.degrees()
        )

    def to_edgelist(self) -> EdgeList:
        """Expand a square CSR back to an edge list with ``src`` = rows."""
        return EdgeList(self.num_nodes, self.row_ids(), self.indices)

    def transposed(self) -> "CSR":
        """The transposed adjacency (CSC of the same non-zeros)."""
        return CSR.from_edges(
            self.num_cols, self.indices, self.row_ids(), num_cols=self.num_rows
        )

    def transposed_with_order(self) -> tuple["CSR", np.ndarray]:
        """Transpose plus the edge mapping: slot ``k`` of the transpose
        stores the non-zero at slot ``order[k]`` of this matrix.  Used to
        carry per-edge values across the CSR/CSC conversion."""
        return CSR.from_edges_with_order(
            self.num_cols, self.indices, self.row_ids(),
            num_cols=self.num_rows,
        )

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (small matrices only; test helper)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        rows = self.row_ids()
        np.add.at(dense, (rows, self.indices), 1)
        return dense

    def permuted(self, perm: np.ndarray) -> "CSR":
        """Relabel a square adjacency: node ``v`` becomes ``perm[v]``."""
        csr, _ = self.permuted_with_order(perm)
        return csr

    def permuted_with_order(
        self, perm: np.ndarray
    ) -> tuple["CSR", np.ndarray]:
        """Relabel plus the edge mapping into this matrix's slots."""
        n = self.num_nodes
        perm = np.asarray(perm)
        if perm.shape != (n,):
            raise GraphFormatError(
                f"permutation has shape {perm.shape}, expected ({n},)"
            )
        rows = perm[self.row_ids()].astype(VID_DTYPE)
        cols = perm[self.indices].astype(VID_DTYPE)
        return CSR.from_edges_with_order(n, rows, cols)

    def select_rows(self, rows) -> "CSR":
        """Extract the sub-CSR of the given rows, renumbered
        ``0..len(rows)-1``, keeping the original column space.

        This is the "direct extraction" the paper uses to carve the seed and
        regular sub-CSRs out of the original CSR without a format conversion
        (Section 4.1): only pointer arithmetic plus one bulk index gather.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (
            int(rows.min()) < 0 or int(rows.max()) >= self.num_rows
        ):
            raise GraphFormatError("selected rows out of range")
        degs = self.degrees()[rows] if rows.size else np.empty(0, EID_DTYPE)
        indptr = np.zeros(rows.size + 1, dtype=EID_DTYPE)
        if rows.size:
            np.cumsum(degs, out=indptr[1:])
        take = _slices_to_indices(self.indptr[rows], degs)
        return CSR(int(rows.size), self.num_cols, indptr, self.indices[take])

    def edge_keys(self) -> np.ndarray:
        """Globally sorted int64 edge keys ``row * num_cols + col``.

        Rows ascend and columns ascend within rows, so the flattened key
        array ascends globally — one :func:`np.searchsorted` locates any
        edge's slot without a per-row scan.
        """
        return (
            self.row_ids().astype(np.int64) * int(self.num_cols)
            + self.indices.astype(np.int64)
        )

    def patched(
        self,
        insert_src,
        insert_dst,
        delete_src,
        delete_dst,
    ) -> "CSR":
        """Apply a small edge batch without re-sorting the whole matrix.

        Deletes remove one stored occurrence per ``(src, dst)`` pair
        (raising :class:`GraphFormatError` when absent); inserts splice
        new columns into their rows at the canonically sorted slot.  The
        result is **bitwise identical** to :meth:`from_edges` over the
        updated edge multiset — same indptr, same indices — at
        ``O(m + k log k)`` without re-sorting the whole edge set, which
        is what makes amortized batch updates win.
        """
        ins_src, ins_dst = as_vids(insert_src), as_vids(insert_dst)
        del_src, del_dst = as_vids(delete_src), as_vids(delete_dst)
        for side, (s, d) in (
            ("insert", (ins_src, ins_dst)),
            ("delete", (del_src, del_dst)),
        ):
            if s.shape != d.shape:
                raise GraphFormatError(f"{side} src/dst lengths differ")
            if s.size and (
                int(s.min()) < 0
                or int(s.max()) >= self.num_rows
                or int(d.min()) < 0
                or int(d.max()) >= self.num_cols
            ):
                raise GraphFormatError(
                    f"{side} endpoints fall outside "
                    f"({self.num_rows}x{self.num_cols})"
                )
        keys = self.edge_keys()
        keep = np.ones(self.num_edges, dtype=bool)
        if del_src.size:
            del_keys = (
                del_src.astype(np.int64) * int(self.num_cols)
                + del_dst.astype(np.int64)
            )
            if keys.size == 0:
                raise GraphFormatError(
                    "delete batch names edges absent from the matrix"
                )
            pos = np.searchsorted(keys, del_keys, side="left")
            missing = (pos >= keys.size) | (
                keys[np.minimum(pos, keys.size - 1)] != del_keys
            )
            if bool(missing.any()):
                raise GraphFormatError(
                    "delete batch names edges absent from the matrix"
                )
            keep[pos] = False
        indices = self.indices[keep]
        if ins_src.size:
            ins_order = np.lexsort((ins_dst, ins_src))
            ins_src = ins_src[ins_order]
            ins_dst = ins_dst[ins_order]
            ins_keys = (
                ins_src.astype(np.int64) * int(self.num_cols)
                + ins_dst.astype(np.int64)
            )
            slots = np.searchsorted(keys[keep], ins_keys, side="left")
            indices = np.insert(indices, slots, ins_dst)
        counts = self.degrees().astype(np.int64)
        if del_src.size:
            counts -= np.bincount(del_src, minlength=self.num_rows)
        if ins_src.size:
            counts += np.bincount(ins_src, minlength=self.num_rows)
        indptr = np.zeros(self.num_rows + 1, dtype=EID_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSR(self.num_rows, self.num_cols, indptr, indices)

    def select_columns(self, col_keep: np.ndarray) -> "CSR":
        """Drop columns where ``col_keep`` is False and renumber the rest.

        ``col_keep`` is a boolean mask of length ``num_cols``.  Kept columns
        are renumbered by their rank among kept columns (order preserved).
        """
        col_keep = np.asarray(col_keep, dtype=bool)
        if col_keep.shape != (self.num_cols,):
            raise GraphFormatError(
                f"column mask has shape {col_keep.shape}, expected "
                f"({self.num_cols},)"
            )
        new_id = np.cumsum(col_keep, dtype=np.int64) - 1
        keep_edge = col_keep[self.indices]
        per_row = _segment_sum_bool(keep_edge, self.indptr)
        indptr = np.zeros(self.num_rows + 1, dtype=EID_DTYPE)
        np.cumsum(per_row, out=indptr[1:])
        indices = new_id[self.indices[keep_edge]].astype(VID_DTYPE)
        return CSR(self.num_rows, int(col_keep.sum()), indptr, indices)


#: digit width of :func:`radix_order`.
_DIGIT_BITS = 16


def radix_order(keys, bound: int | None = None) -> np.ndarray:
    """Stable sort order of non-negative integer ``keys``: the same
    permutation as ``np.argsort(keys, kind="stable")`` in O(m) per
    16-bit digit instead of O(m log m).

    An LSD radix sort: one stable argsort of a ``uint16`` digit per pass
    (numpy runs that as a counting radix sort), low digit first, as many
    passes as ``bound`` (an exclusive upper bound on the keys, their
    maximum + 1 when omitted) has 16-bit digits.  Chain two calls, minor
    key first, for a stable two-key order (``np.lexsort``).
    """
    keys = np.asarray(keys)
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    if bound is None:
        bound = int(keys.max()) + 1
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = _DIGIT_BITS
    while (int(bound) - 1) >> shift > 0:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += _DIGIT_BITS
    return order


def _segment_sum_bool(flags: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row count of True flags for a CSR edge-aligned boolean array."""
    csum = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def _slices_to_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand ``[start, start+length)`` slices into one flat index array."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum()) if lengths.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_starts[1:])
    idx = np.arange(total, dtype=np.int64)
    slice_of = np.repeat(np.arange(lengths.size), lengths)
    return idx - out_starts[slice_of] + np.asarray(starts, np.int64)[slice_of]
