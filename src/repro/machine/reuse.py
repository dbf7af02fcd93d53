"""Reuse (stack) distance analysis for fully-associative LRU caches.

The stack distance of an access is the number of *distinct* lines touched
since the previous access to the same line; under fully-associative LRU with
capacity ``C`` lines, an access hits iff its stack distance is < C (Mattson's
classical result).  This gives the whole miss-ratio curve of a trace in one
pass, which the miss-ratio-curve study leans on.

:func:`reuse_distances` is exact, via a Fenwick tree (O(N log N), Python
loop; intended for proxy-sized traces).
"""

from __future__ import annotations

import numpy as np

from ..errors import MachineError

#: stack distance reported for cold (first-touch) accesses.
COLD = np.iinfo(np.int64).max


class _Fenwick:
    """Fenwick / binary indexed tree over ``n`` positions (prefix sums)."""

    def __init__(self, n: int) -> None:
        self.tree = np.zeros(n + 1, dtype=np.int64)
        self.n = n

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        while i <= self.n:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of positions [0, i]."""
        i += 1
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return int(s)


def reuse_distances(lines: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access (``COLD`` for first touch).

    Classic offline algorithm: keep a Fenwick tree holding a 1 at the most
    recent access position of every distinct line; the stack distance of an
    access at time ``t`` to a line last seen at ``t0`` is the number of ones
    in ``(t0, t)``.
    """
    lines = np.asarray(lines, dtype=np.int64)
    if lines.ndim != 1:
        raise MachineError("line stream must be 1-D")
    n = lines.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    fen = _Fenwick(n)
    last: dict[int, int] = {}
    for t, line in enumerate(lines.tolist()):
        t0 = last.get(line)
        if t0 is None:
            out[t] = COLD
        else:
            # ones strictly after t0 and before t
            out[t] = fen.prefix(t - 1) - fen.prefix(t0)
            fen.add(t0, -1)
        fen.add(t, 1)
        last[line] = t
    return out


def hits_from_distances(
    distances: np.ndarray, capacity_lines: int
) -> np.ndarray:
    """Hit flags under fully-associative LRU with ``capacity_lines`` lines."""
    if capacity_lines <= 0:
        raise MachineError(
            f"capacity must be positive, got {capacity_lines}"
        )
    distances = np.asarray(distances, dtype=np.int64)
    return (distances != COLD) & (distances < capacity_lines)


def miss_ratio_curve(
    distances: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """Miss ratio at each capacity (in lines) from one distance profile.

    One exact pass yields the entire curve — this is what makes the
    block-size sweep cheap.
    """
    distances = np.asarray(distances, dtype=np.int64)
    capacities = np.asarray(capacities, dtype=np.int64)
    if distances.size == 0:
        return np.ones(capacities.size, dtype=np.float64)
    finite_sorted = np.sort(distances[distances != COLD])
    # Hits at capacity C are the finite distances < C; cold accesses always
    # miss and are implicitly part of ``misses``.
    hits = np.searchsorted(finite_sorted, capacities, side="left")
    misses = distances.size - hits
    return misses / distances.size
