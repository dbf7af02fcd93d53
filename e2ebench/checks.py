"""Reference computations made apart from the program (scipy only).

Every workload's outputs are checked here:

* PageRank: the scores are a fixed point of
  ``x = (1-d)/n + d * A^T (x / outdeg)`` (dangling nodes contribute
  nothing), with L1 residual within the solver's tolerance;
* BFS: levels equal ``scipy.sparse.csgraph.shortest_path`` hop counts;
* PPR replies: each ``[node, score]`` matches a power iteration with the
  server's budget, and the returned nodes are the reference's largest,
  to within ``PPR_REL`` relative.  The reference runs on an edge set the
  checker keeps itself (:class:`EdgeSet`), replaying update batches.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

#: relative tolerance of a served PPR score.
PPR_REL = 1e-9
#: absolute floor under ``PPR_REL`` (scores of a unit mass, so far
#: below any reported score).
PPR_ABS = 1e-18
#: the program's marker for an unreached BFS node (int64 max).
UNREACHED = np.iinfo(np.int64).max


class EdgeSet:
    """The checker's own copy of a directed edge multiset."""

    def __init__(self, num_nodes: int, src, dst) -> None:
        self.n = int(num_nodes)
        self.keys = np.sort(
            np.asarray(src, dtype=np.int64) * self.n
            + np.asarray(dst, dtype=np.int64)
        )

    def apply(self, inserts, deletes) -> None:
        """Delete one stored copy per pair, then insert fresh pairs."""
        n = self.n
        if len(deletes):
            pairs = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
            del_keys = pairs[:, 0] * n + pairs[:, 1]
            pos = np.searchsorted(self.keys, del_keys)
            if np.any(pos >= self.keys.size) or np.any(
                self.keys[np.minimum(pos, self.keys.size - 1)] != del_keys
            ):
                raise ValueError("update deletes an absent edge")
            self.keys = np.delete(self.keys, pos)
        if len(inserts):
            pairs = np.asarray(inserts, dtype=np.int64).reshape(-1, 2)
            self.keys = np.sort(
                np.concatenate([self.keys, pairs[:, 0] * n + pairs[:, 1]])
            )

    def matrix(self) -> sp.csr_matrix:
        return adjacency(self.n, self.keys // self.n, self.keys % self.n)


def adjacency(n: int, src, dst) -> sp.csr_matrix:
    """``A[u, v]`` = number of ``u -> v`` edges."""
    data = np.ones(len(src), dtype=np.float64)
    return sp.csr_matrix((data, (src, dst)), shape=(n, n))


def inverse_out_degrees(a: sp.csr_matrix) -> np.ndarray:
    out = np.asarray(a.sum(axis=1)).ravel()
    inv = np.zeros_like(out)
    np.divide(1.0, out, out=inv, where=out > 0)
    return inv


def pagerank_residual(a: sp.csr_matrix, scores, damping: float) -> float:
    """L1 distance between ``scores`` and one PageRank step from them."""
    n = a.shape[0]
    x = np.asarray(scores, dtype=np.float64)
    step = (1.0 - damping) / n + damping * (
        a.T @ (x * inverse_out_degrees(a))
    )
    return float(np.abs(step - x).sum())


def bfs_reference(a: sp.csr_matrix, source: int) -> np.ndarray:
    """Hop counts from ``source`` (``inf`` where unreached)."""
    return shortest_path(
        a, directed=True, unweighted=True, indices=int(source)
    )


def bfs_matches(levels, reference) -> bool:
    levels = np.asarray(levels)
    reached = np.isfinite(reference)
    if not np.array_equal(levels != UNREACHED, reached):
        return False
    return bool(
        np.array_equal(levels[reached], reference[reached].astype(np.int64))
    )


def ppr_iterates(a: sp.csr_matrix, source_sets, iterations: int,
                 damping: float):
    """Columns ``j`` of the ``iterations``-step and one-step-further PPR
    iterates for each source set (teleport uniform over the set, start
    at the teleport vector, as the server's batched PPR does)."""
    n = a.shape[0]
    teleport = np.zeros((n, len(source_sets)))
    for j, sources in enumerate(source_sets):
        sources = np.unique(np.asarray(sources, dtype=np.int64))
        teleport[sources, j] = 1.0 / sources.size
    teleport *= 1.0 - damping
    at = a.T.tocsr()
    inv = inverse_out_degrees(a)[:, None]
    x = teleport.copy()
    for _ in range(iterations):
        x = teleport + damping * (at @ (x * inv))
    ahead = teleport + damping * (at @ (x * inv))
    return x, ahead


def sink_mask(a: sp.csr_matrix) -> np.ndarray:
    """Nodes with in-edges and no out-edges."""
    out = np.asarray(a.sum(axis=1)).ravel()
    into = np.asarray(a.sum(axis=0)).ravel()
    return (out == 0) & (into > 0)


def top_matches(top, reference, k: int) -> bool:
    """``top`` (``[[node, score], ...]``) matches ``reference``: each
    score to ``PPR_REL``, nodes distinct, in descending order, and each
    among the reference's ``k`` largest."""
    if len(top) != min(k, reference.size):
        return False
    nodes = [int(v) for v, _ in top]
    scores = [float(s) for _, s in top]
    if len(set(nodes)) != len(nodes):
        return False
    if any(b > a for a, b in zip(scores, scores[1:])):
        return False
    kth = float(np.partition(reference, -len(top))[-len(top)])
    for v, s in zip(nodes, scores):
        if not 0 <= v < reference.size:
            return False
        ref = float(reference[v])
        if abs(s - ref) > PPR_REL * abs(ref) + PPR_ABS:
            return False
        if ref < kth * (1.0 - PPR_REL) - PPR_ABS:
            return False
    return True


def check_ppr_reply(top, exact, ahead, sinks, k: int) -> str:
    """Classify one served top-``k`` list.

    ``"ok"``: matches the exact ``iterations``-step reference.
    ``"sink-step"``: matches only the reference whose sink entries are
    one propagation step ahead (the Post-Phase fault: the sink pull
    reads the final iterate).  ``"wrong"``: matches neither.
    """
    if top_matches(top, exact, k):
        return "ok"
    faulted = np.where(sinks, ahead, exact)
    if top_matches(top, faulted, k):
        return "sink-step"
    return "wrong"
