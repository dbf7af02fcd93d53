"""The golden output ledger: one sha256 per algorithm x engine x kernel x
proxy run.

:func:`output_hash_lines` yields a ``# numpy <version> scipy <version>``
header, then one ``graph engine kernel algorithm sha256`` line per run,
so two trees can be compared with ``diff``: a refactor that claims
unchanged outputs must yield identical lines.  The pool kernels run at
two workers, so they execute their partitions instead of the serial
shortcut.

``bench_results/output_hashes.txt`` is the committed ledger at scale 1;
it is only comparable under the numpy/scipy versions its header names.
``python -m repro prove --update`` rewrites it (:func:`write_ledger`);
``tools/output_hashes.py`` prints the same lines for a ``diff``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterator

import numpy as np

#: the committed ledger, written by ``python -m repro prove --update``.
LEDGER_NAME = "output_hashes.txt"
#: proxy scale of the committed ledger.
LEDGER_SCALE = 1.0
LEDGER_GRAPHS = ("wiki", "pld")
KERNELS = ("bincount", "reduceat", "parallel", "parallel-mp", "default")


def digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def runs(engine, graph) -> Iterator[tuple[str, str]]:
    """``(algorithm, output digest)`` of every run on one engine."""
    from ..algorithms import CollaborativeFiltering, InDegree, PageRank
    from ..algorithms.hits import hits
    from ..serve.batcher import BatchedPersonalizedPageRank

    sources = [int(s) for s in np.argsort(-np.diff(graph.csr.indptr))[:2]]
    yield "pagerank", digest(engine.run(PageRank(), max_iterations=20).scores)
    yield "indegree", digest(engine.run(InDegree(), max_iterations=3).scores)
    cf = CollaborativeFiltering(factors=4, seed=1)
    yield "cf", digest(engine.run(cf, max_iterations=5).scores)
    result = hits(engine, max_iterations=10)
    yield "hits", digest(result.authorities, result.hubs)
    yield "bfs", digest(engine.run_bfs(sources[0]))
    ppr = BatchedPersonalizedPageRank([[s] for s in sources])
    yield "ppr-k2", digest(
        engine.run(ppr, max_iterations=10, check_convergence=False).scores
    )


def output_hash_lines(
    *, scale: float = LEDGER_SCALE, graphs=LEDGER_GRAPHS
) -> Iterator[str]:
    """The ledger's lines (header first) for ``graphs`` at ``scale``."""
    import scipy

    from ..algorithms.sssp import sssp
    from ..core.engine import MixenEngine
    from ..frameworks.blocking import BlockingEngine
    from ..graphs import load_dataset
    from ..parallel import procpool

    engines = {"mixen": MixenEngine, "block": BlockingEngine}
    yield f"# numpy {np.__version__} scipy {scipy.__version__}"
    try:
        for name in graphs:
            graph = load_dataset(name, scale=scale)
            source = int(np.argmax(np.diff(graph.csr.indptr)))
            distances = sssp(graph, source).distances
            yield f"{name} - - sssp {digest(distances)}"
            for engine_name, engine_cls in engines.items():
                for kernel in KERNELS:
                    options = {} if kernel == "default" else {"kernel": kernel}
                    engine = engine_cls(graph, max_workers=2, **options)
                    engine.prepare()
                    key = f"{name} {engine_name} {kernel}"
                    for algorithm, value in runs(engine, graph):
                        yield f"{key} {algorithm} {value}"
    finally:
        procpool.cleanup()


def write_ledger(path: str | os.PathLike) -> int:
    """Rewrite the ledger at ``path`` (scale 1, every proxy run);
    returns the number of hash lines written."""
    lines = list(output_hash_lines())
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines) - 1
