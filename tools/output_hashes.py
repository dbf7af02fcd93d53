"""Hash the outputs of every algorithm x engine x kernel x proxy run.

Prints a ``# numpy <version> scipy <version>`` header, then one
``graph engine kernel algorithm sha256`` line per run, so two trees can
be compared with ``diff``: a refactor that claims unchanged outputs
must print identical lines.  The pool kernels run at two workers, so
they execute their partitions instead of the serial shortcut.

``bench_results/output_hashes.txt`` is the committed golden ledger at
``--scale 1``; it is only comparable under the numpy/scipy versions its
header names.  Regenerate it, or check a tree against it, with::

    PYTHONPATH=src python tools/output_hashes.py --scale 1 \
        > bench_results/output_hashes.txt
    diff bench_results/output_hashes.txt \
        <(PYTHONPATH=src python tools/output_hashes.py --scale 1)
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np
import scipy

from repro import load_dataset
from repro.algorithms import CollaborativeFiltering, InDegree, PageRank
from repro.algorithms.hits import hits
from repro.algorithms.sssp import sssp
from repro.core.engine import MixenEngine
from repro.frameworks.blocking import BlockingEngine
from repro.parallel import procpool
from repro.serve.batcher import BatchedPersonalizedPageRank

KERNELS = ("bincount", "reduceat", "parallel", "parallel-mp", "default")
ENGINES = {"mixen": MixenEngine, "block": BlockingEngine}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def runs(engine, graph):
    """``(algorithm, output digest)`` of every run on one engine."""
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--graphs", default="wiki,pld")
    args = parser.parse_args()
    print(f"# numpy {np.__version__} scipy {scipy.__version__}")
    try:
        for name in args.graphs.split(","):
            graph = load_dataset(name, scale=args.scale)
            source = int(np.argmax(np.diff(graph.csr.indptr)))
            print(name, "-", "-", "sssp", digest(sssp(graph, source).distances))
            for engine_name, engine_cls in ENGINES.items():
                for kernel in KERNELS:
                    options = {} if kernel == "default" else {"kernel": kernel}
                    engine = engine_cls(graph, max_workers=2, **options)
                    engine.prepare()
                    for algorithm, value in runs(engine, graph):
                        print(name, engine_name, kernel, algorithm, value)
    finally:
        procpool.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
