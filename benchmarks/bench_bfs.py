"""BFS benchmark: per-engine traversal time and the direction switch.

Times ``engine.run_bfs`` on the road proxy (high diameter: hundreds of
levels, nearly all sparse) and the pld proxy (skewed: a handful of
levels, a few of them dense) for Mixen, the blocked GPOP baseline and
Ligra, from the default source (highest out-degree, as ``python -m
repro bfs``) and from 8 seeded sources with out-edges.  For each engine
and source set it records the median and quartile times and, from one
untimed counting run per source, how many levels the traversal took and
how many of them expanded top-down (sparse, below
:data:`repro.algorithms.bfs.DIRECTION_THRESHOLD` of the edges) or
through the engine's dense sweep.

The first BFS of each engine runs untimed: it pays one-time costs such
as the blocked layouts' lazily built source-major index.  There is no
guard and no baseline comparison.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_bfs.py
    PYTHONPATH=src python benchmarks/bench_bfs.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

from repro.algorithms import bfs as bfs_module  # noqa: E402
from repro.algorithms.bfs import (  # noqa: E402
    FrontierBfsStep,
    default_source,
    reference_bfs,
)
from repro.frameworks import ligra as ligra_module  # noqa: E402
from repro.frameworks import make_engine  # noqa: E402
from repro.graphs import load_dataset  # noqa: E402

#: (proxy, scale) pairs of the full run and of ``--quick``.
GRAPHS = (("road", 32.0), ("pld", 4.0))
QUICK_GRAPHS = (("road", 2.0), ("pld", 0.5))
ENGINES = ("mixen", "block", "ligra")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=1,
        help="graph and source seed (default 1)",
    )
    parser.add_argument(
        "--sources", type=int, default=8,
        help="seeded sources per graph (default 8)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timed runs per source (default 5)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "bench_results" / "bfs.json")
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small graphs, 2 sources, 1 repeat",
    )
    return parser


@contextmanager
def _counting(owner, attr: str, counts: dict, key: str):
    """Count calls of ``owner.attr`` into ``counts[key]``."""
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def branch_counts(engine, source: int) -> dict:
    """Levels of one BFS and how many took each branch: every level is
    one driver step, and a sparse level one call of the shared top-down
    helper (Ligra binds it at import, the blocked layouts at call
    time)."""
    counts = {"levels": 0, "sparse": 0}
    with ExitStack() as stack:
        stack.enter_context(
            _counting(FrontierBfsStep, "step", counts, "levels")
        )
        for module in (bfs_module, ligra_module):
            stack.enter_context(
                _counting(module, "top_down", counts, "sparse")
            )
        engine.run_bfs(source)
    counts["dense"] = counts["levels"] - counts["sparse"]
    return counts


def time_source(engine, source: int, repeats: int) -> list[float]:
    """Milliseconds of ``repeats`` BFS runs from ``source``."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.run_bfs(source)
        runs.append(1e3 * (time.perf_counter() - t0))
    return runs


def summarize(engine, sources, repeats: int) -> dict:
    """Median and quartile times over every run from ``sources`` plus
    per-source median time and level and branch counts."""
    runs, per_source = [], []
    for source in sources:
        times = time_source(engine, source, repeats)
        runs.extend(times)
        per_source.append(
            {
                "source": source,
                "ms": statistics.median(times),
                **branch_counts(engine, source),
            }
        )
    q1, q2, q3 = np.percentile(runs, [25, 50, 75])
    return {
        "median_ms": float(q2),
        "q1_ms": float(q1),
        "q3_ms": float(q3),
        "per_source": per_source,
    }


def bench_graph(name: str, scale: float, args) -> dict:
    graph = load_dataset(name, scale=scale, seed=args.seed)
    out_degree = graph.out_degrees()
    rng = np.random.default_rng(args.seed)
    seeded = [
        int(s)
        for s in rng.choice(np.flatnonzero(out_degree > 0), args.sources)
    ]
    default = default_source(graph)
    expect = reference_bfs(graph, default)
    result = {
        "graph": name,
        "scale": scale,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "default_source": default,
        "seeded_sources": seeded,
        "engines": {},
    }
    for engine_name in ENGINES:
        engine = make_engine(engine_name, graph)
        engine.prepare()
        # untimed first BFS, checked against the queue reference
        if not np.array_equal(engine.run_bfs(default), expect):
            raise SystemExit(f"{engine_name} BFS levels wrong on {name}")
        result["engines"][engine_name] = {
            "default": summarize(engine, [default], args.repeats),
            "seeded": summarize(engine, seeded, args.repeats),
        }
    return result


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    graphs = GRAPHS
    if args.quick:
        graphs = QUICK_GRAPHS
        args.sources = min(args.sources, 2)
        args.repeats = 1

    payload = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "seed": args.seed,
        "repeats": args.repeats,
        "threshold": bfs_module.DIRECTION_THRESHOLD,
        "graphs": [
            bench_graph(name, scale, args) for name, scale in graphs
        ],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", "utf-8")

    for entry in payload["graphs"]:
        for engine_name, cells in entry["engines"].items():
            for label, cell in cells.items():
                rows = cell["per_source"]
                print(
                    f"{entry['graph']:>4} {engine_name:>5} {label:>7}: "
                    f"{cell['median_ms']:8.2f} ms "
                    f"[{cell['q1_ms']:.2f}, {cell['q3_ms']:.2f}]  "
                    f"levels {sum(r['levels'] for r in rows)} "
                    f"(sparse {sum(r['sparse'] for r in rows)}, "
                    f"dense {sum(r['dense'] for r in rows)})"
                )
    print(f"[saved to {out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
