"""Dynamic-graph update microbenchmark: incremental CSR patch vs full
rebuild (DESIGN 4i).

The one update path — the server's — lands each
:class:`~repro.graphs.updates.UpdateBatch` through
:func:`~repro.core.epoch.checked_apply` (fault-probed ``O(m + k log k)``
CSR patch, verified, falling back to the from-scratch rebuild) and then
prepares a fresh engine on the updated graph.  The bench times that
patch per batch against the from-scratch oracle: rebuild the edge set
(two stable radix passes over all m edges) and re-run the whole layout
pipeline (``MixenEngine.prepare``).  The guard below requires a measured >= 3x
win at the smallest batch size.

Records the sweep to ``bench_results/update.json``.  Run from the repo
root::

    PYTHONPATH=src python benchmarks/bench_update.py
    PYTHONPATH=src python benchmarks/bench_update.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core import MixenEngine, checked_apply  # noqa: E402
from repro.graphs import load_dataset  # noqa: E402
from repro.graphs.updates import (  # noqa: E402
    random_batches,
    rebuild_from_batch,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--graph", default="wiki", help="proxy dataset (default wiki)"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (default 1.0)",
    )
    parser.add_argument(
        "--batch-sizes", default="8,64,512",
        help="comma-separated update-batch sizes (default 8,64,512)",
    )
    parser.add_argument(
        "--batches", type=int, default=6,
        help="update batches timed per size (default 6)",
    )
    parser.add_argument(
        "--kernel", default="reduceat",
        help="kernel of the rebuilt engine (default reduceat)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail unless the smallest batch size's patch path beats "
        "the full layout rebuild by this factor (default 3.0)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "bench_results" / "update.json")
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny scale and workload",
    )
    return parser


def _time_patch(graph, batches):
    """Per-batch seconds of the served patch: ``checked_apply`` chained
    over the stream."""
    patch_s = []
    current = graph
    for batch in batches:
        t0 = time.perf_counter()
        current, _ = checked_apply(current, batch)
        patch_s.append(time.perf_counter() - t0)
    return patch_s


def _time_rebuild(graph, batches, *, kernel):
    """Per-batch seconds of the from-scratch oracle: rebuild the edge
    set and re-run the whole layout pipeline."""
    layout_s = []
    current = graph
    for batch in batches:
        t0 = time.perf_counter()
        current = rebuild_from_batch(current, batch)
        engine = MixenEngine(current, kernel=kernel)
        engine.prepare()
        layout_s.append(time.perf_counter() - t0)
    return layout_s


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 0.25)
        args.batches = min(args.batches, 4)
        args.batch_sizes = "8,64"

    graph = load_dataset(args.graph, scale=args.scale)
    sizes = [int(s) for s in args.batch_sizes.split(",") if s.strip()]
    # untimed warm-up: the first call of each path pays one-time
    # imports (the fault-site registry, the kernels) that no served
    # update sees
    (warm,) = random_batches(graph, 1, sizes[0], seed=args.seed)
    _time_patch(graph, [warm])
    _time_rebuild(graph, [warm], kernel=args.kernel)

    sweeps = []
    for size in sizes:
        batches = random_batches(
            graph, args.batches, size, seed=args.seed
        )
        patch = _mean(_time_patch(graph, batches))
        layout = _mean(_time_rebuild(graph, batches, kernel=args.kernel))
        sweeps.append(
            {
                "batch_size": size,
                "batches": args.batches,
                "patch_s_per_batch": patch,
                "rebuild_s_per_batch": layout,
                "patch_speedup": layout / patch if patch else 0.0,
            }
        )

    payload = {
        "graph": graph.name,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "kernel": args.kernel,
        "sweeps": sweeps,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", "utf-8")

    for sweep in sweeps:
        print(
            f"batch {sweep['batch_size']:>4}: patch "
            f"{sweep['patch_s_per_batch'] * 1e3:.2f} ms vs rebuild "
            f"{sweep['rebuild_s_per_batch'] * 1e3:.2f} ms -> "
            f"{sweep['patch_speedup']:.1f}x"
        )
    print(f"[saved to {out}]")

    smallest = sweeps[0]
    if smallest["patch_speedup"] < args.min_speedup:
        print(
            f"FAIL: batch {smallest['batch_size']} patch speedup "
            f"{smallest['patch_speedup']:.2f}x is below the "
            f"{args.min_speedup:.1f}x guard",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
