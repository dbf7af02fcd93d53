"""SpMV kernel microbenchmark: bincount vs reduceat vs thread/process pool.

Times every kernel backend on one R-MAT graph across the 1-D / rank-k and
unweighted / weighted cases, and records the per-kernel timings (plus
speedups over the serial bincount baseline) to
``bench_results/kernels.json`` so later PRs have a perf trajectory to
beat.  The default graph is the acceptance target: ``2**17`` ~ 100k nodes
and ~1M edges.

The report also carries an ``mp_model`` section: the stride-schedule
makespan model (:func:`repro.parallel.simthreads.mp_parallel_profile`)
predicts the process-pool speedup from the scatter-task load vector, and
is recorded next to the measured ``parallel-mp`` vs ``parallel`` ratio so
regressions in either the model or the pool show up in one place.

``--tuning`` switches to the auto-tuner comparison: every committed
proxy graph is tuned (:func:`repro.tuning.tune_graph`) and the modeled
per-iteration cycles of the tuned choice are recorded next to the
untuned default (reorder ``none`` at ``block_nodes=512``) in
``bench_results/tuning.json``.  The run fails if any graph tunes
modeled-slower than its default — the bench-guard invariant.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --tuning \
        --out bench_results/tuning.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.kernels import KERNELS  # noqa: E402
from repro.frameworks.blocking import build_block_layout  # noqa: E402
from repro.graphs.generators import rmat  # noqa: E402
from repro.parallel import procpool  # noqa: E402
from repro.parallel.simthreads import mp_parallel_profile  # noqa: E402
from repro.parallel.threadpool import default_workers  # noqa: E402

BASELINE = "bincount"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=int, default=17,
        help="R-MAT scale (n = 2**scale nodes; default 17 ~ 100k)",
    )
    parser.add_argument(
        "--edge-factor", type=int, default=8,
        help="edges per node before dedup (default 8 ~ 1M edges)",
    )
    parser.add_argument("--block-nodes", type=int, default=512)
    parser.add_argument(
        "--rank", type=int, default=8, help="columns of the rank-k cases"
    )
    parser.add_argument(
        "--repeats", type=int, default=7,
        help="timed repetitions per case (the minimum is recorded)",
    )
    parser.add_argument(
        "--mp-workers", type=int, default=None,
        help="process-pool width for the parallel-mp cases "
        "(default: affinity-aware default_workers())",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default bench_results/kernels.json, "
        "or bench_results/tuning.json under --tuning)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny smoke configuration for CI (scale 10, 2 repeats; "
        "proxy scale 0.25 under --tuning)",
    )
    tuning = parser.add_argument_group("tuning comparison")
    tuning.add_argument(
        "--tuning", action="store_true",
        help="compare the auto-tuned config against the untuned "
        "default on the committed proxy graphs (modeled cycles)",
    )
    tuning.add_argument(
        "--graphs", metavar="LIST", default=None,
        help="comma-separated proxy graphs to tune (default: all)",
    )
    tuning.add_argument(
        "--proxy-scale", type=float, default=1.0,
        help="proxy-graph scale for --tuning (default 1.0)",
    )
    return parser


def time_kernel(layout, x, *, repeats, **options) -> float:
    layout.spmv(x, **options)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        layout.spmv(x, **options)
        best = min(best, time.perf_counter() - start)
    return best


def mp_task_loads(layout) -> np.ndarray:
    """Per-task message loads of the mp plan (its non-empty
    block-column partitions)."""
    edges = np.diff(layout.reduce_plan.part_edge_ptr)
    return edges[edges > 0]


def run_cases(args) -> dict:
    graph = rmat(args.scale, args.edge_factor, seed=1)
    csr = graph.csr
    rng = np.random.default_rng(0)
    weights = rng.random(graph.num_edges) + 0.5
    kernels = tuple(KERNELS)
    mp_workers = args.mp_workers or default_workers()
    results = {
        "graph": {
            "generator": "rmat",
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        },
        "block_nodes": args.block_nodes,
        "rank": args.rank,
        "repeats": args.repeats,
        "workers": default_workers(),
        "mp_workers": mp_workers,
        "baseline": BASELINE,
        "cases": {},
    }
    unweighted_layout = None
    for weighted in (False, True):
        layout = build_block_layout(
            csr.row_ids(), csr.indices, graph.num_nodes,
            args.block_nodes, values=weights if weighted else None,
        )
        if not weighted:
            unweighted_layout = layout
        for rank in (None, args.rank):
            x = (
                rng.random(graph.num_nodes)
                if rank is None
                else rng.random((graph.num_nodes, rank))
            )
            case = "{}-{}".format(
                "1d" if rank is None else f"rank{rank}",
                "weighted" if weighted else "unweighted",
            )
            timings = {
                name: time_kernel(
                    layout, x, kernel=name, repeats=args.repeats,
                    max_workers=(
                        args.mp_workers
                        if name in ("parallel", "parallel-mp")
                        else None
                    ),
                )
                for name in kernels
            }
            speedups = {
                f"speedup_{name}_vs_{BASELINE}":
                    timings[BASELINE] / timings[name]
                for name in kernels
                if name != BASELINE
            }
            results["cases"][case] = {
                "seconds": timings, **speedups
            }
    # Model-vs-measured: the stride-schedule makespan model predicts
    # the pool speedup from the task load vector alone; the measured
    # ratio divides the thread rung by the process rung per case.
    profile = mp_parallel_profile(
        mp_task_loads(unweighted_layout), mp_workers
    )
    results["mp_model"] = {
        "num_workers": profile.num_workers,
        "num_tasks": profile.num_tasks,
        "modeled_speedup": profile.modeled_speedup,
        "balance": profile.balance,
        "measured_mp_vs_parallel": {
            case: data["seconds"]["parallel"]
            / data["seconds"]["parallel-mp"]
            for case, data in results["cases"].items()
        },
    }
    procpool.cleanup()
    return results


def run_tuning(args) -> dict:
    """Tune every proxy graph and compare against the untuned default.

    Raises :class:`RuntimeError` when any graph tunes modeled-slower
    than the default — the same invariant the CI bench-guard asserts.
    """
    from repro.graphs.datasets import DATASET_NAMES, load_dataset
    from repro.tuning import DEFAULT_BLOCK_NODES, DEFAULT_REORDER, tune_graph

    names = (
        [n.strip() for n in args.graphs.split(",") if n.strip()]
        if args.graphs
        else list(DATASET_NAMES)
    )
    results = {
        "scale": args.proxy_scale,
        "default": {
            "reorder": DEFAULT_REORDER,
            "block_nodes": DEFAULT_BLOCK_NODES,
        },
        "graphs": {},
    }
    for name in names:
        graph = load_dataset(name, scale=args.proxy_scale)
        config = tune_graph(graph, name=name)
        if config.tuned_cycles > config.default_cycles:
            raise RuntimeError(
                f"tuning guard: {name} tuned to "
                f"{config.reorder} is modeled "
                f"SLOWER than the default ({config.tuned_cycles:.0f} "
                f"> {config.default_cycles:.0f} cycles)"
            )
        results["graphs"][name] = {
            "reorder": config.reorder,
            "tuned_cycles": config.tuned_cycles,
            "default_cycles": config.default_cycles,
            "gain": config.gain,
            "fingerprint": config.fingerprint,
            "blob_id": config.blob_id,
        }
    return results


def render_tuning(results: dict) -> str:
    lines = [
        "auto-tuner vs default (modeled cycles/iter, scale "
        f"{results['scale']:g}, default "
        f"{results['default']['reorder']}:"
        f"{results['default']['block_nodes']})"
    ]
    for name, data in results["graphs"].items():
        lines.append(
            f"  {name:<8} {data['reorder']:>10} "
            f"tuned {data['tuned_cycles']:>12.0f}  "
            f"default {data['default_cycles']:>12.0f}  "
            f"gain {data['gain']:5.2f}x"
        )
    return "\n".join(lines)


def render(results: dict) -> str:
    lines = [
        "kernel microbench on rmat(scale={scale}, ef={edge_factor}): "
        "{num_nodes} nodes, {num_edges} edges, {workers} worker(s)".format(
            **results["graph"], workers=results["workers"]
        )
    ]
    for case, data in results["cases"].items():
        parts = [
            f"{name} {seconds * 1e3:8.3f} ms"
            for name, seconds in data["seconds"].items()
        ]
        speedup = data[f"speedup_reduceat_vs_{BASELINE}"]
        lines.append(
            f"  {case:<20} " + "  ".join(parts)
            + f"  (reduceat {speedup:.2f}x vs {BASELINE})"
        )
    model = results.get("mp_model")
    if model:
        measured = model["measured_mp_vs_parallel"]
        lines.append(
            "  mp model: {n} worker(s) over {t} task(s), predicted "
            "{pred:.2f}x, measured vs parallel "
            .format(
                n=model["num_workers"], t=model["num_tasks"],
                pred=model["modeled_speedup"],
            )
            + "  ".join(
                f"{case} {ratio:.2f}x" for case, ratio in measured.items()
            )
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 10)
        args.edge_factor = min(args.edge_factor, 4)
        args.repeats = min(args.repeats, 2)
        args.proxy_scale = min(args.proxy_scale, 0.25)
    if args.tuning:
        results = run_tuning(args)
        print(render_tuning(results))
        default_out = ROOT / "bench_results" / "tuning.json"
    else:
        results = run_cases(args)
        print(render(results))
        default_out = ROOT / "bench_results" / "kernels.json"
    out = Path(args.out) if args.out else default_out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[saved to {out}]")
    return 0


# --------------------------------------------------------------------- #
# pytest entry points (the suite-wide convention: micro-benchmarks plus
# one smoke/report case)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench_layout():
    graph = rmat(12, 8, seed=1)
    csr = graph.csr
    layout = build_block_layout(
        csr.row_ids(), csr.indices, graph.num_nodes, 512
    )
    return layout


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_propagate_kernel(benchmark, bench_layout, kernel):
    x = np.random.default_rng(0).random(bench_layout.num_nodes)
    benchmark(bench_layout.spmv, x, kernel=kernel)


def test_report_tuning(tmp_path):
    out = tmp_path / "tuning.json"
    assert main(
        ["--tuning", "--quick", "--graphs", "wiki,road",
         "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert set(data["graphs"]) == {"wiki", "road"}
    for entry in data["graphs"].values():
        # the bench-guard invariant: tuned never modeled-slower
        assert entry["tuned_cycles"] <= entry["default_cycles"]
        assert entry["gain"] >= 1.0


def test_report_kernels(tmp_path):
    out = tmp_path / "kernels.json"
    assert main(["--quick", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cases"]
    for case in data["cases"].values():
        assert set(case["seconds"]) == set(KERNELS)
        assert f"speedup_reduceat_vs_{BASELINE}" in case
        assert f"speedup_parallel-mp_vs_{BASELINE}" in case
    model = data["mp_model"]
    assert model["num_workers"] >= 1
    assert model["modeled_speedup"] >= 1.0
    assert set(model["measured_mp_vs_parallel"]) == set(data["cases"])


if __name__ == "__main__":
    raise SystemExit(main())
