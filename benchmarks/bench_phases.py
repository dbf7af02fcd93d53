"""Pre-/Post-Phase segmented-reduce microbenchmark.

Times every reduce backend (bincount vs reduceat vs the pools) on one
synthetic skewed bipartite structure shaped like the Mixen boundary
phases: a *push* plan standing in for the Pre-Phase seed push
(seed -> regular CSR) and a *pull* plan standing in for the Post-Phase
sink pull (sink CSC).  Records per-backend timings plus speedups over
the serial bincount baseline to ``bench_results/phases.json`` in the
same schema as ``bench_kernels.py``, so ``tools/check_bench_regression``
guards the phase kernels with the identical >20% rule.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_phases.py
    PYTHONPATH=src python benchmarks/bench_phases.py --quick  # CI smoke
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
from repro.core.phases import (  # noqa: E402
    build_pull_plan,
    build_push_plan,
    phase_reduce,
)
from repro.graphs.csr import CSR  # noqa: E402
from repro.parallel.threadpool import default_workers  # noqa: E402

BASELINE = "bincount"

#: exponent of the power-ish destination skew (higher = more hub-heavy).
_SKEW = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=int, default=17,
        help="2**scale boundary rows (default 17 ~ 100k)",
    )
    parser.add_argument(
        "--edge-factor", type=int, default=8,
        help="boundary messages per row (default 8 ~ 1M messages)",
    )
    parser.add_argument(
        "--rank", type=int, default=8, help="columns of the rank-k cases"
    )
    parser.add_argument(
        "--repeats", type=int, default=7,
        help="timed repetitions per case (the minimum is recorded)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "bench_results" / "phases.json")
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny smoke configuration for CI (scale 10, 2 repeats)",
    )
    return parser


def skewed_bipartite(scale: int, edge_factor: int, *, seed: int) -> CSR:
    """A skewed boundary structure: many rows, hub-heavy destinations."""
    rows = 2 ** scale
    cols = max(rows // 2, 1)
    m = rows * edge_factor
    rng = np.random.default_rng(seed)
    src = rng.integers(0, rows, size=m, dtype=np.int64)
    dst = np.minimum(
        (rng.random(m) ** _SKEW * cols).astype(np.int64), cols - 1
    )
    csr, _ = CSR.from_edges_with_order(rows, src, dst, num_cols=cols)
    return csr


def time_phase(plan, x, *, kernel, repeats) -> float:
    phase_reduce(plan, x, kernel=kernel)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        phase_reduce(plan, x, kernel=kernel)
        best = min(best, time.perf_counter() - start)
    return best


def run_cases(args) -> dict:
    csr = skewed_bipartite(args.scale, args.edge_factor, seed=1)
    rng = np.random.default_rng(0)
    weights = rng.random(csr.num_edges) + 0.5
    kernels = tuple(KERNELS)
    results = {
        "graph": {
            "generator": "skewed-bipartite",
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "num_rows": csr.num_rows,
            "num_cols": csr.num_cols,
            "num_messages": csr.num_edges,
        },
        "rank": args.rank,
        "repeats": args.repeats,
        "workers": default_workers(),
        "baseline": BASELINE,
        "cases": {},
    }
    plans = {
        "push": lambda values: build_push_plan(csr, values=values),
        "pull": lambda values: build_pull_plan(csr, values=values),
    }
    for direction, build in plans.items():
        for weighted in (False, True):
            plan = build(weights if weighted else None)
            n = csr.num_rows if direction == "push" else csr.num_cols
            for rank in (None, args.rank):
                if rank is not None and (weighted or direction == "pull"):
                    continue  # keep the matrix of cases small
                x = rng.random(n) if rank is None else rng.random((n, rank))
                case = "{}-{}-{}".format(
                    direction,
                    "1d" if rank is None else f"rank{rank}",
                    "weighted" if weighted else "unweighted",
                )
                timings = {
                    name: time_phase(
                        plan, x, kernel=name, repeats=args.repeats
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
    return results


def render(results: dict) -> str:
    lines = [
        "phase microbench on skewed-bipartite(scale={scale}, "
        "ef={edge_factor}): {num_rows} rows -> {num_cols} cols, "
        "{num_messages} messages, {workers} worker(s)".format(
            **results["graph"], workers=results["workers"]
        )
    ]
    for case, data in results["cases"].items():
        parts = [
            f"{name} {seconds * 1e3:8.3f} ms"
            for name, seconds in data["seconds"].items()
        ]
        speedup = data[f"speedup_parallel_vs_{BASELINE}"]
        lines.append(
            f"  {case:<22} " + "  ".join(parts)
            + f"  (parallel {speedup:.2f}x vs {BASELINE})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 10)
        args.edge_factor = min(args.edge_factor, 4)
        args.repeats = min(args.repeats, 2)
    results = run_cases(args)
    print(render(results))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[saved to {out}]")
    return 0


# --------------------------------------------------------------------- #
# pytest entry points (the suite-wide convention: micro-benchmarks plus
# one smoke/report case)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bench_plans():
    csr = skewed_bipartite(12, 8, seed=1)
    return csr, build_push_plan(csr), build_pull_plan(csr)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_push_phase_kernel(benchmark, bench_plans, kernel):
    csr, push, _ = bench_plans
    x = np.random.default_rng(0).random(csr.num_rows)
    benchmark(phase_reduce, push, x, kernel=kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_pull_phase_kernel(benchmark, bench_plans, kernel):
    csr, _, pull = bench_plans
    x = np.random.default_rng(0).random(csr.num_cols)
    benchmark(phase_reduce, pull, x, kernel=kernel)


def test_report_phases(tmp_path):
    out = tmp_path / "phases.json"
    assert main(["--quick", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cases"]
    for case in data["cases"].values():
        assert set(case["seconds"]) == set(KERNELS)
        assert f"speedup_parallel_vs_{BASELINE}" in case


if __name__ == "__main__":
    raise SystemExit(main())
