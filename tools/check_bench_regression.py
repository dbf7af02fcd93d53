#!/usr/bin/env python
"""Bench regression guard: compare a fresh kernel microbench run against
the committed baseline and fail on significant slowdowns.

Usage (as CI runs it)::

    PYTHONPATH=src taskset -c 0 python benchmarks/bench_kernels.py \
        --scale 17 --repeats 5 --out /tmp/kernels.json
    python tools/check_bench_regression.py --fresh /tmp/kernels.json \
        --baseline bench_results/kernels_ci.json

Committed baseline and fresh run usually come from different machines,
so absolute seconds are never compared.  The guarded metric is each
kernel's *speedup over the serial bincount baseline within the same
run* — a machine-portable ratio.  It is only meaningful on identical
benchmark configurations (same graph, block size, rank, and worker
count), so mismatched configs skip the guard with a notice instead of
producing cross-scale noise, and cases whose serial time sits under
``--min-seconds`` in either run are skipped as timer-noise-dominated.
A guarded kernel regresses when its speedup drops by more than
``--threshold`` (default 20%).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: kernels whose perf trajectory the guard protects.
GUARDED_KERNELS = ("reduceat", "parallel", "parallel-mp")

#: config keys that must match for speedups to be comparable.
CONFIG_KEYS = ("graph", "block_nodes", "rank", "workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--baseline",
        default=str(ROOT / "bench_results" / "kernels_ci.json"),
        help="committed baseline results (default: bench_results/)",
    )
    parser.add_argument(
        "--fresh",
        required=True,
        help="freshly produced results to compare against the baseline",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated fractional slowdown (default: 0.20)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=1e-3,
        help="skip cases whose serial time is below this floor in "
        "either run (timer noise; default: 1e-3)",
    )
    return parser


def comparable_configs(baseline: dict, fresh: dict) -> bool:
    """Speedup ratios only compare on identical benchmark setups."""
    return all(baseline.get(k) == fresh.get(k) for k in CONFIG_KEYS)


def speedup(case: dict, kernel: str) -> float | None:
    """The kernel's speedup over serial bincount within its own run."""
    base = case.get("seconds", {}).get("bincount")
    seconds = case.get("seconds", {}).get(kernel)
    if not base or not seconds:
        return None
    return base / seconds


def compare(baseline: dict, fresh: dict, args, out) -> list:
    regressions = []
    for case, fresh_case in fresh.get("cases", {}).items():
        base_case = baseline.get("cases", {}).get(case)
        if base_case is None:
            print(f"  {case}: no baseline, skipped", file=out)
            continue
        serial = [
            c.get("seconds", {}).get("bincount")
            for c in (base_case, fresh_case)
        ]
        if any(s is None or s < args.min_seconds for s in serial):
            print(
                f"  {case}: serial time under {args.min_seconds}s "
                "floor, skipped (timer noise)",
                file=out,
            )
            continue
        for kernel in GUARDED_KERNELS:
            was = speedup(base_case, kernel)
            now = speedup(fresh_case, kernel)
            if was is None or now is None or was <= 0:
                continue
            slowdown = 1.0 - now / was
            flag = "REGRESSION" if slowdown > args.threshold else "ok"
            print(
                f"  {case:<20} {kernel:<9} {was:8.3f} -> {now:8.3f} "
                f"({slowdown:+6.1%})  {flag}",
                file=out,
            )
            if slowdown > args.threshold:
                regressions.append((case, kernel, slowdown))
    return regressions


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to guard", file=out)
        return 0
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    if not comparable_configs(baseline, fresh):
        diffs = [
            k
            for k in CONFIG_KEYS
            if baseline.get(k) != fresh.get(k)
        ]
        print(
            "bench guard skipped: baseline and fresh configs differ "
            f"on {', '.join(diffs)} — speedups are not comparable "
            "across setups",
            file=out,
        )
        return 0
    print(
        "bench guard comparing speedup vs serial bincount "
        "(identical configs)",
        file=out,
    )
    regressions = compare(baseline, fresh, args, out)
    if regressions:
        worst = max(r[2] for r in regressions)
        print(
            f"{len(regressions)} regression(s) above "
            f"{args.threshold:.0%} (worst {worst:.1%})",
            file=out,
        )
        return 1
    print("bench guard passed", file=out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
