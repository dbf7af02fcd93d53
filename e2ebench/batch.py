"""Batch workloads (``rank-pld``, ``bfs-road``): inputs, the worker
process, output checks and the traced report.

The inputs are made here from the seed; the program's work runs in
``worker.py`` as a child process; every output is then checked against
``checks.py`` references.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from checks import (
    UNREACHED,
    adjacency,
    bfs_matches,
    bfs_reference,
    pagerank_residual,
)
from common import (
    ROOT,
    WORK,
    digest,
    median,
    metric,
    print_kinds,
    program_env,
)

#: batch workloads: proxy, scale and BFS operations per round (each
#: round takes fresh sources from a seeded pool of POOL_SIZE).
BATCH = {
    "rank-pld": {"graph": "pld", "scale": 4.0, "sources": 16},
    "bfs-road": {"graph": "road", "scale": 32.0, "sources": 4},
}
POOL_SIZE = 4096
SETUPS = 7
#: what ``main_p50_ms`` and ``side_p50_ms`` time on each batch workload,
#: as the report lines name them.
ROLE_NAMES = {
    "rank-pld": ("pagerank_ms", "bfs_ms"),
    "bfs-road": ("bfs_ms", "bfs_default_source_ms"),
}
TRACE_SETUPS = 3
#: PageRank defaults of the program (``repro.algorithms.PageRank``).
DAMPING = 0.85
TOLERANCE = 1e-10
#: worker time allowance beyond the measured window.
WORKER_SLACK_S = 110


def work_dir(workload: str, seed: int) -> Path:
    path = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_worker(spec: dict, out: Path, seconds: float) -> dict:
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")),
         str(spec_path)],
        cwd=ROOT,
        env=program_env(),
        stdout=sys.stderr,
        check=True,
        timeout=seconds + WORKER_SLACK_S,
    )
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def batch_inputs(workload: str, seed: int, out: Path):
    """The seeded proxy graph on disk, its adjacency and a seeded pool
    of BFS sources with out-edges."""
    from repro.graphs import load_dataset, save_csr

    cfg = BATCH[workload]
    graph = load_dataset(cfg["graph"], scale=cfg["scale"], seed=seed)
    csr = graph.csr
    path = out / "graph.csr.npz"
    save_csr(graph, path)
    a = adjacency(
        graph.num_nodes,
        np.repeat(np.arange(graph.num_nodes), np.diff(csr.indptr)),
        csr.indices,
    )
    out_degree = np.diff(a.indptr)
    rng = np.random.default_rng(seed)
    sources = rng.choice(np.flatnonzero(out_degree > 0), size=POOL_SIZE)
    return path, a, [int(s) for s in sources]


def batch_round(workload: str, a) -> list[dict]:
    """One round of operations; ``role`` names the metric it feeds and a
    BFS without a ``source`` takes the next one from the pool."""
    bfs = [{"kind": "bfs", "source": None}] * BATCH[workload]["sources"]
    if workload == "rank-pld":
        return [{"kind": "pagerank", "role": "main"}] + [
            {**op, "role": "side"} for op in bfs
        ]
    # the default source of ``python -m repro bfs``: highest out-degree
    default = int(np.argmax(np.diff(a.indptr)))
    return [{**op, "role": "main"} for op in bfs] + [
        {"kind": "bfs", "source": default, "role": "side"}
    ]


def load_outputs(out: Path) -> dict:
    return {
        path.stem: np.load(path)
        for path in sorted((out / "outputs").glob("*.npy"))
    }


def check_batch(result: dict, outputs, a) -> tuple[dict, bool, list[str]]:
    """Check every recorded operation.  Returns per-kind (attempted,
    failed), whether the checks rejected every deliberately wrong output
    (the PageRank vector scaled by 1+1e-6, one BFS level off by one) and
    messages for wrong outputs."""
    verdict: dict[str, bool] = {}
    rejected = True
    for key, value in outputs.items():
        if key == "pagerank":
            verdict[key] = pagerank_residual(a, value, DAMPING) <= TOLERANCE
            rejected &= (
                pagerank_residual(a, value * (1 + 1e-6), DAMPING) > TOLERANCE
            )
        else:
            reference = bfs_reference(a, int(key.split("-", 1)[1]))
            verdict[key] = bfs_matches(value, reference)
            rejected &= not bfs_matches(off_by_one(value), reference)
    digests = {key: digest(value) for key, value in outputs.items()}
    kinds = {"setup": [result["setups"], 0]}
    wrong: list[str] = []
    for record in result["records"]:
        key = record["key"]
        kind = "pagerank" if key == "pagerank" else "bfs"
        ok = verdict[key] and record["digest"] == digests[key]
        if kind == "pagerank":
            ok = ok and record["converged"]
        kinds.setdefault(kind, [0, 0])[0] += 1
        if not ok:
            kinds[kind][1] += 1
            wrong.append(f"{key}: output does not match the reference")
    return {k: tuple(v) for k, v in kinds.items()}, bool(rejected), wrong


def off_by_one(levels) -> np.ndarray:
    """``levels`` with one reached node's level raised by one."""
    bad = np.array(levels)
    reached = np.flatnonzero(bad != UNREACHED)
    bad[reached[reached.size // 2]] += 1
    return bad


def batch_workload(workload: str, seed: int, seconds: float, trace: bool):
    out = work_dir(workload, seed)
    try:
        csr_path, a, sources = batch_inputs(workload, seed, out)
        spec = {
            "csr": str(csr_path),
            "out": str(out),
            "seed": seed,
            "seconds": seconds,
            "setups": SETUPS,
            "trace_setups": TRACE_SETUPS,
            "trace": int(trace),
            "round": batch_round(workload, a),
            "source_pool": sources,
        }
        result = run_worker(spec, out, seconds)
        kinds, selftest_ok, wrong = check_batch(
            result, load_outputs(out), a
        )
        if trace:
            keep_trace(out / "spans.jsonl", workload, seed)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for message in wrong:
        print(f"WRONG {message}", file=sys.stderr)
    print_kinds(kinds)
    print(f"checker self-test: perturbed outputs rejected = {selftest_ok}")
    attempted = sum(k[0] for k in kinds.values())
    failed = sum(k[1] for k in kinds.values())
    correct = selftest_ok and not wrong
    if trace:
        report_trace(result)
        return correct, attempted, failed, per_layer(result["per_layer"])
    times = result["times_s"]
    main = median(times["main"]) * 1e3
    side = median(times["side"]) * 1e3
    main_name, side_name = ROLE_NAMES[workload]
    print(
        f"rounds {result['rounds']}; setup_s {median(result['setup_s']):.4f}; "
        f"{main_name} {main:.4f} (n={len(times['main'])}); "
        f"{side_name} {side:.4f} (n={len(times['side'])}); "
        f"peak_rss_mb {result['peak_rss_mb']:.1f}"
    )
    return correct, attempted, failed, {
        "setup_s": metric(median(result["setup_s"]), "s"),
        "main_p50_ms": metric(main, "ms"),
        "side_p50_ms": metric(side, "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


#: per-layer metric names and units, as BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    entry["name"]: entry["unit"]
    for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer"]
}


def per_layer(figures: dict) -> dict:
    return {
        name: metric(figures[name], unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def keep_trace(spans: Path, workload: str, seed: int) -> None:
    target = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(spans, target)
    print(f"spans written to {target.relative_to(ROOT)}")


#: stated reconciliation tolerance (README): traced layer sums within
#: this share of the untraced end-to-end time.
RECONCILE_TOLERANCE_PCT = 15.0


def report_trace(result: dict) -> None:
    figures = result["per_layer"]
    rec = result["reconcile"]
    for name, unit in PER_LAYER_UNITS.items():
        print(f"layer {name} = {figures[name]:.6g} {unit}")
    for what in ("setup", "pagerank"):
        gap = figures[f"trace.{what}_gap_pct"]
        verdict = (
            "reconciled" if abs(gap) <= RECONCILE_TOLERANCE_PCT
            else "NOT reconciled"
        )
        print(
            f"{what}: untraced {rec[f'{what}_plain_s']:.4f} s, layer sum "
            f"{rec[f'{what}_layers_s']:.4f} s, gap {gap:+.1f}% — {verdict} "
            f"(tolerance {RECONCILE_TOLERANCE_PCT:.0f}%)"
        )
    print(f"tracing overhead {figures['trace.overhead_pct']:+.2f}%")


