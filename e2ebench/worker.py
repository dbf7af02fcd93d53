"""The process doing a batch workload's work, run as a child of run.py.

Usage: ``python3 e2ebench/worker.py SPEC.json`` with ``src`` on
``PYTHONPATH``.  The spec names a CSR file, BFS sources, a run length
and an output directory; the worker uses the program exactly as
``python -m repro run|bfs`` does (default engine options), times it and
writes:

* ``result.json`` — set-up and operation times, peak RSS, per-operation
  iteration counts and output digests (and, traced, per-layer figures);
* ``outputs/<key>.npy`` — the first output of each distinct operation,
  written when it is made, which run.py checks against its own
  references (later repeats must carry the same digest);
* ``spans.jsonl`` (traced only) — every recorded span.

Untraced, it sets up ``setups`` times and then repeats whole rounds of
operations for ``seconds``.  Traced, it runs each operation once without
and once with spans around the program's layer functions, then probes
each layer alone (kernels, phases, store boots, batched PPR, updates).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Tracer, digest, median  # noqa: E402

from repro.algorithms import PageRank  # noqa: E402
from repro.core.engine import MixenEngine  # noqa: E402
from repro.graphs import load_csr  # noqa: E402

#: ``python -m repro run``'s default iteration cap.
MAX_ITERATIONS = 100
#: ``python -m repro serve``'s PPR iteration budget.
SERVE_ITERATIONS = 20
#: repetitions of each single-layer probe (median reported).
PROBE_REPEATS = 7
#: operations of a traced run, each run untraced and traced in a pair.
TRACE_BFS = 8
#: PageRank pairs: at least TRACE_PAGERANK, more (up to the maximum)
#: until the untraced solves add up to TRACE_PAGERANK_S, so short solves
#: get enough pairs for their medians to reconcile.
TRACE_PAGERANK = 2
TRACE_PAGERANK_S = 4.0
TRACE_PAGERANK_MAX = 20
#: iteration cap of a traced solve: high enough for every workload's
#: graph to reach the tolerance (the road proxy needs ~146 iterations,
#: beyond the command line's default of 100), so the iteration count
#: is the graph's convergence count.
TRACE_MAX_ITERATIONS = 200


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outputs:
    """First output per distinct operation (saved to disk at once, so
    none is held in memory) plus a digest per call."""

    def __init__(self, root: Path) -> None:
        self.root = root / "outputs"
        self.root.mkdir(exist_ok=True)
        self.seen: set[str] = set()
        self.records: list[dict] = []

    def add(self, key: str, array: np.ndarray, **info) -> None:
        if key not in self.seen:
            self.seen.add(key)
            np.save(self.root / f"{key}.npy", array)
        self.records.append({"key": key, "digest": digest(array), **info})


def setup(path: str):
    """One set-up: CSR file on disk to a prepared engine."""
    t0 = time.perf_counter()
    graph = load_csr(path)
    engine = MixenEngine(graph)
    engine.prepare()
    return engine, time.perf_counter() - t0


def run_op(
    engine, op: dict, outputs: Outputs, max_iterations: int = MAX_ITERATIONS
) -> float:
    t0 = time.perf_counter()
    if op["kind"] == "pagerank":
        result = engine.run(PageRank(), max_iterations=max_iterations)
        elapsed = time.perf_counter() - t0
        outputs.add(
            "pagerank",
            result.scores,
            iterations=int(result.iterations),
            converged=bool(result.converged),
        )
    else:
        levels = engine.run_bfs(int(op["source"]))
        elapsed = time.perf_counter() - t0
        outputs.add(f"bfs-{op['source']}", levels)
    return elapsed


def run_plain(spec, out: Path) -> dict:
    setups = []
    engine = None
    for _ in range(spec["setups"]):
        engine = None
        gc.collect()
        engine, seconds = setup(spec["csr"])
        setups.append(seconds)
    outputs = Outputs(out)
    times: dict[str, list[float]] = {}
    rounds = 0
    pool = iter(spec["source_pool"])
    deadline = time.perf_counter() + spec["seconds"]
    while rounds == 0 or time.perf_counter() < deadline:
        for op in spec["round"]:
            if op["kind"] == "bfs" and op.get("source") is None:
                # each round takes fresh sources from the seeded pool
                op = {**op, "source": next(pool)}
            times.setdefault(op["role"], []).append(
                run_op(engine, op, outputs)
            )
        rounds += 1
    return {
        "setups": len(setups),
        "setup_s": setups,
        "times_s": times,
        "rounds": rounds,
        "records": outputs.records,
        "peak_rss_mb": peak_rss_mb(),
    }


# --------------------------------------------------------------------- #
# traced mode
# --------------------------------------------------------------------- #
class Patches:
    """Span wrappers around the program's layer functions.

    Each entry is ``(owner, attribute, span name)``; ``owner`` is the
    module or class whose attribute the engine looks up at call time.
    """

    def __init__(self, tracer: Tracer) -> None:
        import repro.analysis.certify as certify
        import repro.analysis.races as races
        import repro.core.engine as engine
        import repro.core.scga as scga
        import repro.core.scheduler as scheduler
        from repro.core.mixed_format import MixedGraph
        from repro.frameworks.blocking import BlockLayout

        self.tracer = tracer
        self.targets = [
            (sys.modules[__name__], "load_csr", "graphs.load_csr"),
            (engine, "filter_graph", "core.filter"),
            (engine, "build_mixed", "core.filter"),
            (engine, "partition_regular", "core.partition"),
            (engine, "dynamic_bin_stats", "core.partition"),
            (races, "prove_schedule", "analysis.prove"),
            (certify, "certify_layout", "analysis.prove"),
            (BlockLayout, "spmv", "core.kernels.spmv"),
            (BlockLayout, "frontier_step", "frameworks.frontier_step"),
            (scga, "phase_reduce", "core.phases.seed_push"),
            (scheduler, "phase_reduce", "core.phases.sink_pull"),
        ]
        self.properties = [
            (MixedGraph, "seed_push_plan", "core.phase_plans"),
            (MixedGraph, "sink_pull_plan", "core.phase_plans"),
        ]
        self.saved: list = []

    def install(self) -> None:
        from functools import cached_property

        for owner, attr, name in self.targets:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(original, name))
        for owner, attr, name in self.properties:
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            wrapped = cached_property(self.tracer.wrap(original.func, name))
            wrapped.__set_name__(owner, attr)
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


SETUP_LAYERS = (
    "graphs.load_csr",
    "core.filter",
    "core.partition",
    "core.phase_plans",
    "analysis.prove",
)


def paired(tracer: Tracer, patches: Patches, name: str, op: str, fn):
    """Run ``fn`` untraced, then again with the layer spans installed,
    back to back so host drift hits both alike.  Returns the untraced
    seconds, the traced seconds and the traced call's result."""
    t0 = time.perf_counter()
    fn()
    plain = time.perf_counter() - t0
    patches.install()
    try:
        with tracer.span(name, op=op) as record:
            result = fn()
    finally:
        patches.remove()
    return plain, (record["end_ns"] - record["start_ns"]) * 1e-9, result


def timed(fn, repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of ``repeats`` calls after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def probe_layers(spec, engine, out: Path) -> dict:
    """Each layer alone on the prepared engine of this workload."""
    import shutil

    from repro.core.engine import MixenEngine as Engine
    from repro.core.epoch import checked_apply
    from repro.core.phases import phase_reduce
    from repro.graphs import random_batches
    from repro.machine.model import MixenModel
    from repro.parallel import procpool
    from repro.serve import LayoutStore, boot_engine
    from repro.serve.batcher import BatchedPersonalizedPageRank

    rng = np.random.default_rng(spec["seed"])
    figures: dict[str, float] = {}
    layout = engine.partition.layout
    tasks = engine.partition.tasks
    x_reg = rng.random(engine.plan.num_regular)
    try:
        for kernel in ("bincount", "reduceat", "parallel", "parallel-mp"):
            figures[f"core.kernels.spmv_ms.{kernel}"] = 1e3 * timed(
                lambda k=kernel: layout.spmv(
                    x_reg,
                    kernel=k,
                    max_workers=engine.max_workers,
                    scatter_tasks=tasks,
                )
            )
    finally:
        procpool.cleanup()
    figures["core.kernels.pool_jobs"] = float(
        len(tasks) + layout.num_blocks_per_side
    )
    graph = engine.graph
    model = MixenModel(
        graph.num_nodes,
        graph.num_edges,
        engine.alpha,
        engine.beta,
        engine.block_nodes,
        property_bytes=8,
    )
    traffic = model.traffic_bytes()
    figures["machine.main_traffic_mb"] = traffic / 1e6
    figures["core.kernels.main_gbps"] = traffic / (
        figures[f"core.kernels.spmv_ms.{engine.kernel}"] * 1e-3
    ) / 1e9
    plan = engine.plan
    seed_input = rng.random(plan.num_seed)
    sink_input = rng.random(plan.num_regular + plan.num_seed)
    for name, phase_plan, values in (
        ("seed_push", engine.mixed.seed_push_plan, seed_input),
        ("sink_pull", engine.mixed.sink_pull_plan, sink_input),
    ):
        figures[f"core.phases.{name}_ms"] = 1e3 * timed(
            lambda p=phase_plan, v=values: phase_reduce(
                p, v, kernel=engine.kernel, max_workers=engine.max_workers
            )
        )

    cold, warm = [], []
    for i in range(3):
        root = out / f"store-{i}"
        store = LayoutStore(root)
        t0 = time.perf_counter()
        boot_engine(graph, store)
        cold.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _, report = boot_engine(graph, store)
        warm.append(time.perf_counter() - t0)
        if not report.hit:
            raise RuntimeError("second boot on a committed store missed")
        shutil.rmtree(root)
    figures["serve.store.cold_boot_s"] = median(cold)
    figures["serve.store.warm_boot_s"] = median(warm)

    sources = [int(s) for s in spec["source_pool"][:2]]
    for k in (1, 2):
        algorithm = BatchedPersonalizedPageRank(
            [[s] for s in sources[:k]]
        )
        figures[f"serve.batch_ms.k{k}"] = 1e3 * timed(
            lambda a=algorithm: engine.run(
                a, max_iterations=SERVE_ITERATIONS, check_convergence=False
            ),
            repeats=3,
        )

    apply_s, rebuild_s = [], []
    current = graph
    for batch in random_batches(graph, 3, 8, seed=spec["seed"]):
        t0 = time.perf_counter()
        current, _ = checked_apply(current, batch)
        apply_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        Engine(current).prepare()
        rebuild_s.append(time.perf_counter() - t0)
    figures["graphs.updates.apply_ms"] = 1e3 * median(apply_s)
    figures["core.engine.rebuild_s"] = median(rebuild_s)
    return figures


def run_traced(spec, out: Path) -> dict:
    """Each operation untraced and traced in pairs, then the probes."""
    tracer = Tracer()
    outputs = Outputs(out)
    patches = Patches(tracer)
    pairs: dict[str, list[tuple[float, float]]] = {}

    def pair(kind: str, i: int, fn):
        plain, traced, result = paired(
            tracer, patches, f"op.{kind}", f"{kind}-{i}", fn
        )
        pairs.setdefault(kind, []).append((plain, traced))
        return result

    # warm-up, unmeasured: the first set-up and BFS of a process pay
    # lazy imports and first-touch costs that would land on one side
    engine, _ = setup(spec["csr"])
    engine.run_bfs(int(spec["source_pool"][0]))
    for i in range(spec["trace_setups"]):
        engine = None
        gc.collect()
        engine = pair("setup", i, lambda: setup(spec["csr"])[0])
    i = 0
    while i < TRACE_PAGERANK or (
        sum(p for p, _ in pairs["pagerank"]) < TRACE_PAGERANK_S
        and i < TRACE_PAGERANK_MAX
    ):
        pair("pagerank", i, lambda: run_op(
            engine, {"kind": "pagerank"}, outputs, TRACE_MAX_ITERATIONS
        ))
        i += 1
    for j, source in enumerate(spec["source_pool"][:TRACE_BFS]):
        pair("bfs", j, lambda s=source: run_op(
            engine, {"kind": "bfs", "source": s}, outputs
        ))

    def plain(kind):
        return median([p for p, _ in pairs[kind]])

    setup_layers = {
        name: median(
            [
                tracer.total_s(name, f"setup-{i}")
                for i in range(len(pairs["setup"]))
            ]
        )
        for name in SETUP_LAYERS
    }
    solves = []
    for i, (_, traced) in enumerate(pairs["pagerank"]):
        op = f"pagerank-{i}"
        kernel = tracer.total_s("core.kernels.spmv", op)
        phases = tracer.total_s("core.phases.seed_push", op) + tracer.total_s(
            "core.phases.sink_pull", op
        )
        solves.append((traced, traced - kernel - phases))
    levels = tracer.durations_s("frameworks.frontier_step", "bfs-")
    per_bfs = [
        len(tracer.outermost("frameworks.frontier_step", f"bfs-{j}"))
        for j in range(len(pairs["bfs"]))
    ]
    pr_record = next(r for r in outputs.records if r["key"] == "pagerank")
    setup_sum = sum(setup_layers.values())
    # the solve's layers (kernels, phases, driver self time) sum to the
    # traced solve by construction, so its gap is tracing cost and drift
    pagerank_layers = median([t for t, _ in solves])
    all_plain = sum(p for v in pairs.values() for p, _ in v)
    all_traced = sum(t for v in pairs.values() for _, t in v)
    figures = {
        "graphs.load_csr_s": setup_layers["graphs.load_csr"],
        "core.filter_s": setup_layers["core.filter"],
        "core.partition_s": setup_layers["core.partition"],
        "core.phase_plans_s": setup_layers["core.phase_plans"],
        "analysis.prove_s": setup_layers["analysis.prove"],
        "algorithms.pagerank_iterations": float(pr_record["iterations"]),
        "core.driver.self_ms": 1e3 * median([s for _, s in solves]),
        "frameworks.frontier_step_ms": 1e3 * median(levels),
        "algorithms.bfs_levels": float(median(per_bfs)),
        "trace.setup_gap_pct": 100.0
        * (plain("setup") - setup_sum) / plain("setup"),
        "trace.pagerank_gap_pct": 100.0
        * (plain("pagerank") - pagerank_layers) / plain("pagerank"),
        "trace.overhead_pct": 100.0 * (all_traced - all_plain) / all_plain,
    }
    figures.update(probe_layers(spec, engine, out))
    tracer.dump(out / "spans.jsonl")
    return {
        "setups": 2 * len(pairs["setup"]),
        "records": outputs.records,
        "per_layer": figures,
        "reconcile": {
            "setup_plain_s": plain("setup"),
            "setup_layers_s": setup_sum,
            "pagerank_plain_s": plain("pagerank"),
            "pagerank_layers_s": pagerank_layers,
        },
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = Path(spec["out"])
    result = run_traced(spec, out) if spec["trace"] else run_plain(spec, out)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
