"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets`` — print the proxy datasets' Table 1/2 structure;
* ``run`` — run one algorithm on one graph with one engine (including
  the coupled hub/authority workloads ``hits`` and ``salsa``);
* ``bfs`` — run BFS and report reach/levels;
* ``sssp`` — run single-source shortest paths and report reach/depth;
* ``tune`` — auto-tune the reordering and ``block_nodes`` for one
  graph by sweeping the registered reorderings crossed with a
  block-size candidate list through the modeled Figure 6/7 cost
  (:mod:`repro.tuning`), and write a versioned, graph-fingerprinted
  config blob; ``run``/``bfs``/``sssp``/``serve`` consume it via
  ``--tuned <path>`` (explicit ``--reorder``/``--block-nodes``/
  ``--kernel`` flags always win);
* ``analyze`` — check every layout contract and the race-freedom proof
  of a dataset's prepared structures (:mod:`repro.analysis`); with
  ``--certify``, also verify the structures' proof certificates against
  the committed ledger;
* ``prove`` — run the numeric-safety dataflow pass, the registry
  exhaustiveness checks and the full structure x backend certification
  matrix, and verify (or with ``--update`` rewrite) the certificate
  ledger (:mod:`repro.analysis.certify`);
* ``experiment`` — regenerate one paper table/figure (or ``all``);
* ``engines`` — list the registered engines;
* ``serve`` — boot a Mixen engine through the persistent layout store
  (:mod:`repro.serve`) and either run the deterministic chaos drill
  (default: a seeded workload against the batched query server, every
  completed response checked bitwise against a fault-free offline
  run), run the update-stream drill (``--update-drill``: queries race
  a seeded edge-update stream, every response checked against a fresh
  build of the graph version its epoch names), or listen on a unix
  socket (``--socket``);
* ``query`` — client for a running ``serve --socket`` server: submit
  one personalized-PageRank query, stream an edge-update batch
  (``--insert``/``--delete``), or probe ``--health``/``--report``/
  ``--stop``.

``run`` and ``bfs`` accept ``--validate`` (contract checks after
prepare) and ``--race-check`` (instrumented schedule replay) on the
blocked engines.  ``run``, ``bfs`` and ``sssp`` expose the resilience
runtime (:mod:`repro.resilience`) — every iterative loop now runs on
the unified driver (:mod:`repro.core.driver`), so the same flags cover
all of them: ``--fault-inject`` for deterministic fault drills,
``--checkpoint-dir``/``--checkpoint-every``/``--resume`` for crash
recovery, and ``--guard`` for the numerical-health policies.

Failures exit with structured codes (see
:func:`repro.errors.exit_code_for`): contract violations 3, data races
4, ingestion errors 5, guard trips 6, checkpoint problems 7, stalls 8,
other resilience faults 9, proof failures 10, serve-layer failures
(overload sheds, expired deadlines, drill mismatches) 11, update
failures (malformed or rejected update batches, stale-epoch
checkpoints) 12, tuning failures (stale, mismatched or malformed
tuned-config blobs) 13, any other
:class:`~repro.errors.ReproError` 1 — each with a one-line
``error[Type]: ...`` summary on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bench
from .algorithms import ALGORITHMS
from .algorithms.bfs import default_source, num_reached
from .algorithms.hits import hits
from .algorithms.salsa import salsa
from .algorithms.sssp import sssp
from .core.kernels import KERNEL_NAMES
from .errors import ReproError, exit_code_for
from .core.permutation import unpermute_values
from .frameworks import engine_names, make_engine
from .graphs import DATASET_NAMES, REORDERINGS, load_dataset
from .resilience import ResilienceContext, ResilienceOptions
from .resilience.guards import GUARD_POLICIES

#: engines whose constructor understands the ``--kernel`` option.
KERNEL_ENGINES = ("mixen", "block")

#: coupled hub/authority workloads runnable via ``run --algorithm``;
#: they drive both propagation directions, so they live outside the
#: single-vector :data:`~repro.algorithms.ALGORITHMS` protocol registry.
COUPLED_ALGORITHMS = {"hits": hits, "salsa": salsa}

#: experiment name -> zero-argument callable.
EXPERIMENTS = {
    "table1": bench.table1,
    "table2": bench.table2,
    "table3": bench.table3,
    "table3-modeled": bench.table3_modeled,
    "table4": bench.table4,
    "fig4": bench.fig4,
    "fig5": bench.fig5,
    "fig6": bench.fig6,
    "fig7": bench.fig7,
    "motivation": bench.motivation_models,
    "perfmodel": bench.perfmodel_validation,
    "ablation-cache": bench.ablation_cache_step,
    "ablation-hubs": bench.ablation_hub_reorder,
    "ablation-balance": bench.ablation_load_balance,
    "ablation-compress": bench.ablation_edge_compression,
    "extension": bench.extension_filtered_baselines,
    "reordering": bench.reordering_comparison,
    "scaling": bench.scaling_study,
    "mrc": bench.mrc_study,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Mixen reproduction (Connectivity-Aware Link Analysis for "
            "Skewed Graphs, ICPP 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="show the proxy datasets")
    sub.add_parser("engines", help="list registered engines")

    run = sub.add_parser("run", help="run an algorithm")
    run.add_argument("--graph", choices=DATASET_NAMES, default="wiki")
    run.add_argument("--engine", default="mixen")
    run.add_argument(
        "--algorithm",
        choices=sorted([*ALGORITHMS, *COUPLED_ALGORITHMS]),
        default="pagerank",
    )
    run.add_argument("--iterations", type=int, default=100)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--top", type=int, default=5)
    _add_kernel_options(run)
    _add_resilience_options(run)

    bfs = sub.add_parser("bfs", help="run BFS")
    bfs.add_argument("--graph", choices=DATASET_NAMES, default="wiki")
    bfs.add_argument("--engine", default="mixen")
    bfs.add_argument("--source", type=int, default=None)
    bfs.add_argument("--scale", type=float, default=1.0)
    _add_kernel_options(bfs)
    _add_resilience_options(bfs)

    sssp_cmd = sub.add_parser(
        "sssp", help="run single-source shortest paths"
    )
    sssp_cmd.add_argument(
        "--graph", choices=DATASET_NAMES, default="wiki"
    )
    sssp_cmd.add_argument("--source", type=int, default=None)
    sssp_cmd.add_argument("--scale", type=float, default=1.0)
    sssp_cmd.add_argument(
        "--max-iterations", type=int, default=None,
        help="round cap (default: the node count)",
    )
    _add_tuning_options(sssp_cmd)
    _add_resilience_options(sssp_cmd)

    tune_cmd = sub.add_parser(
        "tune",
        help="auto-tune reordering and block size from the machine "
        "model, writing a graph-fingerprinted config blob",
    )
    tune_cmd.add_argument(
        "--graph", choices=DATASET_NAMES, default="wiki"
    )
    tune_cmd.add_argument("--scale", type=float, default=1.0)
    tune_cmd.add_argument(
        "--out", metavar="PATH", default=None,
        help="blob path (default bench_results/tuned/<graph>.json)",
    )
    tune_cmd.add_argument(
        "--orderings", metavar="LIST", default=None,
        help="comma-separated reorderings to sweep (default: 'none' "
        "plus the full registry)",
    )
    tune_cmd.add_argument(
        "--block-sweep", metavar="LIST", default=None,
        help="comma-separated block_nodes candidates "
        "(default 128,256,512,1024,2048; 512 always participates)",
    )
    tune_cmd.add_argument(
        "--json", action="store_true",
        help="also print the blob JSON",
    )

    analyze = sub.add_parser(
        "analyze",
        help="check layout contracts and the race-freedom proof",
    )
    analyze.add_argument(
        "--graph", choices=DATASET_NAMES, default="wiki"
    )
    analyze.add_argument("--scale", type=float, default=1.0)
    analyze.add_argument("--block-nodes", type=int, default=512)
    analyze.add_argument(
        "--dynamic", action="store_true",
        help="also replay the schedule with instrumentation",
    )
    analyze.add_argument(
        "--certify", action="store_true",
        help="also verify the structures' proof certificates against "
        "the committed ledger",
    )
    analyze.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="certificate ledger path (default: "
        "bench_results/certificates.json)",
    )

    prove = sub.add_parser(
        "prove",
        help="numeric-safety dataflow pass, registry checks and the "
        "proof-certificate matrix",
    )
    prove.add_argument(
        "--graph", choices=DATASET_NAMES, default="wiki"
    )
    prove.add_argument("--scale", type=float, default=0.25)
    prove.add_argument("--block-nodes", type=int, default=512)
    prove.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="certificate ledger path (default: "
        "bench_results/certificates.json)",
    )
    prove.add_argument(
        "--update", action="store_true",
        help="rewrite the ledger from the freshly computed certificates "
        "instead of verifying against it",
    )

    serve = sub.add_parser(
        "serve",
        help="serve batched PPR queries (chaos drill or unix socket)",
    )
    serve.add_argument("--graph", choices=DATASET_NAMES, default="wiki")
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument(
        "--store-dir", metavar="DIR",
        default="bench_results/layout_store",
        help="boot-layout cache root (default "
        "bench_results/layout_store); a second boot with the same "
        "graph and block size is warm; layouts of later graph epochs "
        "stay in memory",
    )
    serve.add_argument(
        "--kernel", choices=KERNEL_NAMES, default="reduceat",
        help="serving kernel, the top rung of the degradation ladder "
        "(default reduceat; auto serves from reduceat)",
    )
    serve.add_argument(
        "--mp-workers", type=int, default=None, metavar="N",
        help="worker count for the parallel backends",
    )
    serve.add_argument(
        "--block-nodes", type=int, default=None, metavar="C",
        help="nodes per block (default 512, or the tuned blob's "
        "choice under --tuned)",
    )
    serve.add_argument(
        "--tuned", metavar="PATH", default=None,
        help="tuned-config blob written by 'repro tune'; supplies "
        "block_nodes unless --block-nodes is given, and is recorded "
        "in layout manifests so warm boots refuse a stale blob (the "
        "blob's reordering is not applied — serving keeps original "
        "node ids)",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="listen on a unix socket instead of running the drill",
    )
    drill = serve.add_argument_group("drill")
    drill.add_argument(
        "--requests", type=int, default=24,
        help="synthetic requests in the drill workload (default 24)",
    )
    drill.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; the same seed replays the same drill",
    )
    drill.add_argument(
        "--fault-inject", metavar="SPEC", default=None,
        help="arm a fault spec for the drill, e.g. "
        "'crash:site=serve_batch,times=2;corrupt:site=serve_store'",
    )
    drill.add_argument(
        "--no-verify", action="store_true",
        help="skip the offline bit-identity verification",
    )
    drill.add_argument(
        "--expect-warm", action="store_true",
        help="fail unless the boot was a warm store hit (preprocessing "
        "skipped)",
    )
    drill.add_argument(
        "--json", action="store_true",
        help="print the drill report as JSON",
    )
    updates = serve.add_argument_group("update stream")
    updates.add_argument(
        "--update-drill", action="store_true",
        help="run the update-stream chaos drill: queries race a seeded "
        "edge-update stream and every response is checked bitwise "
        "against a fresh build of the graph version its epoch names",
    )
    updates.add_argument(
        "--updates", type=int, default=4,
        help="update batches in the stream (default 4)",
    )
    updates.add_argument(
        "--queries-per-epoch", type=int, default=4, metavar="N",
        help="queries launched around each update (default 4)",
    )
    updates.add_argument(
        "--update-batch-size", type=int, default=8, metavar="K",
        help="edge operations per update batch (default 8)",
    )
    tune = serve.add_argument_group("server")
    tune.add_argument(
        "--window", type=float, default=0.02,
        help="batching window seconds (default 0.02)",
    )
    tune.add_argument("--max-batch", type=int, default=8)
    tune.add_argument("--max-queue", type=int, default=64)
    tune.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline seconds (default: none)",
    )
    tune.add_argument(
        "--batch-deadline", type=float, default=None,
        help="per-attempt watchdog seconds; a stalled batch degrades "
        "down the kernel ladder",
    )
    tune.add_argument(
        "--iterations", type=int, default=20,
        help="fixed PPR iteration budget per batch (default 20)",
    )
    tune.add_argument("--breaker-threshold", type=int, default=2)

    query = sub.add_parser(
        "query", help="query a running 'serve --socket' server"
    )
    query.add_argument(
        "--socket", metavar="PATH", required=True,
        help="unix socket of the serve process",
    )
    query.add_argument(
        "--sources", metavar="LIST", default=None,
        help="comma-separated PPR source nodes, e.g. '3,17'",
    )
    query.add_argument("--top", type=int, default=5)
    query.add_argument(
        "--insert", metavar="PAIRS", default=None,
        help="edges to insert as semicolon-separated src,dst pairs, "
        "e.g. '0,5;3,7' — sends one update batch instead of a query",
    )
    query.add_argument(
        "--delete", metavar="PAIRS", default=None,
        help="edges to delete (same syntax as --insert)",
    )
    query.add_argument(
        "--timeout", type=float, default=30.0,
        help="client-side reply timeout seconds (default 30)",
    )
    query.add_argument(
        "--health", action="store_true",
        help="print the server's health/readiness probe",
    )
    query.add_argument(
        "--report", action="store_true",
        help="print the server's serve report",
    )
    query.add_argument(
        "--stop", action="store_true",
        help="ask the server to drain-stop",
    )

    exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    exp.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifact to regenerate",
    )
    exp.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write .txt/.json under DIR",
    )
    return parser


def _add_kernel_options(parser) -> None:
    """Shared blocked-engine options of the ``run``/``bfs`` commands."""
    parser.add_argument(
        "--kernel", choices=KERNEL_NAMES, default=None,
        help="SpMV backend for the blocked engines "
        f"({', '.join(KERNEL_ENGINES)}; default reduceat, auto = "
        "reduceat, parallel/parallel-mp are opt-in pool rungs)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="check the layout/format contracts after prepare "
        f"({', '.join(KERNEL_ENGINES)})",
    )
    parser.add_argument(
        "--race-check", action="store_true",
        help="replay the parallel schedule with instrumentation and "
        "cross-check it against the static race proof",
    )
    parser.add_argument(
        "--mp-workers", type=int, default=None, metavar="N",
        help="worker count for the parallel/parallel-mp backends "
        "(default: the affinity-aware host width, capped by "
        "REPRO_MAX_WORKERS)",
    )
    parser.add_argument(
        "--block-nodes", type=int, default=None, metavar="C",
        help="nodes per block for the blocked engines "
        f"({', '.join(KERNEL_ENGINES)}; default 512)",
    )
    _add_tuning_options(parser)


def _add_tuning_options(parser) -> None:
    """Reordering/auto-tuning options shared by the graph commands."""
    parser.add_argument(
        "--reorder", choices=("none", *sorted(REORDERINGS)),
        default=None,
        help="relabel the graph with a registered reordering before "
        "running; reported node ids stay in the original space",
    )
    parser.add_argument(
        "--tuned", metavar="PATH", default=None,
        help="apply a tuned-config blob written by 'repro tune' "
        "(explicit --reorder/--block-nodes flags win; a blob minted "
        "for a different graph or scale is refused)",
    )


def _add_resilience_options(parser) -> None:
    """Resilience-runtime options shared by the iterative commands
    (``run``, ``bfs``, ``sssp``)."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--fault-inject", metavar="SPEC", default=None,
        help="deterministic fault drill, e.g. "
        "'crash:task=0,times=1;fail:kernel=reduceat,times=-1' "
        "(also via the REPRO_FAULTS env var)",
    )
    group.add_argument(
        "--retries", type=int, default=2,
        help="per-iteration retries before degrading (default 2)",
    )
    group.add_argument(
        "--retry-backoff", type=float, default=0.05,
        help="base backoff seconds, doubled per retry (default 0.05)",
    )
    group.add_argument(
        "--deadline", type=float, default=None,
        help="watchdog seconds per propagation; a stalled parallel "
        "dispatch degrades to the next backend",
    )
    group.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write atomic per-iteration snapshots under DIR",
    )
    group.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="snapshot every N iterations (default 1)",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir",
    )
    group.add_argument(
        "--guard", choices=GUARD_POLICIES, default=None,
        help="numerical-health policy for the evolving vector",
    )


def _resilience_context(args) -> ResilienceContext | None:
    """Build the supervision context from ``run`` flags (or ``None``)."""
    wanted = (
        args.fault_inject is not None
        or args.deadline is not None
        or args.checkpoint_dir is not None
        or args.resume
        or args.guard is not None
    )
    if not wanted:
        return None
    if args.resume and args.checkpoint_dir is None:
        raise ReproError("--resume requires --checkpoint-dir")
    options = ResilienceOptions(
        fault_spec=args.fault_inject,
        max_retries=args.retries,
        retry_backoff=args.retry_backoff,
        deadline=args.deadline,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        guard_policy=args.guard,
    )
    return ResilienceContext(options)


def _cmd_datasets(out) -> int:
    print(bench.table1().render(), file=out)
    print(file=out)
    print(bench.table2().render(), file=out)
    return 0


def _cmd_engines(out) -> int:
    for name in sorted(engine_names()):
        print(name, file=out)
    return 0


def _engine_options(args) -> dict:
    """Engine constructor options derived from CLI flags."""
    options = {}
    flags = (
        ("kernel", "--kernel", None),
        ("validate", "--validate", False),
        ("race_check", "--race-check", False),
        ("mp_workers", "--mp-workers", None),
        ("block_nodes", "--block-nodes", None),
    )
    for attr, flag, default in flags:
        value = getattr(args, attr, default)
        if value == default:
            continue
        if args.engine not in KERNEL_ENGINES:
            raise ReproError(
                f"engine {args.engine!r} has no kernel dispatch; "
                f"{flag} applies to: {', '.join(KERNEL_ENGINES)}"
            )
        # The engines take the pool width as ``max_workers``.
        options["max_workers" if attr == "mp_workers" else attr] = value
    return options


def _apply_tuning(args, graph):
    """Resolve ``--tuned``/``--reorder`` against ``graph``.

    Explicit flags always win over the blob.  Returns ``(graph, perm,
    block_nodes)``: the (possibly relabeled) graph, the applied
    permutation (``None`` for the identity), and the blob's
    ``block_nodes`` when the flag was not given explicitly (``None``
    otherwise — an explicit flag already flows through
    :func:`_engine_options`).
    """
    tuned = None
    if getattr(args, "tuned", None):
        from .tuning import load_tuned

        tuned = load_tuned(args.tuned, graph=graph)
    reorder = getattr(args, "reorder", None)
    if reorder is None:
        reorder = tuned.reorder if tuned is not None else "none"
    block_nodes = None
    if tuned is not None and getattr(args, "block_nodes", None) is None:
        block_nodes = tuned.block_nodes
    from .tuning import apply_reordering

    graph, perm = apply_reordering(graph, reorder)
    return graph, perm, block_nodes


def _map_source(source: int, perm, num_nodes: int) -> int:
    """Relabeled id of an original-space source node."""
    if perm is None:
        return source
    if not 0 <= source < num_nodes:
        raise ReproError(f"source {source} outside [0, {num_nodes})")
    return int(perm[source])


def _cmd_run(args, out) -> int:
    if args.algorithm in COUPLED_ALGORITHMS:
        return _cmd_run_coupled(args, out)
    graph = load_dataset(args.graph, scale=args.scale)
    graph, perm, tuned_block = _apply_tuning(args, graph)
    options = _engine_options(args)
    if tuned_block is not None and args.engine in KERNEL_ENGINES:
        options["block_nodes"] = tuned_block
    engine = make_engine(args.engine, graph, **options)
    prep = engine.prepare()
    algorithm = ALGORITHMS[args.algorithm]()
    resilience = _resilience_context(args)
    start = time.perf_counter()
    try:
        result = engine.run(
            algorithm,
            max_iterations=args.iterations,
            resilience=resilience,
        )
    finally:
        if resilience is not None:
            resilience.close()
    elapsed = time.perf_counter() - start
    print(
        f"{args.algorithm} on {args.graph} via {args.engine}: "
        f"{result.iterations} iterations in {elapsed:.3f}s "
        f"({result.seconds_per_iteration * 1e3:.3f} ms/iter), "
        f"prepare {prep.seconds * 1e3:.1f} ms, "
        f"converged={result.converged}",
        file=out,
    )
    phases = getattr(result, "phases", None)
    if phases:
        print(
            "  phases: "
            + ", ".join(
                f"{k} {s.seconds * 1e3:.2f} ms ({s.messages} msgs)"
                for k, s in phases.items()
            ),
            file=out,
        )
    if resilience is not None and resilience.report.num_events:
        print(resilience.report.render(), file=out)
    scores = result.scores
    if scores.ndim > 1:
        scores = np.linalg.norm(scores, axis=1)
    if perm is not None:
        # report in original node ids: out[v] = scores[perm[v]]
        scores = unpermute_values(scores, perm)
    top = np.argsort(scores)[-args.top:][::-1]
    for v in top.tolist():
        print(f"  node {v}: {scores[v]:.6g}", file=out)
    return 0


def _cmd_run_coupled(args, out) -> int:
    """``run`` for the driver-based hub/authority pair (HITS/SALSA)."""
    graph = load_dataset(args.graph, scale=args.scale)
    graph, perm, tuned_block = _apply_tuning(args, graph)
    options = _engine_options(args)
    if tuned_block is not None and args.engine in KERNEL_ENGINES:
        options["block_nodes"] = tuned_block
    engine = make_engine(args.engine, graph, **options)
    prep = engine.prepare()
    runner = COUPLED_ALGORITHMS[args.algorithm]
    resilience = _resilience_context(args)
    start = time.perf_counter()
    try:
        result = runner(
            engine,
            max_iterations=args.iterations,
            resilience=resilience,
        )
    finally:
        if resilience is not None:
            resilience.close()
    elapsed = time.perf_counter() - start
    print(
        f"{args.algorithm} on {args.graph} via {args.engine}: "
        f"{result.iterations} iterations in {elapsed:.3f}s, "
        f"prepare {prep.seconds * 1e3:.1f} ms, "
        f"converged={result.converged}",
        file=out,
    )
    if resilience is not None and resilience.report.num_events:
        print(resilience.report.render(), file=out)
    authorities, hubs = result.authorities, result.hubs
    if perm is not None:
        authorities = unpermute_values(authorities, perm)
        hubs = unpermute_values(hubs, perm)
    top = np.argsort(authorities)[-args.top:][::-1]
    for v in top.tolist():
        print(
            f"  node {v}: authority {authorities[v]:.6g}, "
            f"hub {hubs[v]:.6g}",
            file=out,
        )
    return 0


def _cmd_bfs(args, out) -> int:
    graph = load_dataset(args.graph, scale=args.scale)
    # the reported source id lives in the original space, so pick the
    # default before any relabeling
    source = (
        args.source if args.source is not None else default_source(graph)
    )
    graph, perm, tuned_block = _apply_tuning(args, graph)
    options = _engine_options(args)
    if tuned_block is not None and args.engine in KERNEL_ENGINES:
        options["block_nodes"] = tuned_block
    engine = make_engine(args.engine, graph, **options)
    engine.prepare()
    resilience = _resilience_context(args)
    start = time.perf_counter()
    try:
        levels = engine.run_bfs(
            _map_source(source, perm, graph.num_nodes),
            resilience=resilience,
        )
    finally:
        if resilience is not None:
            resilience.close()
    elapsed = time.perf_counter() - start
    reached = num_reached(levels)
    finite = levels[levels < np.iinfo(np.int64).max]
    print(
        f"BFS on {args.graph} via {args.engine} from node {source}: "
        f"reached {reached}/{graph.num_nodes} nodes, "
        f"depth {int(finite.max())}, {elapsed * 1e3:.2f} ms",
        file=out,
    )
    if resilience is not None and resilience.report.num_events:
        print(resilience.report.render(), file=out)
    return 0


def _cmd_sssp(args, out) -> int:
    graph = load_dataset(args.graph, scale=args.scale)
    source = (
        args.source if args.source is not None else default_source(graph)
    )
    graph, perm, _ = _apply_tuning(args, graph)
    resilience = _resilience_context(args)
    start = time.perf_counter()
    try:
        result = sssp(
            graph,
            _map_source(source, perm, graph.num_nodes),
            max_iterations=args.max_iterations,
            resilience=resilience,
        )
    finally:
        if resilience is not None:
            resilience.close()
    elapsed = time.perf_counter() - start
    finite = result.distances[np.isfinite(result.distances)]
    print(
        f"SSSP on {args.graph} from node {source}: "
        f"reached {result.num_reached}/{graph.num_nodes} nodes in "
        f"{result.iterations} rounds, max distance {finite.max():g}, "
        f"{elapsed * 1e3:.2f} ms",
        file=out,
    )
    if resilience is not None and resilience.report.num_events:
        print(resilience.report.render(), file=out)
    return 0


def _cmd_tune(args, out) -> int:
    from .tuning import CANDIDATE_BLOCK_NODES, tune_graph

    graph = load_dataset(args.graph, scale=args.scale)
    orderings = None
    if args.orderings:
        orderings = tuple(
            token.strip()
            for token in args.orderings.split(",")
            if token.strip()
        )
    block_sweep = CANDIDATE_BLOCK_NODES
    if args.block_sweep:
        try:
            block_sweep = tuple(
                int(token)
                for token in args.block_sweep.split(",")
                if token.strip()
            )
        except ValueError as exc:
            raise ReproError(f"bad --block-sweep: {exc}") from exc
    config = tune_graph(
        graph,
        name=args.graph,
        orderings=orderings,
        block_sweep=block_sweep,
    )
    path = config.save(
        args.out or f"bench_results/tuned/{args.graph}.json"
    )
    print(
        f"tuned {args.graph} (scale {args.scale:g}, "
        f"{len(config.sweep)} candidates): reorder={config.reorder}, "
        f"block_nodes={config.block_nodes} — modeled "
        f"{config.tuned_cycles:.0f} vs default "
        f"{config.default_cycles:.0f} cycles/iter "
        f"({config.gain:.2f}x)",
        file=out,
    )
    print(f"[saved to {path}] (blob {config.blob_id[:12]})", file=out)
    if args.json:
        import json

        print(
            json.dumps(config.to_json(), indent=2, sort_keys=True),
            file=out,
        )
    return 0


def _cmd_analyze(args, out) -> int:
    from .analysis.contracts import analyze_graph

    graph = load_dataset(args.graph, scale=args.scale)
    report = analyze_graph(
        graph,
        block_nodes=args.block_nodes,
        dynamic=args.dynamic,
    )
    print(report.render(), file=out)
    if args.certify:
        from .analysis.certify import (
            DEFAULT_LEDGER,
            CertificateLedger,
            build_certificates,
        )
        from .errors import ProofError

        ledger = CertificateLedger.load(args.ledger or DEFAULT_LEDGER)
        certs = build_certificates(graph, block_nodes=args.block_nodes)
        bad = []
        for cert in certs:
            status = ledger.verify(cert)
            mark = "ok  " if status == "verified" else "FAIL"
            print(
                f"  {mark}  {cert.kind}:{cert.structure}"
                f" x {cert.backend}: {status}"
                f" ({cert.certificate_id[:12]}, epoch {cert.epoch})",
                file=out,
            )
            if status != "verified":
                bad.append(f"{cert.key} is {status}")
        print(
            f"  {len(certs)} certificates verified against "
            f"{ledger.path}",
            file=out,
        )
        if bad:
            raise ProofError("; ".join(bad))
    return 0 if report.ok else 1


def _cmd_prove(args, out) -> int:
    from .analysis.certify import DEFAULT_LEDGER, run_prove

    report = run_prove(
        args.graph,
        scale=args.scale,
        block_nodes=args.block_nodes,
        ledger_path=args.ledger or DEFAULT_LEDGER,
        update=args.update,
    )
    print(report.render(), file=out)
    report.raise_on_failure()
    return 0


def _serve_config(args):
    from .resilience.retry import RetryPolicy
    from .serve import ServeConfig

    return ServeConfig(
        window=args.window,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        deadline=args.deadline,
        iterations=args.iterations,
        retry=RetryPolicy(
            max_retries=0, backoff=0.0, deadline=args.batch_deadline
        ),
        breaker_threshold=args.breaker_threshold,
    )


def _cmd_serve(args, out) -> int:
    from .serve import LayoutStore, run_drill, run_update_drill

    graph = load_dataset(args.graph, scale=args.scale)
    store = LayoutStore(args.store_dir)
    config = _serve_config(args)
    tuned = None
    if args.tuned:
        from .tuning import load_tuned

        tuned = load_tuned(args.tuned, graph=graph)
    block_nodes = args.block_nodes
    if block_nodes is None:
        block_nodes = tuned.block_nodes if tuned is not None else 512
    if args.socket:
        return _cmd_serve_socket(
            args, graph, store, config, block_nodes, tuned, out
        )
    if args.update_drill:
        report = run_update_drill(
            graph,
            store,
            updates=args.updates,
            queries_per_epoch=args.queries_per_epoch,
            update_batch_size=args.update_batch_size,
            seed=args.seed,
            kernel=args.kernel,
            max_workers=args.mp_workers,
            block_nodes=block_nodes,
            config=config,
            fault_spec=args.fault_inject,
            verify=not args.no_verify,
            tuned=tuned,
        )
        if args.json:
            import json

            print(json.dumps(report.to_json(), indent=2), file=out)
        else:
            print(report.render(), file=out)
        return 0
    report = run_drill(
        graph,
        store,
        requests=args.requests,
        seed=args.seed,
        kernel=args.kernel,
        max_workers=args.mp_workers,
        block_nodes=block_nodes,
        config=config,
        fault_spec=args.fault_inject,
        verify=not args.no_verify,
        expect_warm=args.expect_warm,
        tuned=tuned,
    )
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        print(report.render(), file=out)
    return 0


def _cmd_serve_socket(
    args, graph, store, config, block_nodes, tuned, out
) -> int:
    import asyncio
    import signal

    from .resilience import faults
    from .serve import MixenServer, boot_engine, ensure_warm, serve_socket

    if args.fault_inject:
        faults.install(faults.parse_fault_spec(args.fault_inject))
    try:
        engine, boot = boot_engine(
            graph,
            store,
            kernel=args.kernel,
            max_workers=args.mp_workers,
            block_nodes=block_nodes,
            tuned=tuned,
        )
        if args.expect_warm:
            ensure_warm(engine, boot)
        server = MixenServer(engine, config=config, boot=boot)

        async def _run() -> None:
            ready = asyncio.Event()
            task = asyncio.create_task(
                serve_socket(server, args.socket, ready=ready)
            )
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, task.cancel)
            await ready.wait()
            print(
                f"serving on {args.socket} "
                f"(boot {'hit' if boot.hit else 'miss'} in "
                f"{boot.seconds:.3f}s, kernel {args.kernel})",
                file=out,
                flush=True,
            )
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(_run())
    finally:
        if args.fault_inject:
            faults.clear()
    print(server.report.render(), file=out)
    return 0


def _cmd_query(args, out) -> int:
    import json

    from .serve import request as serve_request

    if args.health or args.report or args.stop:
        op = "health" if args.health else "report" if args.report else "stop"
        reply = serve_request(
            args.socket, {"op": op}, timeout=args.timeout
        )
        print(json.dumps(reply.get(op, reply), indent=2), file=out)
        return 0
    if args.insert or args.delete:
        message = {
            "op": "update",
            "inserts": _parse_pairs(args.insert),
            "deletes": _parse_pairs(args.delete),
        }
        reply = serve_request(args.socket, message, timeout=args.timeout)
        if not reply.get("ok"):
            print(
                f"error[{reply.get('error', 'UpdateError')}]: "
                f"{reply.get('message', '')}",
                file=sys.stderr,
            )
            return int(reply.get("code", 1))
        print(
            f"update applied: epoch {reply['epoch']}, "
            f"{reply['inserts']} inserts, {reply['deletes']} deletes"
            + (" (patch fell back to rebuild)"
               if reply.get("fell_back") else ""),
            file=out,
        )
        return 0
    if not args.sources:
        raise ReproError(
            "query needs --sources, --insert/--delete, or one of "
            "--health/--report/--stop"
        )
    sources = [
        int(token)
        for token in args.sources.split(",")
        if token.strip()
    ]
    reply = serve_request(
        args.socket,
        {"op": "query", "sources": sources, "top": args.top, "id": 0},
        timeout=args.timeout,
    )
    if not reply.get("ok"):
        print(
            f"error[{reply.get('error', 'ServeError')}]: "
            f"{reply.get('message', '')}",
            file=sys.stderr,
        )
        return int(reply.get("code", 1))
    print(
        f"ppr sources={sources}: epoch {reply.get('epoch', 0)}, "
        f"kernel {reply['kernel']}, "
        f"{reply['iterations']} iterations, batch {reply['batch_id']} "
        f"(size {reply['batch_size']}), "
        f"{reply['latency'] * 1e3:.1f} ms, "
        f"digest {reply['digest'][:16]}...",
        file=out,
    )
    for node, score in reply["top"]:
        print(f"  node {node}: {score:.6g}", file=out)
    return 0


def _parse_pairs(spec: str | None) -> list[list[int]]:
    """Parse ``'0,5;3,7'`` into ``[[0, 5], [3, 7]]`` (typed errors)."""
    from .errors import UpdateError

    if not spec:
        return []
    pairs = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(",")
        if len(parts) != 2:
            raise UpdateError(
                f"bad edge pair {token!r}: expected 'src,dst'"
            )
        try:
            pairs.append([int(parts[0]), int(parts[1])])
        except ValueError as exc:
            raise UpdateError(
                f"bad edge pair {token!r}: {exc}"
            ) from exc
    return pairs


def _cmd_experiment(args, out) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        result = EXPERIMENTS[name]()
        print(result.render(), file=out)
        print(file=out)
        if args.save:
            path = result.save(args.save)
            print(f"[saved to {path}]", file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets(out)
        if args.command == "engines":
            return _cmd_engines(out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "bfs":
            return _cmd_bfs(args, out)
        if args.command == "sssp":
            return _cmd_sssp(args, out)
        if args.command == "tune":
            return _cmd_tune(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "prove":
            return _cmd_prove(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "experiment":
            return _cmd_experiment(args, out)
    except ReproError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    raise AssertionError(f"unhandled command {args.command!r}")
