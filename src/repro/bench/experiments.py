"""Reproduction experiments: one function per paper table/figure.

Each function regenerates the rows/series of one table or figure from the
paper's evaluation (Section 6) on the proxy datasets and the simulated
machine, returning an :class:`~repro.bench.tables.ExperimentResult` whose
``render()`` prints the same layout the paper reports.  Shapes — who wins,
by roughly what factor, where the crossovers fall — are the reproduction
target; absolute numbers come from different "hardware" (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..algorithms import CollaborativeFiltering, InDegree, PageRank
from ..algorithms.bfs import default_source
from ..core import MixenEngine, model_for_engine
from ..core.perfmodel import measured_main_phase_counters
from ..frameworks import make_engine
from ..graphs import DATASET_NAMES, DATASETS, compute_stats, load_dataset
from ..machine import (
    DEFAULT_LATENCIES,
    SCALED_MACHINE,
    AccessTrace,
    AddressSpace,
    MemoryHierarchy,
    blocking_random_accesses,
    blocking_traffic_bytes,
    modeled_cycles,
    pull_random_accesses,
    pull_traffic_bytes,
)
from ..parallel import parallel_profile
from .runner import time_algorithm, time_bfs
from .tables import ExperimentResult, geomean_speedups

#: paper framework labels for the engines (Table 3/4 row names).
PAPER_FRAMEWORKS = {
    "mixen": "Mixen",
    "block": "GPOP",
    "ligra": "Ligra",
    "polymer": "Polymer",
    "graphmat": "GraphMat",
}

#: the three figure variants of Sections 6.3 (Mixen vs Block vs Pull).
FIG_VARIANTS = ("mixen", "block", "pull")

#: default block side in nodes for the scaled machine (2KB segment in the
#: 8KB simulated L2, mirroring the paper's 256KB block in the 1MB L2).
DEFAULT_BLOCK_NODES = 512


def _engine(name: str, graph, *, block_nodes: int = DEFAULT_BLOCK_NODES,
            **opts):
    if name == "mixen":
        return MixenEngine(graph, block_nodes=block_nodes, **opts)
    if name == "block":
        return make_engine(name, graph, block_nodes=block_nodes, **opts)
    return make_engine(name, graph, **opts)


def _traced_counters(name: str, graph, *, block_nodes=DEFAULT_BLOCK_NODES,
                     spec=SCALED_MACHINE, **opts):
    """One traced per-iteration propagation through the hierarchy.

    The blocked engines record the paper's access patterns whatever
    ``kernel`` they are built with, so the modeled figures (4–7, Table 3
    modeled, the tuner's objective) do not depend on the backend."""
    engine = _engine(name, graph, block_nodes=block_nodes, **opts)
    engine.prepare()
    trace = AccessTrace(AddressSpace(spec.line_bytes))
    if name == "mixen":
        engine.traced_main_iteration(trace)
    else:
        engine.traced_propagate(
            np.ones(graph.num_nodes), trace
        )
    hierarchy = MemoryHierarchy(spec)
    return hierarchy.run_trace(trace), engine


# --------------------------------------------------------------------- #
# Tables 1 and 2: dataset structure
# --------------------------------------------------------------------- #
def table1(*, scale: float = 1.0) -> ExperimentResult:
    """Table 1: structural characteristics of the proxy datasets."""
    result = ExperimentResult(
        name="table1_structure",
        title="Table 1: structural characteristics (percent)",
        headers=["graph", "V_hub", "E_hub", "Reg", "Seed", "Sink", "Iso"],
    )
    for name in DATASET_NAMES:
        stats = compute_stats(load_dataset(name, scale=scale))
        row = stats.table1_row()
        paper = DATASETS[name].paper_classes
        row["paper(Reg/Seed/Sink/Iso)"] = "/".join(
            str(round(100 * f)) for f in paper
        )
        result.rows.append(row)
    result.headers.append("paper(Reg/Seed/Sink/Iso)")
    result.notes.append(
        "proxies are synthetic stand-ins matched to the published profile"
    )
    return result


def table2(*, scale: float = 1.0) -> ExperimentResult:
    """Table 2: dataset attributes including alpha and beta."""
    result = ExperimentResult(
        name="table2_datasets",
        title="Table 2: proxy dataset attributes",
        headers=[
            "graph", "n", "m", "skewed", "directed", "alpha", "beta",
            "paper_alpha", "paper_beta",
        ],
    )
    for name in DATASET_NAMES:
        stats = compute_stats(load_dataset(name, scale=scale))
        row = stats.table2_row()
        row["paper_alpha"] = DATASETS[name].paper_alpha
        row["paper_beta"] = DATASETS[name].paper_beta
        result.rows.append(row)
    return result


# --------------------------------------------------------------------- #
# Table 3: execution time
# --------------------------------------------------------------------- #
def table3(
    *,
    scale: float = 1.0,
    iterations: int = 10,
    graphs=DATASET_NAMES,
    frameworks=tuple(PAPER_FRAMEWORKS),
    cf_factors: int = 8,
) -> ExperimentResult:
    """Table 3: per-iteration time (BFS: full run) per framework.

    Also computes the Section 6.2 headline: geometric-mean slowdown of
    each framework relative to Mixen over all (algorithm, graph) cases.
    """
    algorithms = {
        "InDegree": InDegree,
        "PageRank": PageRank,
        "CF": lambda: CollaborativeFiltering(factors=cf_factors),
    }
    result = ExperimentResult(
        name="table3_time",
        title=(
            "Table 3: graph processing time in seconds "
            "(per iteration except for BFS)"
        ),
        headers=["algorithm", "framework"] + list(graphs),
    )
    times: dict = {PAPER_FRAMEWORKS.get(f, f): {} for f in frameworks}
    for alg_name, factory in algorithms.items():
        for fw in frameworks:
            row = {
                "algorithm": alg_name,
                "framework": PAPER_FRAMEWORKS.get(fw, fw),
            }
            for gname in graphs:
                g = load_dataset(gname, scale=scale)
                engine = _engine(fw, g)
                t = time_algorithm(
                    engine, factory, iterations=iterations
                ).per_iteration
                row[gname] = t
                times[PAPER_FRAMEWORKS.get(fw, fw)][(alg_name, gname)] = t
            result.rows.append(row)
    # BFS: timed to convergence, like the paper.
    for fw in frameworks:
        row = {"algorithm": "BFS", "framework": PAPER_FRAMEWORKS.get(fw, fw)}
        for gname in graphs:
            g = load_dataset(gname, scale=scale)
            engine = _engine(fw, g)
            t = time_bfs(engine, default_source(g))
            row[gname] = t
            times[PAPER_FRAMEWORKS.get(fw, fw)][("BFS", gname)] = t
        result.rows.append(row)

    speedups = geomean_speedups(times, baseline="Mixen")
    result.extras["geomean_slowdown_vs_mixen"] = speedups
    for fw, ratio in speedups.items():
        if fw != "Mixen":
            result.notes.append(
                f"Mixen outperforms {fw} by {ratio:.2f}x (geomean; paper: "
                f"{_paper_headline(fw)})"
            )
    return result


def _paper_headline(framework: str) -> str:
    return {
        "GPOP": "3.42x",
        "Ligra": "7.81x",
        "Polymer": "19.37x",
        "GraphMat": "7.74x",
    }.get(framework, "n/a")


# --------------------------------------------------------------------- #
# Table 4: preprocessing overheads
# --------------------------------------------------------------------- #
def table4(*, scale: float = 1.0, graphs=DATASET_NAMES) -> ExperimentResult:
    """Table 4: preprocessing time per framework, with Mixen's
    filter/partition/prove breakdown.

    Every cell is the median of 7 fresh preparations; each row also
    carries the quartiles of every framework's total (``<framework>_q1``
    / ``_q3``), and the text table shows GPOP's and Mixen's."""
    from .runner import time_prepare

    result = ExperimentResult(
        name="table4_preprocessing",
        title=(
            "Table 4: preprocessing overheads (seconds, median of "
            "7 prepares; q1/q3 = quartiles)"
        ),
        headers=[
            "graph", "GPOP", "Ligra", "Polymer", "GraphMat",
            "Mixen_filter", "Mixen_partition", "Mixen_prove",
            "Mixen_total", "GPOP_q1", "GPOP_q3", "Mixen_q1", "Mixen_q3",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        row = {"graph": gname}
        for fw, label in (
            ("block", "GPOP"), ("ligra", "Ligra"),
            ("polymer", "Polymer"), ("graphmat", "GraphMat"),
            ("mixen", "Mixen_total"),
        ):
            timing = time_prepare(lambda fw=fw: _engine(fw, g))
            row[label] = timing.median
            stem = label.removesuffix("_total")
            row[f"{stem}_q1"] = timing.q1
            row[f"{stem}_q3"] = timing.q3
        for stage in ("filter", "partition", "prove"):
            row[f"Mixen_{stage}"] = timing.breakdown.get(stage, 0.0)
        result.rows.append(row)
    result.notes.append(
        "GPOP/Mixen ingest the CSR binary directly; Ligra/Polymer/GraphMat "
        "convert from edge lists (the paper's explanation of the gap)"
    )
    return result


# --------------------------------------------------------------------- #
# Figure 4: normalized time and memory traffic (Mixen / Block / Pull)
# --------------------------------------------------------------------- #
def fig4(
    *, scale: float = 2.0, iterations: int = 10, graphs=DATASET_NAMES
) -> ExperimentResult:
    """Figure 4: per-graph normalized execution time (bars) and DRAM
    traffic (dots) for Mixen and its Block/Pull variants."""
    result = ExperimentResult(
        name="fig4_traffic",
        title=(
            "Figure 4: normalized execution time / normalized memory "
            "traffic (per variant, 1.0 = worst on that graph)"
        ),
        headers=["graph"] + [f"{v}_time" for v in FIG_VARIANTS]
        + [f"{v}_traffic" for v in FIG_VARIANTS],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        times, traffics = {}, {}
        for variant in FIG_VARIANTS:
            counters, engine = _traced_counters(variant, g)
            traffics[variant] = counters.dram_bytes
            # Best of two timing runs: single-core wall clock is noisy.
            times[variant] = min(
                time_algorithm(
                    engine, InDegree, iterations=iterations
                ).per_iteration
                for _ in range(2)
            )
        t_max = max(times.values())
        f_max = max(traffics.values())
        row = {"graph": gname}
        for v in FIG_VARIANTS:
            row[f"{v}_time"] = times[v] / t_max if t_max else 0.0
            row[f"{v}_traffic"] = (
                traffics[v] / f_max if f_max else 0.0
            )
        result.rows.append(row)
        result.extras[gname] = {
            "seconds": times, "dram_bytes": traffics,
        }
    result.notes.append(
        "expected shape: Mixen lowest traffic everywhere; Pull lowest "
        "only on road (the paper's locality exception)"
    )
    return result


# --------------------------------------------------------------------- #
# Figure 5: L2 cache references split into hits and misses
# --------------------------------------------------------------------- #
def fig5(*, scale: float = 2.0, graphs=DATASET_NAMES) -> ExperimentResult:
    """Figure 5: normalized L2 references with hit/miss split."""
    result = ExperimentResult(
        name="fig5_l2cache",
        title=(
            "Figure 5: normalized L2 references (hits + misses; "
            "1.0 = Pull on that graph)"
        ),
        headers=["graph"]
        + [f"{v}_refs" for v in FIG_VARIANTS]
        + [f"{v}_miss_ratio" for v in FIG_VARIANTS],
    )
    overall = {v: {"refs": 0, "hits": 0} for v in FIG_VARIANTS}
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        refs, ratios = {}, {}
        for variant in FIG_VARIANTS:
            counters, _ = _traced_counters(variant, g)
            l2 = counters.caches["L2"]
            refs[variant] = l2.references
            ratios[variant] = l2.miss_ratio
            overall[variant]["refs"] += l2.references
            overall[variant]["hits"] += l2.hits
        base = refs["pull"] or 1
        row = {"graph": gname}
        for v in FIG_VARIANTS:
            row[f"{v}_refs"] = refs[v] / base
            row[f"{v}_miss_ratio"] = ratios[v]
        result.rows.append(row)
    for v in FIG_VARIANTS:
        tot = overall[v]
        miss = 1 - tot["hits"] / tot["refs"] if tot["refs"] else 0.0
        result.extras[f"{v}_overall_miss_ratio"] = miss
    result.notes.append(
        "paper: Pull misses 62% of L2 references; Mixen 27%, Block 29%"
    )
    return result


# --------------------------------------------------------------------- #
# Figures 6 and 7: block-size design space
# --------------------------------------------------------------------- #
DEFAULT_BLOCK_SWEEP = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _modeled_parallel_cycles(counters, engine) -> float:
    """Modeled 20-thread time of one Main-Phase iteration.

    Memory-system cycles (demand latency overlapped across cores, shared
    bandwidth) divided by the dynamic-scheduling efficiency of the
    engine's task list — the term that penalizes oversized blocks, which
    starve the threads (the paper's "at least 4 blocks per thread" rule,
    Section 6.4).
    """
    cores = SCALED_MACHINE.cores
    base = modeled_cycles(counters, DEFAULT_LATENCIES, cores=cores)
    profile = parallel_profile(engine, num_threads=cores)
    efficiency = max(profile.schedule.efficiency, 1.0 / cores)
    return base / efficiency


def fig6(
    *,
    scale: float = 2.0,
    graphs=DATASET_NAMES,
    block_sweep=DEFAULT_BLOCK_SWEEP,
) -> ExperimentResult:
    """Figure 6: normalized modeled execution time vs block size.

    The metric is the modeled cycle count of one Main-Phase iteration
    (demand latency + streaming bandwidth over the simulated hierarchy),
    the quantity through which the paper explains the L1/L2 sweet spot.
    """
    result = ExperimentResult(
        name="fig6_blocksize",
        title=(
            "Figure 6: normalized modeled time vs block size in nodes "
            "(1.0 = best per graph; L1 holds "
            f"{SCALED_MACHINE.l1_bytes // 4}, L2 "
            f"{SCALED_MACHINE.l2_bytes // 4} node properties)"
        ),
        headers=["graph"] + [str(c) for c in block_sweep] + ["best"],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        cycles = {}
        for c in block_sweep:
            counters, engine = _traced_counters("mixen", g, block_nodes=c)
            cycles[c] = _modeled_parallel_cycles(counters, engine)
        best = min(cycles.values())
        row = {"graph": gname}
        for c in block_sweep:
            row[str(c)] = cycles[c] / best if best else 0.0
        row["best"] = min(cycles, key=cycles.get)
        result.rows.append(row)
        result.extras[gname] = cycles
    result.notes.append(
        "paper: the optimum falls at an L1- or L2-sized block depending "
        "on whether the regular subgraph yields enough blocks to feed "
        "the threads"
    )
    return result


def fig7(
    *,
    scale: float = 2.0,
    graph: str = "pld",
    block_sweep=DEFAULT_BLOCK_SWEEP,
) -> ExperimentResult:
    """Figure 7: LLC hits and memory traffic vs block size (pld)."""
    result = ExperimentResult(
        name="fig7_pld_llc",
        title=f"Figure 7: LLC hits and DRAM traffic vs block size ({graph})",
        headers=[
            "block_nodes", "llc_hits", "dram_mbytes", "modeled_cycles",
        ],
    )
    g = load_dataset(graph, scale=scale)
    for c in block_sweep:
        counters, engine = _traced_counters("mixen", g, block_nodes=c)
        result.rows.append(
            {
                "block_nodes": c,
                "llc_hits": counters.caches["LLC"].hits,
                "dram_mbytes": counters.dram_bytes / 1e6,
                "modeled_cycles": _modeled_parallel_cycles(
                    counters, engine
                ),
            }
        )
    result.notes.append(
        "paper: tiny blocks overload LLC/memory; oversized blocks "
        "deteriorate again — the optimum sits at the L2-sized block"
    )
    return result


# --------------------------------------------------------------------- #
# Section 3 and Section 5 model validation
# --------------------------------------------------------------------- #
def motivation_models(*, graphs=DATASET_NAMES) -> ExperimentResult:
    """Section 3's analytic comparison of Pull vs Blocking, per graph."""
    result = ExperimentResult(
        name="motivation_models",
        title=(
            "Section 3 models: traffic (elements) and random accesses "
            "per iteration"
        ),
        headers=[
            "graph", "pull_traffic", "block_traffic",
            "pull_random", "block_random", "random_ratio",
        ],
    )
    c = DEFAULT_BLOCK_NODES
    for gname in graphs:
        g = load_dataset(gname)
        n, m = g.num_nodes, g.num_edges
        pr = pull_random_accesses(m)
        br = blocking_random_accesses(n, c)
        result.rows.append(
            {
                "graph": gname,
                "pull_traffic": pull_traffic_bytes(n, m),
                "block_traffic": blocking_traffic_bytes(n, m),
                "pull_random": pr,
                "block_random": br,
                "random_ratio": pr / br if br else float("inf"),
            }
        )
    result.notes.append(
        "blocking trades ~2x traffic for orders-of-magnitude fewer "
        "random accesses (the paper's wiki example: 172.2M vs 80.9K)"
    )
    return result


def perfmodel_validation(
    *, num_nodes: int = 8000, num_edges: int = 80_000,
    alphas=(0.2, 0.4, 0.6, 0.8, 1.0),
) -> ExperimentResult:
    """Section 5 validation: Eq. (1)–(2) against simulated counters.

    Sweeps the regular-node ratio with the profile generator and compares
    the predicted traffic/random-access *scaling* with the traced
    Main-Phase measurements.
    """
    from ..graphs.generators import GraphProfile, profile_graph

    result = ExperimentResult(
        name="perfmodel_validation",
        title="Section 5: Eq.(1)-(2) predictions vs simulated counters",
        headers=[
            "alpha", "beta", "predicted_bytes", "measured_bytes",
            "bytes_ratio", "predicted_rand", "measured_rand",
        ],
    )
    ratios = []
    for alpha in alphas:
        rest = 1.0 - alpha
        profile = GraphProfile(
            num_nodes=num_nodes,
            num_edges=num_edges,
            frac_regular=alpha,
            frac_seed=rest / 2,
            frac_sink=rest / 2,
            frac_isolated=0.0,
            beta=min(0.9, alpha + 0.1) if alpha < 1 else 1.0,
        )
        g = profile_graph(profile, seed=11, name=f"alpha{alpha}")
        engine = MixenEngine(g, block_nodes=DEFAULT_BLOCK_NODES)
        engine.prepare()
        model = model_for_engine(engine, property_bytes=4)
        counters = measured_main_phase_counters(engine)
        predicted = model.traffic_bytes()
        measured = counters.traffic.total_bytes
        ratio = measured / predicted if predicted else float("inf")
        ratios.append(ratio)
        result.rows.append(
            {
                "alpha": engine.alpha,
                "beta": engine.beta,
                "predicted_bytes": predicted,
                "measured_bytes": measured,
                "bytes_ratio": ratio,
                "predicted_rand": model.random_accesses(),
                "measured_rand": counters.traffic.stream_jumps,
            }
        )
    spread = (max(ratios) / min(ratios)) if ratios else 0.0
    result.extras["bytes_ratio_spread"] = spread
    result.notes.append(
        "Eq.(1) is validated by a near-constant measured/predicted ratio "
        f"across alpha (spread here: {spread:.2f}x); Eq.(2) by the "
        "measured stream (bin-switch) jumps growing with the predicted "
        "b^2 block count"
    )
    return result


# --------------------------------------------------------------------- #
# Ablations (DESIGN.md section 5)
# --------------------------------------------------------------------- #
def ablation_cache_step(
    *, scale: float = 1.0, iterations: int = 10,
    graphs=("weibo", "track", "wiki", "pld"),
) -> ExperimentResult:
    """Cache step on/off: the value of the static seed bins."""
    result = ExperimentResult(
        name="ablation_cache_step",
        title="Ablation: SCGA Cache step (static bins) on vs off",
        headers=[
            "graph", "cached_s_per_iter", "uncached_s_per_iter",
            "speedup", "cached_bytes", "uncached_bytes",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        row = {"graph": gname}
        for label, flag in (("cached", True), ("uncached", False)):
            engine = MixenEngine(
                g, block_nodes=DEFAULT_BLOCK_NODES, cache_step=flag
            )
            row[f"{label}_s_per_iter"] = time_algorithm(
                engine, InDegree, iterations=iterations
            ).per_iteration
            counters = measured_main_phase_counters(engine)
            row[f"{label}_bytes"] = counters.traffic.total_bytes
        row["speedup"] = (
            row["uncached_s_per_iter"] / row["cached_s_per_iter"]
            if row["cached_s_per_iter"]
            else 0.0
        )
        result.rows.append(row)
    result.notes.append(
        "expected: caching wins exactly where seed nodes carry many "
        "edges (weibo most, pld least)"
    )
    return result


def ablation_hub_reorder(
    *, scale: float = 2.0, graphs=("track", "wiki", "pld", "rmat"),
) -> ExperimentResult:
    """Hub relocation on/off: L2 demand hit ratio of the Main-Phase."""
    result = ExperimentResult(
        name="ablation_hub_reorder",
        title="Ablation: hub-first reordering (filter step 2) on vs off",
        headers=[
            "graph", "reordered_l2_hit", "plain_l2_hit",
            "reordered_cycles", "plain_cycles",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        row = {"graph": gname}
        for label, flag in (("reordered", True), ("plain", False)):
            counters, _ = _traced_counters(
                "mixen", g, hub_reorder=flag
            )
            row[f"{label}_l2_hit"] = counters.caches["L2"].hit_ratio
            row[f"{label}_cycles"] = modeled_cycles(counters)
        result.rows.append(row)
    result.notes.append(
        "expected: co-locating hubs raises cache hit ratios on skewed "
        "graphs (Section 6.3's second mechanism)"
    )
    return result


def ablation_load_balance(
    *, scale: float = 1.0, graphs=("wiki", "pld", "rmat", "kron"),
    block_nodes: int = 1024, threads: int = 20,
) -> ExperimentResult:
    """Block splitting on/off: modeled 20-thread speedup."""
    result = ExperimentResult(
        name="ablation_load_balance",
        title="Ablation: load-balanced block splitting on vs off",
        headers=[
            "graph", "balanced_speedup", "unbalanced_speedup",
            "balanced_tasks", "unbalanced_tasks",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        row = {"graph": gname}
        for label, flag in (("balanced", True), ("unbalanced", False)):
            engine = MixenEngine(g, block_nodes=block_nodes, balance=flag)
            engine.prepare()
            profile = parallel_profile(engine, num_threads=threads)
            row[f"{label}_speedup"] = profile.schedule.speedup
            row[f"{label}_tasks"] = profile.num_tasks
        result.rows.append(row)
    result.notes.append(
        "expected: splitting hub-heavy blocks recovers parallel speedup "
        "lost to the hub concentration the filter creates (Section 4.2)"
    )
    return result


def ablation_edge_compression(
    *, scale: float = 1.0, graphs=("weibo", "track", "wiki", "pld"),
) -> ExperimentResult:
    """Edge compression on/off: bin slots and simulated traffic."""
    result = ExperimentResult(
        name="ablation_edge_compression",
        title="Ablation: dynamic-bin edge compression on vs off",
        headers=[
            "graph", "raw_slots", "compressed_slots", "ratio",
            "raw_bytes", "compressed_bytes",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        engine = MixenEngine(g, block_nodes=DEFAULT_BLOCK_NODES)
        engine.prepare()
        stats = engine.bin_stats
        row = {
            "graph": gname,
            "raw_slots": stats.raw_messages,
            "compressed_slots": stats.compressed_messages,
            "ratio": stats.compression_ratio,
        }
        for label, flag in (("raw", False), ("compressed", True)):
            e = MixenEngine(
                g, block_nodes=DEFAULT_BLOCK_NODES, compress=flag
            )
            e.prepare()
            trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
            e.traced_main_iteration(trace)
            row[f"{label}_bytes"] = trace.traffic.total_bytes
        result.rows.append(row)
    result.notes.append(
        "expected: compression collapses hub fan-outs inside blocks, "
        "shrinking bin traffic most on the densest hub cores"
    )
    return result


def table3_modeled(
    *, scale: float = 2.0, graphs=DATASET_NAMES,
    frameworks=tuple(PAPER_FRAMEWORKS),
) -> ExperimentResult:
    """Table 3 companion: machine-modeled per-iteration cost.

    Wall-clock on the Python host compresses the gaps the paper measures,
    because its kernels pay C-loop costs rather than memory-system costs.
    This table re-derives the Table 3 comparison from the simulated
    memory hierarchy (modeled cycles per propagation iteration, serial),
    where the paper's random-access and traffic effects dominate —
    reproducing the larger spreads of the published numbers.
    """
    result = ExperimentResult(
        name="table3_modeled",
        title=(
            "Table 3 (modeled): per-iteration modeled cycles, "
            "normalized to Mixen per graph"
        ),
        headers=["framework"] + list(graphs) + ["geomean"],
    )
    cycles: dict = {}
    for fw in frameworks:
        cycles[fw] = {}
        for gname in graphs:
            g = load_dataset(gname, scale=scale)
            counters, _ = _traced_counters(fw, g)
            cycles[fw][gname] = modeled_cycles(counters)
    from .tables import geomean

    for fw in frameworks:
        row = {"framework": PAPER_FRAMEWORKS.get(fw, fw)}
        ratios = []
        for gname in graphs:
            ratio = (
                cycles[fw][gname] / cycles["mixen"][gname]
                if cycles["mixen"][gname]
                else 0.0
            )
            row[gname] = ratio
            ratios.append(ratio)
        row["geomean"] = geomean(ratios)
        result.rows.append(row)
    result.extras["cycles"] = cycles
    result.notes.append(
        "paper geomeans over Table 3: GPOP 3.42x, Ligra 7.81x, "
        "Polymer 19.37x, GraphMat 7.74x slower than Mixen"
    )
    return result


def extension_filtered_baselines(
    *, scale: float = 2.0, graphs=("weibo", "track", "wiki", "pld"),
    base: str = "graphmat",
) -> ExperimentResult:
    """Future-work study: Mixen's filter grafted onto a baseline engine.

    The paper's conclusion proposes extending Mixen to systems like
    GraphMat; :class:`~repro.core.extension.FilteredEngine` does exactly
    that.  This experiment compares the plain baseline with its filtered
    variant on the simulated machine (modeled cycles and L2 behaviour of
    one propagation).
    """
    from ..core.extension import FilteredEngine

    result = ExperimentResult(
        name="extension_filtered_baselines",
        title=(
            f"Extension: Mixen filter grafted onto {base} "
            "(modeled per-iteration cycles)"
        ),
        headers=[
            "graph", "plain_cycles", "filtered_cycles", "gain",
            "plain_l2_hit", "filtered_l2_hit",
        ],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        plain, _ = _traced_counters(base, g)
        engine = FilteredEngine(g, base=base)
        engine.prepare()
        trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
        engine.traced_propagate(np.ones(g.num_nodes), trace)
        hierarchy = MemoryHierarchy(SCALED_MACHINE)
        filtered = hierarchy.run_trace(trace)
        pc = modeled_cycles(plain)
        fc = modeled_cycles(filtered)
        result.rows.append(
            {
                "graph": gname,
                "plain_cycles": pc,
                "filtered_cycles": fc,
                "gain": pc / fc if fc else 0.0,
                "plain_l2_hit": plain.caches["L2"].hit_ratio,
                "filtered_l2_hit": filtered.caches["L2"].hit_ratio,
            }
        )
    result.notes.append(
        "the relabeled vertex set concentrates the hot gathers, the "
        "mechanism the paper expects the grafting to transfer"
    )
    return result


def reordering_comparison(
    *, scale: float = 2.0, graphs=("track", "wiki", "pld"),
    base: str = "pull",
) -> ExperimentResult:
    """Mixen's connectivity filter vs classic reorderings.

    Runs the same baseline engine on the graph relabeled by each
    strategy (original/shuffled, random, degree sort, hubs-first,
    Mixen's full filter) and compares the modeled propagation cost —
    situating the filter among the reordering literature the paper
    builds on.
    """
    from ..core.extension import FilteredEngine
    from ..graphs.reorder import REORDERINGS

    strategies = ["original", *sorted(REORDERINGS), "mixen-filter"]
    result = ExperimentResult(
        name="reordering_comparison",
        title=(
            f"Reorderings under the {base} engine "
            "(modeled per-iteration cycles, normalized to original)"
        ),
        headers=["graph", *strategies],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        cycles = {}
        baseline, _ = _traced_counters(base, g)
        cycles["original"] = modeled_cycles(baseline)
        for sname, strategy in REORDERINGS.items():
            relabeled = g.relabeled(strategy(g))
            counters, _ = _traced_counters(base, relabeled)
            cycles[sname] = modeled_cycles(counters)
        engine = FilteredEngine(g, base=base)
        engine.prepare()
        trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
        engine.traced_propagate(np.ones(g.num_nodes), trace)
        hierarchy = MemoryHierarchy(SCALED_MACHINE)
        cycles["mixen-filter"] = modeled_cycles(
            hierarchy.run_trace(trace)
        )
        row = {"graph": gname}
        for sname in strategies:
            row[sname] = cycles[sname] / cycles["original"]
        result.rows.append(row)
    result.notes.append(
        "degree sort and hubs-first capture most of the locality win; "
        "the connectivity filter adds the class grouping on top"
    )
    return result


def scaling_study(
    *, scale: float = 2.0, graphs=("weibo", "wiki", "pld", "urand"),
    thread_counts=(1, 2, 4, 8, 16, 20, 32),
    block_nodes: int = 128,
) -> ExperimentResult:
    """Strong-scaling study of Mixen's Main-Phase (modeled threads).

    Not a paper figure, but the natural companion to its 20-thread setup:
    modeled speedup of the blocked Main-Phase as the thread count grows,
    showing where the task supply (b^2 blocks after balancing) saturates.
    """
    result = ExperimentResult(
        name="scaling_study",
        title=(
            "Strong scaling: modeled Main-Phase speedup vs threads "
            f"(block_nodes={block_nodes})"
        ),
        headers=["graph", "tasks"] + [f"t{t}" for t in thread_counts],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        engine = MixenEngine(g, block_nodes=block_nodes)
        engine.prepare()
        row = {"graph": gname, "tasks": len(engine.partition.tasks)}
        for t in thread_counts:
            profile = parallel_profile(engine, num_threads=t)
            row[f"t{t}"] = profile.schedule.speedup
        result.rows.append(row)
    result.notes.append(
        "speedup saturates once threads approach tasks/4 — the paper's "
        "Section 6.4 rule in scaling form"
    )
    return result


def mrc_study(
    *, scale: float = 1.0, graphs=("track", "wiki", "pld"),
    capacities_kb=(1, 2, 4, 8, 16, 32, 64),
) -> ExperimentResult:
    """Miss-ratio curves of the demand access streams (reuse theory).

    Computes the exact LRU miss-ratio curve (Mattson stack distances) of
    each variant's *demand* accesses — the capacity-independent view of
    why Mixen's blocked gathers cache well at any size while Pull's
    per-edge gathers need the whole property vector resident.
    """
    from ..machine.reuse import miss_ratio_curve, reuse_distances

    capacities_lines = np.array(
        [kb * 1024 // SCALED_MACHINE.line_bytes for kb in capacities_kb]
    )
    result = ExperimentResult(
        name="mrc_study",
        title=(
            "Miss-ratio curves of demand accesses "
            "(fully-associative LRU, capacities in KB)"
        ),
        headers=["graph", "variant"] + [f"{kb}KB" for kb in capacities_kb],
    )
    for gname in graphs:
        g = load_dataset(gname, scale=scale)
        for variant in ("mixen", "pull"):
            engine = _engine(variant, g)
            engine.prepare()
            trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
            if variant == "mixen":
                engine.traced_main_iteration(trace)
            else:
                engine.traced_propagate(np.ones(g.num_nodes), trace)
            lines = trace.lines()[trace.demand_mask()]
            distances = reuse_distances(lines)
            curve = miss_ratio_curve(distances, capacities_lines)
            row = {"graph": gname, "variant": variant}
            for kb, miss in zip(capacities_kb, curve):
                row[f"{kb}KB"] = miss
            result.rows.append(row)
    result.notes.append(
        "Mixen's demand curve collapses within a block-sized cache; "
        "Pull's stays high until the whole property vector fits"
    )
    return result
