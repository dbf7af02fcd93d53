#!/usr/bin/env python3
"""Design-space walkthrough: the simulated machine and the block size.

Mirrors the paper's Sections 5 and 6.4 interactively: trace one
Main-Phase iteration through the simulated memory hierarchy, compare the
measured counters with the Eq.(1)-(2) analytic model, and sweep the block
size to find this graph's working point (the Figure 6/7 study in
miniature).

Run:  python examples/cache_study.py
"""

from __future__ import annotations

from repro import MixenEngine, SCALED_MACHINE, load_dataset
from repro.bench.sweep import sweep
from repro.core import iteration_counters, model_for_engine
from repro.machine import DEFAULT_LATENCIES, modeled_cycles
from repro.parallel import parallel_profile


def main() -> None:
    graph = load_dataset("pld", scale=2.0)
    print(f"graph: {graph}")
    print(
        f"simulated machine: L1={SCALED_MACHINE.l1_bytes}B "
        f"L2={SCALED_MACHINE.l2_bytes}B LLC={SCALED_MACHINE.llc_bytes}B, "
        f"{SCALED_MACHINE.cores} cores"
    )

    # --- one traced iteration at the default block size ----------------- #
    engine = MixenEngine(graph, block_nodes=512)
    engine.prepare()
    counters = iteration_counters(engine)
    model = model_for_engine(engine, property_bytes=4)
    print(
        f"\nprofile: alpha={engine.alpha:.2f} beta={engine.beta:.2f} "
        f"-> Eq.(1) predicts {model.traffic_bytes() / 1e6:.2f} MB/iter"
    )
    print(
        f"simulated: {counters.traffic.total_bytes / 1e6:.2f} MB requests, "
        f"{counters.dram_bytes / 1e6:.2f} MB DRAM, "
        f"L2 hit ratio {counters.caches['L2'].hit_ratio:.0%}"
    )
    print(
        f"Eq.(2) predicts {model.random_accesses()} block switches; the "
        f"trace recorded {counters.traffic.random_accesses} random jumps"
    )

    # --- block-size sweep (Figure 6/7 in miniature) --------------------- #
    def evaluate(block_nodes: int) -> dict:
        e = MixenEngine(graph, block_nodes=block_nodes)
        e.prepare()
        mc = iteration_counters(e)
        profile = parallel_profile(e, num_threads=SCALED_MACHINE.cores)
        cycles = modeled_cycles(
            mc, DEFAULT_LATENCIES, cores=SCALED_MACHINE.cores
        ) / max(profile.schedule.efficiency, 0.05)
        return {
            "dram_mb": mc.dram_bytes / 1e6,
            "cycles": cycles,
            "tasks": profile.num_tasks,
            "speedup": profile.schedule.speedup,
        }

    result = sweep("block_nodes", [64, 128, 256, 512, 1024, 2048, 4096],
                   evaluate)
    print(
        f"\n{'block':>6} {'DRAM MB':>8} {'tasks':>6} {'speedup':>8} "
        f"{'rel time':>9}"
    )
    for point, rel in zip(result.points, result.normalized("cycles")):
        print(
            f"{point.value:6d} {point.metrics['dram_mb']:8.2f} "
            f"{point.metrics['tasks']:6d} "
            f"{point.metrics['speedup']:8.1f} {rel:9.2f}"
        )
    best = result.best("cycles")
    l2_nodes = SCALED_MACHINE.l2_bytes // 4
    print(
        f"\nbest block: {best} nodes "
        f"({'fits L2' if best <= l2_nodes else 'exceeds L2'}; "
        "the paper lands on the L1/L2-sized block too)"
    )


if __name__ == "__main__":
    main()
