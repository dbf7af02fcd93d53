#!/usr/bin/env python3
"""Quickstart: run PageRank with Mixen and compare it to the baselines.

This walks the whole public API in one page:

1. load a proxy dataset (a scaled-down stand-in for the paper's wiki),
2. inspect its connectivity structure (Table 1's quantities),
3. prepare the Mixen engine (filter + partition) and run PageRank,
4. cross-check the result and the per-iteration time against a baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import MixenEngine, PageRank, compute_stats, load_dataset, make_engine
from repro.bench import time_algorithm


def main() -> None:
    # 1. A proxy for the paper's wiki crawl: directed, skewed, with all
    #    three non-trivial connectivity classes present.
    graph = load_dataset("wiki")
    print(f"loaded {graph}")

    # 2. Structural profile (the quantities from the paper's Table 1/2).
    stats = compute_stats(graph)
    print(
        f"alpha={stats.alpha:.2f} (regular share), "
        f"beta={stats.beta:.2f} (regular-edge share), "
        f"hubs own {stats.e_hub:.0%} of in-edges"
    )

    # 3. Mixen: prepare pays the filter+partition+prove cost once...
    engine = MixenEngine(graph)
    prep = engine.prepare()
    print(
        f"mixen prepared in {prep.seconds * 1e3:.1f} ms "
        f"(filter {prep.breakdown['filter'] * 1e3:.1f} ms, "
        f"partition {prep.breakdown['partition'] * 1e3:.1f} ms, "
        f"prove {prep.breakdown['prove'] * 1e3:.1f} ms)"
    )

    # ...then the Pre/Main/Post schedule runs the algorithm.
    result = engine.run(PageRank(tolerance=1e-12), max_iterations=200)
    print(
        f"pagerank converged={result.converged} after "
        f"{result.iterations} iterations; "
        f"phases (ms): "
        + ", ".join(
            f"{k}={s.seconds * 1e3:.2f}"
            for k, s in result.phases.items()
        )
    )
    top = np.argsort(result.scores)[-3:][::-1]
    print("top-3 nodes by rank:", top.tolist())

    # 4. The pull baseline must agree bit-for-bit on the converged ranks.
    baseline = make_engine("pull", graph)
    baseline.prepare()
    check = baseline.run(PageRank(tolerance=1e-12), max_iterations=200)
    assert np.allclose(result.scores, check.scores, atol=1e-9)
    print("baseline agreement: OK")

    mixen_t = time_algorithm(engine, PageRank, iterations=10).per_iteration
    pull_t = time_algorithm(baseline, PageRank, iterations=10).per_iteration
    print(
        f"per-iteration time: mixen {mixen_t * 1e3:.2f} ms vs "
        f"pull {pull_t * 1e3:.2f} ms ({pull_t / mixen_t:.1f}x)"
    )


if __name__ == "__main__":
    main()
