"""One-shot reproduction report: every table, figure and ablation.

``generate_report()`` runs the full experiment battery (the same
functions the benchmark suite drives), saves each artifact under the
results directory, and writes a combined ``REPORT.md`` — the file to read
after ``python -m repro experiment all --save bench_results``.
"""

from __future__ import annotations

import time
from pathlib import Path

from . import experiments
from .tables import ExperimentResult

#: (section, callable) in presentation order.
REPORT_SECTIONS: tuple = (
    ("Datasets", experiments.table1),
    ("Datasets", experiments.table2),
    ("Execution time", experiments.table3),
    ("Execution time", experiments.table3_modeled),
    ("Preprocessing", experiments.table4),
    ("Memory behaviour", experiments.fig4),
    ("Memory behaviour", experiments.fig5),
    ("Design space", experiments.fig6),
    ("Design space", experiments.fig7),
    ("Models", experiments.motivation_models),
    ("Models", experiments.perfmodel_validation),
    ("Models", experiments.mrc_study),
    ("Ablations", experiments.ablation_cache_step),
    ("Ablations", experiments.ablation_hub_reorder),
    ("Ablations", experiments.ablation_load_balance),
    ("Ablations", experiments.ablation_edge_compression),
    ("Extensions", experiments.extension_filtered_baselines),
    ("Extensions", experiments.reordering_comparison),
    ("Extensions", experiments.scaling_study),
)


def generate_report(
    directory, *, quick: bool = False, progress=None
) -> Path:
    """Run every experiment, save artifacts, and write ``REPORT.md``.

    ``quick=True`` shrinks the workloads (scale/iteration reductions) for
    smoke runs; ``progress`` is an optional callable receiving one status
    line per experiment.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sections: dict[str, list[ExperimentResult]] = {}
    timings: list[tuple[str, float]] = []
    for section, fn in REPORT_SECTIONS:
        kwargs = {}
        if quick:
            kwargs = _quick_kwargs(fn.__name__)
        start = time.perf_counter()
        result = fn(**kwargs)
        elapsed = time.perf_counter() - start
        result.save(directory)
        sections.setdefault(section, []).append(result)
        timings.append((result.name, elapsed))
        if progress is not None:
            progress(f"{result.name}: {elapsed:.1f}s")

    lines = [
        "# Reproduction report",
        "",
        "Generated by `repro.bench.report.generate_report`; see",
        "EXPERIMENTS.md for the paper-vs-measured analysis and DESIGN.md",
        "for the substitutions.",
        "",
    ]
    for section, results in sections.items():
        lines.append(f"## {section}")
        lines.append("")
        for result in results:
            lines.append("```")
            lines.append(result.render())
            lines.append("```")
            lines.append("")
    lines.append("## Generation times")
    lines.append("")
    for name, elapsed in timings:
        lines.append(f"* {name}: {elapsed:.1f}s")
    lines.append("")
    path = directory / "REPORT.md"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def _quick_kwargs(fn_name: str) -> dict:
    """Reduced workloads for smoke runs."""
    small = {"scale": 0.5}
    table3_like = {"scale": 0.5, "iterations": 3}
    quick_map = {
        "table1": small,
        "table2": small,
        "table3": {**table3_like, "graphs": ("wiki", "road"),
                   "cf_factors": 2},
        "table3_modeled": {"scale": 0.5, "graphs": ("wiki", "road")},
        "table4": {"scale": 0.5, "graphs": ("wiki",)},
        "fig4": {"scale": 0.5, "iterations": 2, "graphs": ("wiki", "road")},
        "fig5": {"scale": 0.5, "graphs": ("wiki",)},
        "fig6": {"scale": 0.5, "graphs": ("wiki",),
                 "block_sizes": (64, 512)},
        "fig7": {"scale": 0.5, "block_sizes": (64, 512)},
        "motivation_models": {"graphs": ("wiki",)},
        "mrc_study": {"scale": 0.5, "graphs": ("wiki",),
                      "capacities_kb": (2, 16)},
        "perfmodel_validation": {
            "num_nodes": 2000, "num_edges": 16000, "alphas": (0.4, 0.8),
        },
        "ablation_cache_step": {
            "scale": 0.5, "graphs": ("track",), "iterations": 2,
        },
        "ablation_hub_reorder": {"scale": 0.5, "graphs": ("wiki",)},
        "ablation_load_balance": {"scale": 0.5, "graphs": ("pld",)},
        "ablation_edge_compression": {"scale": 0.5, "graphs": ("wiki",)},
        "extension_filtered_baselines": {
            "scale": 0.5, "graphs": ("wiki",),
        },
        "reordering_comparison": {"scale": 0.5, "graphs": ("wiki",)},
        "scaling_study": {
            "scale": 0.5, "graphs": ("pld",),
            "thread_counts": (1, 4, 16),
        },
    }
    return quick_map.get(fn_name, {})
