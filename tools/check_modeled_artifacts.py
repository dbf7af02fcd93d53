"""Regenerate the modeled experiments and diff them against the committed
``bench_results/*.json``.

The modeled tables and figures (dataset structure, the machine-model
traces, the analytical models) are deterministic, so the committed JSON
files are their ledger: every regenerated cell must equal the committed
one.  The few wall-clock cells are named once, in :data:`WALL_CLOCK`, and
left out of the diff.  Exits 1 listing every mismatch; a change to the
model must regenerate the files it moves (``python -m repro experiment
<name> --save bench_results``) and say why.

    PYTHONPATH=src python tools/check_modeled_artifacts.py
    PYTHONPATH=src python tools/check_modeled_artifacts.py --only fig6,fig7
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from fnmatch import fnmatch
from pathlib import Path

from repro.cli import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]

#: ``python -m repro experiment`` names of the deterministic artifacts.
MODELED = (
    "table1",
    "table2",
    "table3-modeled",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "motivation",
    "perfmodel",
    "mrc",
    "ablation-cache",
    "ablation-hubs",
    "ablation-balance",
    "ablation-compress",
    "extension",
)

#: artifact -> key patterns (at any depth) holding wall-clock values.
WALL_CLOCK = {
    "fig4_traffic": ("*_time", "seconds"),
    "ablation_cache_step": ("*_s_per_iter", "speedup"),
}


def deterministic(value, patterns):
    """``value`` without the dict keys matching any of ``patterns``."""
    if isinstance(value, dict):
        return {
            k: deterministic(v, patterns)
            for k, v in value.items()
            if not any(fnmatch(k, p) for p in patterns)
        }
    if isinstance(value, list):
        return [deterministic(v, patterns) for v in value]
    return value


def mismatches(committed, fresh, path=""):
    """Lines naming every cell where ``fresh`` differs from
    ``committed``."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        out = []
        for key in sorted(committed.keys() | fresh.keys(), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                out.append(f"{sub}: missing from the regenerated file")
            elif key not in committed:
                out.append(f"{sub}: not in the committed file")
            else:
                out += mismatches(committed[key], fresh[key], sub)
        return out
    if isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            return [
                f"{path}: committed {len(committed)} entries, "
                f"regenerated {len(fresh)}"
            ]
        out = []
        for i, (c, f) in enumerate(zip(committed, fresh)):
            out += mismatches(c, f, f"{path}[{i}]")
        return out
    if committed != fresh:
        return [f"{path}: committed {committed!r}, regenerated {fresh!r}"]
    return []


def check(name: str, results: Path) -> list[str]:
    """Regenerate experiment ``name``; its mismatches against the
    committed file under ``results``."""
    with tempfile.TemporaryDirectory() as tmp:
        result = EXPERIMENTS[name]()
        result.save(tmp)
        fresh = json.loads((Path(tmp) / f"{result.name}.json").read_text())
    committed_path = results / f"{result.name}.json"
    if not committed_path.exists():
        return [f"{committed_path} does not exist"]
    committed = json.loads(committed_path.read_text())
    patterns = WALL_CLOCK.get(result.name, ())
    found = mismatches(
        deterministic(committed, patterns), deterministic(fresh, patterns)
    )
    return [f"{result.name}: {line}" for line in found]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        default=",".join(MODELED),
        help="comma-separated experiment names (default: every one)",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=ROOT / "bench_results",
        help="directory of the committed JSON files",
    )
    args = parser.parse_args(argv)
    names = [n for n in args.only.split(",") if n]
    unknown = sorted(set(names) - set(MODELED))
    if unknown:
        parser.error(f"not a modeled experiment: {', '.join(unknown)}")
    failed = 0
    for name in names:
        found = check(name, args.results)
        print(f"{name}: {'ok' if not found else 'MISMATCH'}")
        for line in found:
            print(f"  {line}")
        failed += bool(found)
    if failed:
        print(
            f"{failed} of {len(names)} modeled artifact(s) differ from "
            f"{args.results}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
