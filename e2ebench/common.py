"""Shared pieces of the end-to-end benchmark: paths, statistics, spans.

Nothing here imports ``repro``: the benchmark's checker and span model
stand apart from the program they measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: checkout root (the directory holding ``e2ebench/``).
ROOT = Path(__file__).resolve().parent.parent
#: the program's import root.
SRC = ROOT / "src"
#: scratch space of every run (listed in the root ``.gitignore``).
WORK = ROOT / ".e2ebench-work"


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return float(ordered[min(rank, len(ordered)) - 1])


def digest(array) -> str:
    """sha256 of an array's raw bytes (bit-identity witness)."""
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict):
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def print_kinds(kinds: dict) -> None:
    """Per-kind failure accounting: ``{kind: (attempted, failed)}``."""
    for kind, (attempted, failed) in kinds.items():
        print(f"ops {kind}: attempted {attempted}, failed {failed}")


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id.

    ``span`` nests; a child inherits its parent's operation id unless it
    names its own.  ``dump`` writes one JSON object per line.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": self._next_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None else (
                None if parent is None else parent["op"]
            ),
            "start_ns": time.perf_counter_ns(),
        }
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def outermost(self, name: str, op_prefix: str = "") -> list[dict]:
        """Spans of ``name`` not nested in another span of the same
        name, restricted to operations starting with ``op_prefix``."""
        by_id = {s["id"]: s for s in self.spans}
        found = []
        for s in self.spans:
            if s["name"] != name or not str(s["op"]).startswith(op_prefix):
                continue
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = by_id.get(parent["parent"])
            if parent is None:
                found.append(s)
        return found

    def total_s(self, name: str, op: str) -> float:
        """Summed duration (s) of the outermost ``name`` spans of one
        operation."""
        return sum(
            (s["end_ns"] - s["start_ns"]) * 1e-9
            for s in self.outermost(name, op)
            if s["op"] == op
        )

    def durations_s(self, name: str, op_prefix: str = "") -> list[float]:
        return [
            (s["end_ns"] - s["start_ns"]) * 1e-9
            for s in self.outermost(name, op_prefix)
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["start_ns"]):
                fh.write(json.dumps(record) + "\n")
