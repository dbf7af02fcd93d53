"""One-command end-to-end benchmark of the Mixen reproduction.

    python3 e2ebench/run.py --workload rank-pld --seed 1 --seconds 20 --trace 0

Workloads (see README.md for the make-up of each):

* ``rank-pld``   — pld proxy: set-up, PageRank solves, BFS sweeps;
* ``bfs-road``   — road proxy: set-up, BFS sweeps;
* ``serve-mixed`` — ``python -m repro serve --socket`` on the wiki proxy,
  driven by an open-loop client with PPR queries and edge updates.

Every run checks the program's outputs against computations made apart
from it (``checks.py``), prints per-kind attempted/failed counts and
human-readable figures, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Run from the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, emit_result, program_present  # noqa: E402

WORKLOADS = ("rank-pld", "bfs-road", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(
            f"error: the program's sources are missing ({SRC}/repro)",
            file=sys.stderr,
        )
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "serve-mixed":
        from serve_workload import serve_workload

        outcome = serve_workload(args.seed, args.seconds, bool(args.trace))
    else:
        from batch import batch_workload

        outcome = batch_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    emit_result(*outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
