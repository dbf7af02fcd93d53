"""Hash the outputs of every algorithm x engine x kernel x proxy run.

Prints a ``# numpy <version> scipy <version>`` header, then one
``graph engine kernel algorithm sha256`` line per run
(:func:`repro.analysis.golden.output_hash_lines`), so two trees can be
compared with ``diff``: a refactor that claims unchanged outputs must
print identical lines.

``bench_results/output_hashes.txt`` is the committed golden ledger at
``--scale 1``; it is only comparable under the numpy/scipy versions its
header names.  ``python -m repro prove --update`` rewrites it with the
same function; check a tree against it with::

    diff bench_results/output_hashes.txt \
        <(PYTHONPATH=src python tools/output_hashes.py --scale 1)
"""

from __future__ import annotations

import argparse

from repro.analysis.golden import LEDGER_GRAPHS, output_hash_lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--graphs", default=",".join(LEDGER_GRAPHS))
    args = parser.parse_args()
    for line in output_hash_lines(
        scale=args.scale, graphs=args.graphs.split(",")
    ):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
