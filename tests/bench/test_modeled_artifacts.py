"""The modeled-artifact check (`tools/check_modeled_artifacts.py`) fails
on a changed deterministic cell and ignores a changed wall-clock cell."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_modeled_artifacts  # noqa: E402

NAME = "ablation_cache_step"


@pytest.mark.parametrize(
    ("column", "expected"),
    [("cached_bytes", 1), ("cached_s_per_iter", 0), ("speedup", 0)],
)
def test_only_deterministic_cells_fail(tmp_path, column, expected):
    payload = json.loads((ROOT / "bench_results" / f"{NAME}.json").read_text())
    payload["rows"][0][column] += 1
    (tmp_path / f"{NAME}.json").write_text(json.dumps(payload))
    argv = ["--only", "ablation-cache", "--results", str(tmp_path)]
    assert check_modeled_artifacts.main(argv) == expected
