"""Smoke and shape tests for the experiment functions (small scales).

The benchmarks run the full-size experiments; here each function is
exercised on reduced inputs so the test suite stays fast while still
checking the structural contracts (headers, row counts, invariants).
"""

import pytest

from repro.bench import (
    ablation_cache_step,
    ablation_edge_compression,
    ablation_load_balance,
    fig4,
    fig5,
    fig6,
    fig7,
    motivation_models,
    perfmodel_validation,
    table1,
    table2,
    table3,
    table3_modeled,
    table4,
)
from repro.bench.sweep import sweep
from repro.errors import EngineError

SMALL = dict(scale=0.5)
TWO_GRAPHS = ("wiki", "road")


class TestStructureTables:
    def test_table1_has_eight_rows(self):
        result = table1()
        assert len(result.rows) == 8
        assert result.rows[0]["graph"] == "weibo"

    def test_table2_alpha_beta_in_range(self):
        for row in table2().rows:
            assert 0 <= row["alpha"] <= 1
            assert 0 <= row["beta"] <= 1


class TestTimeTables:
    def test_table3_structure(self):
        result = table3(
            scale=0.5, iterations=2, graphs=TWO_GRAPHS,
            frameworks=("mixen", "block"), cf_factors=2,
        )
        algorithms = {row["algorithm"] for row in result.rows}
        assert algorithms == {"InDegree", "PageRank", "CF", "BFS"}
        assert "geomean_slowdown_vs_mixen" in result.extras

    def test_table3_modeled_structure(self):
        result = table3_modeled(
            scale=0.5, graphs=TWO_GRAPHS,
            frameworks=("mixen", "pull"),
        )
        mixen_row = result.rows[0]
        assert mixen_row["framework"] == "Mixen"
        for g in TWO_GRAPHS:
            assert mixen_row[g] == pytest.approx(1.0)

    def test_table4_structure(self):
        result = table4(scale=0.5, graphs=("wiki",))
        row = result.rows[0]
        assert row["Mixen_total"] >= row["Mixen_filter"]
        assert row["Mixen_prove"] > 0


class TestFigures:
    def test_fig4_normalization(self):
        result = fig4(scale=0.5, iterations=2, graphs=TWO_GRAPHS)
        for row in result.rows:
            values = [v for k, v in row.items() if k != "graph"]
            assert max(values) == pytest.approx(1.0)
            assert all(0 <= v <= 1.0 + 1e-9 for v in values)

    def test_fig5_pull_is_reference(self):
        result = fig5(scale=0.5, graphs=("wiki",))
        assert result.rows[0]["pull_refs"] == pytest.approx(1.0)

    def test_fig6_normalized_to_best(self):
        result = fig6(
            scale=0.5, graphs=("wiki",), block_sizes=(64, 256, 1024)
        )
        row = result.rows[0]
        values = [row["64"], row["256"], row["1024"]]
        assert min(values) == pytest.approx(1.0)

    def test_fig7_rows_per_block_size(self):
        result = fig7(scale=0.5, block_sizes=(128, 512))
        assert [r["block_nodes"] for r in result.rows] == [128, 512]


class TestModels:
    def test_motivation_rows(self):
        result = motivation_models(graphs=("wiki",))
        row = result.rows[0]
        assert row["block_traffic"] > row["pull_traffic"]
        assert row["random_ratio"] > 1

    def test_perfmodel_ratio_stability(self):
        result = perfmodel_validation(
            num_nodes=2000, num_edges=16000, alphas=(0.4, 0.8)
        )
        assert result.extras["bytes_ratio_spread"] < 2.0


class TestAblations:
    def test_cache_step_traffic_never_worse(self):
        result = ablation_cache_step(scale=0.5, graphs=("track",),
                                     iterations=2)
        row = result.rows[0]
        assert row["cached_bytes"] <= row["uncached_bytes"]

    def test_load_balance_tasks_monotone(self):
        result = ablation_load_balance(scale=0.5, graphs=("pld",))
        row = result.rows[0]
        assert row["balanced_tasks"] >= row["unbalanced_tasks"]

    def test_edge_compression_ratio(self):
        result = ablation_edge_compression(scale=0.5, graphs=("wiki",))
        assert result.rows[0]["ratio"] >= 1.0


class TestSweep:
    def test_sweep_and_best(self):
        result = sweep("p", [1, 2, 3], lambda v: {"cost": (v - 2) ** 2})
        assert result.best("cost") == 2
        assert result.metric("cost") == [1, 0, 1]

    def test_normalized(self):
        result = sweep("p", [1, 2], lambda v: {"cost": v * 2.0})
        assert result.normalized("cost") == [1.0, 2.0]
        assert result.normalized("cost", by="max") == [0.5, 1.0]

    def test_empty_values_rejected(self):
        with pytest.raises(EngineError):
            sweep("p", [], lambda v: {})


class TestMrcStudy:
    def test_curves_monotone_in_capacity(self):
        from repro.bench import mrc_study

        result = mrc_study(
            scale=0.5, graphs=("wiki",), capacities_kb=(1, 4, 16, 64)
        )
        for row in result.rows:
            curve = [row["1KB"], row["4KB"], row["16KB"], row["64KB"]]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_mixen_dominates_pull_at_small_capacity(self):
        from repro.bench import mrc_study

        result = mrc_study(
            scale=0.5, graphs=("wiki",), capacities_kb=(2,)
        )
        rows = {r["variant"]: r for r in result.rows}
        assert rows["mixen"]["2KB"] < rows["pull"]["2KB"]
