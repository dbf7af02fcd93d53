"""The deterministic chaos drill: every completed response bit-identical
to a fault-free offline run, even with crashes and corruption armed."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.resilience.retry import RetryPolicy
from repro.serve import LayoutStore, ServeConfig, run_drill
from repro.serve.drill import seeded_requests


def _config(**overrides):
    defaults = dict(
        window=0.01,
        max_batch=4,
        max_queue=8,
        iterations=5,
        retry=RetryPolicy(max_retries=0, backoff=0.0, deadline=None),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestSeededRequests:
    def test_deterministic(self):
        a = seeded_requests(100, 6, seed=3)
        b = seeded_requests(100, 6, seed=3)
        assert len(a) == 6
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_seed_changes_workload(self):
        a = seeded_requests(100, 6, seed=3)
        b = seeded_requests(100, 6, seed=4)
        assert any(
            left.shape != right.shape or not np.array_equal(left, right)
            for left, right in zip(a, b)
        )


class TestRunDrill:
    def test_clean_drill_verifies(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        report = run_drill(
            random_graph,
            store,
            requests=6,
            seed=1,
            kernel="bincount",
            config=_config(),
        )
        assert report.ok
        assert report.completed == 6
        assert report.verified == 6
        assert not report.boot.hit  # first boot is cold

    def test_chaos_drill_bit_identity(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        # Populate the store, then corrupt it and crash batches.
        run_drill(
            random_graph,
            store,
            requests=2,
            seed=0,
            kernel="parallel",
            config=_config(),
        )
        report = run_drill(
            random_graph,
            store,
            requests=10,
            seed=5,
            kernel="parallel",
            config=_config(),
            fault_spec=(
                "crash:site=serve_batch,times=2;"
                "corrupt:site=serve_store"
            ),
        )
        # The injected corruption forced a detected rebuild ...
        assert report.boot.rebuilt
        assert "corrupt artifact" in report.boot.miss_reason
        # ... the batch crashes walked the ladder ...
        assert report.serve.downgrades == 2
        # ... nothing stalled, and every completed answer is bitwise
        # identical to the fault-free offline reference.
        assert report.completed + sum(report.errors.values()) == 10
        assert report.verified == report.completed
        assert report.ok

    def test_overload_sheds_are_counted(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        report = run_drill(
            random_graph,
            store,
            requests=12,
            seed=2,
            kernel="bincount",
            config=_config(max_queue=2, max_batch=2, window=0.02),
        )
        assert report.errors.get("ServerOverload", 0) > 0
        assert (
            report.completed
            == report.serve.completed
            == report.verified
        )

    def test_expect_warm_on_cold_store_fails_typed(
        self, random_graph, tmp_path
    ):
        store = LayoutStore(tmp_path)
        with pytest.raises(ServeError, match="warm"):
            run_drill(
                random_graph,
                store,
                requests=2,
                kernel="bincount",
                config=_config(),
                expect_warm=True,
            )

    def test_expect_warm_passes_on_second_boot(
        self, random_graph, tmp_path
    ):
        store = LayoutStore(tmp_path)
        run_drill(
            random_graph,
            store,
            requests=2,
            kernel="bincount",
            config=_config(),
            verify=False,
        )
        report = run_drill(
            random_graph,
            store,
            requests=2,
            kernel="bincount",
            config=_config(),
            verify=False,
            expect_warm=True,
        )
        assert report.boot.hit

    def test_report_render_and_json(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        report = run_drill(
            random_graph,
            store,
            requests=3,
            kernel="bincount",
            config=_config(),
        )
        text = report.render()
        assert "bit-identity: 3/3" in text
        payload = report.to_json()
        assert payload["verified"] == 3
        assert payload["boot"]["fingerprint"] == report.boot.fingerprint
