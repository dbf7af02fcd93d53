"""The one graph-update path (DESIGN 4i): a ``checked_apply`` chain stays
bit-identical to the from-scratch oracle, its fault sites are
transactional or fall back bitwise, and artifacts carry the epoch."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.core import MixenEngine, checked_apply
from repro.errors import InjectedFault, StaleEpochError
from repro.graphs.generators import rmat
from repro.graphs.updates import random_batches, rebuild_from_batch
from repro.resilience import faults
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import parse_fault_spec
from repro.serve.store import _stamp_epoch


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def _pagerank():
    return ALGORITHMS["pagerank"]()


def _scores(graph, **options):
    """Scores of a short fixed-budget PageRank on a fresh engine."""
    engine = MixenEngine(graph, kernel="bincount", **options)
    engine.prepare()
    return engine.run(
        _pagerank(), max_iterations=3, check_convergence=False
    ).scores


class TestExactOracle:
    """The patch-then-rebuild contract: a ``checked_apply`` chain plus a
    fresh engine equals the from-scratch rebuild plus a cold solve,
    exactly."""

    def test_oracle_equality_100_batches(self):
        graph = rmat(7, 5, seed=21)
        current = oracle = graph
        for index, batch in enumerate(
            random_batches(graph, 100, 8, seed=22)
        ):
            current, fell_back = checked_apply(current, batch)
            oracle = rebuild_from_batch(oracle, batch)
            assert not fell_back
            # adjacency identity every batch, score identity sampled
            # (a cold solve per batch x100 keeps the suite honest but
            # need not run every time to pin the contract)
            np.testing.assert_array_equal(
                current.csr.indptr, oracle.csr.indptr
            )
            np.testing.assert_array_equal(
                current.csr.indices, oracle.csr.indices
            )
            if index % 10 == 9:
                np.testing.assert_array_equal(
                    _scores(current, block_nodes=64),
                    _scores(oracle, block_nodes=64),
                )

    def test_fresh_engine_reports_epoch_certificate(self, random_graph):
        (batch,) = random_batches(random_graph, 1, 8, seed=23)
        updated, _ = checked_apply(random_graph, batch)
        engine = MixenEngine(updated, kernel="bincount")
        engine.prepare()
        _stamp_epoch(engine, 1)
        result = engine.run(_pagerank(), max_iterations=2,
                            check_convergence=False)
        assert engine.certificate.epoch == 1
        assert result.certificate_id == engine.certificate.certificate_id


class TestFaultSites:
    def test_crashed_apply_is_transactional(self, random_graph):
        (batch,) = random_batches(random_graph, 1, 8, seed=61)
        before = random_graph.csr.indices.copy()
        faults.install(
            parse_fault_spec("crash:site=update_apply,times=1")
        )
        with pytest.raises(InjectedFault):
            checked_apply(random_graph, batch)
        np.testing.assert_array_equal(random_graph.csr.indices, before)
        # the retry lands cleanly
        new_graph, fell_back = checked_apply(random_graph, batch)
        assert not fell_back
        oracle = rebuild_from_batch(random_graph, batch)
        np.testing.assert_array_equal(
            new_graph.csr.indices, oracle.csr.indices
        )

    def test_corrupted_patch_falls_back_bitwise(self, random_graph):
        (batch,) = random_batches(random_graph, 1, 8, seed=62)
        oracle = rebuild_from_batch(random_graph, batch)
        faults.install(
            parse_fault_spec("corrupt:site=update_patch,value=7,times=1")
        )
        new_graph, fell_back = checked_apply(random_graph, batch)
        assert fell_back
        np.testing.assert_array_equal(
            new_graph.csr.indptr, oracle.csr.indptr
        )
        np.testing.assert_array_equal(
            new_graph.csr.indices, oracle.csr.indices
        )
        np.testing.assert_array_equal(
            _scores(new_graph), _scores(oracle)
        )

    def test_checked_apply_clean_path(self, random_graph):
        (batch,) = random_batches(random_graph, 1, 8, seed=63)
        new_graph, fell_back = checked_apply(random_graph, batch)
        assert not fell_back
        assert new_graph is not random_graph


class TestEpochCheckpoints:
    def test_resume_across_epoch_boundary_refused(self, tmp_path):
        state = {"x": np.arange(4, dtype=np.float64)}
        old = CheckpointManager(tmp_path, epoch=0)
        old.save(2, state)
        new = CheckpointManager(tmp_path, epoch=1)
        info = new.latest()
        assert info is not None
        with pytest.raises(StaleEpochError, match="epoch 0"):
            new.load(info)

    def test_same_epoch_resumes(self, tmp_path):
        state = {"x": np.arange(4, dtype=np.float64)}
        manager = CheckpointManager(tmp_path, epoch=3)
        manager.save(5, state)
        iteration, bundle = manager.load_latest()
        assert iteration == 5
        np.testing.assert_array_equal(bundle["x"], state["x"])

    def test_error_carries_both_epochs(self, tmp_path):
        CheckpointManager(tmp_path, epoch=2).save(0, {"x": np.ones(2)})
        stale = CheckpointManager(tmp_path, epoch=5)
        with pytest.raises(StaleEpochError) as exc_info:
            stale.load_latest()
        assert exc_info.value.artifact_epoch == 2
        assert exc_info.value.current_epoch == 5
