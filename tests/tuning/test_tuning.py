"""Unit tests for the profile-driven auto-tuner (`repro.tuning`)."""

import json

import numpy as np
import pytest

from repro.errors import TuningError
from repro.graphs import Graph, load_dataset
from repro.tuning import (
    DEFAULT_REORDER,
    TUNE_VERSION,
    StructuralProfile,
    TunedConfig,
    apply_reordering,
    candidate_orderings,
    graph_fingerprint,
    load_tuned,
    tune_graph,
)


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki", scale=0.25)


@pytest.fixture(scope="module")
def tuned(wiki):
    # a reduced sweep keeps the module fast
    return tune_graph(
        wiki, name="wiki", orderings=("none", "degree", "bfs")
    )


class TestGraphFingerprint:
    def test_stable(self, wiki):
        assert graph_fingerprint(wiki) == graph_fingerprint(wiki)

    def test_sensitive_to_structure(self, wiki):
        other = load_dataset("road", scale=0.25)
        assert graph_fingerprint(wiki) != graph_fingerprint(other)

    def test_sensitive_to_relabeling(self, wiki):
        from repro.graphs import random_order

        relabeled = wiki.relabeled(random_order(wiki, seed=3))
        assert graph_fingerprint(wiki) != graph_fingerprint(relabeled)


class TestStructuralProfile:
    def test_roundtrip(self, wiki):
        profile = StructuralProfile.from_graph(wiki)
        again = StructuralProfile.from_json(profile.to_json())
        assert again == profile

    def test_matches_stats(self, wiki):
        from repro.graphs import compute_stats

        profile = StructuralProfile.from_graph(wiki)
        stats = compute_stats(wiki)
        assert profile.num_nodes == stats.num_nodes
        assert profile.alpha == stats.alpha
        assert profile.beta == stats.beta
        assert profile.skewed == stats.skewed


class TestApplyReordering:
    def test_identity(self, wiki):
        graph, perm = apply_reordering(wiki, DEFAULT_REORDER)
        assert graph is wiki
        assert perm is None

    def test_registered(self, wiki):
        graph, perm = apply_reordering(wiki, "degree")
        assert graph is not wiki
        assert graph.num_nodes == wiki.num_nodes
        assert perm is not None and perm.size == wiki.num_nodes

    def test_unknown_raises(self, wiki):
        with pytest.raises(TuningError, match="unknown reordering"):
            apply_reordering(wiki, "metis")


class TestTuneGraph:
    def test_default_never_beaten(self, tuned):
        # the untuned default is always a candidate, so the winner can
        # never be modeled-slower
        assert tuned.tuned_cycles <= tuned.default_cycles
        assert tuned.gain >= 1.0

    def test_default_candidate_injected(self, wiki):
        config = tune_graph(wiki, orderings=("degree",))
        assert list(config.sweep) == [DEFAULT_REORDER, "degree"]
        assert config.sweep[DEFAULT_REORDER] == config.default_cycles

    def test_sweep_covers_all_candidates(self, tuned):
        # one modeled point per ordering
        assert list(tuned.sweep) == ["none", "degree", "bfs"]
        assert tuned.fingerprint
        assert tuned.version == TUNE_VERSION

    def test_deterministic_for_fixed_fingerprint(self, wiki, tuned):
        again = tune_graph(
            wiki, name="wiki", orderings=("none", "degree", "bfs")
        )
        assert again == tuned
        assert again.blob_id == tuned.blob_id

    def test_unknown_ordering_rejected(self, wiki):
        with pytest.raises(TuningError, match="unknown reordering"):
            tune_graph(wiki, orderings=("none", "metis"))

    def test_candidate_orderings_cover_registry(self):
        from repro.graphs import REORDERINGS

        orderings = candidate_orderings()
        assert orderings[0] == DEFAULT_REORDER
        assert set(REORDERINGS) <= set(orderings)


class TestBlobRoundtrip:
    def test_save_load(self, tuned, wiki, tmp_path):
        path = tuned.save(tmp_path / "wiki.json")
        again = load_tuned(path, graph=wiki)
        assert again == tuned
        assert again.blob_id == tuned.blob_id

    def test_blob_id_is_content_addressed(self, tuned):
        clone = TunedConfig.from_json(
            json.loads(json.dumps(tuned.to_json()))
        )
        assert clone.blob_id == tuned.blob_id

    def test_missing_file(self, tmp_path):
        with pytest.raises(TuningError, match="does not exist"):
            load_tuned(tmp_path / "nope.json")

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TuningError, match="unreadable"):
            load_tuned(bad)

    def test_version_1_blob_refused(self, tuned, tmp_path):
        # version 1 blobs carried a block-size choice
        payload = tuned.to_json()
        payload["version"] = 1
        payload["choice"]["block_nodes"] = 128
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="version 1 != 2"):
            load_tuned(path)

    def test_version_mismatch(self, tuned, tmp_path):
        payload = tuned.to_json()
        payload["version"] = TUNE_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="version"):
            load_tuned(path)

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"version": TUNE_VERSION}))
        with pytest.raises(TuningError, match="malformed"):
            load_tuned(path)

    def test_fingerprint_mismatch_refused(self, tuned, tmp_path):
        other = load_dataset("road", scale=0.25)
        path = tuned.save(tmp_path / "wiki.json")
        with pytest.raises(TuningError, match="not this graph") as exc:
            load_tuned(path, graph=other)
        assert exc.value.blob_fingerprint == tuned.fingerprint
        assert exc.value.graph_fingerprint == graph_fingerprint(other)

    def test_exit_code(self):
        from repro.errors import exit_code_for

        assert exit_code_for(TuningError("x")) == 13


class TestTinyGraphs:
    def test_tune_single_block_graph(self):
        graph = Graph.from_edges(4, [0, 1, 2], [1, 2, 3], name="tiny")
        config = tune_graph(graph, orderings=("none",))
        assert config.reorder == DEFAULT_REORDER
        assert config.tuned_cycles == config.default_cycles
