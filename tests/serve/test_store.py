"""Unit tests for the persistent layout store."""

import json

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRank
from repro.core.engine import MixenEngine
from repro.errors import ServeError
from repro.serve.store import STORE_VERSION
from repro.serve import (
    LayoutStore,
    boot_engine,
    engine_fingerprint,
    pack_engine,
)


def _run_pagerank(engine, iterations=8):
    return engine.run(
        PageRank(),
        max_iterations=iterations,
        check_convergence=False,
    ).scores


class TestFingerprint:
    def test_options_change_fingerprint(self, random_graph):
        base = engine_fingerprint(random_graph, block_nodes=512)
        assert engine_fingerprint(random_graph, block_nodes=256) != base
        assert engine_fingerprint(random_graph, block_nodes=512) == base

    def test_kernel_does_not_participate(self, random_graph):
        # The same layout serves every backend, so kernel choice must
        # not fork the store.
        a = engine_fingerprint(random_graph, block_nodes=512)
        b = engine_fingerprint(random_graph, block_nodes=512)
        assert a == b


class TestBootEngine:
    def test_cold_then_warm_bit_identity(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        cold, cold_boot = boot_engine(
            random_graph, store, kernel="bincount"
        )
        assert not cold_boot.hit
        assert "filter" in cold.prepare_stats.breakdown
        warm, warm_boot = boot_engine(
            random_graph, store, kernel="bincount"
        )
        assert warm_boot.hit and not warm_boot.rebuilt
        assert warm.prepared
        # The warm boot must skip preprocessing entirely: its only
        # prepare phase is the store read.
        assert set(warm.prepare_stats.breakdown) == {"store-load"}
        np.testing.assert_array_equal(
            _run_pagerank(cold), _run_pagerank(warm)
        )
        # The store keeps neither model input; a warm engine derives
        # both on first read, equal to the cold engine's.
        assert warm.bin_stats == cold.bin_stats
        assert warm.partition.tasks == cold.partition.tasks

    def test_warm_boot_preserves_certificate(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        cold, _ = boot_engine(random_graph, store, kernel="reduceat")
        warm, boot = boot_engine(random_graph, store, kernel="reduceat")
        assert boot.hit
        assert (
            warm.certificate.certificate_id
            == cold.certificate.certificate_id
        )
        # A race proof only exists when prove_schedule succeeded.
        assert warm.race_proof == cold.race_proof
        assert warm.race_proof.num_partitions > 0

    def test_corruption_detected_and_rebuilt(
        self, random_graph, tmp_path
    ):
        store = LayoutStore(tmp_path)
        cold, _ = boot_engine(random_graph, store, kernel="bincount")
        fingerprint = engine_fingerprint(random_graph, block_nodes=512)
        entry = store._manifest["entries"][fingerprint]
        artifact = (
            tmp_path / entry["dir"] / entry["arrays"]["perm"]["file"]
        )
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        artifact.write_bytes(bytes(raw))
        # A fresh store instance re-reads the manifest from disk.
        rebuilt_store = LayoutStore(tmp_path)
        engine, boot = boot_engine(
            random_graph, rebuilt_store, kernel="bincount"
        )
        assert not boot.hit and boot.rebuilt
        assert "corrupt artifact" in boot.miss_reason
        np.testing.assert_array_equal(
            _run_pagerank(cold), _run_pagerank(engine)
        )
        # ... and the rebuild re-committed: the next boot is warm.
        _, again = boot_engine(
            random_graph, rebuilt_store, kernel="bincount"
        )
        assert again.hit

    def test_version_2_store_misses_and_cold_boots(
        self, random_graph, tmp_path, monkeypatch
    ):
        # A version-2 store: its manifest, fingerprint and artifact set
        # (which also held the seven blocked-layout arrays).
        import repro.serve.store as store_module

        assert STORE_VERSION == 3
        fresh = MixenEngine(random_graph, kernel="bincount")
        fresh.prepare()
        arrays, meta = pack_engine(fresh)
        layout = fresh.partition.layout
        for name in (
            "src_scatter", "dst_scatter", "gather_perm", "src_gather",
            "dst_gather", "scatter_block_ptr", "gather_block_ptr",
        ):
            arrays[f"lay_{name}"] = getattr(layout, name)
        meta.update(
            lay_num_nodes=layout.num_nodes,
            lay_blocks_per_side=layout.num_blocks_per_side,
            tuned_id="",
        )
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_VERSION", 2)
            old = engine_fingerprint(random_graph, block_nodes=512)
            LayoutStore(tmp_path).put(old, arrays, meta)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == 2 and old in manifest["entries"]

        store = LayoutStore(tmp_path)
        engine, boot = boot_engine(random_graph, store, kernel="bincount")
        assert not boot.hit and not boot.rebuilt
        assert boot.miss_reason == "absent"
        assert "filter" in engine.prepare_stats.breakdown
        np.testing.assert_array_equal(
            _run_pagerank(fresh), _run_pagerank(engine)
        )
        new = engine_fingerprint(random_graph, block_nodes=512)
        assert new != old
        assert store.fingerprints() == (new,)
        # The version-3 entry holds no blocked array.
        assert not any(
            name.startswith("lay_")
            for name in store._manifest["entries"][new]["arrays"]
        )

    def test_missing_artifact_is_a_miss(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        boot_engine(random_graph, store, kernel="bincount")
        fingerprint = store.fingerprints()[0]
        entry = store._manifest["entries"][fingerprint]
        (tmp_path / entry["dir"] / "perm.npy").unlink()
        assert LayoutStore(tmp_path).get(fingerprint) is None


class TestStoreDurability:
    def test_orphaned_tmp_swept_on_open(self, tmp_path):
        (tmp_path / "manifest.json.tmp").write_text("{}")
        (tmp_path / "perm.npy.tmp").write_bytes(b"partial")
        (tmp_path / "keep.npy").write_bytes(b"committed")
        LayoutStore(tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "manifest.json.tmp" not in names
        assert "perm.npy.tmp" not in names
        assert "keep.npy" in names

    def test_corrupt_manifest_is_empty_not_fatal(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json", "utf-8")
        store = LayoutStore(tmp_path)
        assert store.fingerprints() == ()

    def test_put_rejects_incomplete_pack(self, tmp_path):
        store = LayoutStore(tmp_path)
        with pytest.raises(ServeError, match="missing required"):
            store.put("f" * 64, {"perm": np.arange(4)}, {})

    def test_manifest_written_atomically(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        boot_engine(random_graph, store, kernel="bincount")
        manifest = json.loads(
            (tmp_path / "manifest.json").read_text("utf-8")
        )
        assert manifest["version"] == STORE_VERSION
        assert not list(tmp_path.glob("*.tmp"))

    def test_drop_removes_artifacts(self, random_graph, tmp_path):
        store = LayoutStore(tmp_path)
        boot_engine(random_graph, store, kernel="bincount")
        fingerprint = store.fingerprints()[0]
        entry_dir = tmp_path / store._manifest["entries"][fingerprint]["dir"]
        store.drop(fingerprint)
        assert fingerprint not in store
        assert not entry_dir.exists()


class TestPackEngine:
    def test_pack_requires_prepared_engine(self, random_graph, tmp_path):
        engine = MixenEngine(random_graph, kernel="bincount")
        engine.prepare()
        arrays, meta = pack_engine(engine)
        assert meta["num_nodes"] == random_graph.num_nodes
        assert "perm" in arrays and "rp_dst" in arrays

    def test_pack_refuses_weighted_engine(self, random_graph):
        # The store persists no edge values: packing a weighted layout
        # would install an unweighted one on the next warm boot.
        values = np.full(random_graph.num_edges, 0.5)
        engine = MixenEngine(random_graph, edge_values=values)
        engine.prepare()
        with pytest.raises(ServeError, match="unweighted"):
            pack_engine(engine)


class TestTunedStaleness:
    """Warm boots must refuse layouts built under a different tuned
    config (DESIGN 4j)."""

    @pytest.fixture()
    def tuned(self, random_graph):
        from repro.tuning import tune_graph

        return tune_graph(
            random_graph, orderings=("none",), block_sweep=(512,)
        )

    def test_same_tuned_stays_warm(self, random_graph, tmp_path, tuned):
        store = LayoutStore(tmp_path)
        boot_engine(
            random_graph, store, kernel="bincount", tuned=tuned
        )
        _, boot = boot_engine(
            random_graph, store, kernel="bincount", tuned=tuned
        )
        assert boot.hit and not boot.rebuilt

    def test_untuned_layout_refused_under_tuned(
        self, random_graph, tmp_path, tuned
    ):
        store = LayoutStore(tmp_path)
        boot_engine(random_graph, store, kernel="bincount")
        _, boot = boot_engine(
            random_graph, store, kernel="bincount", tuned=tuned
        )
        assert not boot.hit
        assert "stale tuned config" in boot.miss_reason
        # and the rebuilt entry is keyed to the blob now
        _, again = boot_engine(
            random_graph, store, kernel="bincount", tuned=tuned
        )
        assert again.hit

    def test_tuned_layout_refused_without_blob(
        self, random_graph, tmp_path, tuned
    ):
        store = LayoutStore(tmp_path)
        boot_engine(
            random_graph, store, kernel="bincount", tuned=tuned
        )
        _, boot = boot_engine(random_graph, store, kernel="bincount")
        assert not boot.hit
        assert "stale tuned config" in boot.miss_reason
