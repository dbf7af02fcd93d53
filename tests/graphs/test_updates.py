"""Edge update streams: batch validation and the incremental patch vs
from-scratch oracle contract."""

import numpy as np
import pytest

from repro.errors import UpdateError
from repro.graphs.generators import rmat, uniform_random
from repro.graphs.updates import (
    UpdateBatch,
    apply_batch,
    random_batches,
    rebuild_from_batch,
    verify_patch,
)


class TestUpdateBatchValidation:
    def test_from_pairs_roundtrip(self):
        batch = UpdateBatch.from_pairs(
            inserts=[(0, 1), (2, 3)], deletes=[(4, 5)]
        )
        assert batch.num_inserts == 2
        assert batch.num_deletes == 1
        assert batch.size == 3

    def test_empty(self):
        batch = UpdateBatch.empty()
        assert batch.size == 0

    def test_length_mismatch_is_typed(self):
        ids = np.arange(3, dtype=np.int32)
        with pytest.raises(UpdateError, match="lengths differ"):
            UpdateBatch(ids, ids[:2], ids[:0], ids[:0])

    def test_negative_endpoints_rejected(self):
        with pytest.raises(UpdateError, match="negative"):
            UpdateBatch.from_pairs(inserts=[(-1, 2)])

    def test_duplicate_insert_rejected(self):
        with pytest.raises(UpdateError, match="same edge twice"):
            UpdateBatch.from_pairs(inserts=[(0, 1), (0, 1)])

    def test_insert_delete_overlap_rejected(self):
        with pytest.raises(UpdateError, match="both inserts and deletes"):
            UpdateBatch.from_pairs(inserts=[(0, 1)], deletes=[(0, 1)])

    def test_json_roundtrip(self):
        batch = UpdateBatch.from_pairs(
            inserts=[(0, 1), (5, 2)], deletes=[(3, 4)]
        )
        clone = UpdateBatch.from_json(batch.to_json())
        np.testing.assert_array_equal(clone.insert_src, batch.insert_src)
        np.testing.assert_array_equal(clone.insert_dst, batch.insert_dst)
        np.testing.assert_array_equal(clone.delete_src, batch.delete_src)
        np.testing.assert_array_equal(clone.delete_dst, batch.delete_dst)

    def test_malformed_json_is_typed(self):
        with pytest.raises(UpdateError, match="malformed"):
            UpdateBatch.from_json({"inserts": [[1, 2, 3]]})


class TestApplyAgainstGraph:
    def test_out_of_range_insert_rejected(self, tiny_graph):
        n = tiny_graph.num_nodes
        batch = UpdateBatch.from_pairs(inserts=[(0, n)])
        with pytest.raises(UpdateError, match="exceed"):
            apply_batch(tiny_graph, batch)

    def test_deleting_absent_edge_rejected(self, tiny_graph):
        keys = set(tiny_graph.csr.edge_keys().tolist())
        n = tiny_graph.num_nodes
        absent = next(
            (s, d)
            for s in range(n)
            for d in range(n)
            if s * n + d not in keys
        )
        batch = UpdateBatch.from_pairs(deletes=[absent])
        with pytest.raises(UpdateError, match="absent"):
            apply_batch(tiny_graph, batch)

    def test_inserting_present_edge_rejected(self, tiny_graph):
        src = int(tiny_graph.csr.row_ids()[0])
        dst = int(tiny_graph.csr.indices[0])
        batch = UpdateBatch.from_pairs(inserts=[(src, dst)])
        with pytest.raises(UpdateError, match="already present"):
            apply_batch(tiny_graph, batch)

    def test_apply_is_transactional(self, tiny_graph):
        before = tiny_graph.csr.indices.copy()
        batch = UpdateBatch.from_pairs(deletes=[(0, tiny_graph.num_nodes)])
        with pytest.raises(UpdateError):
            apply_batch(tiny_graph, batch)
        np.testing.assert_array_equal(tiny_graph.csr.indices, before)


class TestPatchOracle:
    """apply_batch and rebuild_from_batch are bitwise interchangeable —
    the property the corrupted-patch fallback rides on."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_patch_matches_rebuild(self, seed):
        graph = rmat(8, 6, seed=seed)
        for batch in random_batches(graph, 8, 12, seed=seed + 10):
            patched = apply_batch(graph, batch)
            rebuilt = rebuild_from_batch(graph, batch)
            np.testing.assert_array_equal(
                patched.csr.indptr, rebuilt.csr.indptr
            )
            np.testing.assert_array_equal(
                patched.csr.indices, rebuilt.csr.indices
            )
            graph = patched

    def test_verify_patch_accepts_sound_csr(self, random_graph):
        assert verify_patch(random_graph.csr)

    def test_verify_patch_rejects_out_of_range_index(self, random_graph):
        csr = apply_batch(
            random_graph, UpdateBatch.empty()
        ).csr  # private copy
        csr.indices[csr.indices.size // 2] = -1
        assert not verify_patch(csr)

    def test_verify_patch_rejects_unsorted_row(self, random_graph):
        csr = apply_batch(random_graph, UpdateBatch.empty()).csr
        row = int(np.argmax(np.diff(csr.indptr) >= 2))
        lo = int(csr.indptr[row])
        csr.indices[lo], csr.indices[lo + 1] = (
            csr.indices[lo + 1],
            csr.indices[lo],
        )
        # only meaningful if the swapped pair was strictly ordered
        if csr.indices[lo] != csr.indices[lo + 1]:
            assert not verify_patch(csr)


class TestRandomBatches:
    def test_deterministic(self):
        graph = uniform_random(200, 1000, seed=7)
        a = random_batches(graph, 5, 16, seed=3)
        b = random_batches(graph, 5, 16, seed=3)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left.insert_src, right.insert_src)
            np.testing.assert_array_equal(left.delete_src, right.delete_src)

    def test_stream_replays_cleanly(self):
        graph = uniform_random(100, 400, seed=1)
        for batch in random_batches(graph, 20, 10, seed=2):
            graph = apply_batch(graph, batch)  # raises on invalid ops

    def test_bad_arguments_typed(self, tiny_graph):
        with pytest.raises(UpdateError):
            random_batches(tiny_graph, -1, 4)
        with pytest.raises(UpdateError):
            random_batches(tiny_graph, 1, 0)
