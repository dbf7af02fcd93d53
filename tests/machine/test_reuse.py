"""Unit tests for reuse-distance analysis."""

import numpy as np
import pytest

from repro.machine import (
    COLD,
    hits_from_distances,
    miss_ratio_curve,
    reuse_distances,
)


class TestReuseDistances:
    def test_hand_checked(self):
        # trace: a b c a  -> distances: cold cold cold 2 (b and c between)
        d = reuse_distances(np.array([0, 1, 2, 0]))
        assert d.tolist() == [COLD, COLD, COLD, 2]

    def test_immediate_reuse_is_zero(self):
        d = reuse_distances(np.array([5, 5, 5]))
        assert d.tolist() == [COLD, 0, 0]

    def test_repeated_scan(self):
        # Scanning k distinct lines twice gives distance k-1 on the rescan.
        k = 6
        stream = np.tile(np.arange(k), 2)
        d = reuse_distances(stream)
        assert np.all(d[:k] == COLD)
        assert np.all(d[k:] == k - 1)

    def test_empty(self):
        assert reuse_distances(np.array([])).size == 0

    def test_distance_counts_distinct_not_total(self):
        # a b b b a: only one distinct line between the two a's.
        d = reuse_distances(np.array([0, 1, 1, 1, 0]))
        assert d[-1] == 1


class TestHitsFromDistances:
    def test_threshold(self):
        d = np.array([0, 1, 2, COLD])
        assert hits_from_distances(d, 2).tolist() == [True, True, False, False]

    def test_rejects_bad_capacity(self):
        with pytest.raises(Exception):
            hits_from_distances(np.array([0]), 0)

    def test_matches_mattson_inclusion(self):
        # Hits at capacity C are a superset of hits at capacity C' < C.
        rng = np.random.default_rng(0)
        d = reuse_distances(rng.integers(0, 50, 2000))
        small = hits_from_distances(d, 8)
        large = hits_from_distances(d, 32)
        assert np.all(large[small])


class TestMissRatioCurve:
    def test_monotone_decreasing(self):
        rng = np.random.default_rng(1)
        d = reuse_distances(rng.integers(0, 100, 5000))
        caps = np.array([1, 2, 4, 8, 16, 32, 64, 128])
        curve = miss_ratio_curve(d, caps)
        assert np.all(np.diff(curve) <= 0)

    def test_matches_pointwise_hits(self):
        rng = np.random.default_rng(2)
        d = reuse_distances(rng.integers(0, 30, 1000))
        for cap in (2, 8, 32):
            expect = 1 - hits_from_distances(d, cap).mean()
            got = miss_ratio_curve(d, np.array([cap]))[0]
            assert got == pytest.approx(expect)

    def test_empty_trace(self):
        curve = miss_ratio_curve(np.array([], np.int64), np.array([4]))
        assert curve.tolist() == [1.0]
