"""Unit tests for the cache simulators."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine import DirectMappedCache, SetAssociativeLRU


class TestDirectMapped:
    def test_repeat_hits(self):
        c = DirectMappedCache(256, 64)  # 4 lines
        hits = c.simulate(np.array([0, 0, 0]))
        assert hits.tolist() == [False, True, True]

    def test_conflict_misses(self):
        c = DirectMappedCache(256, 64)  # 4 sets: lines 0 and 4 collide
        hits = c.simulate(np.array([0, 4, 0, 4]))
        assert hits.tolist() == [False, False, False, False]

    def test_distinct_sets_coexist(self):
        c = DirectMappedCache(256, 64)
        hits = c.simulate(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert hits.tolist() == [False] * 4 + [True] * 4

    def test_empty_stream(self):
        assert DirectMappedCache(256, 64).simulate(np.array([])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(MachineError):
            DirectMappedCache(256, 64).simulate(np.zeros((2, 2), np.int64))

    def test_rejects_bad_geometry(self):
        with pytest.raises(MachineError):
            DirectMappedCache(100, 64).num_lines
        with pytest.raises(MachineError):
            DirectMappedCache(0, 64).num_lines

    def test_sequential_scan_bigger_than_cache_all_misses(self):
        c = DirectMappedCache(256, 64)
        stream = np.tile(np.arange(8), 3)  # 8 lines > 4-line cache
        hits = c.simulate(stream)
        assert not hits.any()  # every set alternates between two lines


class TestSetAssociativeLRU:
    def test_two_way_holds_two_lines(self):
        c = SetAssociativeLRU(128, 64, ways=2)  # one set, two ways
        hits = c.simulate(np.array([0, 1, 0, 1]))
        assert hits.tolist() == [False, False, True, True]

    def test_lru_eviction_order(self):
        c = SetAssociativeLRU(128, 64, ways=2)
        # 0, 1 resident; touching 0 makes 1 the LRU victim for 2.
        hits = c.simulate(np.array([0, 1, 0, 2, 0, 1]))
        assert hits.tolist() == [False, False, True, False, True, False]

    def test_sets_are_independent(self):
        c = SetAssociativeLRU(256, 64, ways=2)  # 2 sets
        # Lines 0, 2 in set 0; lines 1, 3 in set 1.
        hits = c.simulate(np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        assert hits.tolist() == [False] * 4 + [True] * 4

    def test_matches_direct_mapped_when_one_way(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 64, 3000)
        dm = DirectMappedCache(1024, 64).simulate(stream)
        sa = SetAssociativeLRU(1024, 64, ways=1).simulate(stream)
        assert np.array_equal(dm, sa)

    def test_full_associativity_matches_reuse_distance(self):
        from repro.machine import hits_from_distances, reuse_distances

        rng = np.random.default_rng(1)
        stream = rng.integers(0, 40, 2000)
        cache = SetAssociativeLRU(16 * 64, 64, ways=16)  # fully associative
        got = cache.simulate(stream)
        expect = hits_from_distances(reuse_distances(stream), 16)
        assert np.array_equal(got, expect)

    def test_rejects_bad_ways(self):
        with pytest.raises(MachineError):
            SetAssociativeLRU(256, 64, ways=0)
        with pytest.raises(MachineError):
            SetAssociativeLRU(256, 64, ways=3)  # 4 lines not divisible by 3

    def test_empty_stream(self):
        c = SetAssociativeLRU(256, 64, ways=2)
        assert c.simulate(np.array([])).size == 0

    def test_geometry_properties(self):
        c = SetAssociativeLRU(1024, 64, ways=4)
        assert c.num_lines == 16
        assert c.num_sets == 4

    def test_associativity_never_hurts_single_set(self):
        # With a single set, more ways == larger LRU stack => monotone hits.
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 30, 1500)
        h2 = SetAssociativeLRU(2 * 64, 64, ways=2).simulate(stream).sum()
        h8 = SetAssociativeLRU(8 * 64, 64, ways=8).simulate(stream).sum()
        assert h8 >= h2


class TestModelFidelity:
    def test_direct_mapped_tracks_lru_on_graph_trace(self):
        """The fast direct-mapped model must track the exact 8-way LRU
        within a usable margin on a realistic propagation trace."""
        import numpy as np

        from repro.core import MixenEngine
        from repro.graphs import load_dataset
        from repro.machine import (
            AccessTrace,
            AddressSpace,
            MemoryHierarchy,
            SCALED_MACHINE,
        )

        g = load_dataset("wiki")
        engine = MixenEngine(g)
        engine.prepare()

        ratios = {}
        for exact in (False, True):
            trace = AccessTrace(AddressSpace(SCALED_MACHINE.line_bytes))
            engine.trace_iteration(trace)
            h = MemoryHierarchy(SCALED_MACHINE, exact_lru=exact)
            counters = h.run_trace(trace)
            ratios[exact] = counters.caches["L2"].hit_ratio
        assert ratios[False] == pytest.approx(ratios[True], abs=0.15)
