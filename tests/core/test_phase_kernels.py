"""Property tests for the Pre-/Post-Phase segmented-reduce kernels.

Contracts verified across random skewed bipartite structures:

* push plans reproduce the legacy ``np.repeat`` + ``bincount`` seed push
  **bitwise** on the bincount base (stable sort preserves per-destination
  message order);
* pull plans reproduce the legacy ``segment_reduce`` sink pull bitwise on
  the reduceat base (CSC is already destination-major);
* serial vs thread-pool execution of the same base is bit-identical for
  any explicit partition count;
* bincount vs reduceat agree to summation-order rounding, and exactly on
  integer inputs;
* plan structural invariants (run-aligned partition cuts, strictly
  increasing ``run_dst``) are proven by the one plan prover and
  adversarial plans are rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races import prove_schedule, replay_plan
from repro.core.bins import build_static_bins
from repro.core.kernels import (
    KERNELS,
    _flat_rank_indices,
    reduce_bincount as phase_reduce_bincount,
    reduce_parallel as phase_reduce_parallel,
    reduce_reduceat as phase_reduce_reduceat,
)
from repro.core.phases import build_pull_plan, build_push_plan, phase_reduce
from repro.core.semiring import PLUS_TIMES
from repro.errors import EngineError, RaceError
from repro.graphs.csr import CSR

SERIAL = {
    "bincount": phase_reduce_bincount,
    "reduceat": phase_reduce_reduceat,
}


def serial_base(x):
    """The serial base a pool rung accumulates with for input ``x``."""
    return SERIAL["bincount" if np.ndim(x) == 1 else "reduceat"]


@st.composite
def phase_cases(draw):
    """(csr, values, rng) of one random skewed bipartite structure."""
    rows = draw(st.integers(min_value=0, max_value=40))
    cols = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=0, max_value=300))
    weighted = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if rows == 0:
        m = 0
    src = (
        np.minimum((rng.random(m) ** 2 * rows).astype(np.int64), rows - 1)
        if m
        else np.empty(0, dtype=np.int64)
    )
    dst = (
        np.minimum((rng.random(m) ** 3 * cols).astype(np.int64), cols - 1)
        if m
        else np.empty(0, dtype=np.int64)
    )
    csr, order = CSR.from_edges_with_order(rows, src, dst, num_cols=cols)
    values = (rng.random(m) + 0.5)[order] if weighted and m else None
    return csr, values, rng


def dense_push_ref(csr, values, x):
    """Reference push directly off the edge arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros((csr.num_cols,) + x.shape[1:], dtype=np.float64)
    src = csr.row_ids()
    w = np.ones(csr.num_edges) if values is None else values
    contrib = x[src] * (w if x.ndim == 1 else w[:, None])
    np.add.at(y, csr.indices, contrib)
    return y


class TestPushPlan:
    @given(phase_cases(), st.sampled_from((None, 3)))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(self, case, rank):
        csr, values, rng = case
        plan = build_push_plan(csr, values=values)
        n = csr.num_rows
        x = rng.random(n) if rank is None else rng.random((n, rank))
        expect = dense_push_ref(csr, values, x)
        for name in ("bincount", "reduceat", "parallel"):
            got = phase_reduce(plan, x, kernel=name, max_workers=3)
            assert got.shape == expect.shape
            assert np.allclose(got, expect, atol=1e-9), name

    @given(phase_cases())
    @settings(max_examples=60, deadline=None)
    def test_bincount_base_bit_identical_to_legacy_push(self, case):
        # The tentpole's anchor: the stable destination sort preserves
        # each destination's source-major message order, so the
        # reduce-ordered bincount equals build_static_bins bitwise.
        csr, values, rng = case
        plan = build_push_plan(csr, values=values)
        x = rng.random(csr.num_rows)
        legacy = build_static_bins(csr, x, edge_values=values)
        got = phase_reduce_bincount(plan, x)
        assert np.array_equal(got, legacy)

    @given(phase_cases(), st.sampled_from((None, 2)),
           st.sampled_from((1, 2, 3, 7)))
    @settings(max_examples=60, deadline=None)
    def test_serial_parallel_bit_identical(self, case, rank, parts):
        csr, values, rng = case
        plan = build_push_plan(csr, values=values, max_parts=parts)
        n = csr.num_rows
        x = rng.random(n) if rank is None else rng.random((n, rank))
        threaded = phase_reduce_parallel(plan, x, max_workers=3)
        assert np.array_equal(serial_base(x)(plan, x), threaded)

    @given(phase_cases(), st.sampled_from((None, 2)))
    @settings(max_examples=60, deadline=None)
    def test_integer_inputs_bit_identical_everywhere(self, case, rank):
        csr, values, rng = case
        if values is not None:
            values = np.floor(values * 8)
        plan = build_push_plan(csr, values=values, max_parts=4)
        n = csr.num_rows
        shape = (n,) if rank is None else (n, rank)
        x = np.floor(rng.random(shape) * 16)
        results = [
            phase_reduce(plan, x, kernel=name, max_workers=3)
            for name in ("bincount", "reduceat", "parallel")
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    @given(phase_cases())
    @settings(max_examples=60, deadline=None)
    def test_reduceat_within_rounding_of_bincount(self, case):
        csr, values, rng = case
        plan = build_push_plan(csr, values=values)
        x = rng.random(csr.num_rows)
        np.testing.assert_allclose(
            phase_reduce_reduceat(plan, x),
            phase_reduce_bincount(plan, x),
            rtol=1e-10, atol=1e-12,
        )


class TestPullPlan:
    @given(phase_cases())
    @settings(max_examples=60, deadline=None)
    def test_reduceat_base_bit_identical_to_segment_reduce(self, case):
        # The Post-Phase's legacy computation is PLUS_TIMES.segment_reduce
        # over the CSC rows; the pull plan's reduceat base is the same
        # reduction over the same stream — bitwise equal.
        csc, values, rng = case
        plan = build_pull_plan(csc, values=values)
        x = rng.random(csc.num_cols)
        gathered = x[csc.indices]
        if values is not None:
            gathered = gathered * values
        legacy = PLUS_TIMES.segment_reduce(gathered, csc.indptr)
        got = phase_reduce_reduceat(plan, x)
        assert np.array_equal(got, legacy)

    @given(phase_cases(), st.sampled_from((1, 2, 5)))
    @settings(max_examples=60, deadline=None)
    def test_serial_parallel_bit_identical(self, case, parts):
        csc, values, rng = case
        plan = build_pull_plan(csc, values=values, max_parts=parts)
        for x in (
            rng.random(csc.num_cols), rng.random((csc.num_cols, 2))
        ):
            threaded = phase_reduce_parallel(plan, x, max_workers=3)
            assert np.array_equal(serial_base(x)(plan, x), threaded)

    @given(phase_cases(), st.sampled_from((None, 2)))
    @settings(max_examples=40, deadline=None)
    def test_matches_push_of_transpose(self, case, rank):
        # Pulling rows from a CSC is pushing along the same edges; both
        # plans must agree to rounding.
        csc, values, rng = case
        pull = build_pull_plan(csc, values=values)
        push = build_push_plan(
            CSR.from_edges_with_order(
                csc.num_cols, csc.indices,
                np.repeat(np.arange(csc.num_rows),
                          np.diff(csc.indptr)),
                num_cols=csc.num_rows,
            )[0],
            num_rows=csc.num_rows,
        )
        n = csc.num_cols
        x = rng.random(n) if rank is None else rng.random((n, rank))
        if values is None:
            np.testing.assert_allclose(
                phase_reduce_reduceat(pull, x),
                phase_reduce_bincount(push, x),
                rtol=1e-10, atol=1e-12,
            )


class TestPlanStructure:
    @given(phase_cases(), st.sampled_from((None, 1, 3, 16)))
    @settings(max_examples=60, deadline=None)
    def test_build_proof_and_dynamic_replay(self, case, parts):
        csr, values, _ = case
        plan = build_push_plan(csr, values=values, max_parts=parts)
        proof = prove_schedule(plan)
        assert proof.num_messages == csr.num_edges
        assert "race-free" in proof.describe()
        assert replay_plan(plan) == proof
        # Partition count is deterministic in the plan, independent of
        # the worker count used to execute it.
        assert plan.part_edge_ptr[-1] == csr.num_edges

    def test_split_run_rejected(self):
        src = np.zeros(4, dtype=np.int64)
        dst = np.array([1, 1, 1, 1], dtype=np.int64)
        csr, _ = CSR.from_edges_with_order(1, src, dst, num_cols=3)
        plan = build_push_plan(csr)
        import dataclasses

        # Cut the single destination run in half: both halves write row 1.
        bad = dataclasses.replace(
            plan,
            part_edge_ptr=np.array([0, 2, 4], dtype=np.int64),
            part_run_ptr=np.array([0, 0, 1], dtype=np.int64),
        )
        with pytest.raises(RaceError):
            prove_schedule(bad)

    def test_non_monotone_run_dst_rejected(self):
        src = np.array([0, 0], dtype=np.int64)
        dst = np.array([0, 2], dtype=np.int64)
        csr, _ = CSR.from_edges_with_order(1, src, dst, num_cols=3)
        plan = build_push_plan(csr)
        import dataclasses

        bad = dataclasses.replace(
            plan, run_dst=plan.run_dst[::-1].copy()
        )
        with pytest.raises(RaceError):
            prove_schedule(bad)

    def test_unknown_kernel_raises(self):
        csr, _ = CSR.from_edges_with_order(
            1, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
            num_cols=1,
        )
        plan = build_push_plan(csr)
        with pytest.raises(EngineError, match="unknown kernel"):
            phase_reduce(plan, np.ones(1), kernel="nope")

    def test_phase_kernels_cover_spmv_backends(self):
        # One backend set runs every phase's plan.
        assert set(KERNELS) == {
            "bincount", "reduceat", "parallel", "parallel-mp",
        }

    def test_empty_structure(self):
        e = np.empty(0, dtype=np.int64)
        csr, _ = CSR.from_edges_with_order(0, e, e, num_cols=7)
        plan = build_push_plan(csr)
        for name in ("bincount", "reduceat", "parallel"):
            y = phase_reduce(plan, np.empty(0), kernel=name)
            assert y.shape == (7,)
            assert np.array_equal(y, np.zeros(7))


class TestFlatRankIndices:
    def test_int32_near_overflow_promotes(self):
        # dst * k near 2^31 must not wrap in int32: the helper promotes
        # before the multiply.
        k = 4
        dst = np.array([(2**31 - 2) // k], dtype=np.int32)
        flat = _flat_rank_indices(dst, k)
        assert flat.dtype == np.int64
        expect = np.int64(dst[0]) * k + np.arange(k)
        assert np.array_equal(flat[0], expect)
        assert (flat >= 0).all()

    def test_matches_plain_arithmetic(self):
        dst = np.array([0, 3, 1], dtype=np.int64)
        flat = _flat_rank_indices(dst, 2)
        assert np.array_equal(
            flat, np.array([[0, 1], [6, 7], [2, 3]])
        )
