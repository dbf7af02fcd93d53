"""Bit-identity property suite for the process-pool backend.

``parallel-mp`` promises the *same bits* as the serial accumulation
bases (bincount for 1-D inputs, reduceat for rank-k): each worker fuses
Scatter+Gather per plan partition with the base's exact per-destination
addend order, so process fan-out must be invisible in the output.
Verified here across random skewed Main-Phase and phase plans (rank-1
and rank-8, weighted and not, adversarial partition counts), and
end-to-end through both engines.

The host may expose a single CPU, so every dispatch passes an explicit
``max_workers=2`` to keep the serial short-circuit from hiding the
pool path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank
from repro.core import MixenEngine
from repro.core.kernels import reduce_bincount, reduce_parallel_mp
from repro.core.phases import build_pull_plan, build_push_plan, phase_reduce
from repro.frameworks.blocking import BlockingEngine, build_block_layout
from repro.parallel import procpool
from tests.core.test_kernels import (
    dense_ref,
    layout_cases,
    skewed_edges,
    spmv,
    spmv_bincount,
    spmv_reduceat,
)
from tests.core.test_phase_kernels import phase_cases, serial_base


def spmv_parallel_mp(layout, x, **options):
    return reduce_parallel_mp(layout.reduce_plan, x, **options)


@pytest.fixture(autouse=True, scope="module")
def pool_teardown():
    # One pool serves the whole module; afterwards nothing may linger
    # in /dev/shm.
    yield
    procpool.cleanup()
    import glob

    assert glob.glob(f"/dev/shm/{procpool.SEGMENT_PREFIX}-*") == []


class TestLayoutBitIdentity:
    @given(layout_cases(), st.sampled_from((None, 8)), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_mp_matches_serial_base_bitwise(self, case, rank, with_static):
        layout, _, _, _, rng = case
        n = layout.num_nodes
        x = rng.random(n) if rank is None else rng.random((n, rank))
        static = rng.random(x.shape) if with_static else None
        serial = spmv_bincount if rank is None else spmv_reduceat
        pooled = spmv_parallel_mp(
            layout, x, static=static, max_workers=2
        )
        assert np.array_equal(serial(layout, x, static=static), pooled)

    @given(layout_cases(), st.sampled_from((None, 8)))
    @settings(max_examples=15, deadline=None)
    def test_dispatch_name_matches_dense_reference(self, case, rank):
        layout, src, dst, values, rng = case
        n = layout.num_nodes
        x = rng.random(n) if rank is None else rng.random((n, rank))
        got = spmv(layout, x, kernel="parallel-mp", max_workers=2)
        assert np.allclose(
            got, dense_ref(n, src, dst, values, x), atol=1e-9
        )

    def test_default_base_tracks_rank(self):
        # Rank-1 rides bincount and rank-k rides reduceat — same policy
        # as the thread backend.
        rng = np.random.default_rng(0)
        src, dst = skewed_edges(rng, 50, 300)
        layout = build_block_layout(src, dst, 50, 16)
        x1 = rng.random(50)
        xk = rng.random((50, 8))
        assert np.array_equal(
            spmv_parallel_mp(layout, x1, max_workers=2),
            spmv_bincount(layout, x1),
        )
        assert np.array_equal(
            spmv_parallel_mp(layout, xk, max_workers=2),
            spmv_reduceat(layout, xk),
        )

    @pytest.mark.parametrize("base", ("bincount", "reduceat"))
    def test_no_edges(self, base):
        # The base follows the input's rank: 1-D for bincount, rank-k
        # for reduceat.
        e = np.empty(0, dtype=np.int64)
        layout = build_block_layout(e, e, 10, 4)
        shape = (10,) if base == "bincount" else (10, 3)
        y = spmv_parallel_mp(layout, np.ones(shape), max_workers=2)
        assert np.array_equal(y, np.zeros(shape))


class TestPhaseBitIdentity:
    @given(phase_cases(), st.sampled_from((None, 8)),
           st.sampled_from((1, 2, 3, 7)))
    @settings(max_examples=25, deadline=None)
    def test_push_plan_bit_identical(self, case, rank, parts):
        # Adversarial partition counts: 1 (serial-shaped), primes that
        # do not divide the run count, and more parts than some plans
        # have runs.
        csr, values, rng = case
        plan = build_push_plan(csr, values=values, max_parts=parts)
        n = csr.num_rows
        x = rng.random(n) if rank is None else rng.random((n, rank))
        pooled = reduce_parallel_mp(plan, x, max_workers=2)
        assert np.array_equal(serial_base(x)(plan, x), pooled)

    @given(phase_cases(), st.sampled_from((1, 5)))
    @settings(max_examples=15, deadline=None)
    def test_pull_plan_bit_identical(self, case, parts):
        csc, values, rng = case
        plan = build_pull_plan(csc, values=values, max_parts=parts)
        for x in (
            rng.random(csc.num_cols), rng.random((csc.num_cols, 8))
        ):
            pooled = reduce_parallel_mp(plan, x, max_workers=2)
            assert np.array_equal(serial_base(x)(plan, x), pooled)

    def test_dispatch_name(self, random_graph):
        csr = random_graph.csr
        plan = build_push_plan(csr)
        rng = np.random.default_rng(1)
        x = rng.random(csr.num_rows)
        got = phase_reduce(plan, x, kernel="parallel-mp", max_workers=2)
        assert np.array_equal(got, reduce_bincount(plan, x))


class TestEnginesAcceptMP:
    @pytest.mark.parametrize("engine_cls", (MixenEngine, BlockingEngine))
    def test_pagerank_bit_identical_to_serial(
        self, engine_cls, random_graph
    ):
        # Rank-1 algorithms ride the bincount base, so a full PageRank
        # run through either engine is bit-for-bit the serial run.
        serial = engine_cls(random_graph, kernel="bincount")
        pooled = engine_cls(
            random_graph, kernel="parallel-mp", max_workers=2
        )
        serial.prepare()
        pooled.prepare()
        want = serial.run(
            PageRank(), max_iterations=6, check_convergence=False
        ).scores
        got = pooled.run(
            PageRank(), max_iterations=6, check_convergence=False
        ).scores
        assert np.array_equal(want, got)
