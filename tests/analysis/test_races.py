"""Unit tests for the race-freedom prover (`repro.analysis.races`).

The adversarial cases hand-tamper a reduce plan — overlapping or gappy
partitions, split runs, escaping destinations — and assert the one
prover raises a structured RaceError naming the right partition pair or
range; the positive cases prove every shipped plan race-free.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.races import (
    AccessInterval,
    TaskAccess,
    ensure_plan_checked,
    prove_disjoint,
    prove_schedule,
    race_check_enabled,
    replay_plan,
)
from repro.core import MixenEngine
from repro.core.kernels import build_plan
from repro.core.phases import build_push_plan
from repro.errors import RaceError
from repro.frameworks.blocking import build_block_layout
from repro.graphs import load_dataset


@pytest.fixture(scope="module")
def layout():
    g = load_dataset("wiki", scale=0.5)
    csr = g.csr
    return build_block_layout(
        csr.row_ids(), csr.indices, g.num_nodes, 128
    )


@pytest.fixture(scope="module")
def plan(layout):
    return layout.reduce_plan


def small_plan(**changes):
    """Nine messages into six rows, two partitions of two runs each:
    partition 0 writes rows [0, 3), partition 1 rows [3, 6)."""
    base = build_plan(
        "t",
        6,
        src=np.arange(9),
        dst=np.array([0, 0, 2, 2, 2, 3, 3, 5, 5]),
        row_bounds=np.array([0, 3, 6]),
    )
    return replace(base, **changes)


class TestShippedPlansAreRaceFree:
    def test_default_scatter_plan(self, layout, plan):
        proof = prove_schedule(plan)
        assert proof.num_partitions == layout.num_blocks_per_side
        assert proof.num_messages == layout.num_edges
        assert "race-free" in proof.describe()

    def test_make_block_tasks_plan(self, layout, plan):
        # The Main-Phase partitions are the layout's block-columns.
        b = layout.num_blocks_per_side
        assert np.array_equal(
            plan.part_edge_ptr, layout.gather_block_ptr[:: b]
        )

    def test_split_tasks_stay_race_free(self, layout):
        # Cutting the same stream into many more partitions keeps every
        # cut on a run boundary.
        few = build_plan(
            "few", layout.num_nodes, layout.src_scatter,
            layout.dst_scatter, max_parts=2,
        )
        many = build_plan(
            "many", layout.num_nodes, layout.src_scatter,
            layout.dst_scatter, max_parts=64,
        )
        assert many.num_partitions > few.num_partitions
        prove_schedule(few)
        prove_schedule(many)

    def test_partition_regular_plans(self):
        g = load_dataset("weibo", scale=0.5)
        e = MixenEngine(g, block_nodes=64)
        e.prepare()
        # prepare() itself ran the proof; re-run explicitly too.
        lay = e.partition.layout
        proof = prove_schedule(lay.reduce_plan)
        assert proof.num_messages == lay.num_edges
        assert e.race_proof == proof
        assert e.race_proof.num_partitions == lay.num_blocks_per_side

    def test_every_dataset_blocking(self):
        for name in ("wiki", "road"):
            g = load_dataset(name, scale=0.25)
            csr = g.csr
            lay = build_block_layout(
                csr.row_ids(), csr.indices, g.num_nodes, 200
            )
            prove_schedule(lay.reduce_plan)

    def test_dynamic_check_agrees(self, plan):
        assert replay_plan(plan) == prove_schedule(plan)


class TestAdversarialPlans:
    def test_overlapping_tuple_tasks_raise(self, plan):
        m = plan.num_messages
        ep = np.array([0, 10, 5, m])
        rp = np.array([0, 1, 1, plan.num_runs])
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(
                replace(plan, part_edge_ptr=ep, part_run_ptr=rp)
            )
        err = exc_info.value
        assert err.task_a == "main[0]"
        assert err.task_b == "main[2]"
        assert err.array == "msgs"
        assert err.overlap == (5, 10)

    def test_overlapping_block_tasks_name_the_pair(self):
        # Partition 1's first destination lands inside partition 0's
        # rows: the row intervals [0, 4) and [2, 6) overlap.
        tampered = small_plan(run_dst=np.array([0, 3, 2, 5]))
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(tampered)
        err = exc_info.value
        assert err.array == "y"
        assert err.overlap == (2, 4)
        assert {err.task_a, err.task_b} == {"t[0]", "t[1]"}

    def test_gap_in_bins_coverage_raises(self):
        tampered = small_plan(part_edge_ptr=np.array([2, 5, 9]))
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(tampered)
        assert exc_info.value.overlap == (0, 2)

    def test_missing_tail_coverage_raises(self):
        tampered = small_plan(part_edge_ptr=np.array([0, 5, 6]))
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(tampered)
        assert exc_info.value.overlap == (6, 9)

    def test_slice_outside_edge_range_raises(self):
        with pytest.raises(RaceError, match="outside"):
            prove_schedule(small_plan(part_edge_ptr=np.array([0, 5, 14])))

    def test_task_escaping_its_block_raises(self):
        # Move the cut one message into partition 1's first run.
        tampered = small_plan(part_edge_ptr=np.array([0, 6, 9]))
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(tampered)
        assert "splits" in str(exc_info.value)

    def test_bogus_block_id_raises(self):
        with pytest.raises(RaceError, match="outside"):
            prove_schedule(
                small_plan(part_run_ptr=np.array([0, 2, 10**6]))
            )


class TestProveDisjoint:
    def test_write_write_overlap(self):
        a = TaskAccess(
            "a", (AccessInterval("y", 0, 10, write=True),)
        )
        b = TaskAccess(
            "b", (AccessInterval("y", 8, 20, write=True),)
        )
        with pytest.raises(RaceError) as exc_info:
            prove_disjoint([a, b])
        err = exc_info.value
        assert {err.task_a, err.task_b} == {"a", "b"}
        assert err.overlap == (8, 10)

    def test_read_write_overlap(self):
        writer = TaskAccess(
            "writer", (AccessInterval("y", 0, 10, write=True),)
        )
        reader = TaskAccess(
            "reader", (AccessInterval("y", 5, 6, write=False),)
        )
        with pytest.raises(RaceError) as exc_info:
            prove_disjoint([writer, reader])
        assert {exc_info.value.task_a, exc_info.value.task_b} == {
            "writer", "reader",
        }

    def test_long_read_spanning_many_writes(self):
        # The conflicting write is several intervals before the last
        # one starting inside the read — the backward scan must find it.
        writes = [
            TaskAccess(
                f"w{k}",
                (AccessInterval("y", 10 * k, 10 * k + 5, write=True),),
            )
            for k in range(5)
        ]
        reader = TaskAccess(
            "r", (AccessInterval("y", 12, 48, write=False),)
        )
        with pytest.raises(RaceError):
            prove_disjoint(writes + [reader])

    def test_same_task_overlap_allowed(self):
        both = TaskAccess(
            "t",
            (
                AccessInterval("y", 0, 10, write=True),
                AccessInterval("y", 0, 10, write=False),
            ),
        )
        prove_disjoint([both])

    def test_different_arrays_never_conflict(self):
        a = TaskAccess("a", (AccessInterval("y", 0, 10, write=True),))
        b = TaskAccess("b", (AccessInterval("x", 0, 10, write=True),))
        prove_disjoint([a, b])


class TestDynamicCheck:
    def test_catches_tampered_gather_perm(self, plan):
        # Duplicate one destination slot of the reduce stream.
        dst = plan.dst.copy()
        if dst.size < 2 or dst[0] == dst[-1]:
            pytest.skip("plan too small")
        dst[0] = dst[-1]
        with pytest.raises(RaceError):
            replay_plan(replace(plan, dst=dst))

    def test_empty_layout(self):
        lay = build_block_layout(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            4, 2,
        )
        proof = prove_schedule(lay.reduce_plan)
        assert proof.num_messages == 0
        replay_plan(lay.reduce_plan)


class TestEnvToggle:
    def test_race_check_enabled_parsing(self, monkeypatch):
        for value, expect in (
            ("1", True), ("true", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("", False),
        ):
            monkeypatch.setenv("REPRO_RACE_CHECK", value)
            assert race_check_enabled() is expect
        monkeypatch.delenv("REPRO_RACE_CHECK")
        assert race_check_enabled() is False

    def test_ensure_layout_checked_caches(self, plan, monkeypatch):
        calls = []
        import repro.analysis.races as races

        monkeypatch.setattr(races, "replay_plan", calls.append)
        races._checked_plans.clear()
        ensure_plan_checked(plan)
        ensure_plan_checked(plan)
        assert calls == [plan]
        races._checked_plans.clear()

    def test_engine_race_check_flag_runs_replay(self):
        g = load_dataset("wiki", scale=0.25)
        e = MixenEngine(g, race_check=True)
        e.prepare()
        assert e.race_proof is not None


class TestProveMPReduce:
    """The process-pool task table is the plan's partition table, so
    the one prover covers what the pool ships."""

    def test_valid_bincount_style_table(self):
        from repro.parallel.procpool import plan_tasks

        plan = small_plan()
        proof = prove_schedule(plan)
        assert proof.num_partitions == 2
        assert plan_tasks(plan).tolist() == [[0, 5, 0, 2], [5, 9, 2, 4]]

    def test_valid_reduceat_style_table(self):
        from repro.parallel.procpool import plan_tasks

        # An empty middle partition proves and is dropped from the
        # shipped table.
        plan = small_plan(
            part_edge_ptr=np.array([0, 5, 5, 9]),
            part_run_ptr=np.array([0, 2, 2, 4]),
        )
        assert prove_schedule(plan).num_partitions == 3
        assert plan_tasks(plan).shape == (2, 4)

    def test_overlapping_rows_raise(self):
        with pytest.raises(RaceError, match="write-write race"):
            prove_schedule(small_plan(run_dst=np.array([0, 3, 2, 5])))

    def test_overlapping_edge_slices_raise(self):
        with pytest.raises(RaceError, match="write-write race"):
            prove_schedule(
                small_plan(
                    part_edge_ptr=np.array([0, 7, 5, 9]),
                    part_run_ptr=np.array([0, 2, 2, 4]),
                )
            )

    def test_message_gap_raises(self):
        with pytest.raises(RaceError, match="owned by no partition"):
            prove_schedule(small_plan(part_edge_ptr=np.array([0, 5, 7])))

    def test_escaping_dst_raises(self):
        dst = np.array([0, 0, 2, 2, 3, 3, 3, 5, 5])
        with pytest.raises(RaceError, match="dst stream"):
            prove_schedule(small_plan(dst=dst))

    def test_escaping_run_dst_raises(self):
        with pytest.raises(RaceError, match="inside"):
            prove_schedule(small_plan(run_dst=np.array([0, 2, 3, 6])))

    def test_out_of_range_claims_raise(self):
        with pytest.raises(RaceError, match="outside"):
            prove_schedule(small_plan(part_edge_ptr=np.array([0, 5, 12])))
        with pytest.raises(RaceError, match="outside"):
            prove_schedule(small_plan(part_run_ptr=np.array([0, 2, 9])))

    def test_runs_without_run_table_raise(self):
        empty = np.empty(0, dtype=np.int64)
        tampered = small_plan(
            run_starts=empty,
            run_dst=empty,
            part_run_ptr=np.zeros(3, dtype=np.int64),
        )
        with pytest.raises(RaceError, match="no runs"):
            prove_schedule(tampered)

    def test_shipped_layout_plans_prove(self, plan):
        from repro.parallel import procpool

        try:
            shm_plan = procpool.ensure_plan(plan)
            assert shm_plan.num_messages == plan.num_messages
            assert shm_plan.num_tasks == procpool.plan_tasks(plan).shape[0]
        finally:
            procpool.cleanup()


def test_phase_plans_prove_and_replay():
    g = load_dataset("weibo", scale=0.5)
    plan = build_push_plan(g.csr, max_parts=8, name="push")
    assert replay_plan(plan).num_partitions == plan.num_partitions
