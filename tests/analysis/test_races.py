"""Unit tests for the race-freedom prover (`repro.analysis.races`).

The adversarial cases hand-build overlapping or gappy task plans and
assert the prover raises a structured RaceError naming the right task
pair; the positive cases prove every shipped plan race-free.
"""

import numpy as np
import pytest

from repro.analysis.races import (
    prove_mp_reduce,
    AccessInterval,
    TaskAccess,
    dynamic_race_check,
    ensure_layout_checked,
    gather_accesses,
    prove_disjoint,
    prove_schedule,
    race_check_enabled,
    scatter_accesses,
)
from repro.core import MixenEngine
from repro.core.partition import (
    BlockTask,
    make_block_tasks,
    partition_regular,
)
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


class TestShippedPlansAreRaceFree:
    def test_default_scatter_plan(self, layout):
        proof = prove_schedule(layout)
        assert proof.num_scatter_tasks > 0
        assert "race-free" in proof.describe()

    def test_make_block_tasks_plan(self, layout):
        tasks = make_block_tasks(layout)
        proof = prove_schedule(layout, tasks)
        assert proof.num_scatter_tasks == len(tasks)

    @pytest.mark.parametrize(
        "bases", (("bincount",), ("reduceat",), ("bincount", "reduceat"))
    )
    def test_restricted_proof_equals_a_fresh_proof(self, layout, bases):
        tasks = make_block_tasks(layout)
        full = prove_schedule(layout, tasks)
        assert full.restricted(bases) == prove_schedule(
            layout, tasks, bases=bases
        )

    def test_restriction_beyond_the_proved_bases_raises(self, layout):
        proof = prove_schedule(layout, bases=("reduceat",))
        with pytest.raises(RaceError, match="does not cover"):
            proof.restricted(("bincount",))

    def test_split_tasks_stay_race_free(self, layout):
        # Aggressive balancing splits blocks into sub-slices; slices of
        # the same block still must not overlap.
        tasks = make_block_tasks(layout, max_load_factor=1.01)
        assert len(tasks) > len(make_block_tasks(layout))
        prove_schedule(layout, tasks)

    def test_partition_regular_plans(self):
        g = load_dataset("weibo", scale=0.5)
        e = MixenEngine(g, block_nodes=64)
        e.prepare()
        # prepare() itself ran the proof; re-run explicitly too.
        proof = prove_schedule(e.partition.layout, e.partition.tasks)
        assert proof.num_edges == e.partition.layout.num_edges
        assert e.race_proof.num_scatter_tasks == len(e.partition.tasks)

    def test_every_dataset_blocking(self):
        for name in ("wiki", "road"):
            g = load_dataset(name, scale=0.25)
            csr = g.csr
            lay = build_block_layout(
                csr.row_ids(), csr.indices, g.num_nodes, 200
            )
            prove_schedule(lay, make_block_tasks(lay))

    def test_dynamic_check_agrees(self, layout):
        result = dynamic_race_check(layout, make_block_tasks(layout))
        assert result.touched_bins == layout.num_edges
        assert "inside the static proof" in result.describe()


class TestAdversarialPlans:
    def test_overlapping_tuple_tasks_raise(self, layout):
        m = layout.num_edges
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(layout, [(0, 10), (5, m)])
        err = exc_info.value
        assert err.task_a == "scatter[0]"
        assert err.task_b == "scatter[1]"
        assert err.array == "bins"
        assert err.overlap == (5, 10)

    def test_overlapping_block_tasks_name_the_pair(self, layout):
        tasks = list(make_block_tasks(layout))
        victim = max(tasks, key=lambda t: t.load)
        k = tasks.index(victim)
        # A second task claiming the tail of the victim's slice.
        dup = BlockTask(
            victim.block_id, victim.end - 1, victim.end
        )
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(layout, tasks[: k + 1] + [dup] + tasks[k + 1:])
        err = exc_info.value
        assert err.array == "bins"
        assert err.overlap == (victim.end - 1, victim.end)
        assert f"block {victim.block_id}" in (err.task_a or "")
        assert f"block {victim.block_id}" in (err.task_b or "")

    def test_gap_in_bins_coverage_raises(self, layout):
        m = layout.num_edges
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(layout, [(0, 10), (12, m)])
        assert exc_info.value.overlap == (10, 12)

    def test_missing_tail_coverage_raises(self, layout):
        m = layout.num_edges
        with pytest.raises(RaceError) as exc_info:
            prove_schedule(layout, [(0, m - 3)])
        assert exc_info.value.overlap == (m - 3, m)

    def test_slice_outside_edge_range_raises(self, layout):
        m = layout.num_edges
        with pytest.raises(RaceError):
            prove_schedule(layout, [(0, m + 5)])

    def test_task_escaping_its_block_raises(self, layout):
        tasks = list(make_block_tasks(layout))
        ptr = layout.scatter_block_ptr
        # A task ending exactly at its block boundary, not at the
        # global edge tail, so end+1 escapes the block but stays in
        # range.
        victim = next(
            t
            for t in tasks
            if t.end == int(ptr[t.block_id + 1])
            and t.end < layout.num_edges
        )
        k = tasks.index(victim)
        tasks[k] = BlockTask(
            victim.block_id, victim.start, victim.end + 1
        )
        with pytest.raises(RaceError) as exc_info:
            scatter_accesses(layout, tasks)
        assert "escapes" in str(exc_info.value)

    def test_bogus_block_id_raises(self, layout):
        with pytest.raises(RaceError):
            scatter_accesses(
                layout, [BlockTask(10**6, 0, layout.num_edges)]
            )

    def test_unknown_gather_base_raises(self, layout):
        with pytest.raises(RaceError):
            gather_accesses(layout, base="gpu")


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
    def test_catches_tampered_gather_perm(self, layout):
        # Duplicate one gather slot: the static intervals still look
        # fine, only the instrumented replay sees the stale read.
        perm = layout.gather_perm.copy()
        if perm.size < 2:
            pytest.skip("layout too small")
        perm[0] = perm[1]
        tampered = type(layout)(
            num_nodes=layout.num_nodes,
            block_nodes=layout.block_nodes,
            num_blocks_per_side=layout.num_blocks_per_side,
            src_scatter=layout.src_scatter,
            dst_scatter=layout.dst_scatter,
            gather_perm=perm,
            src_gather=layout.src_gather,
            dst_gather=layout.dst_gather,
            scatter_block_ptr=layout.scatter_block_ptr,
            gather_block_ptr=layout.gather_block_ptr,
        )
        with pytest.raises(RaceError):
            dynamic_race_check(tampered)

    def test_empty_layout(self):
        lay = build_block_layout(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            4, 2,
        )
        proof = prove_schedule(lay)
        assert proof.num_edges == 0
        dynamic_race_check(lay)


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

    def test_ensure_layout_checked_caches(self, layout, monkeypatch):
        calls = []
        import repro.analysis.races as races

        monkeypatch.setattr(
            races,
            "dynamic_race_check",
            lambda lay, tasks=None: calls.append(lay),
        )
        races._checked_layouts.clear()
        ensure_layout_checked(layout)
        ensure_layout_checked(layout)
        assert len(calls) == 1
        races._checked_layouts.clear()

    def test_engine_race_check_flag_runs_replay(self):
        g = load_dataset("wiki", scale=0.25)
        e = MixenEngine(g, race_check=True)
        e.prepare()
        assert e.race_proof is not None


class TestProveMPReduce:
    """The process-pool schedule prover (`prove_mp_reduce`)."""

    @staticmethod
    def table(rows):
        return np.asarray(rows, dtype=np.int64).reshape(-1, 6)

    def test_valid_bincount_style_table(self):
        tasks = self.table(
            [(0, 4, 0, 0, 0, 2), (4, 10, 0, 0, 2, 5)]
        )
        dst = np.array([0, 1, 1, 0, 2, 3, 3, 4, 4, 2])
        proof = prove_mp_reduce("t", tasks, 5, 10, dst=dst)
        assert proof.num_tasks == 2
        assert "process-disjoint" in proof.describe()

    def test_valid_reduceat_style_table(self):
        tasks = self.table(
            [(0, 5, 0, 2, 0, 3), (5, 9, 2, 4, 3, 6)]
        )
        run_dst = np.array([0, 2, 3, 5])
        proof = prove_mp_reduce("t", tasks, 6, 9, run_dst=run_dst)
        assert proof.num_tasks == 2

    def test_overlapping_rows_raise(self):
        tasks = self.table(
            [(0, 4, 0, 0, 0, 3), (4, 8, 0, 0, 2, 5)]
        )
        with pytest.raises(RaceError, match="write-write race"):
            prove_mp_reduce("t", tasks, 5, 8)

    def test_overlapping_edge_slices_raise(self):
        tasks = self.table(
            [(0, 5, 0, 0, 0, 2), (3, 8, 0, 0, 2, 5)]
        )
        with pytest.raises(RaceError, match="write-write race"):
            prove_mp_reduce("t", tasks, 5, 8)

    def test_message_gap_raises(self):
        tasks = self.table(
            [(0, 4, 0, 0, 0, 2), (6, 10, 0, 0, 2, 5)]
        )
        with pytest.raises(RaceError, match="owned by no task"):
            prove_mp_reduce("t", tasks, 5, 10)

    def test_escaping_dst_raises(self):
        tasks = self.table([(0, 4, 0, 0, 0, 2)])
        dst = np.array([0, 1, 2, 1])  # 2 escapes rows [0, 2)
        with pytest.raises(RaceError, match="escape"):
            prove_mp_reduce("t", tasks, 5, 4, dst=dst)

    def test_escaping_run_dst_raises(self):
        tasks = self.table([(0, 4, 0, 2, 0, 2)])
        run_dst = np.array([0, 2])  # 2 escapes rows [0, 2)
        with pytest.raises(RaceError, match="escape"):
            prove_mp_reduce("t", tasks, 5, 4, run_dst=run_dst)

    def test_out_of_range_claims_raise(self):
        with pytest.raises(RaceError, match="outside"):
            prove_mp_reduce(
                "t", self.table([(0, 12, 0, 0, 0, 2)]), 5, 10
            )
        with pytest.raises(RaceError, match="outside"):
            prove_mp_reduce(
                "t", self.table([(0, 4, 0, 0, 3, 9)]), 5, 4
            )

    def test_runs_without_run_table_raise(self):
        tasks = self.table([(0, 4, 0, 2, 0, 2)])
        with pytest.raises(RaceError, match="no run table"):
            prove_mp_reduce("t", tasks, 5, 4)

    def test_shipped_layout_plans_prove(self, layout):
        from repro.parallel import procpool

        for base in ("bincount", "reduceat"):
            plan = procpool.ensure_layout_plan(layout, base)
            assert plan.proof.num_messages == layout.num_edges
        procpool.cleanup()
