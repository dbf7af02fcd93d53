"""Unit tests for the scheduling model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.parallel import dynamic_schedule


class TestDynamicSchedule:
    def test_equal_tasks_balance_perfectly(self):
        res = dynamic_schedule(np.ones(40), 4)
        assert res.makespan == 10
        assert res.imbalance == pytest.approx(1.0)
        assert res.speedup == pytest.approx(4.0)

    def test_one_giant_task_limits_speedup(self):
        loads = np.array([100.0] + [1.0] * 10)
        res = dynamic_schedule(loads, 4)
        assert res.makespan == pytest.approx(100.0)
        assert res.speedup == pytest.approx(110 / 100)

    def test_single_thread_is_serial(self):
        loads = np.array([3.0, 1.0, 2.0])
        res = dynamic_schedule(loads, 1)
        assert res.makespan == pytest.approx(6.0)
        assert res.speedup == pytest.approx(1.0)

    def test_empty_tasks(self):
        res = dynamic_schedule(np.array([]), 8)
        assert res.makespan == 0.0
        assert res.imbalance == 1.0

    def test_validation(self):
        with pytest.raises(MachineError):
            dynamic_schedule(np.array([1.0]), 0)
        with pytest.raises(MachineError):
            dynamic_schedule(np.array([-1.0]), 2)
        with pytest.raises(MachineError):
            dynamic_schedule(np.ones((2, 2)), 2)

    @given(
        st.lists(st.floats(0, 100), min_size=0, max_size=60),
        st.integers(1, 16),
    )
    def test_invariants(self, loads, threads):
        loads = np.array(loads)
        res = dynamic_schedule(loads, threads)
        # Makespan bounds: total/threads <= makespan <= total.
        total = loads.sum()
        assert res.makespan >= total / threads - 1e-9
        assert res.makespan <= total + 1e-9
        assert res.thread_loads.sum() == pytest.approx(total)
        assert 0 < res.speedup <= threads + 1e-9

    @given(
        st.lists(st.floats(0.1, 10), min_size=1, max_size=40),
        st.integers(1, 8),
    )
    def test_dynamic_no_worse_than_static(self, loads, threads):
        loads = np.array(loads)
        dyn = dynamic_schedule(loads, threads)
        # Greedy list scheduling is a 2-approximation; static chunking can
        # be arbitrarily bad, but never better than half of dynamic.
        bounds = np.linspace(0, loads.size, threads + 1).astype(np.int64)
        static_makespan = max(
            loads[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        assert dyn.makespan <= 2 * static_makespan + 1e-9
