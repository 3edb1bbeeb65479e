"""Supervised worker pool: health, crash containment, bounded restarts.

Real-process cases (``os._exit``, sleeps) keep their work tiny so the suite
stays fast; everything policy-shaped runs on the inline executor.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.service import (
    InlineExecutor,
    RestartBudgetError,
    SupervisedWorkerPool,
    WorkerCrashError,
    WorkerHangError,
)
from repro.service.supervisor import wait_any


# Pool tasks must be module-level (picklable) for the real-process cases.
def _double(x):
    return 2 * x


def _die(code):
    os._exit(code)


def _nap(seconds):
    time.sleep(seconds)
    return "woke"


def _raise_crash():
    raise WorkerCrashError(worker_id=-1, detail="injected")


def _raise_hang():
    raise WorkerHangError(worker_id=-1, timeout=0.0)


def test_inline_pool_round_trip():
    with SupervisedWorkerPool.inline(2) as pool:
        d = pool.submit(_double, 21)
        assert pool.result(d) == 42
        snap = pool.snapshot()
        assert snap["restarts_used"] == 0
        health = snap["workers"][d.worker_id]
        assert health["dispatched"] == 1
        assert health["completed"] == 1


def test_unharvested_dispatches_spread_across_slots():
    with SupervisedWorkerPool.inline(2) as pool:
        first = pool.submit(_double, 1)
        second = pool.submit(_double, 2)
        assert first.worker_id != second.worker_id
        pool.result(first)
        pool.result(second)


def test_task_exceptions_propagate_unwrapped():
    with SupervisedWorkerPool.inline(1) as pool:
        d = pool.submit(_raise_value_error)
        with pytest.raises(ValueError, match="task's own"):
            pool.result(d)
        # A task failure is not a worker death: no restart spent.
        assert pool.snapshot()["restarts_used"] == 0


def _raise_value_error():
    raise ValueError("task's own failure")


def test_simulated_crash_is_booked_and_slot_replaced():
    with SupervisedWorkerPool.inline(1, restart_budget=2) as pool:
        d = pool.submit(_raise_crash)
        with pytest.raises(WorkerCrashError):
            pool.result(d)
        snap = pool.snapshot()
        assert snap["workers"][0]["crashes"] == 1
        assert snap["workers"][0]["restarts"] == 1
        assert snap["restarts_used"] == 1
        # The replacement slot takes work again.
        assert pool.result(pool.submit(_double, 2)) == 4


def test_simulated_hang_is_booked_as_hang():
    with SupervisedWorkerPool.inline(1, restart_budget=2) as pool:
        d = pool.submit(_raise_hang)
        with pytest.raises(WorkerHangError):
            pool.result(d)
        assert pool.snapshot()["workers"][0]["hangs"] == 1


def test_restart_budget_exhaustion_retires_the_pool():
    with SupervisedWorkerPool.inline(1, restart_budget=1) as pool:
        for _ in range(2):
            with pytest.raises(WorkerCrashError):
                pool.result(pool.submit(_raise_crash))
        assert pool.capacity == 0
        with pytest.raises(RestartBudgetError):
            pool.submit(_double, 1)


def test_restart_budget_counts_consecutive_deaths_only():
    """A completed task between two deaths resets the slot's budget."""
    with SupervisedWorkerPool.inline(1, restart_budget=1) as pool:
        with pytest.raises(WorkerCrashError):
            pool.result(pool.submit(_raise_crash))
        assert pool.result(pool.submit(_double, 2)) == 4
        with pytest.raises(WorkerCrashError):
            pool.result(pool.submit(_raise_crash))
        assert pool.capacity == 1
        assert pool.result(pool.submit(_double, 3)) == 6
        assert pool.snapshot()["restarts_used"] == 2  # lifetime count


def test_real_worker_kill_is_contained_and_recovered():
    """An ``os._exit`` in a worker process must not take the pool down."""
    with SupervisedWorkerPool(2, restart_budget=2) as pool:
        victim = pool.submit(_die, 3)
        survivor = pool.submit(_double, 5)
        with pytest.raises(WorkerCrashError):
            pool.result(victim, timeout=30.0)
        # The other slot's in-flight work is untouched by the crash...
        assert pool.result(survivor, timeout=30.0) == 10
        # ...and the replaced slot serves again without a pool restart.
        assert pool.result(pool.submit(_double, 7), timeout=30.0) == 14
        assert pool.snapshot()["restarts_used"] == 1


def test_real_hang_kills_and_replaces_the_worker():
    with SupervisedWorkerPool(1, restart_budget=2) as pool:
        d = pool.submit(_nap, 30.0)
        start = time.perf_counter()
        with pytest.raises(WorkerHangError):
            pool.result(d, timeout=0.3)
        assert time.perf_counter() - start < 10.0  # killed, not waited out
        assert pool.snapshot()["workers"][0]["hangs"] == 1
        assert pool.result(pool.submit(_double, 3), timeout=30.0) == 6


def test_forget_releases_the_slot():
    with SupervisedWorkerPool.inline(1) as pool:
        d = pool.submit(_double, 1)
        pool.forget(d)
        assert d.slot.inflight == 0


def test_wait_helpers():
    with SupervisedWorkerPool.inline(1) as pool:
        d = pool.submit(_double, 4)
        done, pending = wait_any([d.future], timeout=1.0)
        assert d.future in done and not pending


def test_inline_executor_wraps_results_and_exceptions():
    ex = InlineExecutor()
    assert ex.submit(_double, 3).result() == 6
    assert isinstance(
        ex.submit(_raise_value_error).exception(), ValueError
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        SupervisedWorkerPool(0)
    with pytest.raises(ValueError):
        SupervisedWorkerPool.inline(1, restart_budget=-1)
