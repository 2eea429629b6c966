"""Warm WorkerPool: persistent reuse, health-checked respawn, teardown.

These tests pin the properties the serve tier depends on: the same
forked workers service many ``map`` calls (no fork-per-launch), a
worker killed mid-stream is respawned and its work retried without a
wrong answer, and every pool is torn down — explicitly, via ``with``,
or by the atexit sweep — so warm children never outlive the
interpreter.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.exec.pool import (
    INJECTED_CRASH_EXIT,
    RetryPolicy,
    WorkerPool,
    _LIVE_POOLS,
    _sweep_pools,
    fork_available,
)
from repro.faults import coerce_faults
from repro.faults.plan import FaultPlan, FaultSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _double(payload):
    return payload * 2


def _pid_of(payload):
    return os.getpid()


@needs_fork
class TestWarmReuse:
    def test_same_workers_across_maps(self):
        with WorkerPool(_pid_of, workers=2) as pool:
            first = set(r for s, r in pool.map(range(8)) if s == "ok")
            pids_a = pool.pids()
            second = set(r for s, r in pool.map(range(8)) if s == "ok")
            pids_b = pool.pids()
        assert pids_a == pids_b, "workers were respawned between maps"
        assert first == second == set(pids_a)
        assert pool.stats["worker_respawns"] == 0
        assert pool.stats["warm_dispatches"] == 2

    def test_results_ordered_and_correct(self):
        with WorkerPool(_double, workers=3) as pool:
            for _ in range(3):
                out = pool.map(list(range(20)))
                assert [r for s, r in out] == [i * 2 for i in range(20)]
                assert all(s == "ok" for s, _ in out)

    def test_dead_worker_respawned_by_ensure(self):
        with WorkerPool(_pid_of, workers=2) as pool:
            pool.map(range(4))
            victim = pool.pids()[0]
            proc = next(w.proc for w in pool._slots
                        if w is not None and w.pid == victim)
            os.kill(victim, signal.SIGKILL)
            # Reap through the Process handle, so multiprocessing sees the
            # exit and drops the child from active_children().
            proc.join(5)
            assert proc.exitcode == -signal.SIGKILL
            out = pool.map(range(4))
            assert all(s == "ok" for s, _ in out)
            assert victim not in pool.pids()
            assert pool.stats["worker_respawns"] >= 1


@needs_fork
class TestCrashRecovery:
    def test_injected_crash_recovers_with_correct_results(self):
        plan = coerce_faults("13:worker.crash=0.5")
        with WorkerPool(_double, workers=2, faults=plan) as pool:
            out = pool.map(list(range(16)))
        assert [r for s, r in out] == [i * 2 for i in range(16)]
        assert pool.stats["worker_deaths"] >= 1
        assert pool.stats["worker_respawns"] >= 1
        # The plan's retry count is folded from the pool's, once.
        assert plan.counters.chunk_retries == pool.stats["chunk_retries"] >= 1

    def test_exhausted_retries_degrade_in_process(self):
        # attempts=99 defeats every retry round (a spec's default
        # attempts=1 makes faults transient: first retry succeeds).
        plan = FaultPlan(13, (
            FaultSpec("worker.crash", probability=1.0, attempts=99),))
        with WorkerPool(_double, workers=2, faults=plan,
                        retry=RetryPolicy(max_retries=1)) as pool:
            out = pool.map(list(range(6)))
        assert [r for s, r in out] == [i * 2 for i in range(6)]
        assert pool.stats["degraded_chunks"] >= 1

    def test_crash_exit_code_is_distinct(self):
        # The sentinel must not collide with common exit codes.
        assert INJECTED_CRASH_EXIT not in (0, 1, 2)


@needs_fork
class TestTeardown:
    def test_close_reaps_children(self):
        pool = WorkerPool(_double, workers=2)
        pool.map(range(4))
        pids = [p for p in pool.pids() if p is not None]
        assert pids
        pool.close()
        assert pool.closed
        for pid in pids:
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            else:
                pytest.fail(f"worker {pid} still alive after close()")

    def test_close_is_idempotent_and_blocks_reuse(self):
        pool = WorkerPool(_double, workers=1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map([1])

    def test_atexit_sweep_closes_live_pools(self):
        pool = WorkerPool(_double, workers=1)
        pool.map([1])
        assert pool in _LIVE_POOLS
        _sweep_pools()
        assert pool.closed
        assert pool not in _LIVE_POOLS

    def test_context_manager_closes(self):
        with WorkerPool(_double, workers=1) as pool:
            pool.map([3])
        assert pool.closed


class TestInProcessFallback:
    def test_threads_mode_still_correct(self):
        """processes=False (no fork) runs the same contract in-process."""
        with WorkerPool(_double, workers=2, processes=False) as pool:
            out = pool.map(list(range(10)))
            assert [r for s, r in out] == [i * 2 for i in range(10)]
            out2 = pool.map(list(range(5)))
            assert [r for s, r in out2] == [i * 2 for i in range(5)]
