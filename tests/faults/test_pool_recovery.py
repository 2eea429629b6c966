"""Self-healing worker pool: crash/hang retry, degradation, diagnostics.

Worker faults are injected only inside the forked worker
(:func:`repro.exec.pool._pool_worker_main`), so the in-process
degradation rung is always fault-free — these tests never ``os._exit``
the test process.
"""

import multiprocessing
import time

import pytest

from repro.errors import LaunchTimeout
from repro.exec import fork_available, fork_map
from repro.exec.pool import (
    INJECTED_CRASH_EXIT,
    RetryPolicy,
    STAT_KEYS,
    describe_exit,
)
from repro.faults import FaultPlan, FaultSpec

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform cannot fork worker processes"
)

TASKS = list(range(24))


def square(task):
    return task * task


EXPECT = [("ok", square(t)) for t in TASKS]


def crash_plan(prob=1.0, attempts=1, seed=11):
    return FaultPlan(seed=seed, specs=(
        FaultSpec("worker.crash", probability=prob, attempts=attempts),))


@needs_fork
class TestCrashRecovery:
    def test_crash_is_retried_transparently(self):
        stats = {}
        plan = crash_plan(prob=1.0, attempts=1)
        out = fork_map(square, TASKS, workers=4, faults=plan, stats=stats)
        assert out == EXPECT
        assert stats["worker_deaths"] == 4  # every first-attempt chunk died
        assert stats["chunk_retries"] >= 1
        assert stats["degraded_chunks"] == 0
        assert plan.counters.worker_crashes == 4
        assert plan.counters.recovered == 4

    def test_redistribution_across_survivors(self):
        stats = {}
        # Probability 0.5: some chunks die, some survive; the dead ones
        # are re-chunked across the pool.
        plan = crash_plan(prob=0.5, attempts=1, seed=29)
        out = fork_map(square, TASKS, workers=4, faults=plan, stats=stats)
        assert out == EXPECT
        assert 0 < stats["worker_deaths"] < 4

    def test_degrades_to_in_process_when_retries_exhausted(self):
        stats = {}
        plan = crash_plan(prob=1.0, attempts=99)  # crash every attempt
        policy = RetryPolicy(max_retries=2, backoff=0.0)
        out = fork_map(square, TASKS, workers=2, faults=plan,
                       retry=policy, stats=stats)
        assert out == EXPECT
        assert stats["degraded_chunks"] >= 1
        assert stats["degraded_tasks"] >= 1
        assert plan.counters.degradations == 1

    def test_redistribution_counts_on_the_plan(self):
        # Seed 29 kills one of the four first-round chunks; its six tasks
        # are re-chunked over all four workers, which is a redistribution
        # on both the per-call stats and the plan's counters.
        stats = {}
        plan = crash_plan(prob=0.5, attempts=1, seed=29)
        out = fork_map(square, TASKS, workers=4, faults=plan, stats=stats)
        assert out == EXPECT
        assert stats["worker_deaths"] == 1
        assert stats["redistributions"] == 1
        assert plan.counters.redistributions == 1

    def test_crash_provenance_names_exit_code(self):
        plan = crash_plan(prob=1.0, attempts=99)
        policy = RetryPolicy(max_retries=1, backoff=0.0)
        out = fork_map(square, TASKS, workers=2, faults=plan, retry=policy)
        assert out == EXPECT
        crashes = [f for f in plan.log if f.site == "worker.crash"]
        assert crashes
        assert all(f.detail == f"exit code {INJECTED_CRASH_EXIT}"
                   for f in crashes)


@needs_fork
class TestHangRecovery:
    def test_hung_worker_is_reaped_and_retried(self):
        stats = {}
        plan = FaultPlan(seed=13, specs=(
            FaultSpec("worker.hang", match=(("chunk", 0),)),))
        policy = RetryPolicy(max_retries=2, backoff=0.0, hang_timeout=0.3)
        out = fork_map(square, TASKS, workers=4, faults=plan,
                       retry=policy, stats=stats)
        assert out == EXPECT
        assert stats["worker_hangs"] == 1
        assert plan.counters.worker_hangs == 1
        assert plan.counters.recovered == 1

    def test_fault_plan_implies_default_hang_timeout(self):
        # With a plan attached, fork_map arms a finite watchdog even when
        # the policy leaves hang_timeout unset — an injected hang must
        # never hang the suite.
        plan = FaultPlan(seed=13, specs=(
            FaultSpec("worker.hang", match=(("chunk", 0),)),))
        out = fork_map(square, TASKS, workers=4, faults=plan)
        assert out == EXPECT


def slow_square(task):
    if task >= 12:
        time.sleep(5.0)
    return task * task


@needs_fork
class TestWatchdogHarvest:
    def test_forked_deadline_harvests_finished_chunks(self):
        # Two workers, chunks 0..11 and 12..23: the first finishes at
        # once, the second sleeps past the deadline.  The watchdog kills
        # it and hands the finished chunk's outcomes to ``partial``.
        sink = []
        started = time.monotonic()
        with pytest.raises(LaunchTimeout) as exc:
            fork_map(slow_square, TASKS, workers=2,
                     deadline=started + 1.0, partial=sink)
        assert time.monotonic() - started < 4.0
        assert exc.value.blocks_done == 12
        assert sink == [("ok", t * t) for t in range(12)]
        assert multiprocessing.active_children() == []


class TestDiagnostics:
    def test_describe_exit_signal(self):
        assert describe_exit(-15) == "killed by SIGTERM"
        assert describe_exit(-9) == "killed by SIGKILL"

    def test_describe_exit_code(self):
        assert describe_exit(3) == "exit code 3"
        assert describe_exit(None) == "no exit status"

    def test_stats_schema_always_seeded(self):
        stats = {}
        out = fork_map(square, TASKS, workers=1, stats=stats)
        assert out == EXPECT
        assert set(STAT_KEYS) <= set(stats)
        assert all(v == 0 for v in stats.values())


class TestOffPath:
    def test_no_plan_means_no_fault_machinery(self):
        # workers=1 short-circuits to the plain in-process path.
        assert fork_map(square, TASKS, workers=1) == EXPECT

    @needs_fork
    def test_forked_without_plan_matches_serial(self):
        assert fork_map(square, TASKS, workers=4) == EXPECT
