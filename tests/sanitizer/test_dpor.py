"""Dynamic partial-order reduction: directed backtracking, pruning,
budgets, fallback, replay, and the jit-telemetry diff carve-out.

The headline regression (promoted from the corpus's old blind seed
fan-out): DPOR must find the order-dependent divergence *the race graph
points at*, deterministically, with strictly fewer executed schedules
than seed sampling needed — and the statistics must prove the pruning.
Atomic dependences have their own regressions in
``test_dpor_atomics.py``.
"""

import numpy as np
import pytest

from repro.sanitizer.corpus import order_dependent_run
from repro.sanitizer.schedule import (
    BoundedPreemptionSchedule,
    DirectedSchedule,
    LoopController,
    explore_schedules_dpor,
    replay_directed,
    strip_launch_telemetry,
)


#: Runs the deleted seed sampler executed on ``order_dependent_run`` with
#: 64 seeds and no early stop: the baseline plus one run per seed.
SAMPLED_RUNS = 65


def stable_run(policy):
    """Disjoint stores: no races, no divergence, nothing to backtrack."""
    from repro.gpu.device import Device

    dev = Device()
    a = dev.alloc("a", 64, np.float64)

    def kernel(tc, a):
        yield from tc.store(a, tc.tid, float(tc.tid))

    dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
               schedule_policy=policy)
    return {"a": dev.to_numpy(a)}


class TestDirectedExploration:
    def test_finds_order_dependence_deterministically(self):
        """Same kernel, same result — twice.  No seed lottery."""
        first = explore_schedules_dpor(order_dependent_run)
        second = explore_schedules_dpor(order_dependent_run)
        assert first.order_dependent and second.order_dependent
        assert first.divergent_spec == second.divergent_spec
        assert first.stats.runs == second.stats.runs
        assert first.stats.stop_reason == "divergence"

    def test_backtracking_point_names_the_racing_pair(self):
        result = explore_schedules_dpor(order_dependent_run)
        point = result.divergent_backtrack
        assert point is not None
        label = point.pair_label()
        # The warp-0/warp-1 store pair on a[0], by thread id and address.
        assert "'a'[0]" in label
        assert "t32" in label and "t31" in label
        assert point.directive[0] == "warp"
        assert "reverse warp order" in point.describe()
        assert "racing pair" in result.text()

    def test_strictly_fewer_runs_than_sampling_with_pruning_stats(self):
        """The acceptance bar: the divergence sampling found, with
        strictly fewer executed schedules than its recorded run count, and
        stats that prove the partial-order reduction did the work."""
        directed = explore_schedules_dpor(order_dependent_run)
        assert directed.order_dependent
        assert directed.stats.runs < SAMPLED_RUNS
        # The reduction is visible: many candidate schedules collapsed
        # into already-executed directive sets instead of running.
        assert directed.stats.pruned_equivalent > 0
        assert directed.stats.candidates > directed.stats.runs
        assert directed.stats.racing_pairs > 0
        assert directed.stats.dependent_pairs == 0  # stores, no atomics
        assert directed.stats.backtrack_points >= 1
        # Sampling needed a seed; DPOR derived the schedule from the race.
        assert directed.divergent_spec == directed.divergent_backtrack \
            .schedule.to_spec()

    def test_stats_exported_on_report(self):
        result = explore_schedules_dpor(order_dependent_run)
        assert result.report.stats["dpor_runs"] == float(result.stats.runs)
        assert "dpor_pruned_equivalent" in result.report.stats
        assert "runs=" in result.stats.describe()

    def test_stable_kernel_single_run_no_backtracks(self):
        result = explore_schedules_dpor(stable_run)
        assert not result.order_dependent
        assert result.divergent_spec is None
        assert result.stats.runs == 1  # baseline only: no races, no points
        assert result.stats.racing_pairs == 0
        assert result.stats.backtrack_points == 0
        assert result.stats.stop_reason == "exhausted"
        assert "stable" in result.text()

    def test_atomic_reduction_is_not_flagged(self):
        """Atomics on one cell are synchronized — no racing pairs — and
        an integer-valued sum is exact in any commit order: the dependent
        pairs are reversed and no divergence is found."""
        from repro.gpu.device import Device

        def reduction_run(policy):
            dev = Device()
            total = dev.scalar("t", 0.0, np.float64)

            def kernel(tc, total):
                yield from tc.atomic_add(total, 0, float(tc.tid))

            dev.launch(kernel, num_blocks=1, threads_per_block=64,
                       args=(total,), schedule_policy=policy)
            return {"t": dev.to_numpy(total)}

        result = explore_schedules_dpor(reduction_run)
        assert not result.order_dependent
        assert result.stats.racing_pairs == 0
        assert result.stats.dependent_pairs > 0
        assert result.baseline["t"][0] == sum(range(64))

    def test_divergent_error_found_directed(self):
        """A deadlock only a reversed commit order reaches: the race on
        the flag seeds the backtracking point that deadlocks."""
        from repro.gpu.device import Device

        def racy_then_diverge(policy):
            dev = Device()
            flag = dev.scalar("flag", 0.0, np.float64)

            def kernel(tc, flag):
                if tc.tid == 0:
                    yield from tc.store(flag, 0, 1.0)
                    yield from tc.syncthreads()
                else:
                    v = yield from tc.load(flag, 0)
                    if int(v) == 1:
                        yield from tc.syncthreads()
                    else:
                        yield from tc.syncwarp()

            dev.launch(kernel, num_blocks=1, threads_per_block=64,
                       args=(flag,), schedule_policy=policy)
            return {"flag": dev.to_numpy(flag)}

        result = explore_schedules_dpor(racy_then_diverge)
        assert result.order_dependent, result.stats.describe()
        assert result.errored
        # Under the report-mode session the deadlock surfaces as findings
        # on a completed launch, not a raised DeadlockError.
        assert "deadlock" in result.errored[0][1]
        assert result.report.by_category("schedule-divergence")
        # The replayed schedule really deadlocks outside the session.
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            replay_directed(racy_then_diverge, result.divergent_spec)


class TestReplay:
    def test_replay_directed_is_deterministic_and_divergent(self):
        result = explore_schedules_dpor(order_dependent_run)
        spec = result.divergent_spec
        assert isinstance(spec, list)  # a directive list, not a seed
        first = replay_directed(order_dependent_run, spec)
        second = replay_directed(order_dependent_run, spec)
        assert np.array_equal(first["a"], second["a"])
        assert not np.array_equal(first["a"], result.baseline["a"])

    def test_spec_roundtrips_through_json_shape(self):
        sched = DirectedSchedule([("warp", 0, 0, 0, 1), ("commit", 0, 2, 1)])
        again = DirectedSchedule.from_spec(sched.to_spec())
        assert again.key == sched.key
        # Directive sets are canonical: order and duplicates vanish.
        dup = DirectedSchedule([("commit", 0, 2, 1), ("warp", 0, 0, 0, 1),
                                ("warp", 0, 0, 0, 1)])
        assert dup.key == sched.key

    def test_directed_schedule_applies_its_directives(self):
        sched = DirectedSchedule([("warp", 0, 1, 0, 2), ("commit", 0, 1, 1)])
        # Untouched rounds keep the default ascending order.
        assert list(sched.warp_order(0, 0, 4)) == [0, 1, 2, 3]
        assert list(sched.commit_order(0, 0, 1, 3)) == [0, 1, 2]
        # Round 1: warp 2 moves ahead of warp 0; warp 1's commits reverse.
        assert list(sched.warp_order(0, 1, 4)) == [2, 0, 1, 3]
        assert list(sched.commit_order(0, 1, 1, 3)) == [2, 1, 0]


class TestController:
    def test_max_runs_budget(self):
        ctl = LoopController(max_runs=1, stop_on_first_divergence=False)
        result = explore_schedules_dpor(order_dependent_run, controller=ctl)
        assert result.stats.runs == 1
        assert result.stats.stop_reason == "max_runs"
        assert not result.order_dependent  # budget hit before any reversal

    def test_max_seconds_budget(self):
        ctl = LoopController(max_seconds=0.0, stop_on_first_divergence=False)
        result = explore_schedules_dpor(order_dependent_run, controller=ctl)
        assert result.stats.stop_reason == "max_seconds"

    def test_no_stop_maps_the_outcome_space(self):
        ctl = LoopController(stop_on_first_divergence=False)
        result = explore_schedules_dpor(order_dependent_run, controller=ctl)
        assert result.order_dependent
        assert result.stats.distinct_outcomes >= 2
        assert result.stats.stop_reason == "exhausted"
        assert result.stats.runs >= 3


class TestBoundedPreemption:
    def test_perturbs_at_most_budget_rounds_per_block(self):
        policy = BoundedPreemptionSchedule(seed=5, budget=2, horizon=32)
        perturbed = [rnd for rnd in range(64)
                     if list(policy.warp_order(0, rnd, 8)) != list(range(8))
                     or list(policy.commit_order(0, rnd, 0, 8)) != list(range(8))]
        assert 0 < len(perturbed) <= 2
        assert all(rnd < 32 for rnd in perturbed)  # horizon respected

    def test_stable_across_instances(self):
        a = BoundedPreemptionSchedule(seed=9, budget=3, horizon=16)
        b = BoundedPreemptionSchedule(seed=9, budget=3, horizon=16)
        for rnd in range(16):
            assert list(a.warp_order(1, rnd, 6)) == list(b.warp_order(1, rnd, 6))
            assert list(a.commit_order(1, rnd, 2, 5)) == \
                list(b.commit_order(1, rnd, 2, 5))

    def test_different_seeds_differ(self):
        orders = {
            tuple(tuple(BoundedPreemptionSchedule(s, budget=8, horizon=8)
                        .warp_order(0, rnd, 8)) for rnd in range(8))
            for s in range(6)
        }
        assert len(orders) > 1

    def test_fallback_runs_fire_for_cross_round_races(self):
        """A cross-round racing pair is not reversible by a round-local
        directive, so the explorer must spend fallback schedules on it."""
        from repro.gpu.device import Device

        def cross_round_run(policy):
            dev = Device()
            a = dev.alloc("a", 4, np.float64)

            def kernel(tc, a):
                if tc.tid == 0:
                    yield from tc.store(a, 0, 1.0)
                elif tc.tid == 32:
                    yield from tc.compute("alu")  # skew into round 1
                    yield from tc.store(a, 0, 2.0)
                else:
                    yield from tc.compute("alu")

            dev.launch(kernel, num_blocks=1, threads_per_block=64,
                       args=(a,), schedule_policy=policy)
            return {"a": dev.to_numpy(a)}

        ctl = LoopController(stop_on_first_divergence=False)
        result = explore_schedules_dpor(cross_round_run, controller=ctl,
                                        fallback_schedules=4)
        assert result.stats.cross_round_pairs >= 1
        assert result.stats.fallback_runs == 4


class TestTelemetryCarveOut:
    """Regression (satellite): diffing must not flag launch-scoped jit
    telemetry — a policy-hooked run takes the round loop while the
    hook-free baseline may compile, so ``extra["engine"]``/``jit_*``
    keys legitimately differ across otherwise identical runs."""

    def test_strip_launch_telemetry(self):
        extra = {"engine": "jit", "jit_traces_compiled": 3.0,
                 "jit_deopts": 1.0, "cycles": 100.0, "shared_bytes": 64.0}
        stripped = strip_launch_telemetry(extra)
        assert stripped == {"cycles": 100.0, "shared_bytes": 64.0}

    @staticmethod
    def benign_race_run(counters_for):
        """Both warps store 1.0 to ``a[0]``: a race DPOR reverses with no
        effect on memory.  ``counters_for(policy)`` supplies the run's
        counters output."""
        from repro.gpu.device import Device

        def run(policy):
            dev = Device()
            a = dev.alloc("a", 1, np.float64)

            def kernel(tc, a):
                yield from tc.store(a, 0, 1.0)

            dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
                       schedule_policy=policy)
            return {"a": dev.to_numpy(a), "counters": counters_for(policy)}

        return run

    def test_jit_only_counter_difference_is_not_divergence(self):
        def counters_for(policy):
            if not policy.directives:  # the baseline: really compiled
                return {"engine": "jit", "jit_traces_compiled": 3.0,
                        "cycles": 100.0}
            return {"cycles": 100.0}  # a reversed run: deopted

        result = explore_schedules_dpor(self.benign_race_run(counters_for))
        assert result.stats.runs > 1  # reversed runs were compared
        assert not result.order_dependent, result.text()

    def test_real_counter_difference_still_diverges(self):
        def counters_for(policy):
            cycles = 101.0 if policy.directives else 100.0
            return {"engine": "jit", "cycles": cycles}

        result = explore_schedules_dpor(self.benign_race_run(counters_for))
        assert result.order_dependent
        assert result.diffs[0].name == "counters"

    def test_dpor_end_to_end_under_jit_sweep(self, monkeypatch):
        """The whole DPOR loop under REPRO_ENGINE=jit: baseline and
        directed runs are hooked (deopt), the verdict is unchanged."""
        monkeypatch.setenv("REPRO_ENGINE", "jit")
        result = explore_schedules_dpor(order_dependent_run)
        assert result.order_dependent
        assert result.divergent_backtrack is not None
