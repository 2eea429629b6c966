"""Schedule exploration: seeded permutations, DPOR divergence, replay.

The exploration tests run under every round engine via the ``engine``
fixture (``REPRO_ENGINE`` sweep).  Schedule policies are launch hooks
the JIT does not carry, so policy-carrying launches take the block round
loop silently while the policy-free baseline really runs fast/jit — the
divergence verdicts must be identical either way, and the fallback must
be clean (no jit telemetry on hooked launches, no error).
"""

import numpy as np
import pytest

from repro.exec.legs import ENGINES
from repro.gpu.device import Device
from repro.sanitizer.schedule import (
    BoundedPreemptionSchedule,
    LoopController,
    explore_schedules_dpor,
    replay_directed,
)


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Sweep the process-wide engine preference (downgrades silently)."""
    monkeypatch.setenv("REPRO_ENGINE", request.param)
    return request.param


def order_dependent_run(policy):
    """Final value of a[0] is whichever warp's store commits last."""
    dev = Device()
    a = dev.alloc("a", 1, np.float64)

    def kernel(tc, a):
        yield from tc.store(a, 0, float(tc.tid // 32))

    dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
               schedule_policy=policy)
    return {"a": dev.to_numpy(a)}


def stable_run(policy):
    """Disjoint indices: immune to warp/commit order."""
    dev = Device()
    a = dev.alloc("a", 64, np.float64)

    def kernel(tc, a):
        yield from tc.store(a, tc.tid, float(tc.tid))

    dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
               schedule_policy=policy)
    return {"a": dev.to_numpy(a)}


class TestExploration:
    def test_order_dependence_reproduced_within_64_schedules(self, engine):
        result = explore_schedules_dpor(order_dependent_run)
        assert result.order_dependent
        assert result.reproduced is not None
        assert result.stats.runs <= 64
        assert result.report.by_category("schedule-divergence")
        assert "replay" in result.text()

    def test_stable_kernel_never_diverges(self, engine):
        result = explore_schedules_dpor(stable_run)
        assert not result.order_dependent
        assert result.reproduced is None
        assert result.stats.runs == 1  # no conflicting pair to reverse
        assert result.report.clean
        assert "stable" in result.text()

    def test_divergence_only_some_schedules_hit_is_reported(self, engine):
        """A deadlock only a reversed order reaches shows up as errored."""

        def racy_then_diverge(policy):
            dev = Device()
            flag = dev.scalar("flag", 0.0, np.float64)

            def kernel(tc, flag):
                # Same-round race on the flag: under the default commit
                # order lane 0's store lands before every sibling's load,
                # so all lanes take the block barrier.  A permuted commit
                # order lets loads slip ahead of the store; those lanes
                # branch to the warp barrier instead and the block
                # deadlocks (lane 0 waits at syncthreads, its mask-mates
                # at syncwarp).
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

        ctl = LoopController(max_runs=64, stop_on_first_divergence=False)
        result = explore_schedules_dpor(racy_then_diverge, controller=ctl)
        assert result.order_dependent
        assert result.errored, result.text()
        # The explorer's report-mode session turns the deadlock into
        # findings on a completed launch instead of a DeadlockError.
        assert "deadlock" in result.errored[0][1]


class TestEngineDowngrade:
    """Policies are hooks: jit launches must fall back cleanly."""

    def test_policy_deopts_jit_launch_without_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "jit")
        dev = Device()
        a = dev.alloc("a", 64, np.float64)

        def kernel(tc, a):
            yield from tc.store(a, tc.tid, float(tc.tid))

        # Policy-free launch really uses the jit engine...
        kc_free = dev.launch(kernel, num_blocks=1, threads_per_block=64,
                             args=(a,))
        assert kc_free.extra.get("engine") == "jit"
        # ...the hooked launch silently deopts: no jit telemetry keys.
        kc_hook = dev.launch(kernel, num_blocks=1, threads_per_block=64,
                             args=(a,),
                             schedule_policy=BoundedPreemptionSchedule(1))
        assert "engine" not in kc_hook.extra
        assert not any(k.startswith("jit_") for k in kc_hook.extra)

    @pytest.mark.parametrize("explicit", ["jit"])
    def test_explicit_engine_plus_policy_raises(self, explicit):
        from repro.errors import LaunchError

        dev = Device()
        a = dev.alloc("a", 64, np.float64)

        def kernel(tc, a):
            yield from tc.store(a, tc.tid, float(tc.tid))

        with pytest.raises(LaunchError, match="hook"):
            dev.launch(kernel, num_blocks=1, threads_per_block=64,
                       args=(a,), engine=explicit,
                       schedule_policy=BoundedPreemptionSchedule(1))

    def test_explicit_fast_carries_the_policy(self):
        """The round loop takes every hook: explicit ``fast`` plus a
        policy runs the policy, as ``auto`` does."""
        out = []
        for engine in ("fast", "auto"):
            dev = Device()
            a = dev.alloc("a", 1, np.float64)

            def kernel(tc, a):
                yield from tc.store(a, 0, float(tc.tid // 32))

            dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
                       engine=engine,
                       schedule_policy=BoundedPreemptionSchedule(3))
            out.append(a.read(0))
        assert out[0] == out[1] == 0.0  # seed 3 commits warp 0 last

    def test_baseline_engine_does_not_change_verdict(self, engine):
        """The same divergent schedule is found whatever engine the
        process prefers — memory is bit-identical across the engine
        ladder, so the diff is engine-invariant."""
        result = explore_schedules_dpor(order_dependent_run)
        assert result.order_dependent
        # Warp 1's store moved ahead of warp 0's in round 0.
        assert result.reproduced == [["warp", 0, 0, 0, 1]]


class TestReplay:
    def test_replay_by_seed_is_deterministic(self, engine):
        """The replay handle is the divergent schedule's directive spec."""
        result = explore_schedules_dpor(order_dependent_run)
        spec = result.reproduced
        first = replay_directed(order_dependent_run, spec)
        second = replay_directed(order_dependent_run, spec)
        assert np.array_equal(first["a"], second["a"])

    def test_replay_reproduces_the_divergent_output(self, engine):
        result = explore_schedules_dpor(order_dependent_run)
        spec = result.reproduced
        baseline = result.baseline["a"]
        replayed = replay_directed(order_dependent_run, spec)["a"]
        assert not np.array_equal(replayed, baseline)

    def test_same_seed_same_permutations(self):
        a = BoundedPreemptionSchedule(7)
        b = BoundedPreemptionSchedule(7)
        for rnd in range(5):
            assert list(a.warp_order(0, rnd, 8)) == list(b.warp_order(0, rnd, 8))
            assert list(a.commit_order(0, rnd, 0, 6)) == list(b.commit_order(0, rnd, 0, 6))

    def test_different_seeds_differ_somewhere(self):
        a = [tuple(BoundedPreemptionSchedule(s).warp_order(0, 0, 16))
             for s in range(8)]
        assert len(set(a)) > 1


class TestPolicyCorrectnessEnvelope:
    def test_permuted_schedule_is_a_legal_interleaving(self, engine):
        """A well-synchronized kernel gives identical results under any
        explored schedule (the permutation only reorders commits the
        program declared unordered)."""

        def reduction_run(policy):
            dev = Device()
            total = dev.scalar("t", 0.0, np.float64)

            def kernel(tc, total):
                yield from tc.atomic_add(total, 0, float(tc.tid))

            dev.launch(kernel, num_blocks=2, threads_per_block=64,
                       args=(total,), schedule_policy=policy)
            return {"t": dev.to_numpy(total)}

        result = explore_schedules_dpor(reduction_run)
        assert not result.order_dependent, result.text()
        assert result.stats.dependent_pairs > 0  # the atomics were reversed
        assert result.baseline["t"][0] == sum(range(64)) * 2

    def test_costs_are_order_independent(self):
        """The cycle estimate must not depend on the commit permutation."""
        dev1, dev2 = Device(), Device()
        a1 = dev1.alloc("a", 64, np.float64)
        a2 = dev2.alloc("a", 64, np.float64)

        def kernel(tc, a):
            v = yield from tc.load(a, tc.tid)
            yield from tc.store(a, tc.tid, v + 1)
            yield from tc.syncthreads()

        kc1 = dev1.launch(kernel, num_blocks=1, threads_per_block=64, args=(a1,))
        kc2 = dev2.launch(kernel, num_blocks=1, threads_per_block=64, args=(a2,),
                          schedule_policy=BoundedPreemptionSchedule(3))
        assert kc1.cycles == kc2.cycles
