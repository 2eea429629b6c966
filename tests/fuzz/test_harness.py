"""Differential harness: clean plans pass the matrix, injected bugs are
mismatches, the schedule leg skips cost accounting.

The smoke legs run on the default executor, so each CI cell's
``REPRO_EXECUTOR`` re-runs them on that executor.
"""

from dataclasses import replace

import pytest

from repro.fuzz.generate import KernelPlan, plan_from_seed
from repro.fuzz.harness import (
    LegOutcome,
    default_legs,
    run_campaign,
    run_leg,
    run_program,
)

BUGGY = KernelPlan(seed=77, structure="flat", outer=33,
                   statements=(("load", 1, 0), ("muladd", 2, 1),
                               ("store", 0)),
                   bug="off_by_one")


class TestRunProgram:
    @pytest.mark.parametrize("seed", [2023, 2024, 2025, 2026])
    def test_clean_plans_pass_smoke_legs(self, seed):
        plan = plan_from_seed(seed)
        result = run_program(plan, legs=default_legs(smoke=True))
        assert result.ok, [m.describe() for m in result.mismatches]
        assert len(result.legs) == 2
        assert all(leg.ok for leg in result.legs)

    def test_clean_plan_passes_full_matrix(self):
        result = run_program(plan_from_seed(2023))
        assert result.ok, [m.describe() for m in result.mismatches]
        names = [leg.leg for leg in result.legs]
        assert "fast-parallel" in names
        assert any(n.startswith("schedule-") for n in names)
        assert any(n.startswith("batch") for n in names)

    def test_injected_bug_is_detected_on_every_engine(self):
        result = run_program(BUGGY, legs=default_legs(smoke=True))
        assert not result.ok
        # Every engine deviates from the oracle (identically, so no
        # cross-engine mismatch — the oracle is what catches the bug).
        oracle_flagged = {m.leg for m in result.mismatches
                          if m.against == "oracle"}
        assert oracle_flagged == {"fast", "jit"}
        assert all(m.what == "output:out" for m in result.mismatches), \
            [m.describe() for m in result.mismatches]

    def test_drop_last_bug_detected(self):
        plan = replace(BUGGY, bug="drop_last")
        result = run_program(plan, legs=default_legs(smoke=True))
        assert not result.ok

    def test_schedule_leg_skips_counter_comparison(self):
        plan = plan_from_seed(2026)  # atomics: contention is schedule-bound
        outcome = run_leg(plan, "schedule")
        assert outcome.ok
        assert not outcome.compare_counters
        engine_leg = run_leg(plan, "fast")
        assert engine_leg.compare_counters

    def test_counters_never_carry_jit_telemetry(self):
        outcome = run_leg(plan_from_seed(2023), "jit")
        assert outcome.ok
        assert "engine" not in outcome.counters
        assert not any(k.startswith("jit_") for k in outcome.counters)

    def test_error_legs_must_agree(self):
        bad = LegOutcome(leg="weird", error=("BoomError", "synthetic"))
        good_legs = [("fast", lambda p: run_leg(p, "fast")),
                     ("weird", lambda p: bad)]
        result = run_program(plan_from_seed(2023), legs=good_legs)
        assert not result.ok
        assert any(m.what == "error" for m in result.mismatches)


class TestCampaign:
    def test_small_campaign_passes(self):
        campaign = run_campaign(5, 2023,
                                legs=default_legs(smoke=True))
        assert campaign.ok
        assert campaign.programs == 5
        assert campaign.stop_reason == "exhausted"
        assert "PASS" in campaign.describe()

    def test_stop_on_failure(self):
        # run_campaign draws plans itself; emulate one failing seed by
        # wrapping every leg with a bug-injecting stage.
        legs = [(name,
                 (lambda fn: lambda p: fn(
                     replace(p, bug="off_by_one")
                     if p.seed == 3000 else p))(fn))
                for name, fn in default_legs(smoke=True)]
        campaign = run_campaign(4, 3000, legs=legs, stop_on_failure=True)
        assert not campaign.ok
        assert campaign.stop_reason == "failure"
        assert campaign.programs == 1  # seed 3000 fails immediately, stop
        assert campaign.failures[0].plan.seed == 3000

    def test_max_seconds_budget(self):
        campaign = run_campaign(1000, 2023, max_seconds=0.0,
                                legs=default_legs(smoke=True))
        assert campaign.programs == 0
        assert campaign.stop_reason == "max_seconds"
