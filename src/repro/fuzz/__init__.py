"""repro.fuzz — generative differential testing of the whole stack.

A ``riescue``-style constrained-random kernel fuzzer: every program is a
discrete, seeded *test plan* (:class:`~repro.fuzz.generate.KernelPlan`)
drawn from a closed grammar of valid teams/parallel/simd directive
shapes and race-free leaf-body statements, with expected values computed
by a trivially-serial numpy oracle — so every generated kernel is
self-checking and every failure replays from its integer seed alone.

* :mod:`~repro.fuzz.generate` — plan grammar, directive-tree builder,
  input synthesis, and the serial oracle;
* :mod:`~repro.fuzz.harness` — runs one program through the
  engines × executors × schedules matrix (round loop/jit,
  serial/parallel, permuted warp order, segmented serve batching) and
  diffs memory, counters, and errors bit-for-bit;
* :mod:`~repro.fuzz.minimize` — shrinks a failing plan by plan-field
  reduction (drop statements, shrink geometry/trips, flatten structure)
  under re-verification;
* :mod:`~repro.fuzz.__main__` — ``python -m repro.fuzz`` CLI: seeded
  campaign, replay-by-seed, minimize-on-failure.

The standing campaign seed is **2023** (the same convention as the
fault-injection campaign, see ``docs/RESILIENCE.md``); CI runs a smoke
slice of the seeded campaign on every PR and the full bounded campaign
nightly (``docs/FUZZING.md``).
"""

from __future__ import annotations

from repro.fuzz.generate import (
    CAMPAIGN_SEED,
    KernelPlan,
    build_program,
    make_inputs,
    oracle,
    plan_from_seed,
)
from repro.fuzz.harness import (
    LegOutcome,
    Mismatch,
    ProgramResult,
    default_legs,
    run_campaign,
    run_leg,
    run_program,
)
from repro.fuzz.minimize import minimize

__all__ = [
    "CAMPAIGN_SEED",
    "KernelPlan",
    "LegOutcome",
    "Mismatch",
    "ProgramResult",
    "build_program",
    "default_legs",
    "make_inputs",
    "minimize",
    "oracle",
    "plan_from_seed",
    "run_campaign",
    "run_leg",
    "run_program",
]
