"""Differential execution of one generated program across the matrix.

One :class:`~repro.fuzz.generate.KernelPlan` runs through every *leg* of
the engines × executors × schedules matrix:

========================  ===================================================
leg                       what it pins
========================  ===================================================
``fast``                  block round loop, serial executor
``jit``                   trace-compiling round engine, serial executor
``fast-parallel``         round loop under the in-process parallel executor
``jit-parallel``          jit engine under the in-process parallel executor
``schedule``              round loop under a seeded
                          :class:`~repro.sanitizer.BoundedPreemptionSchedule`
                          with no budget (warp and commit order permuted every
                          round — race-free programs must not notice)
``batch``                 segmented serve batching: the program prepared
                          twice, coalesced into one grid by
                          :func:`repro.serve.run_batch`, both demuxed results
                          checked identical
========================  ===================================================

Every leg's final memory is compared **bit-for-bit** against the serial
numpy oracle and every other leg; counters are compared across legs
after stripping launch-scoped JIT telemetry (``extra["engine"]``,
``extra["jit_*"]``) — the same carve-out the serve batch-equivalence
contract documents, because whether a launch *compiled* is an engine
property, not program semantics.  The schedule leg additionally skips
counter comparison entirely (see :class:`LegOutcome.compare_counters`):
cost accounting is schedule-dependent even when memory is not.  Errors
must agree in type and message
across legs (generated plans do not error; the check exists so an
engine-specific crash is a reported mismatch, not an escape).

Every leg builds a fresh :class:`~repro.gpu.device.Device` and fresh
buffers from the same seeded inputs, so legs cannot contaminate each
other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fuzz.generate import (
    ARG_NAMES,
    KernelPlan,
    build_program,
    make_inputs,
    oracle,
    plan_from_seed,
)
from repro.sanitizer import strip_launch_telemetry

__all__ = [
    "CampaignResult",
    "LegOutcome",
    "Mismatch",
    "ProgramResult",
    "default_legs",
    "run_campaign",
    "run_leg",
    "run_program",
]

@dataclass
class LegOutcome:
    """What one leg produced: memory, counters, or an error.

    ``compare_counters`` is False for the schedule-permutation leg:
    permuting warp/commit order legitimately changes *cost accounting*
    (atomic contention retries, issue grouping, float summation order in
    cycle composition) while memory semantics must hold — so that leg
    diffs outputs and errors only.
    """

    leg: str
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[Tuple[str, str]] = None
    compare_counters: bool = True

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Mismatch:
    """One divergence between two legs (or a leg and the oracle)."""

    seed: int
    leg: str
    against: str
    what: str  # "output:<buf>" | "counter:<key>" | "error"
    detail: str

    def describe(self) -> str:
        return (f"seed {self.seed}: {self.leg} vs {self.against} — "
                f"{self.what}: {self.detail}")


@dataclass
class ProgramResult:
    """Differential verdict for one plan."""

    plan: KernelPlan
    legs: List[LegOutcome] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class CampaignResult:
    """Aggregate verdict of a seeded campaign."""

    programs: int = 0
    failures: List[ProgramResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    stop_reason: str = "exhausted"

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "PASS" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (f"fuzz campaign: {self.programs} program(s), {verdict}, "
                f"wall={self.wall_seconds:.1f}s, stop={self.stop_reason}")


# ---------------------------------------------------------------------------
# Leg execution
# ---------------------------------------------------------------------------


def _fresh_device():
    from repro.gpu.device import Device

    return Device()


def _solo_leg(plan: KernelPlan, *, engine: Optional[str], parallel: bool,
              schedule_seed: Optional[int] = None,
              executor=None) -> LegOutcome:
    from repro.core import api as omp

    name = _leg_name(engine, parallel, schedule_seed)
    dev = _fresh_device()
    inputs = make_inputs(plan)
    buffers = {k: dev.from_array(k, v) for k, v in sorted(inputs.items())}
    tree, launch_kwargs = build_program(plan)
    if parallel:
        from repro.exec import ParallelExecutor

        executor = ParallelExecutor(workers=2, processes=False)
    policy = None
    if schedule_seed is not None:
        from repro.sanitizer import BoundedPreemptionSchedule

        policy = BoundedPreemptionSchedule(schedule_seed)
    try:
        result = omp.launch(
            dev, tree, args=buffers, engine=engine, executor=executor,
            schedule_policy=policy, **launch_kwargs,
        )
    except Exception as err:
        return LegOutcome(leg=name, error=(type(err).__name__, str(err)))
    counters = dict(result.counters.summary())
    counters.update({k: v for k, v in result.counters.extra.items()
                     if isinstance(v, (int, float))})
    return LegOutcome(
        leg=name,
        outputs={k: buffers[k].to_numpy().copy() for k in ARG_NAMES},
        counters=strip_launch_telemetry(counters),
        compare_counters=policy is None,
    )


def _batch_leg(plan: KernelPlan, engine: str = "fast") -> LegOutcome:
    """Serve-tier leg: the same program prepared twice, run as one
    segmented grid, both demuxed results required identical."""
    from repro.core import api as omp
    from repro.serve import KernelCatalog, prepare, run_batch
    from repro.serve.batch import release

    name = f"batch-{engine}"
    dev = _fresh_device()
    inputs = make_inputs(plan)
    tree, launch_kwargs = build_program(plan)
    try:
        kernel = omp.compile(tree, ARG_NAMES, name=f"fuzz-{plan.seed}")
        catalog = KernelCatalog()
        catalog.register("prog", kernel)
        prepared = [
            prepare(dev, catalog, "prog", inputs,
                    num_teams=launch_kwargs["num_teams"],
                    team_size=launch_kwargs["team_size"],
                    simd_len=launch_kwargs["simd_len"],
                    tag=f"req{i}")
            for i in range(2)
        ]
        outcomes = run_batch(dev, prepared, engine=engine)
        for oc in outcomes:
            oc.raise_for_error()
        first = {k: v.copy() for k, v in outcomes[0].outputs.items()}
        for k in ARG_NAMES:
            if not _bit_equal(first[k], outcomes[1].outputs[k]):
                return LegOutcome(leg=name, error=(
                    "BatchSelfMismatch",
                    f"batched twin requests disagree on {k!r}",
                ))
        counters = dict(outcomes[0].counters.summary())
        counters.update({k: v for k, v in outcomes[0].counters.extra.items()
                         if isinstance(v, (int, float))})
        for p in prepared:
            release(dev, p)
    except Exception as err:
        return LegOutcome(leg=name, error=(type(err).__name__, str(err)))
    return LegOutcome(leg=name, outputs=first,
                      counters=strip_launch_telemetry(counters))


def _leg_name(engine: Optional[str], parallel: bool,
              schedule_seed: Optional[int]) -> str:
    if schedule_seed is not None:
        return f"schedule-{schedule_seed}"
    base = engine or "auto"
    return f"{base}-parallel" if parallel else base


def default_legs(smoke: bool = False, executor=None,
                 ) -> List[Tuple[str, Callable[[KernelPlan], LegOutcome]]]:
    """The standard matrix.  ``smoke=True`` trims to the cheap core
    (both engines, serial) for per-PR CI.  ``executor`` replaces the
    default executor on the serial engine legs — the test suite passes
    its environment-resolved ``executor`` fixture here so the matrix
    also runs under ``REPRO_EXECUTOR=parallel``/``fork:N`` sweeps."""

    legs: List[Tuple[str, Callable[[KernelPlan], LegOutcome]]] = [
        ("fast", lambda p: _solo_leg(p, engine="fast", parallel=False,
                                     executor=executor)),
        ("jit", lambda p: _solo_leg(p, engine="jit", parallel=False,
                                    executor=executor)),
    ]
    if not smoke:
        legs += [
            ("fast-parallel", lambda p: _solo_leg(p, engine="fast",
                                                  parallel=True)),
            ("jit-parallel", lambda p: _solo_leg(p, engine="jit",
                                                 parallel=True)),
            ("schedule", lambda p: _solo_leg(p, engine=None, parallel=False,
                                             schedule_seed=p.seed)),
            ("batch", _batch_leg),
        ]
    return legs


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and bool(np.array_equal(a, b, equal_nan=True)))


def _first_diff(a: np.ndarray, b: np.ndarray) -> str:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return f"dtype/shape {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
    neq = ~np.isclose(a, b, rtol=0, atol=0, equal_nan=True)
    idx = int(np.argmax(neq))
    return (f"{int(neq.sum())} element(s) differ, first at [{idx}]: "
            f"{a.flat[idx]!r} vs {b.flat[idx]!r}")


def _compare_outputs(seed: int, name_a: str, outs_a: Dict[str, np.ndarray],
                     name_b: str, outs_b: Dict[str, np.ndarray]) -> List[Mismatch]:
    bad = []
    for key in sorted(set(outs_a) | set(outs_b)):
        if key not in outs_a or key not in outs_b:
            bad.append(Mismatch(seed, name_b, name_a, f"output:{key}",
                                "buffer missing on one leg"))
        elif not _bit_equal(outs_a[key], outs_b[key]):
            bad.append(Mismatch(seed, name_b, name_a, f"output:{key}",
                                _first_diff(outs_a[key], outs_b[key])))
    return bad


def _compare_counters(seed: int, ref: LegOutcome, leg: LegOutcome) -> List[Mismatch]:
    bad = []
    keys = set(ref.counters) & set(leg.counters)
    for key in sorted(keys):
        if ref.counters[key] != leg.counters[key]:
            bad.append(Mismatch(
                seed, leg.leg, ref.leg, f"counter:{key}",
                f"{leg.counters[key]!r} vs {ref.counters[key]!r}"))
    return bad


def run_leg(plan: KernelPlan, leg: str) -> LegOutcome:
    """Run one named leg of the default matrix."""
    for name, fn in default_legs(smoke=False):
        if name == leg:
            return fn(plan)
    raise ValueError(f"unknown leg {leg!r}")


def run_program(plan: KernelPlan,
                legs: Optional[Sequence[Tuple[str, Callable]]] = None,
                ) -> ProgramResult:
    """Run one plan through the matrix and diff everything."""
    legs = list(legs if legs is not None else default_legs())
    result = ProgramResult(plan=plan)
    expect = oracle(plan, make_inputs(plan))
    ref: Optional[LegOutcome] = None
    for name, fn in legs:
        outcome = fn(plan)
        result.legs.append(outcome)
        if outcome.ok:
            result.mismatches.extend(_compare_outputs(
                plan.seed, "oracle", expect, outcome.leg, outcome.outputs))
        if ref is None:
            ref = outcome
            continue
        if outcome.ok != ref.ok or (
                not outcome.ok and outcome.error != ref.error):
            result.mismatches.append(Mismatch(
                plan.seed, outcome.leg, ref.leg, "error",
                f"{outcome.error!r} vs {ref.error!r}"))
            continue
        if outcome.ok and ref.compare_counters and outcome.compare_counters:
            result.mismatches.extend(_compare_counters(plan.seed, ref, outcome))
    return result


def run_campaign(count: int, seed0: int, *, smoke: bool = False,
                 legs: Optional[Sequence[Tuple[str, Callable]]] = None,
                 max_seconds: Optional[float] = None,
                 stop_on_failure: bool = False,
                 progress: Optional[Callable[[int, ProgramResult], None]] = None,
                 ) -> CampaignResult:
    """Run ``count`` seeded programs: seeds ``seed0 .. seed0+count-1``."""
    legs = list(legs if legs is not None else default_legs(smoke=smoke))
    started = time.monotonic()
    campaign = CampaignResult()
    for i in range(count):
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            campaign.stop_reason = "max_seconds"
            break
        plan = plan_from_seed(seed0 + i)
        result = run_program(plan, legs=legs)
        campaign.programs += 1
        if not result.ok:
            campaign.failures.append(result)
            if stop_on_failure:
                campaign.stop_reason = "failure"
                if progress is not None:
                    progress(i, result)
                break
        if progress is not None:
            progress(i, result)
    campaign.wall_seconds = time.monotonic() - started
    return campaign
