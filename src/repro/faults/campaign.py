"""Seeded resilience campaigns: inject faults, demand bit-identical recovery.

A campaign runs a set of *targets* — small configurations of the evaluation
kernels (:mod:`repro.kernels`) plus the sanitizer's seeded-bug corpus
(:mod:`repro.sanitizer.corpus`) — three ways:

1. **baseline** — fault-free, serial executor.  The output arrays are the
   ground truth.
2. **serial+faults** — same run under a fresh :class:`~repro.faults.FaultPlan`
   (memory bit-flips, forced sharing overflow, transient atomics).  Every
   injected fault must be detected and recovered, and the outputs must be
   *bit-identical* to the baseline.
3. **fork+faults** — the parallel launch engine with worker crashes (and
   optionally hangs) layered on top.  The self-healing pool must retry,
   redistribute, or degrade — never change the answer.

Corpus cases run once clean and once under an active default plan; the
sanitizer must reach the same verdict (planted bugs stay caught — fault
recovery may not mask real bugs).

Because fault decisions are stateless hash draws
(see :meth:`repro.faults.FaultPlan.fires`) the whole campaign is a pure
function of its seed: the same seed yields an identical
:class:`ResilienceReport`, which is why the report carries no wall-clock
content.  The documented campaign seed is :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec

#: The documented campaign seed: CI and the test suite run this one.
DEFAULT_SEED = 2023

#: Injection probabilities for the kernel legs.  Chosen so every site fires
#: at least once across the default target set while keeping each leg fast.
BITFLIP_PROB = 1.0
OVERFLOW_PROB = 0.25
ATOMIC_PROB = 0.02
CRASH_PROB = 0.6


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelTarget:
    """One kernel configuration: ``run(device)`` returns (output, checked)."""

    name: str
    run: Callable[[object], Tuple[np.ndarray, bool]]


def _ideal(device):
    from repro.kernels import ideal

    data = ideal.build_data(device, n_rows=48)
    ideal.run_simd(device, data, simd_len=8, num_teams=4, team_size=32)
    return data.y.to_numpy(), data.check()


def _spmv(device):
    from repro.kernels import sparse_matvec

    data = sparse_matvec.build_data(device, n_rows=96, n_cols=96, mean_nnz=6.0)
    sparse_matvec.run_simd(device, data, simd_len=8, num_teams=8, team_size=32)
    return data.y.to_numpy(), data.check()


def _spmv_reduction(device):
    from repro.kernels import sparse_matvec

    data = sparse_matvec.build_data(device, n_rows=64, n_cols=64, mean_nnz=6.0)
    sparse_matvec.run_simd_reduction(
        device, data, simd_len=8, num_teams=8, team_size=32
    )
    return data.y.to_numpy(), data.check()


def _laplace3d(device):
    # Generic-mode variant: exercises the sharing space, so forced
    # ``sharing.overflow`` faults have somewhere to land.
    from repro.kernels import laplace3d

    data = laplace3d.build_data(device, nx=6, ny=6, nz=10)
    laplace3d.run(device, data, "generic_simd", simd_len=8, num_teams=4,
                  team_size=32)
    return data.y.to_numpy(), data.check()


def _su3(device):
    from repro.kernels import su3

    data = su3.build_data(device, sites=24)
    su3.run_simd(device, data, simd_len=4, num_teams=4, team_size=32)
    return data.c.to_numpy(), data.check()


TARGETS: Tuple[KernelTarget, ...] = (
    KernelTarget("ideal", _ideal),
    KernelTarget("spmv", _spmv),
    KernelTarget("spmv-reduction", _spmv_reduction),
    KernelTarget("laplace3d-generic", _laplace3d),
    KernelTarget("su3", _su3),
)

#: Corpus cases the campaign replays under an active fault plan.
DEFAULT_CORPUS = ("cross-round-race", "shared-missing-syncwarp",
                  "sharing-leak")


def target_names() -> List[str]:
    return [t.name for t in TARGETS]


def _target_by_name(name: str) -> KernelTarget:
    for t in TARGETS:
        if t.name == name:
            return t
    raise KeyError(f"no campaign target named {name!r}; have {target_names()}")


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def serial_plan(seed: int) -> FaultPlan:
    """The serial-leg plan: every non-pool site armed."""
    return FaultPlan(seed=seed, specs=(
        FaultSpec("memory.bitflip", probability=BITFLIP_PROB, flips=2),
        FaultSpec("sharing.overflow", probability=OVERFLOW_PROB),
        FaultSpec("atomic.transient", probability=ATOMIC_PROB, attempts=2),
    ))


def fork_plan(seed: int, hang: bool = False) -> FaultPlan:
    """The fork-leg plan: serial sites plus worker crashes (and hangs)."""
    specs = [
        FaultSpec("worker.crash", probability=CRASH_PROB),
        FaultSpec("memory.bitflip", probability=BITFLIP_PROB, flips=2),
        FaultSpec("sharing.overflow", probability=OVERFLOW_PROB),
        FaultSpec("atomic.transient", probability=ATOMIC_PROB, attempts=2),
    ]
    if hang:
        # Exactly one deterministic hang: first chunk, first attempt.
        specs.insert(1, FaultSpec("worker.hang", match=(("chunk", 0),)))
    return FaultPlan(seed=seed, specs=tuple(specs))


def corpus_plan(seed: int) -> FaultPlan:
    """Corpus replays inject only launch-local, self-recovering faults."""
    return FaultPlan(seed=seed, specs=(
        FaultSpec("memory.bitflip", probability=BITFLIP_PROB),
        FaultSpec("atomic.transient", probability=ATOMIC_PROB, attempts=2),
    ))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class ResilienceReport:
    """What a campaign did and whether every leg healed bit-identically.

    Deliberately free of wall-clock content: the same seed over the same
    target set produces an identical report (``to_dict()`` equality is the
    reproducibility contract the tests assert).
    """

    seed: int
    fork: bool
    #: The process-wide round-engine preference (``REPRO_ENGINE``) the
    #: campaign ran under — provenance for the report.  Fault-carrying
    #: launches never enter the JIT (active plans are a hook), so a
    #: ``jit`` preference here documents the fallback to the round loop.
    engine: str = "auto"
    rows: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and all(r["ok"] for r in self.rows)

    @property
    def injected(self) -> int:
        return sum(r["injected"] for r in self.rows)

    @property
    def recovered(self) -> int:
        return sum(r["recovered"] for r in self.rows)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "fork": self.fork,
            "engine": self.engine,
            "ok": self.ok,
            "injected": self.injected,
            "recovered": self.recovered,
            "rows": self.rows,
        }

    def text(self) -> str:
        lines = [f"resilience campaign (seed {self.seed})"]
        for r in self.rows:
            verdict = "ok" if r["ok"] else "FAIL"
            lines.append(
                f"  {verdict:4s} {r['target']:24s} {r['leg']:13s} "
                f"injected={r['injected']} recovered={r['recovered']} "
                f"unrecovered={r['unrecovered']} retries={r['retries']} "
                f"degradations={r['degradations']} identical={r['identical']}"
            )
        lines.append(
            f"  {'PASS' if self.ok else 'FAIL'}: "
            f"{self.recovered}/{self.injected} injected fault(s) recovered, "
            f"{sum(r['identical'] for r in self.rows)}/{len(self.rows)} "
            f"leg(s) bit-identical"
        )
        return "\n".join(lines)


def _row(target: str, leg: str, plan: FaultPlan, identical: bool,
         checked: bool) -> Dict:
    c = plan.counters
    return {
        "target": target,
        "leg": leg,
        "injected": c.injected,
        "detected": c.detected,
        "recovered": c.recovered,
        "unrecovered": c.unrecovered,
        "retries": c.chunk_retries + c.launch_retries,
        "degradations": c.degradations,
        "identical": bool(identical),
        "ok": bool(identical and checked and c.unrecovered == 0),
    }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_campaign(
    seed: int = DEFAULT_SEED,
    kernels: Optional[Sequence[str]] = None,
    corpus: Optional[Sequence[str]] = DEFAULT_CORPUS,
    workers: int = 2,
    hang: bool = False,
) -> ResilienceReport:
    """Run a seeded campaign; return its :class:`ResilienceReport`.

    ``kernels`` selects targets by name (default: all of :data:`TARGETS`);
    ``corpus`` names sanitizer corpus cases to replay under faults (empty
    or ``None`` skips them).  ``workers`` sizes the fork leg's pool; the
    fork legs are skipped (and ``report.fork`` is False) when the platform
    cannot fork.  ``hang=True`` adds one deterministic worker hang per
    fork leg — slower (~1.5 s each), but exercises the watchdog end to end.
    """
    from repro.exec import ParallelExecutor, SerialExecutor, fork_available
    from repro.gpu.device import Device
    from repro.jit import default_engine

    targets = (tuple(TARGETS) if kernels is None
               else tuple(_target_by_name(n) for n in kernels))
    use_fork = fork_available() and workers > 1
    report = ResilienceReport(seed=seed, fork=use_fork, engine=default_engine())

    for target in targets:
        baseline, base_checked = target.run(Device(executor=SerialExecutor()))
        if not base_checked:
            raise AssertionError(
                f"campaign target {target.name!r} fails its own check "
                "without faults — fix the target, not the plan")

        legs = [("serial+faults", SerialExecutor(), serial_plan(seed))]
        if use_fork:
            legs.append((
                "fork+faults",
                ParallelExecutor(workers=workers, processes=True),
                fork_plan(seed, hang=hang),
            ))
        for leg_name, executor, plan in legs:
            out, checked = target.run(Device(executor=executor, faults=plan))
            identical = out.tobytes() == baseline.tobytes()
            report.rows.append(
                _row(target.name, leg_name, plan, identical, checked))

    for case_name in tuple(corpus or ()):
        report.rows.append(_corpus_row(case_name, seed, workers=None))

    return report


def _corpus_row(case_name: str, seed: int, workers) -> Dict:
    """Replay one corpus case clean and under faults; verdict must match."""
    from repro.faults import set_default_faults
    from repro.sanitizer import corpus as sancorpus

    case = sancorpus.by_name(case_name)
    clean = case.run(workers=workers)
    plan = corpus_plan(seed)
    set_default_faults(plan)
    try:
        faulty = case.run(workers=workers)
    finally:
        set_default_faults(None)
    same_verdict = faulty.caught == clean.caught
    row = _row(f"corpus/{case_name}", "sanitizer", plan,
               identical=same_verdict, checked=clean.caught)
    return row
