"""Seeded-bug corpus: kernels the sanitizer must flag.

Each :class:`CorpusCase` is a small kernel with a deliberately planted
correctness bug and the finding categories the sanitizer must produce
for it.  The corpus is the sanitizer's negative test set — run it with
``python -m repro.sanitizer --corpus`` or via ``tests/sanitizer/``:

* three data races: a **cross-round** global race (the class the old
  round-local checker provably missed), a shared-memory race with a
  missing ``syncwarp``, and an atomic mixed with an unordered plain
  write;
* two barrier-divergence bugs: lanes arriving at textually different
  block barriers, and a warp barrier whose ``simdmask`` names a retired
  lane (stale mask);
* one sharing-space bug: an overflowing staging episode whose global
  fallback allocation is never released (leak);
* one order-dependent kernel with *no* default-schedule symptom — the
  DPOR schedule explorer finds its divergent interleaving
  deterministically from the racing pair (no seed lottery).

Atomic dependences reach DPOR through the same race detector, which
records them as dependent pairs rather than findings; DPOR reverses them
like racing pairs (see :mod:`repro.sanitizer.races`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.gpu.device import Device
from repro.sanitizer.monitor import SanitizerConfig
from repro.sanitizer.report import SanitizerReport
from repro.sanitizer.schedule import explore_schedules_dpor

#: Sanitize in report mode so a case can carry several findings.
_REPORT = SanitizerConfig(mode="report")


def _executor(workers):
    """Launch executor for corpus devices: parallel when workers is set.

    Corpus kernels are single-block, so this exercises the parallel
    engine's per-block isolation and report merge rather than any real
    fan-out — the point is that findings are identical either way.
    """
    if not workers:
        return None
    from repro.exec import ParallelExecutor

    return ParallelExecutor(workers=workers)


@dataclass
class CaseResult:
    """Outcome of one corpus case: did the sanitizer flag the bug?"""

    name: str
    expect: Tuple[str, ...]
    got: List[str]
    detail: str

    @property
    def caught(self) -> bool:
        return all(cat in self.got for cat in self.expect)

    def describe(self) -> str:
        verdict = "CAUGHT" if self.caught else "MISSED"
        return f"{verdict:7s} {self.name}: expected {list(self.expect)}, got {self.got}"


@dataclass
class CorpusCase:
    """One planted bug and the categories that must be reported for it."""

    name: str
    description: str
    #: Finding categories that must appear (errors or notes).
    expect: Tuple[str, ...]
    run: Callable[[], CaseResult] = field(repr=False, default=None)


def _sanitized(name, expect, kernel, num_blocks, threads, make_args, detail="",
               workers=None):
    """Run ``kernel`` under the report-mode sanitizer and collect categories."""
    dev = Device(executor=_executor(workers))
    args = make_args(dev)
    kc = dev.launch(kernel, num_blocks=num_blocks, threads_per_block=threads,
                    args=args, sanitize=_REPORT)
    report: SanitizerReport = kc.sanitizer
    return CaseResult(name=name, expect=expect, got=report.categories(),
                      detail=detail or report.text())


# ---------------------------------------------------------------------------
# Data races
# ---------------------------------------------------------------------------


def _cross_round_race(workers=None) -> CaseResult:
    """t0 stores a[0] in round 0; t32 (warp 1) stores a[0] in round 1.

    The conflicting accesses are posted in *different* scheduling rounds,
    so the old round-local ``_check_races`` never compared them.
    """

    def kernel(tc, a):
        if tc.tid == 0:
            yield from tc.store(a, 0, 1.0)
        elif tc.tid == 32:
            yield from tc.compute("alu")  # skew the store into round 1
            yield from tc.store(a, 0, 2.0)
        else:
            yield from tc.compute("alu")

    return _sanitized("cross-round-race", ("data-race",), kernel,
                      1, 64, lambda dev: (dev.alloc("a", 4, np.float64),),
                      workers=workers)


def _shared_missing_syncwarp(workers=None) -> CaseResult:
    """Lane 0 writes shared memory; siblings read it with no syncwarp."""
    cell: Dict[str, object] = {}

    def kernel(tc, out):
        if "sh" not in cell:
            cell["sh"] = tc.shared_alloc("sh", 1, np.float64)
        sh = cell["sh"]
        if tc.tid == 0:
            yield from tc.store(sh, 0, 3.0)
        else:
            # BUG: no tc.syncwarp() between the producer's store and this
            # read — the broadcast value is unordered with the write.
            v = yield from tc.load(sh, 0)
            yield from tc.store(out, tc.tid, v)

    return _sanitized("shared-missing-syncwarp", ("data-race",), kernel,
                      1, 32, lambda dev: (dev.alloc("out", 32, np.float64),),
                      workers=workers)


def _atomic_mixed_race(workers=None) -> CaseResult:
    """An atomicAdd and a plain store touch one element, unordered."""

    def kernel(tc, a):
        if tc.tid == 0:
            yield from tc.atomic_add(a, 0, 1.0)
        elif tc.tid == 1:
            yield from tc.compute("alu")
            # BUG: plain store to an element other lanes update atomically.
            yield from tc.store(a, 0, 5.0)
        else:
            yield from tc.compute("alu")

    return _sanitized("atomic-mixed-race", ("data-race",), kernel,
                      1, 32, lambda dev: (dev.alloc("a", 1, np.float64),),
                      workers=workers)


# ---------------------------------------------------------------------------
# Barrier divergence
# ---------------------------------------------------------------------------


def _divergent_block_barriers(workers=None) -> CaseResult:
    """Halves of a block arrive at textually different block barriers."""

    def kernel(tc, a):
        if tc.tid < 16:
            yield from tc.syncthreads(bar_id=0)  # site A
        else:
            yield from tc.syncthreads(bar_id=1)  # site B — never both release
        yield from tc.store(a, tc.tid, 1.0)

    return _sanitized("divergent-block-barriers",
                      ("barrier-divergence", "deadlock"), kernel,
                      1, 32, lambda dev: (dev.alloc("a", 32, np.float64),),
                      workers=workers)


def _stale_simdmask(workers=None) -> CaseResult:
    """A warp barrier mask names a lane that already retired."""

    def kernel(tc, a):
        if tc.tid == 0:
            # BUG: retires without reaching the barrier its siblings'
            # full-warp mask names — the group can never converge.
            yield from tc.store(a, 0, 1.0)
            return
        yield from tc.compute("alu")
        yield from tc.syncwarp()

    return _sanitized("stale-simdmask", ("stale-mask", "deadlock"), kernel,
                      1, 32, lambda dev: (dev.alloc("a", 4, np.float64),),
                      workers=workers)


# ---------------------------------------------------------------------------
# Sharing-space misuse
# ---------------------------------------------------------------------------


def _sharing_leak(workers=None) -> CaseResult:
    """An overflowing staging episode is never released (leaked fallback)."""
    from repro.runtime.icv import ExecMode, LaunchConfig
    from repro.runtime.sharing import SharingSpace
    from repro.runtime.state import RuntimeCounters

    dev = Device(executor=_executor(workers))
    cfg = LaunchConfig(
        num_teams=1, team_size=32, simd_len=8,
        teams_mode=ExecMode.SPMD, parallel_mode=ExecMode.SPMD,
        sharing_bytes=64, params=dev.params,  # 8 slots / 4 groups = 2 each
    )
    rc = RuntimeCounters()

    def kernel(tc):
        if tc.tid == 0:
            space = SharingSpace(tc.block.shared, cfg, dev.gmem, rc)
            # 5 slots overflow the 2-slot group slice -> global fallback...
            yield from space.stage_simd_args(tc, 0, list(range(5)))
            # ...BUG: and end_simd_sharing is never called -> leak.
        else:
            yield from tc.compute("alu")

    kc = dev.launch(kernel, num_blocks=1, threads_per_block=32,
                    sanitize=_REPORT)
    report = kc.sanitizer
    return CaseResult(name="sharing-leak",
                      expect=("sharing-leak", "sharing-fallback"),
                      got=report.categories(), detail=report.text())


# ---------------------------------------------------------------------------
# Order dependence (schedule explorer)
# ---------------------------------------------------------------------------


def order_dependent_run(policy):
    """Explorer target: the final value of ``a[0]`` is whichever warp's
    store commits last, so it depends on the (normally fixed) warp
    resolution order.  Under the default schedule the result is stable
    and plausible — only a permuted schedule exposes the bug."""
    dev = Device()
    a = dev.alloc("a", 1, np.float64)

    def kernel(tc, a):
        yield from tc.store(a, 0, float(tc.tid // 32))

    dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(a,),
               schedule_policy=policy)
    return {"a": dev.to_numpy(a)}


def _order_dependent(workers=None) -> CaseResult:
    """Directed DPOR regression (promoted from blind seed sampling).

    The explorer must find the divergent interleaving *deterministically*
    — no seed lottery: the race detector reports the warp-0/warp-1 store
    pair on ``a[0]``, the backtracking point reverses exactly that pair,
    and the reversed schedule flips the result.  ``workers`` is accepted
    for the corpus's uniform case signature and unused: the explorer's
    runs are sequential, each seeding the next.
    """
    result = explore_schedules_dpor(order_dependent_run)
    got = result.report.categories() if result.order_dependent else []
    detail = result.text()
    if result.divergent_backtrack is not None:
        detail += "\n  " + result.divergent_backtrack.describe()
    return CaseResult(name="order-dependent",
                      expect=("schedule-divergence",), got=got,
                      detail=detail)


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

CASES: List[CorpusCase] = [
    CorpusCase("cross-round-race",
               "global-memory race across scheduling rounds",
               ("data-race",), _cross_round_race),
    CorpusCase("shared-missing-syncwarp",
               "shared-memory broadcast read with no syncwarp",
               ("data-race",), _shared_missing_syncwarp),
    CorpusCase("atomic-mixed-race",
               "plain store unordered with another lane's atomic",
               ("data-race",), _atomic_mixed_race),
    CorpusCase("divergent-block-barriers",
               "half the block at bar 0, half at bar 1",
               ("barrier-divergence", "deadlock"), _divergent_block_barriers),
    CorpusCase("stale-simdmask",
               "warp barrier mask naming a retired lane",
               ("stale-mask", "deadlock"), _stale_simdmask),
    CorpusCase("sharing-leak",
               "overflowing sharing episode never released",
               ("sharing-leak", "sharing-fallback"), _sharing_leak),
    CorpusCase("order-dependent",
               "output decided by warp commit order (explorer-only)",
               ("schedule-divergence",), _order_dependent),
]


def by_name(name: str) -> CorpusCase:
    for case in CASES:
        if case.name == name:
            return case
    raise KeyError(f"no corpus case named {name!r}; "
                   f"have {[c.name for c in CASES]}")


def run_all(workers=None) -> List[CaseResult]:
    """Run every corpus case; each result says whether the bug was caught.

    ``workers`` routes every sanitizer case through the parallel launch
    engine — the corpus doubles as a differential fixture for the
    executors.  The order-dependent case runs DPOR, which is sequential
    and ignores it.
    """
    return [case.run(workers=workers) for case in CASES]
