"""JIT tier statistics: one record per launch, folded into process totals.

Every JIT event bumps one :class:`JitCounters`, the record of the
block's launch.  It rides the side-state merge (``repro.exec.state``),
so bumps made in forked or warm-pool workers travel back to the
coordinator, and the launch folds it once into :data:`GLOBAL_STATS` when
it ends, succeeded or not: :func:`snapshot` is complete on every executor.

* Deterministic fields — ``blocks_compiled``, ``warps_compiled``,
  ``deopt_<reason>`` — are a pure function of the launch, identical
  across executors; only these surface in ``kc.extra``
  (``jit_warps_compiled``, ``jit_deopt_<reason>``).
* Advisory fields — trace-cache hits/misses, ``lockstep_blocks`` (blocks
  compiled by one whole-block pass) and ``warp_retraces`` (one-warp
  passes run after a lockstep abort or a per-warp verdict) — depend on
  cache temperature, hence on process history and worker reuse, so only
  :func:`snapshot` reports them (bench JSON, ad-hoc diagnostics).
"""

from __future__ import annotations

import threading

#: Deoptimization reasons: the compile-time guards, in guard-ladder
#: order (see docs/PERF.md).  Hooked launches never reach the JIT
#: (``repro.jit.resolve_engine``), so they count no deopt.
DEOPT_REASONS = (
    "divergence",
    "event",
    "alloc",
    "dependence",
    "isolation",
    "error",
)


class JitCounters:
    """JIT telemetry of one launch (or, as :data:`GLOBAL_STATS`, of all).

    Plain ``int`` attributes only: parallel executors snapshot/delta/merge
    these through :mod:`repro.exec.state`, which walks ``vars(obj)`` for
    numeric fields.
    """

    def __init__(self) -> None:
        self.blocks_compiled = 0
        self.warps_compiled = 0
        self.deopt_divergence = 0
        self.deopt_event = 0
        self.deopt_alloc = 0
        self.deopt_dependence = 0
        self.deopt_isolation = 0
        self.deopt_error = 0
        # Advisory: cache temperature decides these.
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.lockstep_blocks = 0
        self.warp_retraces = 0

    def note_compiled(self, num_warps: int, lockstep: bool) -> None:
        self.blocks_compiled += 1
        self.warps_compiled += num_warps
        self.lockstep_blocks += lockstep

    def note_deopt(self, reason: str) -> None:
        if reason not in DEOPT_REASONS:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown deopt reason {reason!r}")
        setattr(self, "deopt_" + reason, getattr(self, "deopt_" + reason) + 1)

    def extra_items(self):
        """``kc.extra`` entries for this launch (floats, stable key order)."""
        items = [("jit_warps_compiled", float(self.warps_compiled))]
        for reason in DEOPT_REASONS:
            n = getattr(self, "deopt_" + reason)
            if n:
                items.append((f"jit_deopt_{reason}", float(n)))
        return items


#: Process-global totals: the fold of every finished launch's record.
GLOBAL_STATS = JitCounters()
_FOLD_LOCK = threading.Lock()


def fold(record: JitCounters) -> None:
    """Add a finished launch's record into :data:`GLOBAL_STATS` (thread-safe)."""
    with _FOLD_LOCK:
        for name, value in vars(record).items():
            setattr(GLOBAL_STATS, name, getattr(GLOBAL_STATS, name) + value)


def snapshot() -> dict:
    """A copy of the process-global JIT totals (for bench JSON etc.)."""
    g = GLOBAL_STATS
    return {
        "trace_cache_hits": g.trace_cache_hits,
        "trace_cache_misses": g.trace_cache_misses,
        "blocks_compiled": g.blocks_compiled,
        "warps_compiled": g.warps_compiled,
        "lockstep_blocks": g.lockstep_blocks,
        "warp_retraces": g.warp_retraces,
        "deopts": {r: getattr(g, "deopt_" + r) for r in DEOPT_REASONS},
    }


def reset() -> None:
    """Zero the process-global JIT totals."""
    with _FOLD_LOCK:
        vars(GLOBAL_STATS).update(vars(JitCounters()))
