"""JIT tier statistics: per-launch counters and process-global totals.

Two layers of observability, with deliberately different scopes:

* :class:`JitCounters` — per-launch, deterministic, merged back from
  parallel workers through the same numeric side-state protocol as
  fault counters (``repro.exec.state``).  These surface in
  ``kc.extra`` (``jit_warps_compiled``, ``jit_deopt_<reason>``) and
  must be identical across executors, so they only count facts that
  are a pure function of the launch (which blocks compiled, why the
  others deopted) — never cache temperature.
* :data:`GLOBAL_STATS` — process-global, *advisory* totals including
  trace-cache hits/misses and how blocks compiled: ``lockstep_blocks``
  (blocks whose scripts came from one whole-block pass) and
  ``warp_retraces`` (one-warp passes run because a block's lockstep
  pass aborted or its cached verdict skipped it).  Both depend on cache
  temperature, which depends on process history and worker reuse, so
  they are reported only through :func:`snapshot` (bench JSON, ad-hoc
  diagnostics), never through ``kc.extra``.
"""

from __future__ import annotations

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
    """Per-launch JIT telemetry.

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

    def note_compiled(self, num_warps: int) -> None:
        self.blocks_compiled += 1
        self.warps_compiled += num_warps

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


class _GlobalStats:
    """Process-global JIT totals (advisory; includes cache temperature)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.trace_cache_hits = 0
        self.trace_cache_misses = 0
        self.blocks_compiled = 0
        self.warps_compiled = 0
        self.lockstep_blocks = 0
        self.warp_retraces = 0
        self.deopts = {r: 0 for r in DEOPT_REASONS}

    def snapshot(self) -> dict:
        return {
            "trace_cache_hits": self.trace_cache_hits,
            "trace_cache_misses": self.trace_cache_misses,
            "blocks_compiled": self.blocks_compiled,
            "warps_compiled": self.warps_compiled,
            "lockstep_blocks": self.lockstep_blocks,
            "warp_retraces": self.warp_retraces,
            "deopts": dict(self.deopts),
        }


GLOBAL_STATS = _GlobalStats()


def snapshot() -> dict:
    """A copy of the process-global JIT totals (for bench JSON etc.)."""
    return GLOBAL_STATS.snapshot()


def reset() -> None:
    """Zero the process-global JIT totals."""
    GLOBAL_STATS.reset()
