"""Trace-compiled warp engine: the JIT tier above the round interpreters.

The block scheduler (:mod:`repro.gpu.block`) owns one round loop, the
interpreter, which pays one Python generator step per lane per event.
This package adds a second tier: it re-runs a
block's kernel as a *single vectorized generator* over all of its lanes
at once (:mod:`repro.jit.vector`), compiles the resulting event trace,
one record per event, into one columnar block script
(:mod:`repro.jit.compile`), and then consumes it with bulk NumPy stores
and counters derived from its columns (:mod:`repro.jit.engine`) —
O(events) Python plus a fixed number of NumPy passes per block instead
of 32 (or 64) generator steps per warp per event.

The tier is *sound by construction*: compilation happens before any
architectural side effect is committed, every stability guard
(divergence, unsupported events, address dependences, cross-warp
overlap) aborts compilation while the block's scalar lane generators
are still untouched at round zero, and a failed compile simply falls
back to the round loop.  The lockstep pass over the whole block
is never looser than tracing each warp on its own; when it aborts —
control flow that is uniform per warp but not per block, or a read of
``lane_id``/``warp_id`` — the block is re-traced warp by warp, and
those passes decide the verdict.  :func:`snapshot` counts both
(``lockstep_blocks``, ``warp_retraces``).  Compiled blocks charge
memory through the fast interpreter's cost model (:mod:`repro.gpu.coalescing`).
``docs/PERF.md`` documents the guard ladder; the differential suite in
``tests/gpu`` holds the proof obligation against a frozen reference
recording.

Engine selection
================

:func:`default_engine` resolves the process-wide engine preference from
the ``REPRO_ENGINE`` environment variable (re-read at each call, like
``repro.exec.default_executor``):

========================  ==================================================
``REPRO_ENGINE``          Meaning
========================  ==================================================
unset / ``auto``          the block round loop (today's default)
``fast``                  the block round loop (same as ``auto``)
``jit``                   trace-compile stable warps; deopt to the round
                          loop (hooked launches run it from the start)
========================  ==================================================

``Device.launch(engine=...)`` and ``run_batch(engine=...)`` override the
environment per launch; both resolve through :func:`resolve_engine`.
"""

from __future__ import annotations

import os

from repro.errors import LaunchError
from repro.jit.stats import GLOBAL_STATS, JitCounters, snapshot, reset

#: Environment variable naming the round-engine preference.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid engine preference names.
ENGINES = ("auto", "fast", "jit")


def coerce_engine(spec: str) -> str:
    """Validate an engine preference name; returns the canonical string."""
    name = str(spec).strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {spec!r}: expected one of {', '.join(ENGINES)}"
        )
    return name


def default_engine() -> str:
    """The process-wide engine preference (``REPRO_ENGINE``, else ``auto``).

    Re-reads the environment on every call so tests and harnesses can
    flip the variable between launches, mirroring
    :func:`repro.exec.default_executor`.
    """
    spec = os.environ.get(ENGINE_ENV, "").strip()
    if not spec:
        return "auto"
    return coerce_engine(spec)


def resolve_engine(engine, hook=None) -> str:
    """The round engine a launch runs under: ``"fast"`` or ``"jit"``.

    The ladder is the explicit ``engine`` choice, then ``REPRO_ENGINE``,
    then auto → fast.  ``hook`` names an attached hook, as
    :attr:`repro.exec.LaunchPlan.hook` does (``"tracer"``,
    ``"sanitizer"``, ``"schedule_policy"``, ``"fault plan"``), or is None;
    the JIT carries no hook points, so a hook downgrades the engine to
    the round loop — silently for an environment preference (whole
    suites can be swept under ``REPRO_ENGINE=jit``), while an explicit
    ``engine="jit"`` raises :class:`~repro.errors.LaunchError`, as does
    an unknown engine name from either source.
    """
    try:
        requested = default_engine() if engine is None else coerce_engine(engine)
    except ValueError as err:
        raise LaunchError(str(err)) from None
    if engine is not None and requested == "jit" and hook is not None:
        raise LaunchError(
            f"engine='jit' is incompatible with an attached {hook} hook "
            "(the JIT carries no hook points); drop the hook or use "
            "engine='auto'"
        )
    if requested == "auto" or hook is not None:
        return "fast"
    return requested


__all__ = [
    "ENGINE_ENV",
    "ENGINES",
    "GLOBAL_STATS",
    "JitCounters",
    "coerce_engine",
    "default_engine",
    "resolve_engine",
    "reset",
    "snapshot",
]
