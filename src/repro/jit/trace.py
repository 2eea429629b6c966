"""Trace cache: memoized stability verdicts per (kernel, block shape).

What is cached — and, deliberately, what is *not*
=================================================

A compiled block script embeds concrete data: the store values computed
from gathered loads, the precomputed sector stream.  Those are
valid only for the exact memory contents at compile time, so **scripts
are never reused across launches** — every launch re-traces.  What *is*
stable across launches is the **verdict**: whether this kernel code, at
this block shape, traces cleanly or deopts (and why).  Negative
verdicts are the valuable half: a kernel that aborts on, say, an atomic
will abort the same way every launch, and replaying the recorded reason
skips the doomed dry-run entirely.

The key is ``(kernel code object, scalar launch arguments, block_id,
num_blocks, block_dim, warp_size)``.  Keying by *code object* (not
function object) means repeated launches of a re-created closure hit;
including ``block_id`` keeps per-launch ``kc.extra`` deopt counts
executor-independent (a serial run and a forked worker see the same
per-block verdict history for a given launch sequence).  The scalar
arguments (ints, floats, bools, NumPy scalars) steer control flow — a
problem size that leaves a ragged last stride diverges where a multiple
of the grid does not — so they are part of the key.  Buffers are not;
the staleness argument below covers them.

A positive verdict comes in two kinds: ``None`` — the block compiled
in one lockstep pass over all of its warps — and :data:`PER_WARP` — it
compiled only warp by warp (a trip count that differs between warps, a
read of ``lane_id`` or ``warp_id``).  A ``PER_WARP`` block skips the lockstep pass,
which would abort again, and goes straight to the per-warp passes.

Staleness is sound by construction: a stale *negative* verdict only
costs speed (the warp falls back to the bit-identical interpreter); a
positive verdict is re-validated by the fresh trace every launch.  One
observable wrinkle, documented in docs/PERF.md: if the same code object
is relaunched with a *different closure* whose deopt reason differs,
the replayed ``jit_deopt_<reason>`` label reflects the first-seen
reason.  Directed tests that assert specific reasons use distinct
kernel definitions for exactly this reason.
"""

from __future__ import annotations

import threading

import numpy as np

_CACHE_CAP = 4096

#: Verdict of a block that compiled only warp by warp.
PER_WARP = "per-warp"

_MISS = object()


class TraceCache:
    """Bounded FIFO map from trace key to stability verdict.

    A verdict is ``None`` (compiled in lockstep), :data:`PER_WARP`
    (compiled only per warp) or a deopt reason string.
    Thread-safe: the serve tier runs launches from multiple threads, and
    the FIFO trim in :meth:`store` is a compound read-modify-write that
    would corrupt the dict under interleaving without the lock.
    """

    __slots__ = ("cap", "_entries", "_lock")

    def __init__(self, cap: int = _CACHE_CAP) -> None:
        self.cap = cap
        self._entries: dict = {}
        self._lock = threading.Lock()

    def lookup(self, key):
        """``(verdict, found)`` — ``found`` distinguishes a miss from a
        cached-compiled verdict."""
        with self._lock:
            v = self._entries.get(key, _MISS)
        if v is _MISS:
            return None, False
        return v, True

    def store(self, key, verdict) -> None:
        with self._lock:
            entries = self._entries
            if key not in entries and len(entries) >= self.cap:
                # FIFO trim: drop the oldest entry (insertion-ordered dict).
                entries.pop(next(iter(entries)))
            entries[key] = verdict

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-global cache shared by all devices (forked workers inherit a
#: copy-on-write snapshot; divergent temperature across processes is why
#: hit/miss counts are advisory, never in ``kc.extra``).
TRACE_CACHE = TraceCache()


_SCALARS = (int, float, np.generic)  # bool is an int


def trace_key(entry, args, block_id: int, num_blocks: int, block_dim: int,
              warp_size: int):
    """Cache key for one block's trace; ``None`` if ``entry`` is unkeyable.

    Scalar ``args`` enter the key by type and value; every other argument
    (buffers, containers) enters as a placeholder."""
    code = getattr(entry, "__code__", entry)
    scalars = tuple(
        (a.__class__, a) if isinstance(a, _SCALARS) else None for a in args
    )
    key = (code, scalars, block_id, num_blocks, block_dim, warp_size)
    try:
        hash(key)
    except TypeError:
        return None
    return key
