"""Instruction events exchanged between device threads and the scheduler.

Device code in this simulator is written as Python *generator functions*.
Each side-effecting step — a memory access, an atomic, a synchronization, a
chunk of arithmetic — is expressed by yielding one of the event objects
defined here.  The block scheduler (:mod:`repro.gpu.block`) consumes the
event, performs the architectural side effect, charges the cost model, and
``send``s the result back into the generator.

The vocabulary is deliberately small; it is the "ISA" of the simulator:

========== =====================================================
Event      Meaning
========== =====================================================
Compute    ``ops`` arithmetic operations of class ``kind``
Load       read ``idxs`` elements of a buffer (lane-private)
Store      write ``idxs``/``values`` elements of a buffer
AtomicOp   read-modify-write one element, returns the old value
SyncWarp   warp-level named barrier over a lane ``mask``
SyncBlock  block-wide barrier (``__syncthreads``)
Shuffle    register exchange between lanes of a ``mask``
========== =====================================================

Multi-element ``Load``/``Store`` events model a short unrolled run of
accesses by one lane; the scheduler coalesces position ``k`` of every lane's
vector together, which is exactly what the hardware would see if the loop
were unrolled in lockstep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.memory import Buffer

# Integer tags let the scheduler dispatch without isinstance chains.
T_COMPUTE = 0
T_LOAD = 1
T_STORE = 2
T_ATOMIC = 3
T_SYNCWARP = 4
T_SYNCBLOCK = 5
T_SHUFFLE = 6
T_VOTE = 7

#: Atomic operation names accepted by :class:`AtomicOp`.
ATOMIC_OPS = ("add", "max", "min", "exch", "cas")

#: Shuffle modes accepted by :class:`Shuffle` (CUDA ``__shfl_*_sync`` family).
SHUFFLE_MODES = ("idx", "up", "down", "xor")


# ---------------------------------------------------------------------------
# Signature interning.
#
# Every event carries a precomputed ``sig`` — its *issue-group signature*:
# events of one warp that share a signature in a scheduling round issue as a
# single warp instruction (and are coalesced/accounted together).  Signature
# tuples are interned so that equal signatures are usually the *same* tuple
# object, which lets the scheduler's convergence check run on identity
# before falling back to structural equality.
_SIG_CACHE: dict = {}
_SIG_CACHE_CAP = 1 << 16


def _sig(*parts) -> tuple:
    """Return an interned signature tuple for ``parts``."""
    s = _SIG_CACHE.get(parts)
    if s is None:
        if len(_SIG_CACHE) >= _SIG_CACHE_CAP:
            return parts
        s = _SIG_CACHE[parts] = parts
    return s


#: All classic and named block barriers share one issue-group signature:
#: a warp whose lanes sit at *any* ``__syncthreads`` issues one barrier
#: instruction; the release logic distinguishes ``(bar_id, count)`` keys.
_SYNCBLOCK_SIG = _sig(T_SYNCBLOCK)

#: (sig, wkey) pairs for Shuffle events, keyed by (mode, mask) — see
#: ``Shuffle.__init__``.
_SHFL_KEYS: dict = {}


class Event:
    """Common base for all device events.

    Every concrete event exposes ``sig``, its interned issue-group
    signature (see :func:`_sig`); the block scheduler groups a warp's
    round by it instead of recomputing signatures per round.
    """

    __slots__ = ()
    tag = -1


class Compute(Event):
    """``ops`` arithmetic operations of class ``kind``.

    ``kind`` selects the per-op issue cost from the cost model (e.g. ``"alu"``
    for integer/logic, ``"fma"`` for fused multiply-add, ``"sfu"`` for
    transcendental ops).
    """

    __slots__ = ("kind", "ops", "sig")
    tag = T_COMPUTE

    def __init__(self, kind: str = "alu", ops: int = 1) -> None:
        self.kind = kind
        self.ops = ops
        self.sig = _sig(T_COMPUTE, kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute(kind={self.kind!r}, ops={self.ops})"


class Load(Event):
    """Read ``idxs`` (flat element indices) from ``buf``.

    The scheduler replies with a tuple of element values, one per index.
    """

    __slots__ = ("buf", "idxs", "sig")
    tag = T_LOAD

    def __init__(self, buf: "Buffer", idxs: Sequence[int]) -> None:
        self.buf = buf
        self.idxs = idxs
        self.sig = buf.sig_load

    def __repr__(self) -> str:  # pragma: no cover
        return f"Load({self.buf.name}, idxs={list(self.idxs)!r})"


class Store(Event):
    """Write ``values`` to flat element indices ``idxs`` of ``buf``."""

    __slots__ = ("buf", "idxs", "values", "sig")
    tag = T_STORE

    def __init__(self, buf: "Buffer", idxs: Sequence[int], values: Sequence) -> None:
        self.buf = buf
        self.idxs = idxs
        self.values = values
        self.sig = buf.sig_store

    def __repr__(self) -> str:  # pragma: no cover
        return f"Store({self.buf.name}, idxs={list(self.idxs)!r})"


class AtomicOp(Event):
    """Atomic read-modify-write of ``buf[idx]``.

    ``op`` is one of :data:`ATOMIC_OPS`.  For ``cas`` the operand is a
    ``(compare, value)`` pair.  The scheduler replies with the *old* value.
    Atomics from the same scheduling round are applied in deterministic
    (warp, lane) order, making every simulation reproducible.
    """

    __slots__ = ("buf", "idx", "op", "operand", "sig")
    tag = T_ATOMIC

    def __init__(self, buf: "Buffer", idx: int, op: str, operand) -> None:
        self.buf = buf
        self.idx = idx
        self.op = op
        self.operand = operand
        self.sig = _sig(T_ATOMIC, op)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AtomicOp({self.buf.name}[{self.idx}], {self.op})"


class SyncWarp(Event):
    """Warp-level barrier over the lanes named in ``mask``.

    ``mask`` is a 32-bit (or 64-bit on wide-wavefront profiles) bitmask of
    lane ids *within the warp*.  Every live lane named by the mask must
    eventually issue a :class:`SyncWarp` with the same mask; the scheduler
    releases the group once all arrive.  This models CUDA's
    ``__syncwarp(mask)`` used by the paper's SIMD-group barriers.
    """

    __slots__ = ("mask", "sig")
    tag = T_SYNCWARP

    def __init__(self, mask: int) -> None:
        self.mask = mask
        self.sig = _sig(T_SYNCWARP, mask)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SyncWarp(mask={self.mask:#x})"


class SyncBlock(Event):
    """Block-level barrier (``__syncthreads`` / PTX ``barrier.sync id, n``).

    With the defaults (``bar_id=0, count=None``) this is the classic
    block-wide barrier: released once every *live* (non-retired) lane waits
    on it — threads that already returned do not participate, matching CUDA
    semantics for exited threads.

    A *named* barrier (nonzero ``bar_id``) with an explicit ``count``
    releases as soon as ``count`` lanes wait on that id, letting disjoint
    thread subsets synchronize independently — the mechanism warp-
    specialized runtimes (Jacob et al. [17] in the paper) use so worker
    threads can barrier among themselves while the team main thread waits
    on a different id.
    """

    __slots__ = ("bar_id", "count", "sig", "wkey")
    tag = T_SYNCBLOCK

    def __init__(self, bar_id: int = 0, count=None) -> None:
        self.bar_id = bar_id
        self.count = count
        self.sig = _SYNCBLOCK_SIG
        #: Waiter-group key, precomputed so the scheduler's arrival handler
        #: does no per-lane normalization.
        self.wkey = (bar_id, None if count is None else int(count))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SyncBlock(bar_id={self.bar_id}, count={self.count})"


class Shuffle(Event):
    """Register exchange between the lanes of ``mask``.

    ``mode`` is one of :data:`SHUFFLE_MODES`; ``lane_arg`` is the source lane
    (``idx``) or delta (``up``/``down``/``xor``), interpreted *relative to the
    ordered set of lanes in the mask* so SIMD groups smaller than a warp get
    self-contained shuffle segments.  Every live lane in the mask must issue
    a matching shuffle; each receives its source lane's ``value`` (or its own
    value if the source falls outside the segment).
    """

    __slots__ = ("mode", "value", "lane_arg", "mask", "sig", "wkey")
    tag = T_SHUFFLE

    def __init__(self, mode: str, value, lane_arg: int, mask: int) -> None:
        self.mode = mode
        self.value = value
        self.lane_arg = lane_arg
        self.mask = mask
        # Shuffles carry a lane-private value, so the event itself cannot be
        # interned — but its (sig, wkey) pair is a pure function of
        # (mode, mask) and is cached as one unit to keep per-yield cost at a
        # single dict probe.
        k = (mode, mask)
        keys = _SHFL_KEYS.get(k)
        if keys is None:
            keys = _SHFL_KEYS[k] = (_sig(T_SHUFFLE, mode, mask), _sig(mask, mode))
        self.sig, self.wkey = keys

    def __repr__(self) -> str:  # pragma: no cover
        return f"Shuffle({self.mode}, lane_arg={self.lane_arg}, mask={self.mask:#x})"


class Vote(Event):
    """Warp vote across the lanes of ``mask`` (CUDA ``__*_sync`` votes).

    Every live lane in the mask posts its ``predicate``; each receives the
    collective result — ``any``/``all`` a bool, ``ballot`` the bitmask of
    lanes (absolute warp lane positions) whose predicate was true.
    """

    __slots__ = ("mode", "predicate", "mask", "sig", "wkey")
    tag = T_VOTE

    def __init__(self, mode: str, predicate: bool, mask: int) -> None:
        self.mode = mode
        self.predicate = predicate
        self.mask = mask
        self.sig = _sig(T_VOTE, mode, mask)
        self.wkey = _sig(mask, ("vote", mode))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Vote({self.mode}, {self.predicate}, mask={self.mask:#x})"


# ---------------------------------------------------------------------------
# Event interning.
#
# The hot immutable events — ``Compute("fma", 1)``, ``SyncWarp(mask)``,
# barriers, and votes — carry no lane-private payload, so every lane of
# every round can share one frozen instance instead of allocating a fresh
# object per yield.  The scheduler never mutates events; interned instances
# are handed to ``ThreadCtx`` helpers (:mod:`repro.gpu.thread`) and flow
# through the block round loop unchanged.
#
# Caches are bounded: a kernel that manufactures unbounded distinct
# (kind, ops) or mask values simply falls back to fresh allocations.
_INTERN_CAP = 4096

_COMPUTE_CACHE: dict = {}
_SYNCWARP_CACHE: dict = {}
_SYNCBLOCK_CACHE: dict = {}
_VOTE_CACHE: dict = {}


def intern_compute(kind: str = "alu", ops: int = 1) -> Compute:
    """Shared :class:`Compute` instance for ``(kind, ops)``."""
    key = (kind, ops)
    ev = _COMPUTE_CACHE.get(key)
    if ev is None:
        ev = Compute(kind, ops)
        if len(_COMPUTE_CACHE) < _INTERN_CAP:
            _COMPUTE_CACHE[key] = ev
    return ev


def intern_syncwarp(mask: int) -> SyncWarp:
    """Shared :class:`SyncWarp` instance for ``mask``."""
    ev = _SYNCWARP_CACHE.get(mask)
    if ev is None:
        ev = SyncWarp(mask)
        if len(_SYNCWARP_CACHE) < _INTERN_CAP:
            _SYNCWARP_CACHE[mask] = ev
    return ev


def intern_syncblock(bar_id: int = 0, count=None) -> SyncBlock:
    """Shared :class:`SyncBlock` instance for ``(bar_id, count)``."""
    key = (bar_id, count)
    ev = _SYNCBLOCK_CACHE.get(key)
    if ev is None:
        ev = SyncBlock(bar_id, count)
        if len(_SYNCBLOCK_CACHE) < _INTERN_CAP:
            _SYNCBLOCK_CACHE[key] = ev
    return ev


def intern_vote(mode: str, predicate: bool, mask: int) -> Vote:
    """Shared :class:`Vote` instance for ``(mode, predicate, mask)``."""
    key = (mode, predicate, mask)
    ev = _VOTE_CACHE.get(key)
    if ev is None:
        ev = Vote(mode, predicate, mask)
        if len(_VOTE_CACHE) < _INTERN_CAP:
            _VOTE_CACHE[key] = ev
    return ev
