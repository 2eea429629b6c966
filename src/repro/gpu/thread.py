"""Per-thread execution context handed to device code.

Device code is written as generator functions taking a :class:`ThreadCtx`
(``tc``) first.  All architectural actions go through ``tc`` helpers, each of
which is itself a generator to be driven with ``yield from``::

    def saxpy_body(tc, i, a, x, y):
        xi = yield from tc.load(x, i)
        yi = yield from tc.load(y, i)
        yield from tc.compute("fma")
        yield from tc.store(y, i, a * xi + yi)

The helpers emit exactly one event each (see :mod:`repro.gpu.events`); the
block scheduler performs the side effect and sends back the result.
"""

from __future__ import annotations

from sys import _getframe
from typing import Optional, Sequence

from repro.errors import SynchronizationError
from repro.gpu.events import (
    AtomicOp,
    Compute,
    Load,
    Shuffle,
    Store,
    SyncBlock,
    SyncWarp,
    Vote,
    intern_compute,
    intern_syncblock,
    intern_syncwarp,
    intern_vote,
)
from repro.gpu.memory import Buffer, local_buffer

# Lane scheduler states (shared with repro.gpu.block).
RUN = 0
WAIT_WARP = 1
WAIT_BLOCK = 2
WAIT_SHFL = 3
DONE = 4

STATE_NAMES = {
    RUN: "runnable",
    WAIT_WARP: "waiting@syncwarp",
    WAIT_BLOCK: "waiting@syncthreads",
    WAIT_SHFL: "waiting@shuffle",
    DONE: "retired",
}


def full_mask(warp_size: int) -> int:
    """Bitmask naming every lane of a warp."""
    return (1 << warp_size) - 1


class LaneTable:
    """Structure-of-arrays lane identity for one block geometry.

    The per-lane identity triple ``(tid, warp_id, lane_id)`` is a pure
    function of ``(num_threads, warp_size)``, yet block construction
    used to recompute it with per-lane Python modular arithmetic for
    every block of every launch — a visible cost for the serve tier's
    many small launches.  The table computes the columns once with
    NumPy, materializes them as plain-int rows for the scalar engines,
    and is memoized per geometry via :func:`lane_table`.

    The int32 columns are kept as arrays too, so vectorized consumers
    (the JIT tracer's affine lane vectors, diagnostics) can slice a
    warp's identity without boxing.
    """

    __slots__ = ("num_threads", "warp_size", "tid", "warp_id", "lane_id",
                 "rows")

    def __init__(self, num_threads: int, warp_size: int) -> None:
        import numpy as np

        self.num_threads = int(num_threads)
        self.warp_size = int(warp_size)
        tids = np.arange(self.num_threads, dtype=np.int32)
        self.tid = tids
        self.warp_id = tids // self.warp_size
        self.lane_id = tids - self.warp_id * self.warp_size
        #: ``(tid, warp_id, lane_id)`` Python-int rows in tid order.
        self.rows = list(zip(tids.tolist(), self.warp_id.tolist(),
                             self.lane_id.tolist()))


_LANE_TABLES: dict = {}
_LANE_TABLE_CAP = 64


def lane_table(num_threads: int, warp_size: int) -> LaneTable:
    """Memoized :class:`LaneTable` for a geometry (bounded cache)."""
    key = (num_threads, warp_size)
    table = _LANE_TABLES.get(key)
    if table is None:
        if len(_LANE_TABLES) >= _LANE_TABLE_CAP:
            _LANE_TABLES.pop(next(iter(_LANE_TABLES)))
        table = _LANE_TABLES[key] = LaneTable(num_threads, warp_size)
    return table


class ThreadCtx:
    """Identity and device-action helpers for one simulated GPU thread.

    Attributes
    ----------
    tid:
        Thread id within the block (0-based).
    lane_id:
        Lane id within the warp (``tid % warp_size``).
    warp_id:
        Warp id within the block (``tid // warp_size``).
    block_id:
        Block index within the grid (the OpenMP team number).
    num_blocks:
        Grid size in blocks.
    block_dim:
        Threads per block for this launch.
    warp_size:
        SIMT width of the device profile.
    block:
        The owning :class:`repro.gpu.block.ThreadBlock` (gives access to
        shared memory and, through it, the device).
    """

    __slots__ = (
        "tid",
        "lane_id",
        "warp_id",
        "block_id",
        "num_blocks",
        "block_dim",
        "warp_size",
        "block",
        "rt",
    )

    def __init__(
        self,
        tid: int,
        warp_size: int,
        block_id: int,
        num_blocks: int,
        block_dim: int,
        block,
        lane_id: Optional[int] = None,
        warp_id: Optional[int] = None,
    ) -> None:
        self.tid = tid
        if lane_id is None:
            # Standalone construction; block builders pass the memoized
            # LaneTable columns instead of re-deriving per lane.
            lane_id = tid % warp_size
            warp_id = tid // warp_size
        self.lane_id = lane_id
        self.warp_id = warp_id
        self.block_id = block_id
        self.num_blocks = num_blocks
        self.block_dim = block_dim
        self.warp_size = warp_size
        self.block = block
        #: Slot the OpenMP runtime uses to attach its per-team context.
        self.rt = None

    # -- identity helpers --------------------------------------------------
    @property
    def global_tid(self) -> int:
        """Thread id across the whole grid."""
        return self.block_id * self.block_dim + self.tid

    def warp_mask(self) -> int:
        """Mask naming every lane of this thread's warp."""
        return full_mask(self.warp_size)

    # -- memory ------------------------------------------------------------
    def load(self, buf: Buffer, idx: int):
        """Read one element; returns its value."""
        res = yield Load(buf, (idx,))
        return res[0]

    def load_vec(self, buf: Buffer, idxs: Sequence[int]):
        """Read several elements with one unrolled access run."""
        res = yield Load(buf, tuple(idxs))
        return list(res)

    def store(self, buf: Buffer, idx: int, value):
        """Write one element."""
        yield Store(buf, (idx,), (value,))

    def store_vec(self, buf: Buffer, idxs: Sequence[int], values: Sequence):
        """Write several elements with one unrolled access run."""
        yield Store(buf, tuple(idxs), tuple(values))

    # -- arithmetic accounting ----------------------------------------------
    def compute(self, kind: str = "alu", ops: int = 1):
        """Charge ``ops`` arithmetic operations of class ``kind``.

        Compute events carry no lane-private payload, so the hot
        ``(kind, ops)`` combinations are interned singletons — every lane
        of every round yields the same frozen object.
        """
        yield intern_compute(kind, ops)

    # -- atomics -------------------------------------------------------------
    def atomic_add(self, buf: Buffer, idx: int, value):
        """Atomic add; returns the old value."""
        old = yield AtomicOp(buf, idx, "add", value)
        return old

    def atomic_max(self, buf: Buffer, idx: int, value):
        old = yield AtomicOp(buf, idx, "max", value)
        return old

    def atomic_min(self, buf: Buffer, idx: int, value):
        old = yield AtomicOp(buf, idx, "min", value)
        return old

    def atomic_exch(self, buf: Buffer, idx: int, value):
        old = yield AtomicOp(buf, idx, "exch", value)
        return old

    def atomic_cas(self, buf: Buffer, idx: int, compare, value):
        old = yield AtomicOp(buf, idx, "cas", (compare, value))
        return old

    # -- synchronization -----------------------------------------------------
    def syncwarp(self, mask: Optional[int] = None):
        """Warp-level named barrier (CUDA ``__syncwarp(mask)``).

        The calling lane must be named by ``mask`` (defaults to the full
        warp).  All live lanes in the mask must reach a matching syncwarp.
        """
        if mask is None:
            mask = full_mask(self.warp_size)
        if not (mask >> self.lane_id) & 1:
            raise SynchronizationError(
                f"lane {self.lane_id} called syncwarp with a mask {mask:#x} "
                "that does not include itself"
            )
        yield intern_syncwarp(mask)

    def syncthreads(self, bar_id: int = 0, count: Optional[int] = None):
        """Block-level barrier (CUDA ``__syncthreads`` / ``barrier.sync``).

        The default is the classic block-wide barrier.  A nonzero
        ``bar_id`` with an explicit ``count`` is a named barrier releasing
        once ``count`` lanes arrive — used by warp-specialized runtimes so
        worker threads can synchronize while the main thread waits
        elsewhere.
        """
        yield intern_syncblock(bar_id, count)

    # -- shuffles --------------------------------------------------------------
    def shfl(self, value, src: int, mask: Optional[int] = None):
        """Read ``value`` from the mask-relative source lane ``src``."""
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield Shuffle("idx", value, src, mask)
        return res

    def shfl_up(self, value, delta: int, mask: Optional[int] = None):
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield Shuffle("up", value, delta, mask)
        return res

    def shfl_down(self, value, delta: int, mask: Optional[int] = None):
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield Shuffle("down", value, delta, mask)
        return res

    def shfl_xor(self, value, delta: int, mask: Optional[int] = None):
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield Shuffle("xor", value, delta, mask)
        return res

    # -- warp votes --------------------------------------------------------------
    def vote_any(self, predicate, mask: Optional[int] = None):
        """True iff any live lane in ``mask`` passes a true predicate."""
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield intern_vote("any", bool(predicate), mask)
        return res

    def vote_all(self, predicate, mask: Optional[int] = None):
        """True iff every live lane in ``mask`` passes a true predicate."""
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield intern_vote("all", bool(predicate), mask)
        return res

    def ballot(self, predicate, mask: Optional[int] = None):
        """Bitmask (absolute warp lane positions) of true predicates."""
        if mask is None:
            mask = full_mask(self.warp_size)
        res = yield intern_vote("ballot", bool(predicate), mask)
        return res

    # -- diagnostics ---------------------------------------------------------
    def device_assert(self, condition, message: str = "device assertion failed"):
        """Device-side assertion: raises with block/thread context.

        A generator for symmetry with the other helpers (it charges one
        branch op), so call it with ``yield from``.
        """
        from repro.errors import DeviceAssertionError

        yield intern_compute("branch", 1)
        if not condition:
            raise DeviceAssertionError(
                f"{message} (block {self.block_id}, thread {self.tid})"
            )

    # -- allocation ------------------------------------------------------------
    def alloca(self, name: str, size: int, dtype) -> Buffer:
        """Lane-private stack allocation (no event; modelled as registers)."""
        return local_buffer(f"{name}@t{self.tid}", size, dtype)

    def shared_alloc(self, name: str, size: int, dtype) -> Buffer:
        """Block-shared allocation from the scratchpad bump allocator.

        Only meaningful when executed by one representative thread (or with
        identical arguments by all threads *before* divergence); the OpenMP
        runtime performs its shared allocations from the team main thread.
        """
        return self.block.shared.alloc(name, size, dtype)


class SiteThreadCtx(ThreadCtx):
    """A :class:`ThreadCtx` whose event helpers record their call site.

    Blocks build lanes on it only when a monitor is attached, so hook-free
    launches never pay for it.  Each event helper here is its base helper
    plus one step: before the event is yielded, the generator doing the
    yield stores the frame that resumed it — the ``yield from`` in the
    code that called the helper — in :attr:`site_frame`.  The monitor
    reads and clears it, so recovering an event's ``file.py:lineno`` site
    is O(1) instead of a walk down the suspended generator chain
    (:func:`repro.sanitizer.monitor.yield_site`).  ``compute`` and
    ``device_assert`` capture nothing: no detector reads the site of a
    ``Compute`` event.
    """

    __slots__ = ("site_frame",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.site_frame = None

    def _post(self, ev):
        """Yield ``ev`` from the caller's site; return the scheduler's reply."""
        self.site_frame = _getframe(1)
        res = yield ev
        return res

    def load(self, buf: Buffer, idx: int):
        self.site_frame = _getframe(1)
        res = yield Load(buf, (idx,))
        return res[0]

    def load_vec(self, buf: Buffer, idxs: Sequence[int]):
        self.site_frame = _getframe(1)
        res = yield Load(buf, tuple(idxs))
        return list(res)

    def syncwarp(self, mask: Optional[int] = None):
        self.site_frame = _getframe(1)
        yield from ThreadCtx.syncwarp(self, mask)

    # The remaining helpers build their event eagerly and hand it to
    # ``_post``, whose generator the caller's ``yield from`` resumes.
    def store(self, buf: Buffer, idx: int, value):
        return self._post(Store(buf, (idx,), (value,)))

    def store_vec(self, buf: Buffer, idxs: Sequence[int], values: Sequence):
        return self._post(Store(buf, tuple(idxs), tuple(values)))

    def syncthreads(self, bar_id: int = 0, count: Optional[int] = None):
        return self._post(intern_syncblock(bar_id, count))

    def atomic_add(self, buf: Buffer, idx: int, value):
        return self._post(AtomicOp(buf, idx, "add", value))

    def atomic_max(self, buf: Buffer, idx: int, value):
        return self._post(AtomicOp(buf, idx, "max", value))

    def atomic_min(self, buf: Buffer, idx: int, value):
        return self._post(AtomicOp(buf, idx, "min", value))

    def atomic_exch(self, buf: Buffer, idx: int, value):
        return self._post(AtomicOp(buf, idx, "exch", value))

    def atomic_cas(self, buf: Buffer, idx: int, compare, value):
        return self._post(AtomicOp(buf, idx, "cas", (compare, value)))

    def _shfl(self, mode: str, value, arg: int, mask: Optional[int]):
        if mask is None:
            mask = full_mask(self.warp_size)
        return self._post(Shuffle(mode, value, arg, mask))

    def shfl(self, value, src: int, mask: Optional[int] = None):
        return self._shfl("idx", value, src, mask)

    def shfl_up(self, value, delta: int, mask: Optional[int] = None):
        return self._shfl("up", value, delta, mask)

    def shfl_down(self, value, delta: int, mask: Optional[int] = None):
        return self._shfl("down", value, delta, mask)

    def shfl_xor(self, value, delta: int, mask: Optional[int] = None):
        return self._shfl("xor", value, delta, mask)

    def _vote(self, mode: str, predicate, mask: Optional[int]):
        if mask is None:
            mask = full_mask(self.warp_size)
        return self._post(intern_vote(mode, bool(predicate), mask))

    def vote_any(self, predicate, mask: Optional[int] = None):
        return self._vote("any", predicate, mask)

    def vote_all(self, predicate, mask: Optional[int] = None):
        return self._vote("all", predicate, mask)

    def ballot(self, predicate, mask: Optional[int] = None):
        return self._vote("ballot", predicate, mask)


class Lane:
    """Scheduler bookkeeping for one thread: its generator and wait state."""

    __slots__ = ("tid", "warp_id", "lane_id", "gen", "send", "state", "pending", "wait_key", "posted")

    def __init__(self, tid: int, warp_id: int, lane_id: int, gen) -> None:
        self.tid = tid
        self.warp_id = warp_id
        self.lane_id = lane_id
        self.gen = gen
        #: Bound ``gen.send`` — saves an attribute hop in the hot round
        #: loop; a block with a tracer or monitor swaps in a reporting
        #: wrapper.  None for non-generator stand-ins (the scheduler
        #: validates real kernels before any Lane reaches an engine).
        self.send = getattr(gen, "send", None)
        self.state = RUN
        #: Value to ``send`` into the generator on the next advance.
        self.pending = None
        #: Barrier/shuffle key while waiting.
        self.wait_key = None
        #: The event posted this round (shuffles keep it until release).
        self.posted = None

    def describe(self) -> str:
        return f"t{self.tid} (warp {self.warp_id}, lane {self.lane_id}): {STATE_NAMES[self.state]}"
