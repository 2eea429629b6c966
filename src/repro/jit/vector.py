"""Vectorized lane values and the vectorized thread context.

The JIT tier re-runs a kernel generator once over a whole *range* of
lanes instead of once per lane, binding every lane-varying quantity
(``tid``, ``lane_id``, loaded values, accumulators) to a
:class:`LaneVec` — a lazy vector of one value per lane.  Python-level
control flow in the kernel then acts on all lanes at once; anywhere the
lanes would disagree about which branch to take, a :class:`BoolProbe`
raises :class:`JitAbort` before any side effect has been committed.

A range is either one warp (the per-warp pass) or the whole block (the
lockstep pass, :func:`repro.jit.compile.compile_block`).  ``tid`` and
``global_tid`` are affine over either range.  Over one warp ``warp_id``
is a Python int and ``lane_id`` is affine; a lockstep pass has no
equivalent form for them (a lane array would neither wrap nor promote
like the per-warp values), so reading either aborts it and the block is
re-traced per warp.  A branch that is uniform over the block is uniform
over each of its warps, so a lockstep pass that succeeds takes the
branches every per-warp pass would take.

Exactness contract
==================

The scalar engines compute with Python ints (arbitrary precision) and
Python floats (IEEE doubles).  :class:`LaneVec` keeps *affine integer*
values — ``a0 + stride * lane`` — as Python ints, so induction
arithmetic is exact; only non-affine results materialize to NumPy
arrays (``int64``/``float64``), whose elementwise ``+ - * / // %`` match
CPython's semantics bit-for-bit for in-range values.  Materializing an
affine form whose values leave ``int64`` aborts the trace, so a lane
range never wraps where its sub-ranges would not.  The scalar engines'
Python numbers are *weak* to NumPy (``float32 * tid`` stays float32), so
arrays materialized from them are marked weak, and one meeting a strong
operand whose promotion would differ aborts the trace.  An ``int64``
overflow inside array arithmetic *would* diverge from Python bignums —
kernels computing beyond 2**63 are out of scope for the JIT and are
caught by the differential suite, not silently tolerated (see
docs/PERF.md).
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.gpu.events import Compute, Load, Store
from repro.gpu.thread import full_mask


class JitAbort(Exception):
    """Compilation guard failure: fall back to the interpreter.

    ``reason`` is one of :data:`repro.jit.stats.DEOPT_REASONS`.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


class BoolProbe:
    """A per-lane predicate that must be uniform to steer control flow.

    ``uniform`` is ``True``/``False`` when every lane agrees, ``None``
    when they diverge; branching on a divergent probe aborts the
    compile.  (``and``/``or``/``not``/``if``/``while`` all funnel
    through ``__bool__``, so kernel control flow needs no rewriting.)
    """

    __slots__ = ("uniform",)

    def __init__(self, uniform) -> None:
        self.uniform = uniform

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BoolProbe":
        if arr.all():
            return cls(True)
        if not arr.any():
            return cls(False)
        return cls(None)

    @classmethod
    def from_endpoints(cls, first: bool, last: bool) -> "BoolProbe":
        """Probe for a *monotone* predicate over a monotone lane sequence:
        equal endpoints imply uniformity."""
        if first == last:
            return cls(bool(first))
        return cls(None)

    def __bool__(self) -> bool:
        if self.uniform is None:
            raise JitAbort("divergence", "lanes diverge at a branch")
        return self.uniform

    def __invert__(self) -> "BoolProbe":
        return BoolProbe(None if self.uniform is None else not self.uniform)


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Dtypes a weak lane array (see :func:`_lanes`) may meet: NumPy promotes
#: them with an int64 or float64 array exactly as with a Python number.
_WEAK_SAFE = (np.dtype(np.int64), np.dtype(np.float64))


def _is_weak(x) -> bool:
    """True when the scalar engines hold ``x`` as a Python number."""
    if isinstance(x, LaneVec):
        return x.weak
    return not isinstance(x, np.generic)


def _lanes(a, b, out: np.ndarray) -> "LaneVec":
    """``out``, computed from ``a`` and ``b``, as a LaneVec.

    Thread ids and arithmetic on them are Python numbers in the scalar
    engines, which NumPy treats as weak (``np.float32(v) * tid`` stays
    float32), but int64/float64 arrays here.  The result is weak when
    both operands are; a weak array meeting a strong operand of another
    dtype would promote where no lane does, so the trace aborts.
    """
    weak_a, weak_b = _is_weak(a), _is_weak(b)
    if weak_a != weak_b and isinstance(a if weak_a else b, LaneVec):
        strong = b if weak_a else a
        dtype = strong.arr.dtype if isinstance(strong, LaneVec) else strong.dtype
        if dtype not in _WEAK_SAFE:
            raise JitAbort("error", f"thread-id lanes promote against {dtype}")
    return LaneVec(len(out), 0, 0, out, weak_a and weak_b)


def _scalar_of(x):
    """``(tag, value)`` when ``x`` acts as one scalar across all lanes.

    tag 'i' → exact int, 'f' → float, None → not scalar (or unknown
    type: let the caller materialize / fail).
    """
    if isinstance(x, bool):
        return ("i", int(x))
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, float):
        return ("f", x)
    if isinstance(x, np.integer):
        return ("i", int(x))
    if isinstance(x, np.floating):
        return ("f", float(x))
    if isinstance(x, LaneVec) and x.arr is None and x.stride == 0:
        return ("i", x.a0)
    return None


class LaneVec:
    """One value per lane of a warp, affine where possible.

    Either ``arr`` is ``None`` and the lane values are the exact Python
    ints ``a0 + stride * lane_index``, or ``arr`` is a NumPy array of
    length ``n`` holding materialized per-lane values.  ``weak`` marks
    lanes that are Python numbers in the scalar engines (see
    :func:`_lanes`): every affine form, but no loaded value.
    """

    __slots__ = ("n", "a0", "stride", "arr", "weak")

    #: Refuse NumPy's mixed-operand ufunc protocol so ``ndarray <op>
    #: LaneVec`` defers to our reflected dunders instead of building an
    #: object array.
    __array_ufunc__ = None

    def __init__(self, n: int, a0: int = 0, stride: int = 0, arr=None,
                 weak: bool = False) -> None:
        self.n = n
        self.a0 = a0
        self.stride = stride
        self.arr = arr
        self.weak = weak

    @classmethod
    def affine(cls, a0: int, stride: int, n: int) -> "LaneVec":
        return cls(n, a0, stride, None, True)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "LaneVec":
        return cls(len(arr), 0, 0, arr)

    # -- materialization ----------------------------------------------------
    def materialize(self) -> np.ndarray:
        """Per-lane values as an ndarray (int64 for affine forms)."""
        if self.arr is not None:
            return self.arr
        a0 = self.a0
        last = a0 + self.stride * (self.n - 1)
        if not (_INT64_MIN <= min(a0, last) and max(a0, last) <= _INT64_MAX):
            raise JitAbort("error", "lane value outside int64")
        return a0 + self.stride * np.arange(self.n, dtype=np.int64)

    # Affine forms materialize fresh each use (warp-sized arrays are cheap)
    # rather than caching: caching would demote the exact affine form and
    # make guard behaviour depend on operation order.
    _vals = materialize

    # -- uniform-collapse protocol -----------------------------------------
    def _uniform(self):
        """The single scalar value when all lanes agree, else JitAbort."""
        if self.arr is None:
            if self.stride == 0:
                return self.a0
            raise JitAbort("divergence", "lane-varying value used as a scalar")
        first = self.arr[0]
        if (self.arr == first).all():
            return first.item()
        raise JitAbort("divergence", "lane-varying value used as a scalar")

    def __bool__(self) -> bool:
        return bool(self._uniform())

    def __int__(self) -> int:
        return int(self._uniform())

    def __index__(self) -> int:
        v = self._uniform()
        if not isinstance(v, int):
            raise TypeError(f"cannot use {type(v).__name__} lanes as an index")
        return v

    def __float__(self) -> float:
        return float(self._uniform())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.arr is None:
            return f"LaneVec(affine {self.a0}+{self.stride}*lane, n={self.n})"
        return f"LaneVec(arr={self.arr!r})"

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        # Exact-type fast paths for the two overwhelmingly common operand
        # kinds before the general coercion chain.
        tp = other.__class__
        if tp is int:
            if self.arr is None:
                return LaneVec.affine(self.a0 + other, self.stride, self.n)
            return LaneVec(self.n, 0, 0, self.arr + other, self.weak)
        if tp is float:
            return LaneVec(self.n, 0, 0, self._vals() + other, self.weak)
        if tp is LaneVec:
            if self.arr is None and other.arr is None:
                return LaneVec.affine(
                    self.a0 + other.a0, self.stride + other.stride, self.n
                )
            return _lanes(self, other, self._vals() + other._vals())
        s = _scalar_of(other)
        if s is not None:
            tag, v = s
            if tag == "i" and self.arr is None:
                return LaneVec.affine(self.a0 + v, self.stride, self.n)
            return _lanes(self, other, self._vals() + v)
        if isinstance(other, LaneVec):
            if self.arr is None and other.arr is None:
                return LaneVec.affine(
                    self.a0 + other.a0, self.stride + other.stride, self.n
                )
            return _lanes(self, other, self._vals() + other._vals())
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        s = _scalar_of(other)
        if s is not None:
            tag, v = s
            if tag == "i" and self.arr is None:
                return LaneVec.affine(self.a0 - v, self.stride, self.n)
            return _lanes(self, other, self._vals() - v)
        if isinstance(other, LaneVec):
            if self.arr is None and other.arr is None:
                return LaneVec.affine(
                    self.a0 - other.a0, self.stride - other.stride, self.n
                )
            return _lanes(self, other, self._vals() - other._vals())
        return NotImplemented

    def __rsub__(self, other):
        s = _scalar_of(other)
        if s is not None:
            tag, v = s
            if tag == "i" and self.arr is None:
                return LaneVec.affine(v - self.a0, -self.stride, self.n)
            return _lanes(other, self, v - self._vals())
        return NotImplemented

    def __mul__(self, other):
        tp = other.__class__
        if tp is int:
            if self.arr is None:
                return LaneVec.affine(self.a0 * other, self.stride * other, self.n)
            return LaneVec(self.n, 0, 0, self.arr * other, self.weak)
        if tp is float:
            return LaneVec(self.n, 0, 0, self._vals() * other, self.weak)
        s = _scalar_of(other)
        if s is not None:
            tag, v = s
            if tag == "i" and self.arr is None:
                return LaneVec.affine(self.a0 * v, self.stride * v, self.n)
            return _lanes(self, other, self._vals() * v)
        if isinstance(other, LaneVec):
            return _lanes(self, other, self._vals() * other._vals())
        return NotImplemented

    __rmul__ = __mul__

    def _numeric(self, other, op):
        """Materialized binary op against a scalar or another LaneVec."""
        s = _scalar_of(other)
        if s is not None:
            return _lanes(self, other, op(self._vals(), s[1]))
        if isinstance(other, LaneVec):
            return _lanes(self, other, op(self._vals(), other._vals()))
        return NotImplemented

    def _rnumeric(self, other, op):
        s = _scalar_of(other)
        if s is not None:
            return _lanes(other, self, op(s[1], self._vals()))
        return NotImplemented

    # Division: a zero divisor lane aborts the trace, so the interpreter
    # replay raises (or not) exactly as the scalar lane would — NumPy
    # would silently yield 0 / inf instead.
    def _divide(self, other, op):
        if isinstance(other, LaneVec):
            if not other._vals().all():
                raise JitAbort("error", "division by zero in a lane")
        else:
            s = _scalar_of(other)
            if s is not None and s[1] == 0:
                raise JitAbort("error", "division by zero")
        return self._numeric(other, op)

    def _rdivide(self, other, op):
        if not self._vals().all():
            raise JitAbort("error", "division by zero in a lane")
        return self._rnumeric(other, op)

    def __truediv__(self, other):
        return self._divide(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._rdivide(other, lambda a, b: a / b)

    def __floordiv__(self, other):
        return self._divide(other, lambda a, b: a // b)

    def __rfloordiv__(self, other):
        return self._rdivide(other, lambda a, b: a // b)

    def __mod__(self, other):
        return self._divide(other, lambda a, b: a % b)

    def __rmod__(self, other):
        return self._rdivide(other, lambda a, b: a % b)

    def __pow__(self, other):
        return self._numeric(other, lambda a, b: a**b)

    def __rpow__(self, other):
        return self._rnumeric(other, lambda a, b: a**b)

    def __neg__(self):
        if self.arr is None:
            return LaneVec.affine(-self.a0, -self.stride, self.n)
        return LaneVec(self.n, 0, 0, -self.arr, self.weak)

    def __pos__(self):
        return self

    def __abs__(self):
        return LaneVec(self.n, 0, 0, np.abs(self._vals()), self.weak)

    # -- comparisons ---------------------------------------------------------
    def _compare(self, other, op, swapped: bool = False) -> "BoolProbe":
        s = _scalar_of(other)
        if s is not None and self.arr is None:
            # Affine lanes are monotone in lane index, and every threshold
            # predicate against one scalar is monotone in the lane value —
            # two endpoint evaluations decide uniformity exactly.
            lo = self.a0
            hi = self.a0 + self.stride * (self.n - 1)
            if swapped:
                return BoolProbe.from_endpoints(op(s[1], lo), op(s[1], hi))
            return BoolProbe.from_endpoints(op(lo, s[1]), op(hi, s[1]))
        if s is not None:
            a, b = (s[1], self._vals()) if swapped else (self._vals(), s[1])
            return BoolProbe.from_array(op(a, b))
        if isinstance(other, LaneVec):
            a, b = (other._vals(), self._vals()) if swapped else (self._vals(), other._vals())
            return BoolProbe.from_array(op(a, b))
        return NotImplemented

    def _compare_eq(self, other, negate: bool) -> "BoolProbe":
        s = _scalar_of(other)
        if s is not None and self.arr is None and self.stride != 0:
            # A strictly monotone sequence equals one scalar in at most one
            # lane: uniform only when no lane matches (or n == 1).  The
            # lanes are ints, so a float matches only at an integral value,
            # which converts to an int exactly.
            v = s[1]
            if s[0] == "f":
                v = int(v) if v.is_integer() else None
            hits = (
                v is not None
                and (v - self.a0) % self.stride == 0
                and 0 <= (v - self.a0) // self.stride < self.n
            )
            if not hits:
                return BoolProbe(negate)
            if self.n == 1:
                return BoolProbe(not negate)
            return BoolProbe(None)
        if s is not None:
            arr = self._vals() == s[1]
            return BoolProbe.from_array(arr != negate)
        if isinstance(other, (LaneVec, numbers.Number)):
            # Any other number (complex, Fraction, ...) compares lane by
            # lane, as the scalar engines compare it.
            arr = self._vals() == (
                other._vals() if isinstance(other, LaneVec) else other
            )
            return BoolProbe.from_array(arr != negate)
        return NotImplemented

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare_eq(other, negate=False)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare_eq(other, negate=True)

    # Defining __eq__ clears __hash__; LaneVecs must never be dict keys
    # (an attempt raises TypeError, which aborts the compile).
    __hash__ = None  # type: ignore[assignment]


def _unsupported(reason: str, what: str):
    """A generator helper that aborts compilation on its first step."""
    raise JitAbort(reason, what)
    yield  # pragma: no cover - unreachable, marks this as a generator


class _TeamStateGuard:
    """:attr:`VecThreadCtx.block`: the owning block is reachable only for
    its team shared state (the OpenMP runtime's ``TeamRuntime`` lives
    there), which the tracer cannot allocate, so any attribute read
    aborts as an ``alloc`` deopt."""

    __slots__ = ()

    def __getattr__(self, name: str):
        raise JitAbort("alloc", "team shared state")


_TEAM_STATE_GUARD = _TeamStateGuard()


class VecThreadCtx:
    """A :class:`~repro.gpu.thread.ThreadCtx` stand-in covering a lane range.

    The range is ``nlanes`` consecutive threads from ``first_tid`` (a
    multiple of the warp size): one warp, or the whole block for a
    lockstep pass.  Mirrors the scalar context's attribute/method
    surface exactly, but ``tid``/``global_tid`` are affine
    :class:`LaneVec`\\ s, and over one warp ``lane_id`` is affine and
    ``warp_id`` a Python int; over several, reading either aborts the
    pass (the block re-traces per warp).  The memory helpers yield
    events whose index/value payloads may be LaneVecs.  Everything the
    JIT cannot vectorize — atomics, barriers, shuffles, votes,
    allocations, device asserts — raises :class:`JitAbort` before any
    side effect, sending the block back to the interpreter.
    """

    __slots__ = (
        "tid",
        "_lane_id",
        "_warp_id",
        "block_id",
        "num_blocks",
        "block_dim",
        "warp_size",
        "block",
        "rt",
    )

    def __init__(
        self,
        first_tid: int,
        nlanes: int,
        warp_size: int,
        block_id: int,
        num_blocks: int,
        block_dim: int,
    ) -> None:
        self.tid = LaneVec.affine(first_tid, 1, nlanes)
        if nlanes <= warp_size:
            self._lane_id = LaneVec.affine(0, 1, nlanes)
            self._warp_id = first_tid // warp_size
        else:
            self._lane_id = self._warp_id = None
        self.block_id = block_id
        self.num_blocks = num_blocks
        self.block_dim = block_dim
        self.warp_size = warp_size
        #: Unlike the scalar context there is no owning-block backdoor:
        #: any access through it is un-vectorizable and aborts.
        self.block = _TEAM_STATE_GUARD
        self.rt = None

    @property
    def lane_id(self):
        if self._lane_id is None:
            raise JitAbort("divergence", "lane_id in a lockstep pass")
        return self._lane_id

    @property
    def warp_id(self):
        if self._warp_id is None:
            raise JitAbort("divergence", "warp_id in a lockstep pass")
        return self._warp_id

    @property
    def global_tid(self):
        base = self.block_id * self.block_dim
        t = self.tid
        return LaneVec.affine(base + t.a0, t.stride, t.n)

    def warp_mask(self) -> int:
        return full_mask(self.warp_size)

    # -- vectorized events ---------------------------------------------------
    def load(self, buf, idx):
        res = yield Load(buf, (idx,))
        return res[0]

    def load_vec(self, buf, idxs):
        res = yield Load(buf, tuple(idxs))
        return list(res)

    def store(self, buf, idx, value):
        yield Store(buf, (idx,), (value,))

    def store_vec(self, buf, idxs, values):
        yield Store(buf, tuple(idxs), tuple(values))

    def compute(self, kind: str = "alu", ops=1):
        # Not interned: ``ops`` may be a LaneVec, and intern keys must
        # stay hashable.  Compute() computes the same interned sig.
        yield Compute(kind, ops)

    # -- un-vectorizable events: abort before any side effect ----------------
    def atomic_add(self, buf, idx, value):
        return _unsupported("event", "atomic")

    atomic_max = atomic_min = atomic_exch = atomic_add

    def atomic_cas(self, buf, idx, compare, value):
        return _unsupported("event", "atomic")

    def syncwarp(self, mask=None):
        return _unsupported("event", "syncwarp")

    def syncthreads(self, bar_id: int = 0, count=None):
        return _unsupported("event", "syncthreads")

    def shfl(self, value, src, mask=None):
        return _unsupported("event", "shuffle")

    shfl_up = shfl_down = shfl_xor = shfl

    def vote_any(self, predicate, mask=None):
        return _unsupported("event", "vote")

    vote_all = ballot = vote_any

    def device_assert(self, condition, message: str = "device assertion failed"):
        return _unsupported("event", "device_assert")

    def alloca(self, name: str, size: int, dtype):
        raise JitAbort("alloc", "alloca")

    def shared_alloc(self, name: str, size: int, dtype):
        raise JitAbort("alloc", "shared_alloc")
