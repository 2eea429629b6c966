"""Vector-clock happens-before data-race detection (FastTrack-style).

The detector replaces the old round-local check in
``ThreadBlock._check_races``, which compared only accesses posted in the
*same* scheduling round: two conflicting accesses in different rounds
with no intervening barrier were never compared, so e.g. a store in
round 0 of warp 0 racing a store in round 3 of warp 1 went unreported.
Here every access is checked against per-element shadow state under the
full happens-before order, so cross-round races are caught.

Happens-before model
====================

* program order within one lane;
* a released barrier group — block-wide ``syncthreads``, *named counted*
  block barriers, warp ``syncwarp(mask)`` barriers (the paper's SIMD
  group barriers over ``simdmask``), and shuffle/vote groups (they are
  ``__*_sync`` operations) — joins the clocks of every released lane;
* atomics on one location behave acquire/release *for that location*:
  each atomic joins the location's atomic clock into the lane and
  publishes the lane's clock back.  This orders idioms like
  claim-with-``atomicAdd``-then-write and is deliberately more lenient
  than relaxed hardware atomics (documented in ``docs/SANITIZER.md``).

A race is a **plain write** conflicting with any other lane's access —
plain write, plain read, or atomic — that is not ordered by
happens-before.  Atomic-vs-atomic contention and atomic-write vs plain
read are treated as synchronized, matching the simulator's established
race semantics.  Lane-``local`` buffers are private by construction and
not tracked.

Synchronized is not order-independent: a float ``atomicAdd`` sums in
commit order, and a plain read sees an atomic or not depending on which
commits first.  So within one block and one round, every pair of lanes
touching one element where one access is an atomic and the other an
atomic or a plain read is recorded as a **dependent pair** in
:attr:`SanitizerReport.dependent`, for the DPOR schedule explorer to
reverse.  They are not findings.  One pair is kept per element and
reversal (the two warps, or one warp's commit order), taken against the
element's last same-round access, so each atomic pays O(1) for it, and
reads pay only once their buffer has seen an atomic.  Cross-round pairs
are not recorded: the round structure orders them, so no round-local
schedule can reverse them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gpu.events import T_ATOMIC, T_LOAD, T_STORE
from repro.sanitizer.clocks import (
    TID_BITS,
    Clock,
    LaneKey,
    epoch_hb,
    fresh_clock,
    join_into,
    lane_of,
    tick,
)
from repro.sanitizer.report import Finding, SanitizerReport

#: Access kinds recorded in shadow cells.
READ, WRITE, ATOMIC = "read", "write", "atomic"


class Access:
    """One recorded access epoch with provenance."""

    __slots__ = ("key", "clock", "round", "site", "kind", "warp")

    def __init__(self, key: LaneKey, clock: int, rnd: int, site: str, kind: str,
                 warp: Optional[int] = None):
        self.key = key
        self.clock = clock
        self.round = rnd
        self.site = site
        self.kind = kind
        #: Warp id of the accessing lane (schedule-exploration provenance:
        #: the DPOR explorer reverses racing pairs by warp/commit order).
        self.warp = warp

    def describe(self) -> str:
        block, tid = lane_of(self.key)
        return f"block {block} t{tid} {self.kind} (round {self.round}, {self.site})"


class _Cell:
    """Shadow state of one buffer element."""

    __slots__ = ("write", "reads", "atomics", "avc", "last", "last_atomic")

    def __init__(self) -> None:
        self.write: Optional[Access] = None
        self.reads: Dict[LaneKey, Access] = {}
        self.atomics: Dict[LaneKey, Access] = {}
        #: The location's atomic release clock (acquire/release edges),
        #: made by its first atomic.
        self.avc: Optional[Clock] = None
        #: The last read or atomic, and the last atomic, once the buffer
        #: has seen an atomic: the other end of a dependent pair.
        self.last: Optional[Access] = None
        self.last_atomic: Optional[Access] = None


class _Shadow(dict):
    """One buffer's shadow cells, ``{idx: cell}``, made on first touch."""

    #: Set by the buffer's first atomic; from then on reads are tracked
    #: as the other end of dependent pairs.
    atomic = False

    def __missing__(self, idx: int) -> _Cell:
        cell = self[idx] = _Cell()
        return cell


#: Access kind of each memory event tag.
_KIND = {T_LOAD: READ, T_STORE: WRITE, T_ATOMIC: ATOMIC}


class RaceDetector:
    """Happens-before race detector over global and shared memory."""

    def __init__(self, report: SanitizerReport, max_findings: int = 64) -> None:
        self.report = report
        self.max_findings = max_findings
        self._clocks: Dict[LaneKey, Clock] = {}
        #: The joined clock of each lane's last release, while the lane's
        #: clock is still that plus its own tick (see :meth:`on_release`).
        self._bases: Dict[LaneKey, Clock] = {}
        #: Shadow cells per buffer: ``id(buf) -> {idx: cell}``.
        self._shadow: Dict[int, Dict[int, _Cell]] = {}
        #: Strong refs so freed buffers cannot recycle their ``id()``.
        self._buffers: Dict[int, object] = {}
        #: Reads of each buffer no plain write has reached yet, as
        #: ``(idxs, access)`` in order; see :meth:`on_event`.
        self._unwritten: Dict[int, List[Tuple[tuple, Access]]] = {}
        self._reported: set = set()
        #: ``(id(buf), idx, block, round, warp, warp)`` of each dependent
        #: pair recorded: one per element and reversal.
        self._depended: set = set()

    # -- lane bookkeeping --------------------------------------------------
    def clock_of(self, key: LaneKey) -> Clock:
        clock = self._clocks.get(key)
        if clock is None:
            clock = fresh_clock(key)
            self._clocks[key] = clock
        return clock

    def on_release(self, block_id: int, tids: List[int]) -> None:
        """A barrier/shuffle/vote group released: join participants' clocks.

        A lane's clock right after a release is that release's joined
        clock with the lane's own component ticked, and only an atomic
        acquire changes it until its next release.  So a participant whose
        base is still recorded contributes its base — joined once however
        many participants share it — plus its own component; only the
        others are joined entry by entry.
        """
        base_key = block_id << TID_BITS
        keys = [base_key | tid for tid in tids]
        merged: Clock = {}
        bases = self._bases
        seen = set()
        for key in keys:
            base = bases.get(key)
            if base is None:
                join_into(merged, self.clock_of(key))
                continue
            if id(base) not in seen:
                seen.add(id(base))
                join_into(merged, base)
            own = self._clocks[key][key]
            if merged.get(key, 0) < own:
                merged[key] = own
        for key in keys:
            clock = dict(merged)
            tick(clock, key)
            self._clocks[key] = clock
            bases[key] = merged

    # -- access processing -------------------------------------------------
    def on_event(self, block_id: int, rnd: int, tid: int, ev, site: str,
                 warp: Optional[int] = None) -> None:
        """Check one memory event.  Everything per event — the lane's
        clock, the buffer's shadow, the stat, the :class:`Access` record —
        is done once; each element then costs its shadow-cell checks."""
        kind = _KIND.get(ev.tag)
        if kind is None:
            return
        idxs = (ev.idx,) if kind is ATOMIC else ev.idxs
        buf = ev.buf
        if buf.space == "local" or not len(idxs):
            return
        key = block_id << TID_BITS | tid
        clock = self.clock_of(key)
        cells = self._shadow.get(id(buf))
        if cells is None:
            self._buffers[id(buf)] = buf
            cells = self._shadow[id(buf)] = _Shadow()
            self._unwritten[id(buf)] = []
        self.report.bump("race_checked_accesses", len(idxs))
        # An access never moves its own lane's epoch (an atomic's acquire
        # joins knowledge *of* this lane that is at most its own), so one
        # record serves every element.
        me = Access(key, clock.get(key, 0), rnd, site, kind, warp)
        unwritten = self._unwritten.get(id(buf))
        if unwritten is not None:
            # Until a buffer's first plain write or atomic no read can race
            # or depend, so reads are only logged: most buffers (kernel
            # inputs) are never written.  The first write or atomic replays
            # the log into the cells, in order, before its own checks.
            if kind is READ:
                unwritten.append((idxs, me))
                return
            del self._unwritten[id(buf)]
            for logged, read in unwritten:
                for idx in logged:
                    cells[int(idx)].reads[read.key] = read
        if kind is ATOMIC and not cells.atomic:
            self._first_atomic(cells, block_id, rnd)
        track = cells.atomic
        for idx in idxs:
            idx = int(idx)
            cell = cells[idx]
            if kind is ATOMIC:
                # Acquire the location's atomic clock, then check against
                # any unordered plain write (a write racing an atomic is a
                # race).
                if cell.avc is None:
                    cell.avc = {}
                join_into(clock, cell.avc)
                self._bases.pop(key, None)
            w = cell.write
            if w is not None and w.key != key and not epoch_hb(w.key, w.clock, clock):
                self._report(buf, idx, w, me)
            if kind is READ:
                cell.reads[key] = me
                if track:
                    other = cell.last_atomic
                    if other is not None and other.round == rnd \
                            and other.key >> TID_BITS == block_id:
                        self._depend(buf, idx, other, me)
                    cell.last = me
            elif kind is ATOMIC:
                cell.atomics[key] = me
                # Release: publish this lane's clock on the location.
                join_into(cell.avc, clock)
                other = cell.last
                if other is not None and other.round == rnd \
                        and other.key >> TID_BITS == block_id:
                    self._depend(buf, idx, other, me)
                cell.last = cell.last_atomic = me
            else:
                # Plain write: also conflicts with every unordered read and
                # atomic.
                for other in cell.reads.values():
                    if other.key != key and not epoch_hb(other.key, other.clock, clock):
                        self._report(buf, idx, other, me)
                for other in cell.atomics.values():
                    if other.key != key and not epoch_hb(other.key, other.clock, clock):
                        self._report(buf, idx, other, me)
                cell.write = me
                cell.reads.clear()
                cell.atomics.clear()

    @staticmethod
    def _first_atomic(cells: _Shadow, block_id: int, rnd: int) -> None:
        """Start tracking a buffer's reads for dependent pairs, seeding
        each cell with a read this block made earlier in this round."""
        cells.atomic = True
        for cell in cells.values():
            for read in cell.reads.values():
                if read.round == rnd and read.key >> TID_BITS == block_id:
                    cell.last = read

    def _depend(self, buf, idx: int, first: Access, second: Access) -> None:
        """Record one same-round dependent pair, once per reversal."""
        dedup = (id(buf), idx, first.key >> TID_BITS, first.round,
                 first.warp, second.warp)
        if dedup in self._depended:
            return
        self._depended.add(dedup)
        self.report.dependent.append((
            (buf.name, idx), _provenance(first), _provenance(second),
            (second.site, first.site)))

    # -- reporting ---------------------------------------------------------
    def _report(self, buf, idx: int, first: Access, second: Access) -> None:
        # Unordered pair key: the same two conflicting (lane, kind) parties
        # are one bug however many times their accesses interleave.
        pair = tuple(sorted(((first.key, first.kind), (second.key, second.kind))))
        dedup = (id(buf), idx, pair)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        if len(self.report.findings) >= self.max_findings:
            self.report.truncated += 1
            return
        block, tid = lane_of(second.key)
        message = (
            f"data race in block {block} on {buf.name!r}[{idx}]: "
            f"{second.describe()} conflicts with {first.describe()}"
        )
        finding = Finding(
            category="data-race",
            message=message,
            block=block,
            tid=tid,
            round=second.round,
            address=(buf.name, idx),
            sites=(second.site, first.site),
            extra={"first": _provenance(first), "second": _provenance(second)},
        )
        self.report.add(finding)


def _provenance(access: Access) -> Dict[str, object]:
    """One end of a racing or dependent pair, as the explorer reads it."""
    block, tid = lane_of(access.key)
    return {"block": block, "tid": tid, "kind": access.kind,
            "round": access.round, "warp": access.warp}
