"""Thread-block scheduler: cooperative lockstep execution of all lanes.

A :class:`ThreadBlock` owns one generator per thread and advances them in
*rounds*: every runnable lane steps by exactly one event per round.  The
round structure is what makes the simulation SIMT-faithful:

* lanes of a warp that post the same event signature in a round form one
  *issue group* (one warp instruction); divergent lanes issue separately;
* memory events that issue together are coalesced together;
* warp/block barriers block lanes until every *live* participant arrives —
  retired threads are excluded, matching CUDA's ``__syncthreads`` treatment
  of exited threads;
* if a round advances no lane and releases no barrier, the block is
  deadlocked and a :class:`~repro.errors.DeadlockError` with a per-lane
  diagnostic is raised (this is how the test suite's failure-injection
  cases observe protocol bugs).

Side effects within a round apply in deterministic (warp, lane) order, so
every simulation — including atomics — is reproducible.  An optional
``schedule_policy`` (see :mod:`repro.sanitizer.schedule`) re-permutes the
warp resolution order and per-warp commit order per round — still
deterministic given the policy's seed, which is how the sanitizer's
schedule explorer surfaces order-dependent results.

An optional ``monitor`` (see :mod:`repro.sanitizer.monitor`) observes
events, retirements, barrier releases, and deadlocks; the happens-before
race detector, barrier analyzer, and sharing auditor all attach through
it.  Both hooks are strictly zero-cost when absent.

One round loop
==============

The block has exactly one stepping loop (:meth:`ThreadBlock._run_rounds`):
a fused warp-major pass per round that steps each lane, applies its
event's side effect through the per-tag handler table (``_side``),
collects collective arrivals, and charges the warp's issue groups
through the accounting table (``_acct``, which charges memory through
:func:`~repro.gpu.coalescing.sector_footprint` and
:func:`~repro.gpu.coalescing.bank_passes`, as the JIT tier
(:mod:`repro.jit`) does).  Every round ends in
:meth:`ThreadBlock._end_round`: atomic contention, the stall flag, and
:meth:`ThreadBlock._release_barriers`.

Every hook is a construction-time specialization of that loop, so the
per-lane path of a hook-free block carries no hook-presence branch:

* **recorder** (the parallel executor's write log) and **fault plan**
  swap entries of ``_side`` (``_side_*_rec``, ``_side_atomic_resilient``);
* **tracer** and **monitor** wrap each lane's ``send`` so every step is
  reported as it happens, and every retirement after the lane is marked
  ``DONE``; warp-level arrivals park only after the warp's scan, so the
  hooks see each warp's lane states as of the round's start;
* with a **monitor**, collectives every participant reaches in one round
  park in the waiter dicts instead of completing inline, so every
  release reaches ``_release_barriers`` and ``monitor.on_release``;
* a **schedule policy** swaps the memory entries of ``_side`` for a
  handler that holds each side effect by its post position, and
  :meth:`ThreadBlock._commit_round` applies and charges the round's
  posts at round end in the policy's warp and commit order.

The JIT tier (``engine="jit"``) is the one alternative: it replaces the
loop for whole blocks whose warps trace stably and falls back to it
otherwise; a hooked launch never resolves to it (``LaunchPlan.hook``).
``tests/gpu/test_fastpath_equiv.py`` checks the loop and the JIT
against a frozen reference recording; the property tests in
``tests/gpu/test_coalescing.py`` check the shared cost model against the
scalar definitions.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import (
    DeadlockError,
    LaunchError,
    SimulationError,
    SynchronizationError,
)
from repro.gpu.atomics import apply_atomic, apply_atomic_resilient
from repro.gpu.coalescing import L1SectorCache, bank_passes, sector_footprint
from repro.gpu.costmodel import CostParams
from repro.gpu.counters import BlockCounters
from repro.gpu.events import T_LOAD
from repro.gpu.memory import PAGE_SHIFT, GlobalMemory, SharedMemory
from repro.gpu.thread import (
    DONE,
    RUN,
    WAIT_BLOCK,
    WAIT_SHFL,
    WAIT_WARP,
    Lane,
    SiteThreadCtx,
    ThreadCtx,
    lane_table,
)
from repro.jit.stats import JitCounters

#: Hard cap on scheduling rounds; hitting it means a runaway kernel.
DEFAULT_MAX_ROUNDS = 5_000_000

_BY_LANE_ID = operator.attrgetter("lane_id")


class ThreadBlock:
    """One simulated thread block (an OpenMP team's hardware vehicle)."""

    def __init__(
        self,
        block_id: int,
        num_threads: int,
        params: CostParams,
        gmem: GlobalMemory,
        entry,
        args: Sequence = (),
        num_blocks: int = 1,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        tracer=None,
        monitor=None,
        schedule_policy=None,
        recorder=None,
        faults=None,
        engine: Optional[str] = None,
        jit_stats=None,
    ) -> None:
        if num_threads < 1:
            raise LaunchError("block must have at least one thread")
        self.block_id = block_id
        self.num_threads = num_threads
        self.num_blocks = num_blocks
        self.params = params
        self.gmem = gmem
        self.shared = SharedMemory(params.shared_mem_per_block)
        self.counters = BlockCounters()
        self.max_rounds = max_rounds
        #: Optional event hook ``tracer(block_id, round, tid, event)`` —
        #: zero-cost when None; used for debugging and protocol tests.
        self.tracer = tracer
        #: Optional sanitizer monitor (event/release/deadlock hooks).
        self.monitor = monitor
        #: Optional schedule policy permuting warp/commit order per round.
        self.schedule_policy = schedule_policy
        #: Optional global-memory write recorder
        #: (:class:`repro.exec.record.GlobalWriteRecorder`) — the parallel
        #: launch engine's undo/merge hook; zero-cost when None.
        self.recorder = recorder
        #: Optional fault plan (:class:`repro.faults.FaultPlan`) consulted
        #: at the transient-atomic and forced-overflow hook sites;
        #: zero-cost when None.
        self.faults = faults
        #: Per-block L1 sector cache (LRU), charged in issue order.
        self._l1 = L1SectorCache(
            max(1, params.l1_size_bytes // params.sector_bytes)
        )
        self._round_mem_stall = False
        # Engine selection: "auto"/"fast" run the round loop, "jit" tries
        # the JIT tier first.  The JIT carries no hook points, so hooked
        # launches never reach a block as "jit": the plan resolves the
        # engine against its hooks first (``LaunchPlan.hook``).
        if engine is None or engine == "auto":
            engine = "fast"
        elif engine not in ("fast", "jit"):
            raise LaunchError(f"unknown engine {engine!r}")
        self.engine = engine
        #: The launch's JIT record (:class:`repro.jit.stats.JitCounters`),
        #: or the block's own when built without one; None off the JIT.
        if engine == "jit" and jit_stats is None:
            jit_stats = JitCounters()
        self.jit_stats = jit_stats
        ws = params.warp_size
        self.num_warps = -(-num_threads // ws)
        # The JIT tier re-instantiates the kernel as one vectorized
        # generator per warp, so the entry/args pair must outlive
        # construction (the scalar lane generators below stay untouched
        # until an engine actually steps them).
        self._entry = entry
        self._args = tuple(args)
        self.lanes: List[Lane] = []
        self.ctxs: List[ThreadCtx] = []
        self._warps: List[List[Lane]] = []
        if engine == "fast":
            # The JIT traces a vectorized re-instantiation of the kernel;
            # scalar lane generators are built lazily, only if the block
            # actually deoptimizes into the round loop.
            self._build_lanes()
        # -- round state -------------------------------------------------
        # Pre-allocated per-warp event buffers, reused — cleared, never
        # reallocated — every round.  (Side effects apply inline while
        # stepping, so only the events survive to the accounting step.)
        self._post_evs: List[list] = [[] for _ in range(self.num_warps)]
        # Hoisted cost-table lookup target for the accounting handlers.
        self._op_cost = self.params.op_cost
        self._cost_ld = self._op_cost.get("ld", 1.0)
        self._cost_st = self._op_cost.get("st", 1.0)
        # Round-local atomic address histogram, reused across rounds.
        self._atomic_addrs: Dict[tuple, int] = {}
        # Incremental barrier bookkeeping: waiter groups are maintained at
        # post time and torn down at release, so the round end never
        # rescans all lanes looking for barriers.
        self._block_waiters: Dict[tuple, List[Lane]] = {}
        self._warp_waiters: List[Dict[int, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._shfl_waiters: List[Dict[tuple, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._n_waiters = 0
        self._full_mask = (1 << ws) - 1
        # Hook specializations, fixed once here so the round loop itself
        # carries no hook-presence branches per lane.  The side-effect
        # table (indexed by memory event tag) follows the recorder and
        # fault plan.
        rec = self.recorder
        side_load = self._side_load if rec is None or not rec.track_reads else self._side_load_rec
        side_store = self._side_store if rec is None else self._side_store_rec
        self._apply_atomic = (
            self._side_atomic if faults is None else self._side_atomic_resilient
        )
        side_atomic = self._apply_atomic if rec is None else self._side_atomic_rec
        self._side = [None, side_load, side_store, side_atomic]
        # A monitor must see every release, so it parks every collective
        # instead of completing full groups inline.
        self._inline_sync = monitor is None
        # A schedule policy holds the round's memory side effects per warp,
        # keyed by post position, for ``_commit_round``.
        self._held: Optional[List[Dict[int, tuple]]] = None
        if schedule_policy is not None:
            self._commit_side = self._side
            self._held = [{} for _ in range(self.num_warps)]
            self._side = [None] + [self._side_hold] * 3
        self._acct = [
            self._acct_compute,
            self._acct_mem,
            self._acct_mem,
            self._acct_atomic,
            self._acct_barrier,
            self._acct_barrier,
            self._acct_shfl,
            self._acct_shfl,
        ]

    # ------------------------------------------------------------------
    def _build_lanes(self) -> None:
        """Instantiate the scalar lane generators (one per thread)."""
        ws = self.params.warp_size
        entry, args = self._entry, self._args
        # Monitored blocks capture each event's source site at the helper
        # (construction-time specialization: hook-free blocks never do).
        ctx_type = ThreadCtx if self.monitor is None else SiteThreadCtx
        # SoA identity columns, computed once per geometry and shared by
        # every block of every launch that uses it.
        for tid, warp_id, lane_id in lane_table(self.num_threads, ws).rows:
            tc = ctx_type(
                tid=tid,
                warp_size=ws,
                block_id=self.block_id,
                num_blocks=self.num_blocks,
                block_dim=self.num_threads,
                block=self,
                lane_id=lane_id,
                warp_id=warp_id,
            )
            gen = entry(tc, *args)
            if not hasattr(gen, "send"):
                raise LaunchError(
                    "kernel entry must be a generator function "
                    f"(got {type(gen).__name__} from {entry!r})"
                )
            self.ctxs.append(tc)
            self.lanes.append(Lane(tid, warp_id, lane_id, gen))
        self._warps[:] = [
            self.lanes[w * ws : (w + 1) * ws] for w in range(self.num_warps)
        ]
        if self.tracer is not None or self.monitor is not None:
            for lane in self.lanes:
                lane.send = self._observed_send(lane)

    def _observed_send(self, lane):
        """``lane.send`` reporting to the tracer and monitor: each event
        right after its step, each retirement after the lane is ``DONE``."""
        send = lane.gen.send
        c = self.counters
        tracer = self.tracer
        mon = self.monitor
        on_event = None if mon is None else mon.on_event
        on_retire = None if mon is None else mon.on_retire

        def observed(value):
            try:
                ev = send(value)
            except StopIteration:
                lane.state = DONE
                lane.pending = None
                if on_retire is not None:
                    on_retire(self, c.rounds, lane)
                raise
            lane.pending = None
            if tracer is not None:
                tracer(self.block_id, c.rounds, lane.tid, ev)
            if on_event is not None:
                on_event(self, c.rounds, lane, ev)
            return ev

        return observed

    # ------------------------------------------------------------------
    def run(self) -> BlockCounters:
        """Execute the block to completion; returns its counters."""
        if self.engine == "jit":
            from repro.jit.engine import try_run_jit

            result = try_run_jit(self)
            if result is not None:
                return result
            # Deopt: compilation committed nothing, and the scalar lane
            # generators — built only now — replay the whole block
            # bit-identically from round zero.
            self._build_lanes()
            return self._run_rounds()
        mon = self.monitor
        if mon is None:
            return self._run_rounds()
        mon.on_block_start(self)
        c = self._run_rounds()
        mon.on_block_end(self)
        return c

    def _raise_deadlock(self):
        """Raise the no-progress diagnostic."""
        c = self.counters
        mon = self.monitor
        msg = self._deadlock_report()
        if mon is not None:
            analysis = mon.on_deadlock(self, c.rounds)
            if analysis:
                msg += "\n" + analysis
        raise DeadlockError(
            msg,
            block_id=self.block_id,
            round=c.rounds,
            lanes=[
                (l.tid, l.warp_id, l.lane_id, l.state, l.wait_key)
                for l in self.lanes
                if l.state != DONE
            ],
        )

    # ------------------------------------------------------------------
    # The round loop.
    # ------------------------------------------------------------------
    def _run_rounds(self) -> BlockCounters:
        """Step the block to completion: one fused pass per warp per round.

        As each lane steps, its event's side effect applies at once
        (warps partition tids contiguously, so the warp-major scan
        applies side effects in ascending tid order) and the warp's
        convergence is tracked incrementally — interned events and
        signatures make the common converged case two identity checks
        per lane.  Accounting for the warp's issue groups runs right
        after its lanes, so issue groups are charged in ascending warp
        order, which fixes the L1 cache evolution.  Retired lanes are
        filtered out of the per-warp scan lists.

        Warp-level collective arrivals collect round-locally and park in
        the waiter dicts after the warp's scan (classic block-barrier
        arrivals after the round's scan), so a hook observing a step sees
        the warp's lane states as of the round's start.  Groups every
        participant reaches in one round complete inline unless a monitor
        is attached.  Under a schedule policy the memory side effects and
        the accounting wait for :meth:`_commit_round`.
        """
        c = self.counters
        params = self.params
        post_evs = self._post_evs
        side = self._side
        acct = self._acct
        max_rounds = self.max_rounds
        rec = self.recorder
        block_waiters = self._block_waiters
        warp_waiters = self._warp_waiters
        shfl_waiters = self._shfl_waiters
        warps = self._warps
        full_mask = self._full_mask
        syncwarp_cycles = params.syncwarp_cycles
        syncthreads_cycles = params.syncthreads_cycles
        inline_sync = self._inline_sync
        held = self._held is not None
        park = self._park
        nw = 0  # waiters added this round; merged into _n_waiters below
        bbk = bbg = None  # round-local classic-barrier arrivals
        # Single-element loads/stores inline below when neither a recorder
        # nor a schedule policy intercepts the direction; everything else
        # dispatches through the table.
        inline_ld = not held and (rec is None or not rec.track_reads)
        inline_st = not held and rec is None
        active: List[List[Lane]] = [
            [l for l in warp if l.state != DONE] for warp in self._warps
        ]
        live = sum(map(len, active))
        while live:
            advanced = 0
            for w, lanes_w in enumerate(active):
                if not lanes_w:
                    continue
                evs = post_evs[w]
                ap_ev = evs.append
                retired = False
                ev0 = None
                sk0 = sg0 = sspill = None
                swk0 = swg = swspill = None
                for lane in lanes_w:
                    if lane.state != RUN:
                        continue
                    try:
                        ev = lane.send(lane.pending)
                    except StopIteration:
                        lane.state = DONE
                        lane.pending = None
                        retired = True
                        live -= 1
                        continue
                    t = ev.tag
                    if t == 0:
                        lane.pending = None
                    elif t == 1:
                        idxs = ev.idxs
                        if inline_ld and len(idxs) == 1:
                            buf = ev.buf
                            i = idxs[0]
                            if i.__class__ is not int:
                                i = int(i)
                            if 0 <= i < buf.size:
                                lane.pending = (buf.data[i],)
                            else:
                                buf.check_index(i)
                        else:
                            lane.pending = None
                            side[1](lane, ev)
                    elif t == 2:
                        lane.pending = None
                        idxs = ev.idxs
                        values = ev.values
                        if inline_st and len(idxs) == 1 == len(values):
                            buf = ev.buf
                            i = idxs[0]
                            if i.__class__ is not int:
                                i = int(i)
                            if 0 <= i < buf.size:
                                buf.data[i] = values[0]
                                buf.dirty[i >> PAGE_SHIFT] = 1
                            else:
                                buf.check_index(i)
                        else:
                            side[2](lane, ev)
                    elif t == 4:
                        # SyncWarp arrival, grouped by mask round-locally;
                        # the groups park (or complete) after the scan.
                        lane.pending = None
                        mask = ev.mask
                        if swk0 is None:
                            swk0 = mask
                            swg = [lane]
                        elif mask == swk0:
                            swg.append(lane)
                        else:
                            if swspill is None:
                                swspill = {}
                            grp = swspill.get(mask)
                            if grp is None:
                                swspill[mask] = [lane]
                            else:
                                grp.append(lane)
                    elif t == 5:
                        # SyncBlock arrival — the classic block-wide
                        # barrier collects round-locally (completion is
                        # checked against end-of-round liveness below);
                        # a second, different key this round parks at once.
                        lane.pending = None
                        key = ev.wkey
                        if bbk is None:
                            bbk = key
                            bbg = [lane]
                        elif key == bbk:
                            bbg.append(lane)
                        else:
                            lane.state = WAIT_BLOCK
                            lane.wait_key = key
                            grp = block_waiters.get(key)
                            if grp is None:
                                block_waiters[key] = [lane]
                            else:
                                grp.append(lane)
                            nw += 1
                    elif t == 3:
                        lane.pending = None
                        side[3](lane, ev)
                    else:
                        # Shuffle / Vote arrival (tags 6 and 7 share the
                        # WAIT_SHFL machinery), grouped by key
                        # round-locally.  ``wkey`` objects are interned, so
                        # the single-key common case is one identity check.
                        lane.pending = None
                        lane.posted = ev
                        key = ev.wkey
                        if sk0 is None:
                            sk0 = key
                            sg0 = [lane]
                        elif key is sk0:
                            sg0.append(lane)
                        else:
                            if sspill is None:
                                sspill = {}
                            grp = sspill.get(key)
                            if grp is None:
                                sspill[key] = [lane]
                            else:
                                grp.append(lane)
                    if ev0 is None:
                        ev0 = ev
                        sig0 = ev.sig
                        uniform = True
                        converged = True
                    elif ev is not ev0:
                        uniform = False
                        if converged:
                            s = ev.sig
                            if s is not sig0 and s != sig0:
                                converged = False
                    ap_ev(ev)
                if retired:
                    active[w] = [l for l in lanes_w if l.state != DONE]
                if swk0 is not None:
                    # A full-mask syncwarp every warp lane reached this
                    # round completes without parking: arrival already
                    # cleared ``pending`` and the lanes never left RUN.  (A
                    # retired lane keeps ``len(swg)`` short of the
                    # denominator, so such a group still deadlocks via the
                    # waiter path.)  Any other group parks, merging behind
                    # earlier-round arrivals; a second mask this round
                    # cannot be complete.
                    if (inline_sync and swk0 == full_mask
                            and len(swg) == len(warps[w])):
                        c.syncwarps += 1
                        c.sync_cycles += syncwarp_cycles
                    else:
                        nw += park(warp_waiters[w], swk0, swg, WAIT_WARP)
                    if swspill is not None:
                        for k2, g2 in swspill.items():
                            nw += park(warp_waiters[w], k2, g2, WAIT_WARP)
                if sk0 is not None:
                    # Shuffle/vote groups, on the same terms (retired lanes
                    # count in the denominator, so a group with a retired
                    # participant still deadlocks via the waiter path).
                    if (inline_sync and sk0[0] == full_mask
                            and len(sg0) == len(warps[w])):
                        self._resolve_shfl_group(sk0, sg0)
                    else:
                        nw += park(shfl_waiters[w], sk0, sg0, WAIT_SHFL)
                    if sspill is not None:
                        for k2, g2 in sspill.items():
                            nw += park(shfl_waiters[w], k2, g2, WAIT_SHFL)
                if ev0 is None:
                    continue
                advanced += len(evs)
                if held:
                    continue  # charged by _commit_round
                # Issue accounting for this warp's round, grouped by
                # signature; ``uniform`` (every entry the same interned
                # object) lets handlers skip per-event reductions.
                if converged:
                    c.issues += 1
                    acct[sig0[0]](sig0, evs, uniform)
                else:
                    self._account_issues(evs)
                evs.clear()
            c.lane_steps += advanced
            if not live:
                break
            if bbk is not None:
                # Classic block barrier every live lane reached this round:
                # complete without parking (no live lane can be waiting
                # elsewhere when all of them arrived here).  Named/counted
                # barriers and partial arrivals park, merging behind
                # earlier-round arrivals.
                if inline_sync and bbk[1] is None and len(bbg) == live:
                    c.syncblocks += 1
                    c.sync_cycles += syncthreads_cycles
                else:
                    nw += park(block_waiters, bbk, bbg, WAIT_BLOCK)
                bbk = bbg = None
            if nw:
                self._n_waiters += nw
                nw = 0
            if held:
                self._commit_round()
            released = self._end_round(live)
            if advanced == 0 and released == 0:
                self._raise_deadlock()
            c.rounds += 1
            if c.rounds > max_rounds:
                raise SimulationError(
                    f"block {self.block_id} exceeded {self.max_rounds} rounds; "
                    "likely a runaway loop"
                )
        return c

    @staticmethod
    def _park(waiters, key, group, state) -> int:
        """Park ``group``'s lanes on ``key`` in one waiter dict, behind any
        earlier-round arrivals; returns the number parked."""
        for lane in group:
            lane.state = state
            lane.wait_key = key
        grp = waiters.get(key)
        if grp is None:
            waiters[key] = group
        else:
            grp.extend(group)
        return len(group)

    def _commit_round(self) -> None:
        """Apply and charge a schedule-policy round's held posts.

        Warps resolve in ``policy.warp_order``; within a warp, the held
        memory side effects apply in ``policy.commit_order`` over the
        warp's post positions, then the warp's issue groups are charged.
        Every such order is a legal interleaving of the round's
        concurrent accesses — the sanitizer's schedule explorer uses this
        to expose order dependence — and every policy is stateless, so
        deferring the calls to round end changes nothing.  Collective
        arrivals parked during the scan; their order is immaterial.
        """
        c = self.counters
        policy = self.schedule_policy
        side = self._commit_side
        block_id = self.block_id
        rnd = c.rounds
        for wid in policy.warp_order(block_id, rnd, self.num_warps):
            evs = self._post_evs[wid]
            if not evs:
                continue
            held = self._held[wid]
            if held:
                for i in policy.commit_order(block_id, rnd, wid, len(evs)):
                    post = held.get(i)
                    if post is not None:
                        side[post[1].tag](*post)
                held.clear()
            self._account_issues(evs)
            evs.clear()

    # -- memory side-effect handlers ---------------------------------------
    @staticmethod
    def _side_load(lane, ev) -> None:
        buf = ev.buf
        idxs = ev.idxs
        if len(idxs) == 1:
            i = int(idxs[0])
            if 0 <= i < buf.size:
                lane.pending = (buf.data[i],)
                return
            buf.check_index(i)  # raises the canonical MemoryFault
        lane.pending = tuple(buf.read(i) for i in idxs)

    def _side_load_rec(self, lane, ev) -> None:
        lane.pending = tuple(ev.buf.read(i) for i in ev.idxs)
        rec = self.recorder
        if ev.buf.space == "global" and rec.tracks(ev.buf):
            rec.on_load(ev.buf, ev.idxs)

    @staticmethod
    def _side_store(lane, ev) -> None:
        idxs = ev.idxs
        values = ev.values
        buf = ev.buf
        n = len(idxs)
        if n != len(values):
            raise SimulationError(
                f"store index/value arity mismatch on {buf.name!r}"
            )
        if n == 1:
            i = int(idxs[0])
            if 0 <= i < buf.size:
                buf.data[i] = values[0]
                buf.dirty[i >> PAGE_SHIFT] = 1
                return
            buf.check_index(i)
        write = buf.write
        for i, v in zip(idxs, values):
            write(i, v)

    def _side_store_rec(self, lane, ev) -> None:
        idxs = ev.idxs
        values = ev.values
        if len(idxs) != len(values):
            raise SimulationError(
                f"store index/value arity mismatch on {ev.buf.name!r}"
            )
        buf = ev.buf
        rec = self.recorder
        if buf.space == "global" and rec.tracks(buf):
            for i, v in zip(idxs, values):
                rec.on_store(buf, i, v)
                buf.write(i, v)
        else:
            for i, v in zip(idxs, values):
                buf.write(i, v)

    def _side_atomic(self, lane, ev) -> None:
        buf = ev.buf
        if buf.space == "global":
            self._round_mem_stall = True
        lane.pending = apply_atomic(buf, ev.idx, ev.op, ev.operand)
        key = self._contention_key(ev)
        addrs = self._atomic_addrs
        addrs[key] = addrs.get(key, 0) + 1

    def _side_atomic_resilient(self, lane, ev) -> None:
        """Fault-plan atomics: injected transient failures retry."""
        buf = ev.buf
        if buf.space == "global":
            self._round_mem_stall = True
        lane.pending = apply_atomic_resilient(
            buf, ev.idx, ev.op, ev.operand, self.faults,
            self.block_id, self.counters.rounds, lane.tid,
        )
        key = self._contention_key(ev)
        addrs = self._atomic_addrs
        addrs[key] = addrs.get(key, 0) + 1

    def _side_atomic_rec(self, lane, ev) -> None:
        self._apply_atomic(lane, ev)
        buf = ev.buf
        rec = self.recorder
        if buf.space == "global" and rec.tracks(buf):
            rec.on_atomic(buf, ev.idx, ev.op, ev.operand, lane.pending)

    def _side_hold(self, lane, ev) -> None:
        """Schedule-policy memory handler: hold the side effect under its
        post position in the warp's round, for :meth:`_commit_round`."""
        w = lane.warp_id
        self._held[w][len(self._post_evs[w])] = (lane, ev)

    # -- accounting handlers ------------------------------------------------
    def _account_issues(self, evs) -> None:
        """Charge one warp's round: one issue per signature group, each
        group through its tag's ``_acct`` handler."""
        groups: Dict[tuple, list] = {}
        for ev in evs:
            g = groups.get(ev.sig)
            if g is None:
                groups[ev.sig] = [ev]
            else:
                g.append(ev)
        c = self.counters
        c.issues += len(groups)
        c.divergent_issues += len(groups) - 1
        acct = self._acct
        for sig, items in groups.items():
            acct[sig[0]](sig, items, False)

    # Each takes (sig, evs, uniform): ``evs`` is the group's event list,
    # ``uniform`` is True when every entry is the *same* interned object —
    # a free by-product of the convergence scan that lets the handlers
    # skip per-event reduction work.
    def _acct_compute(self, sig, evs, uniform) -> None:
        if uniform:
            ops = evs[0].ops
        else:
            ops = max(ev.ops for ev in evs)
        # float(): a narrower ``ops`` (float32) must not turn the running
        # sum into its own type for the rest of the block.
        self.counters.issue_cycles += self._op_cost.get(sig[1], 1.0) * float(ops)

    def _acct_mem(self, sig, evs, uniform) -> None:
        """Charge one load/store issue group through the shared cost model.

        The hot shape — every event touching the same buffer with
        equal-length index runs (the lockstep pattern a converged warp
        produces) — hands :func:`~repro.gpu.coalescing.sector_footprint` /
        :func:`~repro.gpu.coalescing.bank_passes` the group's index
        columns directly.  Ragged or multi-buffer groups are restated as
        byte-address columns (base 0, itemsize 1): an element's first and
        last byte address, which touch exactly the sectors the element
        does, and its start address alone for the bank model.
        """
        params = self.params
        c = self.counters
        tag = sig[0]
        space = sig[1]
        n = len(evs)
        ev0 = evs[0]
        npos = len(ev0.idxs)
        buf0 = ev0.buf
        lockstep = npos > 0
        if lockstep and n > 1:
            for ev in evs:
                if ev.buf is not buf0 or len(ev.idxs) != npos:
                    lockstep = False
                    break
        if lockstep:
            positions = npos
            nelem = n * npos
        else:
            positions = 0
            nelem = 0
            for ev in evs:
                ln = len(ev.idxs)
                nelem += ln
                if ln > positions:
                    positions = ln
        if tag == T_LOAD:
            c.loads += nelem
            c.issue_cycles += self._cost_ld * positions
        else:
            c.stores += nelem
            c.issue_cycles += self._cost_st * positions
        if space == "local":
            c.local_accesses += nelem
            c.mem_cycles += nelem * params.local_access_cycles
            return
        # The side effects already validated (and int()-truncated)
        # every index, so column arithmetic matches ``byte_address``.
        if lockstep:
            base = buf0.base
            isz = buf0.itemsize
            if npos == 1:
                run = self._consec_run(evs)
                cols = [run] if run is not None else [
                    [int(ev.idxs[0]) for ev in evs]
                ]
            else:
                mat = np.asarray([ev.idxs for ev in evs])
                if mat.dtype != np.int64:
                    mat = mat.astype(np.int64)
                cols = mat.T
        else:
            base = 0
            isz = 1
            both_ends = space == "global"
            cols = []
            for k in range(positions):
                col = []
                for ev in evs:
                    idxs = ev.idxs
                    if k < len(idxs):
                        buf = ev.buf
                        a = buf.byte_address(idxs[k])
                        col.append(a)
                        if both_ends:
                            col.append(a + buf.itemsize - 1)
                cols.append(col)
        if space == "global":
            secs, transactions = sector_footprint(
                cols, base, isz, params.sector_bytes
            )
            hits, misses = self._l1.access(secs)
            c.l1_hits += hits
            c.l1_misses += misses
            if tag == T_LOAD:
                c.global_load_sectors += misses
                if misses:
                    self._round_mem_stall = True
            else:
                c.global_store_sectors += misses
            c.lsu_transactions += transactions
            c.mem_cycles += (
                misses * params.sector_cycles
                + hits * params.l1_sector_cycles
                + transactions * params.lsu_transaction_cycles
            )
        else:  # shared
            passes = bank_passes(
                cols, base, isz, params.shared_banks, params.shared_word_bytes
            )
            c.shared_passes += passes
            c.mem_cycles += passes * params.shared_pass_cycles

    @staticmethod
    def _consec_run(evs):
        """``(first, last)`` when the group's single-index events form a
        unit-stride ascending run, else None.  Indices normalize through
        the same ``int()`` truncation the side-effect pass applied, so the
        returned bounds match ``byte_address`` arithmetic exactly."""
        prev = first = evs[0].idxs[0]
        if first.__class__ is not int:
            prev = first = int(first)
        it = iter(evs)
        next(it)
        for ev in it:
            i = ev.idxs[0]
            if i.__class__ is not int:
                i = int(i)
            if i != prev + 1:
                return None
            prev = i
        return first, prev

    def _acct_atomic(self, sig, evs, uniform) -> None:
        c = self.counters
        params = self.params
        n = len(evs)
        c.atomics += n
        c.issue_cycles += self._cost_st
        c.mem_cycles += n * params.atomic_cycles

    def _acct_barrier(self, sig, evs, uniform) -> None:
        # Barrier arrival issue cost is folded into sync_cycles at release.
        pass

    def _acct_shfl(self, sig, evs, uniform) -> None:
        self.counters.issue_cycles += 1.0

    # -- round end ----------------------------------------------------------
    def _end_round(self, live_count: int) -> int:
        """Close a round: device-wide atomic contention, the
        dependent-latency stall flag, then barrier release.  Returns the
        number of lanes released."""
        c = self.counters
        addrs = self._atomic_addrs
        if addrs:
            extra = 0
            for n in addrs.values():
                if n > 1:
                    extra += n - 1
            if extra:
                c.atomic_conflicts += extra
                c.mem_cycles += extra * self.params.atomic_conflict_cycles
            addrs.clear()
        # Dependent-latency exposure: L1-missing loads/atomics issued this
        # round stall their warps; concurrent warps' accesses overlap into
        # one exposure.
        if self._round_mem_stall:
            c.mem_serial_rounds += 1
            self._round_mem_stall = False
        return self._release_barriers(live_count) if self._n_waiters else 0

    def _release_barriers(self, live_count: int) -> int:
        """Release ready groups off the maintained waiter structures.

        Block-level releases go first, then warp barriers and
        shuffle/vote groups per warp in ascending warp order — all in the
        same round, as inline completion does (a classic block release
        leaves no warp waiter behind, but a counted one can).  Each
        released group is reported to
        the monitor, when one is attached; its consumers are indifferent
        to group order and to the order of a group's tids.
        """
        params = self.params
        c = self.counters
        mon = self.monitor
        released = 0

        bw = self._block_waiters
        if bw:
            done_keys = []
            for key, waiters in bw.items():
                count = key[1]
                if count is None:
                    ready = len(waiters) == live_count
                else:
                    ready = len(waiters) >= count
                if ready:
                    for lane in waiters:
                        lane.state = RUN
                        lane.pending = None
                        lane.wait_key = None
                    c.syncblocks += 1
                    c.sync_cycles += params.syncthreads_cycles
                    released += len(waiters)
                    done_keys.append(key)
                    if mon is not None:
                        mon.on_release(
                            self, c.rounds, "block", key, [l.tid for l in waiters]
                        )
            if done_keys:
                for key in done_keys:
                    del bw[key]
                self._n_waiters -= released
                if not self._n_waiters:
                    return released

        full = self._full_mask
        for wid in range(self.num_warps):
            warp_lanes = self._warps[wid]
            nlanes = len(warp_lanes)
            by_mask = self._warp_waiters[wid]
            if by_mask:
                done_masks = []
                for mask, waiters in by_mask.items():
                    # Full-warp groups (the common case) are ready exactly
                    # when every lane of the warp sits in the group — a
                    # retired or diverged lane keeps the count short.
                    if (
                        len(waiters) == nlanes
                        if mask == full
                        else self._mask_converged(
                            warp_lanes, mask, waiters, WAIT_WARP, mask
                        )
                    ):
                        for lane in waiters:
                            lane.state = RUN
                            lane.pending = None
                            lane.wait_key = None
                        c.syncwarps += 1
                        c.sync_cycles += params.syncwarp_cycles
                        released += len(waiters)
                        self._n_waiters -= len(waiters)
                        done_masks.append(mask)
                        if mon is not None:
                            mon.on_release(
                                self, c.rounds, "warp", mask,
                                [l.tid for l in waiters],
                            )
                for mask in done_masks:
                    del by_mask[mask]

            shfl = self._shfl_waiters[wid]
            if shfl:
                done_shfl = []
                for key, waiters in shfl.items():
                    mask = key[0]
                    if (
                        len(waiters) == nlanes
                        if mask == full
                        else self._mask_converged(
                            warp_lanes, mask, waiters, WAIT_SHFL, key
                        )
                    ):
                        self._resolve_shfl_group(key, waiters)
                        released += len(waiters)
                        self._n_waiters -= len(waiters)
                        done_shfl.append(key)
                        if mon is not None:
                            mon.on_release(
                                self, c.rounds, "shfl", key,
                                [l.tid for l in waiters],
                            )
                for key in done_shfl:
                    del shfl[key]
        return released

    @staticmethod
    def _contention_key(ev) -> tuple:
        """Round-local atomic contention key for ``ev.buf[ev.idx]``.

        Keyed by the buffer's stable device address ``(space, base)`` so
        two distinct :class:`~repro.gpu.memory.Buffer` objects aliasing
        the same storage contend correctly (``id()`` would treat them as
        different addresses).  Lane-private ``local`` buffers have no
        stable address space — all carry ``base == 0`` — so object
        identity *is* the location there (the round's events keep the
        buffers alive, making ``id`` collision-free within the round).
        """
        buf = ev.buf
        if buf.space == "local":
            return (id(buf), int(ev.idx))
        return (buf.space, buf.base, int(ev.idx))

    @staticmethod
    def _resolve_shfl_group(key: tuple, waiters) -> None:
        """Resolve a converged shuffle or vote group and wake its lanes.

        Shared by inline completion and round-end release.  ``key`` is ``(mask, mode)`` for shuffles and
        ``(mask, ("vote", mode))`` for votes.  The mask-relative lane
        arithmetic matches :func:`repro.gpu.shuffle.resolve_shuffles`
        positionally on the ascending participant order.
        """
        mode = key[1]
        # Arrivals append in step order, which is ascending lane order when
        # the group converged in one round — the overwhelmingly common case.
        # Only fall back to a keyed sort when a multi-round (divergent)
        # arrival actually scrambled the order.
        ws = waiters
        prev = -1
        for l in ws:
            lid = l.lane_id
            if lid < prev:
                ws = sorted(waiters, key=_BY_LANE_ID)
                break
            prev = lid
        if isinstance(mode, tuple):  # ("vote", any|all|ballot)
            vote_mode = mode[1]
            if vote_mode == "any":
                result = False
                for l in ws:
                    if l.posted.predicate:
                        result = True
                        break
            elif vote_mode == "all":
                result = True
                for l in ws:
                    if not l.posted.predicate:
                        result = False
                        break
            else:  # ballot
                result = 0
                for l in ws:
                    if l.posted.predicate:
                        result |= 1 << l.lane_id
            for lane in ws:
                lane.state = RUN
                lane.pending = result
                lane.wait_key = None
                lane.posted = None
            return
        n = len(ws)
        vals = [l.posted.value for l in ws]
        # SIMD reductions issue the same lane_arg from every lane; when the
        # group is uniform that way, the positional formulas collapse to
        # slice concatenations (identical results to the per-lane formulas).
        d0 = ws[0].posted.lane_arg
        uniform = True
        for l in ws:
            if l.posted.lane_arg != d0:
                uniform = False
                break
        if uniform and mode == "down" and 0 <= d0:
            out = vals if d0 == 0 or d0 >= n else vals[d0:] + vals[n - d0:]
        elif uniform and mode == "up" and 0 <= d0:
            out = vals if d0 == 0 or d0 >= n else vals[:d0] + vals[: n - d0]
        elif uniform and mode == "idx":
            out = [vals[d0]] * n if 0 <= d0 < n else vals
        elif mode == "idx":
            out = [
                vals[src] if 0 <= (src := l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "up":
            out = [
                vals[src] if 0 <= (src := i - l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "down":
            out = [
                vals[src] if 0 <= (src := i + l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        elif mode == "xor":
            out = [
                vals[src] if 0 <= (src := i ^ l.posted.lane_arg) < n else vals[i]
                for i, l in enumerate(ws)
            ]
        else:
            raise SynchronizationError(f"unknown shuffle mode {mode!r}")
        for lane, v in zip(ws, out):
            lane.state = RUN
            lane.pending = v
            lane.wait_key = None
            lane.posted = None

    @staticmethod
    def _mask_converged(warp_lanes, mask: int, waiters, state: int, key) -> bool:
        """True when every lane named by ``mask`` waits with ``key``.

        A retired lane named by the mask can never arrive: the group stays
        blocked and the no-progress check reports a deadlock, mirroring the
        undefined behaviour a real ``__syncwarp`` with an exited lane would
        invite.
        """
        waiting_ids = {l.lane_id for l in waiters}
        for lane in warp_lanes:
            if not (mask >> lane.lane_id) & 1:
                continue
            if lane.state != state or lane.wait_key != key:
                return False
            if lane.lane_id not in waiting_ids:
                return False
        return bool(waiting_ids)

    # ------------------------------------------------------------------
    def _deadlock_report(self) -> str:
        lines = [
            f"deadlock in block {self.block_id}: no lane can make progress",
        ]
        for lane in self.lanes:
            if lane.state != DONE:
                detail = lane.describe()
                if lane.state in (WAIT_WARP, WAIT_SHFL):
                    detail += f" key={lane.wait_key!r}"
                lines.append("  " + detail)
        lines.append(
            "hint: a barrier mask probably names a lane that retired or "
            "diverged to a different barrier"
        )
        return "\n".join(lines)
