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

Engines
=======

The block owns two interchangeable round engines:

* the **instrumented engine** (:meth:`ThreadBlock._run_instrumented`) —
  the driver carrying every hook point (tracer, monitor, schedule
  policy, fault plan);
* the **fast engine** (:meth:`ThreadBlock._run_fast`) — selected
  automatically when no tracer, monitor, schedule policy, or fault plan
  is attached (the production configuration).  It steps the same lanes
  in the same deterministic order through the same handlers, so memory
  contents, every :class:`~repro.gpu.counters.BlockCounters` field, and
  the deadlock/error behaviour are bit-identical to the instrumented
  engine — only the interpreter overhead differs.  The exec-layer write
  recorder *is* supported on the fast path (the per-tag handler tables
  are specialized once at construction, so the per-event hot loop stays
  free of hook-presence branches) — parallel-executor workers inherit
  the fast engine.

Both engines share one side-effect handler table (``_side``), one
accounting dispatch (``_acct``, which charges memory through
:func:`~repro.gpu.coalescing.sector_footprint` and
:func:`~repro.gpu.coalescing.bank_passes`, as the JIT tier
(:mod:`repro.jit`) does), and one round end
(:meth:`ThreadBlock._end_round`: atomic contention, the stall flag, and
:meth:`ThreadBlock._release_barriers`).
What the instrumented engine adds is hooks and ordering only: it buffers
a round's posts so a schedule policy can permute warp and commit order,
parks every collective arrival in the waiter dicts (the fast engine
completes full groups inline), and reports each released group to the
monitor.  The three-engine differential suite in ``tests/gpu`` checks
the engines against each other; the property tests in
``tests/gpu/test_coalescing.py`` check the shared cost model against the
scalar definitions.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

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
    ThreadCtx,
    lane_table,
)

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
        #: Per-block L1 sector cache (LRU), shared by both round engines so
        #: their hit/miss streams evolve identically.
        self._l1 = L1SectorCache(
            max(1, params.l1_size_bytes // params.sector_bytes)
        )
        self._round_mem_stall = False
        #: Per-launch JIT telemetry (:class:`repro.jit.stats.JitCounters`),
        #: shared across the launch's blocks; None outside the jit engine.
        self.jit_stats = jit_stats
        # Engine selection.  ``engine`` names a round engine preference
        # ("auto" | "instrumented" | "fast" | "jit").  Neither the fast
        # engine nor the JIT carries hook points, so any attached
        # tracer/monitor/policy/fault-plan forces the instrumented engine
        # regardless of the caller's preference; the JIT additionally
        # requires a read-blind recorder (the read-tracking recorder is a
        # sanitizer hook), downgrading to the fast engine otherwise —
        # both downgrades are the ``hook`` rung of the deopt ladder
        # (docs/PERF.md).  ``engine="instrumented"`` forces the hooked
        # engine without hooks, which the differential suite uses.
        if engine is None:
            engine = "auto"
        elif engine not in ("auto", "instrumented", "fast", "jit"):
            raise LaunchError(f"unknown engine {engine!r}")
        eligible = (
            self.tracer is None
            and self.monitor is None
            and self.schedule_policy is None
            and self.faults is None
        )
        if engine == "jit":
            if not eligible:
                if jit_stats is not None:
                    jit_stats.note_deopt("hook")
                engine = "instrumented"
            elif recorder is not None and recorder.track_reads:
                if jit_stats is not None:
                    jit_stats.note_deopt("hook")
                engine = "fast"
        elif engine == "instrumented":
            pass
        elif not eligible:  # "auto" / "fast" with hooks attached
            engine = "instrumented"
        elif engine == "auto":
            engine = "fast"
        self.engine = engine
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
        if engine != "jit":
            # The JIT traces a vectorized re-instantiation of the kernel;
            # scalar lane generators are built lazily, only if the block
            # actually deoptimizes into an interpreter.
            self._build_lanes()
        # -- round state -------------------------------------------------
        # Fast engine: pre-allocated per-warp event buffers, reused — cleared, never
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
        # post time (side-effect handlers) and torn down at release, so no
        # engine rescans all lanes looking for barriers.
        self._block_waiters: Dict[tuple, List[Lane]] = {}
        self._warp_waiters: List[Dict[int, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._shfl_waiters: List[Dict[tuple, List[Lane]]] = [
            {} for _ in range(self.num_warps)
        ]
        self._n_waiters = 0
        self._full_mask = (1 << ws) - 1
        # Per-tag handler tables (indexed by event tag).  The side-effect
        # table is specialized once, here, on recorder and fault-plan
        # presence — the hot loop itself carries no hook-presence branches.
        rec = self.recorder
        side_load = self._side_load if rec is None or not rec.track_reads else self._side_load_rec
        side_store = self._side_store if rec is None else self._side_store_rec
        self._apply_atomic = (
            self._side_atomic if faults is None else self._side_atomic_resilient
        )
        side_atomic = self._apply_atomic if rec is None else self._side_atomic_rec
        self._side = [
            None,  # T_COMPUTE: no architectural side effect
            side_load,
            side_store,
            side_atomic,
            self._side_syncwarp,
            self._side_syncblock,
            self._side_shuffle,
            self._side_vote,
        ]
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
        # SoA identity columns, computed once per geometry and shared by
        # every block of every launch that uses it.
        for tid, warp_id, lane_id in lane_table(self.num_threads, ws).rows:
            tc = ThreadCtx(
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
            return self._run_fast()
        if self.engine == "instrumented":
            return self._run_instrumented()
        return self._run_fast()

    # ------------------------------------------------------------------
    # Instrumented engine: the shared handlers, plus every hook.
    # ------------------------------------------------------------------
    def _run_instrumented(self) -> BlockCounters:
        """Hooked round loop: step every lane, then resolve the round.

        Stepping buffers each round's ``(lane, event)`` posts per warp so
        the tracer and monitor observe every event before any side effect
        lands, and so a schedule policy can permute the resolution order
        (:meth:`_resolve_round`).  Everything after that — side effects,
        accounting, contention, barrier release — is the fast engine's
        code.
        """
        lanes = self.lanes
        c = self.counters
        mon = self.monitor
        if mon is not None:
            mon.on_block_start(self)
        while True:
            posted_by_warp: List[List[Tuple[Lane, object]]] = [
                [] for _ in range(self.num_warps)
            ]
            advanced = 0
            live = 0
            for lane in lanes:
                state = lane.state
                if state == DONE:
                    continue
                live += 1
                if state != RUN:
                    continue
                try:
                    ev = lane.gen.send(lane.pending)
                except StopIteration:
                    lane.state = DONE
                    # Clear the resume value eagerly: post-mortem
                    # diagnostics and the exec recorder must never observe
                    # a dead lane's stale value.
                    lane.pending = None
                    live -= 1
                    if mon is not None:
                        mon.on_retire(self, c.rounds, lane)
                    continue
                lane.pending = None
                posted_by_warp[lane.warp_id].append((lane, ev))
                advanced += 1
                if self.tracer is not None:
                    self.tracer(self.block_id, c.rounds, lane.tid, ev)
                if mon is not None:
                    mon.on_event(self, c.rounds, lane, ev)
            c.lane_steps += advanced
            if live == 0:
                break
            self._resolve_round(posted_by_warp)
            released = self._end_round(live)
            if advanced == 0 and released == 0:
                self._raise_deadlock()
            c.rounds += 1
            if c.rounds > self.max_rounds:
                raise SimulationError(
                    f"block {self.block_id} exceeded {self.max_rounds} rounds; "
                    "likely a runaway loop"
                )
        if mon is not None:
            mon.on_block_end(self)
        return c

    def _raise_deadlock(self):
        """Raise the no-progress diagnostic (identical on both engines)."""
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
    # Fast engine: hook-free specialization of the same round semantics.
    # ------------------------------------------------------------------
    def _run_fast(self) -> BlockCounters:
        """Hook-free round loop: one fused pass per warp per round.

        The instrumented engine steps every lane, buffers ``(lane, event)``
        posts, then resolves side effects and accounting in two further
        passes.  This engine fuses all three into a single warp-major scan:
        as each lane steps, its event's side effect is applied immediately
        (warps partition tids contiguously, so warp-major iteration applies
        side effects in exactly the ascending-tid order the buffered scheme
        produces) and the warp's convergence is tracked incrementally —
        interned events and signatures make the common converged case two
        identity checks per lane.  Accounting for the warp's issue groups
        runs right after its lanes, which is the same warp-ascending
        accounting order (and therefore the same L1 cache evolution) as the
        instrumented resolve pass.  Retired lanes are filtered out of the
        per-warp scan lists, and collectives every participant reaches in
        one round complete inline instead of parking in the waiter groups.
        All observable behaviour — memory, counters, errors — matches the
        instrumented engine bit for bit.
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
        nw = 0  # waiters added this round; merged into _n_waiters below
        bbk = bbg = None  # round-local classic-barrier arrivals
        # Single-element loads/stores inline below when no recorder watches
        # the direction; everything else dispatches through the table.
        inline_ld = rec is None or not rec.track_reads
        inline_st = rec is None
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
                ww_waiters = warp_waiters[w]
                sh_waiters = shfl_waiters[w]
                retired = False
                ev0 = None
                sk0 = sg0 = sspill = None
                swk0 = swg = None
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
                        # SyncWarp arrival — collected round-locally; a
                        # full-mask barrier every warp lane reaches this
                        # round completes inline after the lane scan.
                        # Lanes with a second, different mask this round
                        # park in the waiter dict directly.
                        lane.pending = None
                        mask = ev.mask
                        if swk0 is None:
                            swk0 = mask
                            swg = [lane]
                        elif mask == swk0:
                            swg.append(lane)
                        else:
                            lane.state = WAIT_WARP
                            lane.wait_key = mask
                            # Invariant: only shuffle/vote waiters carry a
                            # posted event; a lane migrating to a barrier
                            # park must never drag a stale one along.
                            lane.posted = None
                            grp = ww_waiters.get(mask)
                            if grp is None:
                                ww_waiters[mask] = [lane]
                            else:
                                grp.append(lane)
                            nw += 1
                    elif t == 5:
                        # SyncBlock arrival — the classic block-wide
                        # barrier collects round-locally (completion is
                        # checked against end-of-round liveness below);
                        # a second, different key this round parks in
                        # the waiter dict directly.
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
                            # Same invariant as the syncwarp park above.
                            lane.posted = None
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
                        # WAIT_SHFL machinery).  Collected round-locally: a
                        # full-warp group completing within this round is
                        # resolved inline after the lane scan, without ever
                        # parking its lanes in the waiter structures.
                        # ``wkey`` objects are interned, so the single-key
                        # common case is one identity check per lane.
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
                    # Full-mask syncwarp every warp lane reached this round:
                    # complete without parking — arrival already cleared
                    # ``pending`` and the lanes never left RUN.  (A retired
                    # lane keeps ``len(swg)`` short of the denominator, so
                    # such a group still deadlocks via the waiter path.)
                    if swk0 == full_mask and len(swg) == len(warps[w]):
                        c.syncwarps += 1
                        c.sync_cycles += syncwarp_cycles
                    else:
                        grp = ww_waiters.get(swk0)
                        if grp is None:
                            ww_waiters[swk0] = grp = []
                        for l in swg:
                            l.state = WAIT_WARP
                            l.wait_key = swk0
                            # Barrier waiters never carry a posted event
                            # (deopt-path hygiene: this lane may have come
                            # off the inline same-round path mid-round).
                            l.posted = None
                            grp.append(l)
                        nw += len(swg)
                if sk0 is not None:
                    # Shuffle/vote groups posted this round: resolve inline
                    # when complete (full mask, every warp lane — retired
                    # lanes included in the denominator, so a group with a
                    # retired participant still deadlocks via the waiter
                    # path); park incomplete groups in the waiter dicts,
                    # merging behind any earlier-round arrivals.
                    nall = len(warps[w])
                    if sk0[0] == full_mask and len(sg0) == nall:
                        self._resolve_shfl_group(sk0, sg0)
                    else:
                        grp = sh_waiters.get(sk0)
                        if grp is None:
                            sh_waiters[sk0] = grp = []
                        for l in sg0:
                            l.state = WAIT_SHFL
                            l.wait_key = sk0
                            grp.append(l)
                        nw += len(sg0)
                    if sspill is not None:
                        for k2, g2 in sspill.items():
                            if k2[0] == full_mask and len(g2) == nall:
                                self._resolve_shfl_group(k2, g2)
                            else:
                                grp = sh_waiters.get(k2)
                                if grp is None:
                                    sh_waiters[k2] = grp = []
                                for l in g2:
                                    l.state = WAIT_SHFL
                                    l.wait_key = k2
                                    grp.append(l)
                                nw += len(g2)
                if ev0 is None:
                    continue
                advanced += len(evs)
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
                # barriers and partial arrivals park in the waiter dict,
                # merging behind earlier-round arrivals.
                if bbk[1] is None and len(bbg) == live:
                    c.syncblocks += 1
                    c.sync_cycles += syncthreads_cycles
                else:
                    grp = block_waiters.get(bbk)
                    if grp is None:
                        block_waiters[bbk] = grp = []
                    for l in bbg:
                        l.state = WAIT_BLOCK
                        l.wait_key = bbk
                        # Barrier waiters never carry a posted event.
                        l.posted = None
                        grp.append(l)
                    nw += len(bbg)
                bbk = bbg = None
            if nw:
                self._n_waiters += nw
                nw = 0
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

    # -- side-effect handlers (pass 1) ------------------------------------
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

    def _side_syncwarp(self, lane, ev) -> None:
        lane.state = WAIT_WARP
        mask = ev.mask
        lane.wait_key = mask
        waiters = self._warp_waiters[lane.warp_id]
        grp = waiters.get(mask)
        if grp is None:
            waiters[mask] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    def _side_syncblock(self, lane, ev) -> None:
        lane.state = WAIT_BLOCK
        key = ev.wkey
        lane.wait_key = key
        waiters = self._block_waiters
        grp = waiters.get(key)
        if grp is None:
            waiters[key] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    def _side_shuffle(self, lane, ev) -> None:
        lane.state = WAIT_SHFL
        key = ev.wkey
        lane.wait_key = key
        lane.posted = ev
        waiters = self._shfl_waiters[lane.warp_id]
        grp = waiters.get(key)
        if grp is None:
            waiters[key] = [lane]
        else:
            grp.append(lane)
        self._n_waiters += 1

    _side_vote = _side_shuffle

    # -- accounting handlers (pass 2) --------------------------------------
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
        self.counters.issue_cycles += self._op_cost.get(sig[1], 1.0) * ops

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
        # Pass-1 side effects already validated (and int()-truncated)
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

    # -- round end (both loops) -------------------------------------------
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

        Block-level releases go first (short-circuiting warp-level work
        for the round), then warp barriers and shuffle/vote groups per
        warp in ascending warp order.  Each released group is reported to
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

    # ------------------------------------------------------------------
    def _resolve_round(self, posted_by_warp) -> None:
        """Resolve one instrumented round's buffered posts, warp by warp.

        Pass 1 applies side effects through the ``_side`` table in commit
        order; collective arrivals park in the waiter dicts.  Pass 2
        charges the warp's issue groups through ``_acct``.  The order is
        ascending warp id, lane order within a warp — unless a schedule
        policy permutes either (every permutation is a legal interleaving
        of the round's concurrent accesses; the sanitizer's schedule
        explorer uses this to expose order dependence).
        """
        c = self.counters
        side = self._side
        policy = self.schedule_policy
        warp_ids = range(self.num_warps)
        if policy is not None:
            warp_ids = policy.warp_order(self.block_id, c.rounds, self.num_warps)
        for wid in warp_ids:
            warp_posts = posted_by_warp[wid]
            if not warp_posts:
                continue
            commits = warp_posts
            if policy is not None:
                perm = policy.commit_order(
                    self.block_id, c.rounds, wid, len(warp_posts)
                )
                commits = [warp_posts[i] for i in perm]
            for lane, ev in commits:
                handler = side[ev.tag]
                if handler is not None:
                    handler(lane, ev)
            self._account_issues([ev for _, ev in warp_posts])

    @staticmethod
    def _resolve_shfl_group(key: tuple, waiters) -> None:
        """Resolve a converged shuffle or vote group and wake its lanes.

        Shared by both engines so data-movement results are identical by
        construction.  ``key`` is ``(mask, mode)`` for shuffles and
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
