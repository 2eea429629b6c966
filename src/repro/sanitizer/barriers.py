"""Barrier-divergence, stale-mask, and deadlock analysis.

The block scheduler already detects *that* a block is stuck (no lane
advanced, no barrier released).  This analyzer explains *why*, with
block/warp/lane/round provenance and the textual barrier sites involved:

* **Barrier divergence** — lanes of one block waiting at textually
  different block barriers (or different ``(bar_id, count)`` keys), or
  live lanes that never arrived at the barrier their siblings wait on.
* **Stale ``simdmask``** — a warp barrier/shuffle mask that names a lane
  which already retired (or is waiting on a different key): the group
  can never converge.  This is flagged *eagerly* at lane retirement, not
  just post-mortem, because ``_mask_converged`` can provably never
  succeed once a named lane is gone.
* **Worker state-machine lockups** — anything else (e.g. a SIMD main
  thread exiting without posting the null-function termination signal)
  falls out as a deadlock finding whose per-lane wait sites point into
  the state machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gpu.events import T_SHUFFLE, T_SYNCBLOCK, T_SYNCWARP, T_VOTE
from repro.gpu.thread import DONE, STATE_NAMES, WAIT_BLOCK, WAIT_SHFL, WAIT_WARP
from repro.sanitizer.report import Finding, SanitizerReport

_SYNC_TAGS = (T_SYNCWARP, T_SYNCBLOCK, T_SHUFFLE, T_VOTE)


class BarrierAnalyzer:
    """Tracks synchronization arrivals and explains convergence failures."""

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        #: Last sync-event site per (block, tid): (site, round, tag).
        self._last_sync: Dict[Tuple[int, int], Tuple[str, int, int]] = {}
        self._stale_reported: set = set()
        #: (block, warp) pairs with a retired lane: only their masked
        #: arrivals can name a retired lane.
        self._retired_warps: set = set()

    # -- event feed --------------------------------------------------------
    def on_event(self, block, rnd: int, lane, ev, site: str) -> None:
        if ev.tag not in _SYNC_TAGS:
            return
        self._last_sync[(block.block_id, lane.tid)] = (site, rnd, ev.tag)
        self.report.bump("barrier_arrivals")
        if ev.tag != T_SYNCBLOCK and (block.block_id, lane.warp_id) in self._retired_warps:
            # Masked warp-level sync: a mask naming an already-retired
            # lane can never converge — flag it at arrival time.
            for other in block._warps[lane.warp_id]:
                if other.state == DONE and (ev.mask >> other.lane_id) & 1:
                    self._stale(block, rnd, lane, ev.mask, other, site)

    def on_release(self, block_id: int, rnd: int, kind: str, tids: List[int]) -> None:
        self.report.bump(f"releases_{kind}")

    def _site_of(self, block_id: int, tid: int) -> str:
        rec = self._last_sync.get((block_id, tid))
        return rec[0] if rec else "<unknown site>"

    # -- eager stale-mask detection ---------------------------------------
    def _stale(self, block, rnd: int, waiter, mask: int, retired,
               site: Optional[str] = None) -> None:
        dedup = (block.block_id, waiter.tid, mask)
        if dedup in self._stale_reported:
            return
        self._stale_reported.add(dedup)
        site = site or self._site_of(block.block_id, waiter.tid)
        self.report.add(Finding(
            category="stale-mask",
            message=(
                f"simd group synchronizes with a stale mask: t{waiter.tid} "
                f"(warp {waiter.warp_id}, lane {waiter.lane_id}) waits on "
                f"mask {mask:#x} at {site}, "
                f"but lane {retired.lane_id} (t{retired.tid}) named by the "
                f"mask already retired — the group can never converge"
            ),
            block=block.block_id,
            warp=waiter.warp_id,
            lane=waiter.lane_id,
            tid=waiter.tid,
            round=rnd,
            sites=(site,),
            extra={"mask": mask, "retired_tid": retired.tid},
        ))

    def on_retire(self, block, rnd: int, lane) -> None:
        """A lane retired: any group waiting on a mask naming it is stuck."""
        self._retired_warps.add((block.block_id, lane.warp_id))
        warp_lanes = block._warps[lane.warp_id]
        for waiter in warp_lanes:
            if waiter.state not in (WAIT_WARP, WAIT_SHFL):
                continue
            mask = waiter.wait_key if waiter.state == WAIT_WARP else waiter.wait_key[0]
            if (mask >> lane.lane_id) & 1:
                self._stale(block, rnd, waiter, mask, lane)

    # -- post-mortem deadlock analysis -------------------------------------
    def on_deadlock(self, block, rnd: int) -> str:
        """Explain a no-progress round; returns text for the raised error."""
        block_id = block.block_id
        waiting = [l for l in block.lanes if l.state not in (DONE,)]
        lines: List[str] = []

        # 1. Block-barrier divergence: different keys or different sites.
        by_key: Dict[tuple, List] = {}
        for lane in waiting:
            if lane.state == WAIT_BLOCK:
                by_key.setdefault(lane.wait_key, []).append(lane)
        absent = [l for l in waiting if l.state != WAIT_BLOCK]
        if by_key:
            sites = {}
            for key, lanes in by_key.items():
                for lane in lanes:
                    sites.setdefault(self._site_of(block_id, lane.tid), []).append(lane)
            if len(by_key) > 1 or len(sites) > 1 or absent:
                arrived = "; ".join(
                    f"{site} <- lanes {sorted(l.tid for l in lanes)}"
                    for site, lanes in sorted(sites.items())
                )
                missing = ""
                if absent:
                    missing = (
                        "; never arrived: "
                        + ", ".join(
                            f"t{l.tid} ({STATE_NAMES[l.state]} at "
                            f"{self._site_of(block_id, l.tid)})"
                            for l in absent
                        )
                    )
                some = by_key and next(iter(by_key.values()))[0]
                self.report.add(Finding(
                    category="barrier-divergence",
                    message=(
                        f"lanes of block {block_id} arrived at textually "
                        f"different barriers: {arrived}{missing}"
                    ),
                    block=block_id,
                    warp=some.warp_id if some else None,
                    round=rnd,
                    sites=tuple(sorted(sites)),
                    extra={"barrier_keys": [list(map(repr, by_key))]},
                ))
                lines.append("barrier divergence across block-barrier sites")

        # 2. Warp-level convergence failures (mask mismatch / stale lanes).
        for warp_lanes in block._warps:
            masked: Dict[int, List] = {}
            for lane in warp_lanes:
                if lane.state == WAIT_WARP:
                    masked.setdefault(lane.wait_key, []).append(lane)
                elif lane.state == WAIT_SHFL:
                    masked.setdefault(lane.wait_key[0], []).append(lane)
            for mask, lanes in masked.items():
                blockers = []
                for other in warp_lanes:
                    if not (mask >> other.lane_id) & 1:
                        continue
                    if other.state == DONE:
                        blockers.append(f"lane {other.lane_id} retired")
                    elif other not in lanes:
                        blockers.append(
                            f"lane {other.lane_id} at {STATE_NAMES[other.state]} "
                            f"({self._site_of(block_id, other.tid)})"
                        )
                if not blockers:
                    continue
                first = lanes[0]
                self.report.add(Finding(
                    category="barrier-divergence",
                    message=(
                        f"warp {first.warp_id} of block {block_id}: lanes "
                        f"{sorted(l.lane_id for l in lanes)} wait on mask "
                        f"{mask:#x} at {self._site_of(block_id, first.tid)} "
                        f"but {'; '.join(blockers)}"
                    ),
                    block=block_id,
                    warp=first.warp_id,
                    lane=first.lane_id,
                    tid=first.tid,
                    round=rnd,
                    sites=(self._site_of(block_id, first.tid),),
                    extra={"mask": mask},
                ))
                lines.append(f"warp {first.warp_id} mask {mask:#x} cannot converge")

        # 3. Always record the lockup itself with per-lane provenance.
        detail = "; ".join(
            f"t{l.tid} (warp {l.warp_id}, lane {l.lane_id}) "
            f"{STATE_NAMES[l.state]} at {self._site_of(block_id, l.tid)}"
            for l in waiting
        )
        self.report.add(Finding(
            category="deadlock",
            message=(
                f"block {block_id} deadlocked in round {rnd}: no lane can "
                f"make progress — {detail}"
            ),
            block=block_id,
            round=rnd,
            sites=tuple(
                sorted({self._site_of(block_id, l.tid) for l in waiting})
            ),
        ))
        lines.append(f"{len(waiting)} lane(s) stuck")
        return "sanitizer: " + "; ".join(lines) if lines else ""
