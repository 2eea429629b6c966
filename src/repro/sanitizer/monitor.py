"""The sanitizer monitor: the block scheduler's instrumentation client.

:class:`SanitizerMonitor` composes the individual detectors and plugs
into the hook surface :class:`repro.gpu.block.ThreadBlock` exposes when a
``monitor`` is attached:

========================  ==================================================
Hook                      Fired
========================  ==================================================
``on_block_start(block)``     before the block's first round
``on_event(block, r, lane, ev)``  every posted event
``on_retire(block, r, lane)``     a lane's generator returned
``on_release(block, r, kind, key, tids)``  a barrier/shuffle group released
``on_deadlock(block, r)``     no-progress round, before DeadlockError
``on_sharing(block, kind, ...)``  sharing-space staging episodes
``on_block_end(block)``       after the block ran to completion
========================  ==================================================

All hooks are cheap no-ops when no monitor is attached — the sanitizer
is strictly zero-cost when disabled (asserted by the ablation bench).

Event *sites* (``file.py:lineno``) are the textual source of an access or
barrier — which is how "lanes arrived at textually different barriers"
is literal.  A monitored block builds its lanes on
:class:`~repro.gpu.thread.SiteThreadCtx`, whose event helpers store the
frame that called them just before they yield; :meth:`on_event` reads
and clears that frame and formats it through a per-monitor memo keyed by
``(code, lineno)``, so recovering a site costs O(1).  Only for an event
a kernel yields raw, bypassing the helpers, does it fall back to
:func:`yield_site`, which walks the suspended ``gi_yieldfrom`` chain to
the deepest frame outside the helper module — the same frame the helper
captures.  ``Compute`` events are returned from at once: no detector
reads them.  Sites reach :class:`~repro.sanitizer.races.Access` records,
findings and worker reports only as strings.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.errors import DataRaceError
from repro.gpu import thread as _thread_mod
from repro.gpu.events import T_ATOMIC, T_COMPUTE
from repro.sanitizer.barriers import BarrierAnalyzer
from repro.sanitizer.races import RaceDetector
from repro.sanitizer.report import SanitizerReport
from repro.sanitizer.sharing_audit import SharingAuditor

#: Helper-module filename skipped when resolving textual event sites.
_HELPER_FILE = _thread_mod.__file__


class SanitizerConfig:
    """What to check and how to respond.

    ``mode`` is ``"raise"`` (first data race raises a
    :class:`~repro.errors.DataRaceError`) or ``"report"`` (collect findings;
    deadlocks are folded into the report by the caller).
    """

    __slots__ = ("races", "barriers", "sharing", "mode", "max_findings")

    def __init__(
        self,
        races: bool = True,
        barriers: bool = True,
        sharing: bool = True,
        mode: str = "raise",
        max_findings: int = 64,
    ) -> None:
        if mode not in ("raise", "report"):
            raise ValueError(f"sanitizer mode must be 'raise' or 'report', got {mode!r}")
        self.races = races
        self.barriers = barriers
        self.sharing = sharing
        self.mode = mode
        self.max_findings = max_findings

    @staticmethod
    def coerce(value) -> "SanitizerConfig":
        """Accept ``True``/``"raise"``/``"report"``/config instances."""
        if isinstance(value, SanitizerConfig):
            return value
        if value is True or value == "raise":
            return SanitizerConfig(mode="raise")
        if value == "report":
            return SanitizerConfig(mode="report")
        raise ValueError(f"unrecognized sanitize= value {value!r}")


def yield_site(gen) -> str:
    """``file.py:lineno`` of the innermost non-helper suspended frame."""
    best = None
    g = gen
    while g is not None:
        frame = getattr(g, "gi_frame", None)
        if frame is None:
            break
        if frame.f_code.co_filename != _HELPER_FILE:
            best = frame
        g = getattr(g, "gi_yieldfrom", None)
    if best is None:
        return "<unknown site>"
    return f"{os.path.basename(best.f_code.co_filename)}:{best.f_lineno}"


class SanitizerMonitor:
    """Composed detector set attached to one launch."""

    def __init__(self, config: Optional[SanitizerConfig] = None, label: str = "kernel") -> None:
        self.config = config or SanitizerConfig()
        self.report = SanitizerReport(label)
        self.races = RaceDetector(self.report, self.config.max_findings) if self.config.races else None
        self.barriers = BarrierAnalyzer(self.report) if self.config.barriers else None
        self.sharing = SharingAuditor(self.report) if self.config.sharing else None
        self._raise = self.config.mode == "raise"
        #: ``(code, lineno) -> "file.py:lineno"`` for captured sites.
        self._sites: Dict[tuple, str] = {}

    # -- scheduler hooks ---------------------------------------------------
    def on_block_start(self, block) -> None:
        self.report.bump("blocks_observed")

    def on_event(self, block, rnd: int, lane, ev) -> None:
        tag = ev.tag
        if tag == T_COMPUTE:
            return
        site = self.event_site(block, lane)
        if tag <= T_ATOMIC:  # loads, stores, atomics: the race detector's
            if self.races is None:
                return
            findings = self.report.findings
            before = len(findings)
            self.races.on_event(block.block_id, rnd, lane.tid, ev, site,
                                lane.warp_id)
            if self._raise and len(findings) > before:
                f = findings[-1]
                raise DataRaceError(
                    f.message,
                    block_id=f.block,
                    buffer=f.address[0] if f.address else None,
                    index=f.address[1] if f.address else None,
                    round=f.round,
                    sites=f.sites,
                )
        elif self.barriers is not None:  # barriers, shuffles, votes
            self.barriers.on_event(block, rnd, lane, ev, site)

    def event_site(self, block, lane) -> str:
        """``file.py:lineno`` of the event ``lane`` just posted: the frame
        its helper captured, or for a raw event the walked generator chain."""
        ctx = block.ctxs[lane.tid]
        frame = ctx.site_frame
        if frame is None:
            return yield_site(lane.gen)
        ctx.site_frame = None
        key = (frame.f_code, frame.f_lineno)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = (
                f"{os.path.basename(key[0].co_filename)}:{key[1]}")
        return site

    def on_retire(self, block, rnd: int, lane) -> None:
        if self.barriers is not None:
            self.barriers.on_retire(block, rnd, lane)

    def on_release(self, block, rnd: int, kind: str, key, tids: List[int]) -> None:
        if self.races is not None:
            self.races.on_release(block.block_id, tids)
        if self.barriers is not None:
            self.barriers.on_release(block.block_id, rnd, kind, tids)

    def on_deadlock(self, block, rnd: int) -> str:
        if self.barriers is not None:
            return self.barriers.on_deadlock(block, rnd)
        return ""

    def on_sharing(self, block, kind: str, space, group: int, nslots: int,
                   capacity: int, rnd: int) -> None:
        if self.sharing is not None:
            self.sharing.on_sharing(block, kind, space, group, nslots, capacity, rnd)

    def on_block_end(self, block) -> None:
        if self.sharing is not None:
            self.sharing.on_block_end(block)

    # -- lifecycle ---------------------------------------------------------
    def finalize(self) -> SanitizerReport:
        return self.report
