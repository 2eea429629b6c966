"""repro.sanitizer — a correctness sanitizer for the simulated GPU.

A ``compute-sanitizer``-style toolbox layered on the SIMT simulator's
monitor hooks (:mod:`repro.gpu.block`):

* :mod:`~repro.sanitizer.races` — vector-clock happens-before data-race
  detection over global *and* shared memory, across scheduling rounds
  (the old round-local checker provably missed cross-round races);
* :mod:`~repro.sanitizer.barriers` — barrier-divergence and deadlock
  analysis with block/warp/lane/round provenance;
* :mod:`~repro.sanitizer.sharing_audit` — variable-sharing-space audit
  (global fallbacks, over-reads, leaked overflow allocations);
* :mod:`~repro.sanitizer.schedule` — DPOR exploration of legal warp /
  commit orderings, driven by the race detector's racing and atomic
  dependent pairs, with deterministic replay.

Three ways in:

1. per launch: ``device.launch(..., sanitize="report")`` or
   ``omp.launch(..., check="report")`` → ``counters.sanitizer`` /
   ``result.sanitizer`` holds the :class:`SanitizerReport`;
2. process-wide: :func:`activate` (or the :func:`session` context
   manager) makes every subsequent launch report into one
   :class:`SanitizerSession` — this is how the CLI sanitizes an
   unmodified example script;
3. CLI: ``python -m repro.sanitizer path/to/example.py`` or
   ``python -m repro.sanitizer --corpus`` (see
   :mod:`repro.sanitizer.__main__`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.gpu import device as _device_mod
from repro.sanitizer.monitor import SanitizerConfig, SanitizerMonitor
from repro.sanitizer.report import Finding, SanitizerReport
from repro.sanitizer.schedule import (
    BacktrackPoint,
    BoundedPreemptionSchedule,
    DirectedSchedule,
    DporResult,
    LoopController,
    RunStats,
    explore_schedules_dpor,
    replay_directed,
    strip_launch_telemetry,
)

__all__ = [
    "BacktrackPoint",
    "BoundedPreemptionSchedule",
    "DirectedSchedule",
    "DporResult",
    "Finding",
    "LoopController",
    "RunStats",
    "SanitizerConfig",
    "SanitizerMonitor",
    "SanitizerReport",
    "SanitizerSession",
    "activate",
    "deactivate",
    "explore_schedules_dpor",
    "replay_directed",
    "session",
    "strip_launch_telemetry",
]


class SanitizerSession:
    """Collects the reports of every launch run while it is active.

    Launches sanitized through a session always run in ``report`` mode —
    the point of a session is to observe an application end-to-end, not
    to abort it at the first finding.
    """

    def __init__(self, config: Optional[SanitizerConfig] = None,
                 label: str = "session") -> None:
        if config is None:
            config = SanitizerConfig(mode="report")
        elif config.mode != "report":
            config = SanitizerConfig(
                races=config.races, barriers=config.barriers,
                sharing=config.sharing, mode="report",
                max_findings=config.max_findings,
            )
        self.config = config
        self.label = label
        self.reports: List[SanitizerReport] = []

    # -- device-side interface ---------------------------------------------
    def make_monitor(self, entry) -> SanitizerMonitor:
        """Build the monitor for one launch (called by ``Device.launch``)."""
        name = getattr(entry, "__qualname__", None) or repr(entry)
        return SanitizerMonitor(self.config, label=name)

    def add(self, report: SanitizerReport) -> None:
        self.reports.append(report)

    # -- queries -----------------------------------------------------------
    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.reports)

    def merged(self) -> SanitizerReport:
        """One report aggregating every sanitized launch."""
        out = SanitizerReport(self.label)
        for r in self.reports:
            out.merge(r)
        return out

    def text(self) -> str:
        lines = [
            f"==== sanitizer session: {self.label} — "
            f"{len(self.reports)} launch(es) sanitized ===="
        ]
        if not self.reports:
            lines.append("no kernel launches observed")
            return "\n".join(lines)
        for r in self.reports:
            lines.append(r.text())
        merged = self.merged()
        verdict = "CLEAN" if merged.clean else f"{len(merged.findings)} finding(s)"
        lines.append(f"==== session verdict: {verdict} ====")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "clean": self.clean,
            "launches": [r.to_dict() for r in self.reports],
        }


def activate(config: Optional[SanitizerConfig] = None,
             label: str = "session") -> SanitizerSession:
    """Install a process-wide session; every later launch reports into it."""
    sess = SanitizerSession(config, label=label)
    _device_mod.set_global_sanitizer(sess)
    return sess


def deactivate() -> None:
    """Remove the process-wide session installed by :func:`activate`."""
    _device_mod.set_global_sanitizer(None)


class session:
    """Context manager form of :func:`activate`/:func:`deactivate`::

        with sanitizer.session() as sess:
            omp.launch(dev, prog, ...)
        assert sess.clean, sess.text()
    """

    def __init__(self, config: Optional[SanitizerConfig] = None,
                 label: str = "session") -> None:
        self._config = config
        self._label = label
        self.session: Optional[SanitizerSession] = None

    def __enter__(self) -> SanitizerSession:
        self.session = activate(self._config, label=self._label)
        return self.session

    def __exit__(self, *exc) -> None:
        deactivate()
