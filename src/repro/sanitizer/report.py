"""Structured sanitizer output: findings and the per-launch report.

Every detector (:mod:`repro.sanitizer.races`,
:mod:`repro.sanitizer.barriers`, :mod:`repro.sanitizer.sharing_audit`)
emits :class:`Finding` records into one :class:`SanitizerReport`.  The
report renders as text (``compute-sanitizer``-style, one block per
finding with full provenance) and as JSON for machine consumption — CI
jobs diff the JSON, the schedule explorer diffs reports across seeds.

Severities
==========

``error``
    A correctness bug: a data race, a divergent/deadlocked barrier, a
    leaked sharing-space allocation.  Errors make a report non-clean.
``warning``
    Suspicious but not provably wrong (reserved; no current detector
    emits one on well-formed programs).
``note``
    Informational observations (e.g. sharing-space global fallbacks),
    kept out of :attr:`SanitizerReport.findings` accounting so a clean
    kernel that legitimately overflows its sharing slice stays clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Finding:
    """One sanitizer observation with full provenance."""

    #: Detector category, e.g. ``data-race``, ``barrier-divergence``,
    #: ``stale-mask``, ``deadlock``, ``sharing-leak``, ``sharing-overread``,
    #: ``sharing-fallback``, ``schedule-divergence``.
    category: str
    message: str
    severity: str = "error"
    block: Optional[int] = None
    warp: Optional[int] = None
    lane: Optional[int] = None
    tid: Optional[int] = None
    round: Optional[int] = None
    #: ``(buffer_name, element_index)`` for memory findings.
    address: Optional[Tuple[str, int]] = None
    #: Source sites involved (``file.py:lineno``), conflicting pair first.
    sites: Tuple[str, ...] = ()
    extra: Dict[str, object] = field(default_factory=dict)

    def where(self) -> str:
        parts = []
        if self.block is not None:
            parts.append(f"block {self.block}")
        if self.warp is not None:
            parts.append(f"warp {self.warp}")
        if self.lane is not None:
            parts.append(f"lane {self.lane}")
        if self.tid is not None:
            parts.append(f"t{self.tid}")
        if self.round is not None:
            parts.append(f"round {self.round}")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "category": self.category,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("block", "warp", "lane", "tid", "round"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.address is not None:
            out["address"] = {"buffer": self.address[0], "index": self.address[1]}
        if self.sites:
            out["sites"] = list(self.sites)
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    def render(self) -> str:
        head = f"[{self.severity}] {self.category}"
        where = self.where()
        if where:
            head += f" ({where})"
        lines = [head, f"  {self.message}"]
        if self.address is not None:
            lines.append(f"  address: {self.address[0]!r}[{self.address[1]}]")
        for site in self.sites:
            lines.append(f"  site: {site}")
        return "\n".join(lines)


#: Stats that are high-water marks rather than counts.
PEAK_STATS = frozenset(("sharing_peak_slots", "sharing_peak_utilization"))


class SanitizerReport:
    """All findings and statistics one sanitized launch produced."""

    def __init__(self, label: str = "kernel") -> None:
        self.label = label
        self.findings: List[Finding] = []
        #: Informational observations (severity ``note``); never affect
        #: cleanliness.
        self.notes: List[Finding] = []
        #: Detector statistics (accesses checked, barriers observed, ...).
        self.stats: Dict[str, float] = {}
        self.truncated = 0
        #: Same-round atomic dependences, ``(address, first, second,
        #: sites)``, that the DPOR explorer reverses (see
        #: :mod:`repro.sanitizer.races`).  Not findings: they stay out of
        #: the rendered report, its dict form and its stats.
        self.dependent: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def add(self, finding: Finding) -> None:
        if finding.severity == "note":
            self.notes.append(finding)
        else:
            self.findings.append(finding)

    def bump(self, stat: str, amount: float = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + amount

    # -- queries -----------------------------------------------------------
    @property
    def clean(self) -> bool:
        """True when no error/warning findings were recorded."""
        return not self.findings

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def by_category(self, category: str) -> List[Finding]:
        return [f for f in self.findings + self.notes if f.category == category]

    def categories(self) -> List[str]:
        seen: List[str] = []
        for f in self.findings + self.notes:
            if f.category not in seen:
                seen.append(f.category)
        return seen

    def merge(self, other: "SanitizerReport",
              race_cap: Optional[int] = None) -> None:
        """Fold ``other`` in after this report's own contents.

        ``race_cap`` re-applies a launch-wide ``max_findings`` cap: once
        this report holds that many findings, further ``data-race``
        findings only count toward ``truncated`` (other detectors are
        never capped) — what one shared monitor would have recorded.
        """
        for finding in other.findings:
            if (race_cap is not None and finding.category == "data-race"
                    and len(self.findings) >= race_cap):
                self.truncated += 1
            else:
                self.findings.append(finding)
        self.notes.extend(other.notes)
        self.merge_stats(other.stats)
        self.truncated += other.truncated
        self.dependent.extend(other.dependent)

    def merge_stats(self, stats: Dict[str, float]) -> None:
        """Fold another report's stats in: counts add, high-water marks
        keep the larger value (so per-block reports merge to what one
        launch-wide monitor records)."""
        for key, val in stats.items():
            if key in PEAK_STATS:
                self.stats[key] = max(self.stats.get(key, val), val)
            else:
                self.bump(key, val)

    # -- rendering ---------------------------------------------------------
    def text(self) -> str:
        lines = [f"==== sanitizer report: {self.label} ===="]
        if self.clean:
            lines.append("no errors detected")
        else:
            lines.append(f"{len(self.findings)} finding(s)")
            for f in self.findings:
                lines.append(f.render())
        for note in self.notes:
            lines.append(note.render())
        if self.truncated:
            lines.append(f"({self.truncated} further finding(s) suppressed)")
        if self.stats:
            stat_line = ", ".join(
                f"{k}={int(v) if float(v).is_integer() else v}"
                for k, v in sorted(self.stats.items())
            )
            lines.append(f"stats: {stat_line}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "notes": [f.to_dict() for f in self.notes],
            "stats": dict(self.stats),
            "truncated": self.truncated,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "clean" if self.clean else f"{len(self.findings)} findings"
        return f"SanitizerReport({self.label!r}, {state})"
