"""Seeded, deterministic fault plans: what fails, where, and when.

A :class:`FaultPlan` is the injection plane's decision oracle.  Hook
points scattered through the stack (the worker pool, the block
scheduler's atomic path, the variable sharing space, the pre-launch
memory scrubber) ask it one question — ``plan.fires(site, **coords)`` —
and it answers *deterministically*: the decision is a pure hash of
``(seed, site, coords)``, not a sequential RNG draw.  That purity is the
whole design:

* a forked worker and its coordinator agree on whether a crash was
  injected without exchanging state;
* re-running a campaign with the same seed reproduces the identical
  fault schedule, hence the identical :class:`ResilienceReport`;
* the *off* path (no plan attached) costs exactly one ``is not None``
  test per hook site.

Hook sites (coordinates each site supplies):

=====================  =====================================================
``worker.crash``       ``chunk`` (first task index), ``attempt``
``worker.hang``        ``chunk``, ``attempt``
``memory.bitflip``     ``launch``, ``attempt``  (targets drawn from
                       :meth:`FaultPlan.rng`)
``sharing.overflow``   ``block``, ``group``, ``kind`` (currently "simd")
``atomic.transient``   ``block``, ``round``, ``lane``, ``attempt``
``serve.reject``       ``tenant``, ``seq`` (admission control in
                       :mod:`repro.serve.scheduler` — forces a typed
                       backpressure reject so clients' retry paths get
                       exercised deterministically)
``serve.conn_drop``    ``tenant``, ``seq`` (the TCP front door drops the
                       connection *after* executing but before the ack —
                       the classic exactly-once ambiguity the journal
                       dedup must resolve)
``serve.dispatch_stall``  ``batch`` (the dispatch thread stalls briefly
                       before running a batch, widening the window a
                       chaos kill lands mid-flight)
``journal.torn_write`` ``index`` (a journal append is truncated mid-record
                       and not fsynced — models power loss during the
                       write; replay must skip the torn record)
``lease.corrupt``      ``batch``, ``payload``, ``attempt`` (a warm-pool
                       result payload arrives corrupted; the lease
                       discards it and re-dispatches that payload)
=====================  =====================================================

Every spec carries an ``attempts`` bound: it only fires while the
``attempt`` coordinate is below it, which is how "transient" faults stop
firing once the recovery layer retries — a crash spec with
``attempts=1`` kills the first try and lets the retry through; one with
``attempts=99`` defeats every forked retry and forces the pool to
degrade in-process.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import FaultInjectionError

#: The hook points a spec may name.
SITES = (
    "worker.crash",
    "worker.hang",
    "memory.bitflip",
    "sharing.overflow",
    "atomic.transient",
    "serve.reject",
    "serve.conn_drop",
    "serve.dispatch_stall",
    "journal.torn_write",
    "lease.corrupt",
)

#: Sites consulted inside a running block; the JIT carries no hook
#: points for them, so a plan that can fire one downgrades the engine.
IN_BLOCK_SITES = ("atomic.transient", "sharing.overflow")

#: Cap on retained provenance entries (counters keep exact totals).
MAX_LOG = 1000


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: a site, a probability, and trigger predicates.

    ``probability`` is evaluated independently (and deterministically)
    per coordinate tuple.  ``attempts`` bounds the ``attempt`` coordinate
    the spec still fires for (1 = first try only).  ``match`` restricts
    firing to coordinate values, e.g. ``{"block": 3}`` or
    ``{"kind": "simd"}``.  For ``memory.bitflip``, ``flips`` is the cell
    count flipped per firing and ``repair`` selects whether the scrubber
    silently repairs the damage or surfaces a
    :class:`~repro.errors.MemoryFault`.
    """

    site: str
    probability: float = 1.0
    attempts: int = 1
    match: Tuple[Tuple[str, object], ...] = ()
    flips: int = 1
    repair: bool = True

    def __post_init__(self):
        if self.site not in SITES:
            raise FaultInjectionError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.attempts < 1:
            raise FaultInjectionError("attempts must be >= 1")

    def matches(self, coords: Dict[str, object]) -> bool:
        if coords.get("attempt", 0) >= self.attempts:
            return False
        for key, want in self.match:
            if coords.get(key) != want:
                return False
        return True


@dataclass
class FaultCounters:
    """Plain-int fault/recovery statistics for one plan.

    Integer fields only, on purpose: the parallel launch engine merges
    side-state objects by numeric-field delta
    (:mod:`repro.exec.state`), so counts bumped inside forked workers
    travel back to the coordinator for free.
    """

    #: Faults injected, by site family.
    worker_crashes: int = 0
    worker_hangs: int = 0
    bitflips: int = 0
    forced_overflows: int = 0
    atomic_transients: int = 0
    forced_rejects: int = 0
    conn_drops: int = 0
    dispatch_stalls: int = 0
    torn_writes: int = 0
    lease_corruptions: int = 0
    #: Detection/recovery outcomes.
    detected: int = 0
    recovered: int = 0
    unrecovered: int = 0
    #: Recovery-layer actions.
    chunk_retries: int = 0
    redistributions: int = 0
    degradations: int = 0
    launch_retries: int = 0
    rollbacks: int = 0
    timeouts: int = 0

    @property
    def injected(self) -> int:
        return (self.worker_crashes + self.worker_hangs + self.bitflips
                + self.forced_overflows + self.atomic_transients
                + self.forced_rejects + self.conn_drops
                + self.dispatch_stalls + self.torn_writes
                + self.lease_corruptions)

    def as_dict(self) -> Dict[str, int]:
        out = dict(vars(self))
        out["injected"] = self.injected
        return out


_SITE_COUNTER = {
    "worker.crash": "worker_crashes",
    "worker.hang": "worker_hangs",
    "memory.bitflip": "bitflips",
    "sharing.overflow": "forced_overflows",
    "atomic.transient": "atomic_transients",
    "serve.reject": "forced_rejects",
    "serve.conn_drop": "conn_drops",
    "serve.dispatch_stall": "dispatch_stalls",
    "journal.torn_write": "torn_writes",
    "lease.corrupt": "lease_corruptions",
}


@dataclass(frozen=True)
class InjectedFault:
    """Provenance of one injected fault (what fired, where, outcome)."""

    site: str
    coords: Tuple[Tuple[str, object], ...]
    recovered: bool
    detail: str = ""

    def describe(self) -> str:
        where = ", ".join(f"{k}={v}" for k, v in self.coords)
        verdict = "recovered" if self.recovered else "UNRECOVERED"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.site} [{where}] {verdict}{tail}"


class FaultPlan:
    """A seeded schedule of injected faults plus its outcome ledger.

    Decisions are stateless (see the module docstring); the mutable parts
    are the outcome ledger — :attr:`counters` (merged across forked
    workers via the side-state machinery) and :attr:`log` (provenance
    entries, complete for in-process execution, coordinator-side events
    only under forked workers).

    ``launch_index``/``launch_attempt`` are maintained by
    :meth:`repro.gpu.device.Device.launch`: the former counts logical
    launches the plan has seen (so campaign launches draw distinct fault
    schedules), the latter the retry attempt within the current launch.
    """

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = (),
                 scrub: bool = True) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        #: When True, launches verify pre-launch page checksums and repair
        #: bit-flips from the snapshot (ECC-style); when False, flips go
        #: undetected — useful for demonstrating why the scrub matters.
        self.scrub = bool(scrub)
        self.counters = FaultCounters()
        self.log: List[InjectedFault] = []
        self._log_overflow = 0
        self.launch_index = -1
        self.launch_attempt = 0

    # -- decisions ---------------------------------------------------------
    @property
    def fires_in_block(self) -> bool:
        """True when some spec can fire at an in-block site
        (:data:`IN_BLOCK_SITES`) — the only way a plan hooks a block."""
        return any(s.site in IN_BLOCK_SITES and s.probability > 0
                   for s in self.specs)

    def _uniform(self, site: str, coords: Dict[str, object]) -> float:
        """Deterministic uniform draw in [0, 1) for one coordinate tuple."""
        key = f"{self.seed}|{site}|{sorted(coords.items())!r}".encode()
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def fires(self, site: str, **coords) -> Optional[FaultSpec]:
        """The spec that injects a fault at this site/coords, if any."""
        for spec in self.specs:
            if spec.site != site or not spec.matches(coords):
                continue
            if spec.probability >= 1.0:
                return spec
            if self._uniform(site, coords) < spec.probability:
                return spec
        return None

    def rng(self, site: str, **coords) -> random.Random:
        """A deterministic RNG for drawing fault *targets* (e.g. which
        cell a bit-flip lands in), keyed exactly like :meth:`fires`."""
        key = f"{self.seed}|targets|{site}|{sorted(coords.items())!r}".encode()
        return random.Random(hashlib.blake2b(key, digest_size=8).hexdigest())

    # -- ledger ------------------------------------------------------------
    def record(self, site: str, coords: Dict[str, object], recovered: bool,
               detail: str = "") -> None:
        """Note one injected fault and its outcome."""
        c = self.counters
        setattr(c, _SITE_COUNTER[site], getattr(c, _SITE_COUNTER[site]) + 1)
        c.detected += 1
        if recovered:
            c.recovered += 1
        else:
            c.unrecovered += 1
        if len(self.log) < MAX_LOG:
            self.log.append(InjectedFault(
                site, tuple(sorted(coords.items())), recovered, detail))
        else:
            self._log_overflow += 1

    def summary(self) -> Dict[str, int]:
        """Counter snapshot (stable keys, ints) for reports/kc.extra."""
        return self.counters.as_dict()

    def describe(self) -> str:
        lines = [f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"]
        for entry in self.log:
            lines.append("  " + entry.describe())
        if self._log_overflow:
            lines.append(f"  ... {self._log_overflow} more (log capped)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sites = sorted({s.site for s in self.specs})
        return f"FaultPlan(seed={self.seed}, sites={sites})"
