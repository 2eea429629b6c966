"""Schedule exploration: DPOR over warp/commit order.

The block scheduler is deterministic: warps resolve in ascending id and
side effects commit in lane order, so every launch is one — legal but
fixed — interleaving.  Order-dependent bugs (racy accumulations, missing
barriers, float atomics summing in commit order) can therefore produce
stable, plausible-looking results.  :func:`explore_schedules_dpor`
exposes them by dynamic partial-order reduction: each run executes under
the happens-before sanitizer, and each same-round pair of conflicting
accesses spawns one *backtracking point* — a :class:`DirectedSchedule`
that reverses exactly that pair.  The pairs are the race detector's
racing pairs plus the *dependent pairs* it records for atomics (two
atomics, or an atomic and a plain read, on one element in one round:
synchronized, so not a race, but still order-dependent).  Only schedules
whose directive sets differ are executed (equivalent interleavings are
pruned), deterministically, with no seed lottery.  Kernels whose pair
graph exceeds the preemption budget, or whose races span rounds, fall
back to seeded :class:`BoundedPreemptionSchedule` sampling.  Budgets and
statistics follow ``simsched``'s ``LoopController``/``RunStats`` shape;
the default controller stops after 64 runs.

Every schedule — directed or seeded — is replayable from its directive
list or ``(seed, budget, horizon)`` alone (:func:`replay_directed`).

Output diffing knows one documented carve-out: launch-scoped JIT
telemetry (``extra["engine"]``, ``extra["jit_*"]``) is excluded from
divergence comparison, matching the serve tier's batch-equivalence
contract — a policy-carrying run is a hooked launch and never compiles,
while its baseline may.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sanitizer.report import Finding, SanitizerReport


@dataclass
class OutputDiff:
    """One output array that changed under a permuted schedule.

    ``seed`` is the replay handle of the schedule that produced the
    divergence: an integer for :class:`BoundedPreemptionSchedule`
    fallback runs, a directive-tuple string for :class:`DirectedSchedule`
    backtracking runs.
    """

    seed: object
    name: str
    n_mismatch: int
    max_abs_diff: float

    def describe(self) -> str:
        handle = (f"seed {self.seed}" if isinstance(self.seed, int)
                  else f"schedule {self.seed}")
        return (
            f"{handle}: output {self.name!r} differs at "
            f"{self.n_mismatch} element(s), max |Δ| = {self.max_abs_diff:g}"
        )


@dataclass
class RunStats:
    """Exploration statistics, in the spirit of ``simsched``'s ``RunStats``.

    ``runs`` counts every kernel execution including the baseline;
    ``pruned_equivalent`` counts candidate schedules skipped because an
    equivalent directive set already ran (the partial-order reduction),
    ``pruned_budget`` those dropped for exceeding the preemption budget.
    ``racing_pairs`` counts data races, ``dependent_pairs`` the atomic
    dependences the race detector hands over besides.
    """

    runs: int = 0
    directed_runs: int = 0
    fallback_runs: int = 0
    candidates: int = 0
    pruned_equivalent: int = 0
    pruned_budget: int = 0
    racing_pairs: int = 0
    dependent_pairs: int = 0
    cross_round_pairs: int = 0
    backtrack_points: int = 0
    distinct_outcomes: int = 0
    wall_seconds: float = 0.0
    stop_reason: str = "exhausted"

    def describe(self) -> str:
        return (
            f"runs={self.runs} (directed={self.directed_runs}, "
            f"fallback={self.fallback_runs}), "
            f"candidates={self.candidates}, "
            f"pruned={self.pruned_equivalent}+{self.pruned_budget} "
            f"(equivalent+budget), racing_pairs={self.racing_pairs} "
            f"({self.cross_round_pairs} cross-round), "
            f"dependent_pairs={self.dependent_pairs}, "
            f"backtracks={self.backtrack_points}, "
            f"distinct_outcomes={self.distinct_outcomes}, "
            f"wall={self.wall_seconds:.3f}s, stop={self.stop_reason}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "runs": self.runs,
            "directed_runs": self.directed_runs,
            "fallback_runs": self.fallback_runs,
            "candidates": self.candidates,
            "pruned_equivalent": self.pruned_equivalent,
            "pruned_budget": self.pruned_budget,
            "racing_pairs": self.racing_pairs,
            "dependent_pairs": self.dependent_pairs,
            "cross_round_pairs": self.cross_round_pairs,
            "backtrack_points": self.backtrack_points,
            "distinct_outcomes": self.distinct_outcomes,
            "wall_seconds": self.wall_seconds,
            "stop_reason": self.stop_reason,
        }


@dataclass
class LoopController:
    """Exploration budget, in the spirit of ``simsched``'s ``LoopController``.

    ``max_runs``/``max_seconds`` bound the loop (None = unbounded; the
    explorer's default controller sets ``max_runs=64``); with
    ``stop_on_first_divergence`` (the default) exploration ends at the
    first divergent schedule — the minimized repro — instead of mapping
    the whole outcome space.
    """

    max_runs: Optional[int] = None
    max_seconds: Optional[float] = None
    stop_on_first_divergence: bool = True

    def should_stop(self, stats: RunStats, started: float,
                    divergent: bool) -> Optional[str]:
        """Return the stop reason, or None to keep exploring."""
        if divergent and self.stop_on_first_divergence:
            return "divergence"
        if self.max_runs is not None and stats.runs >= self.max_runs:
            return "max_runs"
        if (self.max_seconds is not None
                and time.monotonic() - started >= self.max_seconds):
            return "max_seconds"
        return None


#: ``kc.extra`` keys excluded from divergence comparison: launch-scoped
#: JIT telemetry cannot be attributed across engine downgrades (a run
#: carrying a schedule policy is a hooked launch and never compiles,
#: while its hook-free baseline may) — the same carve-out the serve
#: tier's batch-equivalence tests document for batched counters.
_TELEMETRY_KEYS = ("engine",)
_TELEMETRY_PREFIX = "jit_"


def strip_launch_telemetry(extra: Dict) -> Dict:
    """Drop launch-scoped JIT telemetry keys from a counters ``extra`` dict."""
    return {
        k: v
        for k, v in extra.items()
        if k not in _TELEMETRY_KEYS and not str(k).startswith(_TELEMETRY_PREFIX)
    }


def _diff_one(seed, name: str, base, got) -> Optional[OutputDiff]:
    """Diff one named output; dicts diff key-wise under the telemetry
    carve-out, everything else compares as arrays, bit-for-bit."""
    if isinstance(base, dict) or isinstance(got, dict):
        base_d = strip_launch_telemetry(dict(base or {}))
        got_d = strip_launch_telemetry(dict(got or {}))
        bad = [k for k in set(base_d) | set(got_d)
               if not np.array_equal(base_d.get(k), got_d.get(k))]
        if not bad:
            return None
        delta = 0.0
        for k in bad:
            try:
                delta = max(delta, float(abs(
                    np.float64(got_d.get(k, 0.0)) - np.float64(base_d.get(k, 0.0))
                )))
            except (TypeError, ValueError):
                pass  # non-numeric entry: counted, no magnitude
        return OutputDiff(seed, name, len(bad), delta)
    base = np.asarray(base)
    got = np.asarray(got)
    mism = ~np.isclose(got, base, rtol=0.0, atol=0.0, equal_nan=True)
    n = int(np.count_nonzero(mism))
    if not n:
        return None
    delta = float(np.max(np.abs(got[mism] - base[mism])))
    return OutputDiff(seed, name, n, delta)


def _diff_outputs(
    seed, baseline: Dict[str, np.ndarray], outputs: Dict[str, np.ndarray]
) -> List[OutputDiff]:
    diffs = []
    for name in sorted(baseline):
        diff = _diff_one(seed, name, baseline[name], outputs.get(name))
        if diff is not None:
            diffs.append(diff)
    return diffs


# ---------------------------------------------------------------------------
# Dynamic partial-order reduction
# ---------------------------------------------------------------------------


class DirectedSchedule:
    """Backtracking schedule: default order plus explicit reversals.

    A directive is one of

    * ``("warp", block, round, w_first, w_second)`` — in that round,
      resolve warp ``w_second``'s side effects *before* warp
      ``w_first``'s (reversing one cross-warp racing pair);
    * ``("commit", block, round, warp)`` — reverse the commit order of
      that warp's posts (reversing every intra-warp pair of the round).

    Every other round keeps the scheduler's default ascending order, so
    a directed schedule *is* its directive tuple: stateless, hashable,
    picklable, and replayable with :func:`replay_directed` — no seed,
    no PRNG.  Two schedules with the same directive set are the same
    interleaving of conflicting events (a Mazurkiewicz-trace
    equivalence class under the round-local independence relation),
    which is exactly what the explorer's pruning keys on.
    """

    def __init__(self, directives: Sequence[tuple] = ()) -> None:
        self.directives: Tuple[tuple, ...] = tuple(
            sorted({tuple(d) for d in directives})
        )

    # -- policy interface (what the block scheduler calls) -----------------
    def warp_order(self, block_id: int, rnd: int, n: int) -> Sequence[int]:
        order = list(range(n))
        for d in self.directives:
            if d[0] == "warp" and d[1] == block_id and d[2] == rnd:
                w_first, w_second = d[3], d[4]
                if w_first < n and w_second < n and w_first != w_second:
                    order.remove(w_second)
                    order.insert(order.index(w_first), w_second)
        return order

    def commit_order(self, block_id: int, rnd: int, warp_id: int,
                     n: int) -> Sequence[int]:
        for d in self.directives:
            if d[0] == "commit" and d[1] == block_id and d[2] == rnd \
                    and d[3] == warp_id:
                return list(range(n - 1, -1, -1))
        return list(range(n))

    # -- identity ----------------------------------------------------------
    @property
    def key(self) -> Tuple[tuple, ...]:
        return self.directives

    def extended(self, directive: tuple) -> "DirectedSchedule":
        return DirectedSchedule(self.directives + (tuple(directive),))

    def to_spec(self) -> List[list]:
        """JSON-serializable replay spec (a list of directive lists)."""
        return [list(d) for d in self.directives]

    @staticmethod
    def from_spec(spec: Sequence[Sequence]) -> "DirectedSchedule":
        return DirectedSchedule(tuple(tuple(d) for d in spec))

    def __repr__(self) -> str:
        return f"DirectedSchedule({list(self.directives)!r})"


class BoundedPreemptionSchedule:
    """Seeded schedule policy consumed by the block scheduler.

    ``warp_order(block, round, n)`` permutes the order in which the
    round's warps resolve; ``commit_order(block, round, warp, n)``
    permutes side-effect application within one warp's posts.  With
    ``budget=None`` every round is permuted.  With an integer budget only
    ``budget`` pseudo-randomly chosen rounds in ``[0, horizon)`` per block
    are — the schedule-space analogue of preemption-bounded model
    checking, where most divergent behaviours need only a few ill-placed
    context switches; DPOR's fallback runs this way.

    The policy is *stateless*: each permutation is drawn from a PRNG
    seeded by ``(seed, block, round, warp)`` alone, never by call order.
    That keeps a run replayable from ``(seed, budget, horizon)`` — and,
    because a block's schedule does not depend on which blocks ran
    before it, one policy object yields identical schedules whether the
    blocks execute serially or sharded across the parallel executor's
    workers.  (String seeding hashes via SHA-512, so permutations are
    stable across processes and ``PYTHONHASHSEED`` values.)
    """

    def __init__(self, seed: int, budget: Optional[int] = None,
                 horizon: int = 64) -> None:
        self.seed = int(seed)
        self.budget = None if budget is None else int(budget)
        self.horizon = int(horizon)

    def _preempted(self, block_id: int, rnd: int) -> bool:
        if self.budget is None:
            return True
        if rnd >= self.horizon:
            return False
        rng = random.Random(f"{self.seed}:pb:{block_id}")
        k = min(self.budget, self.horizon)
        return rnd in rng.sample(range(self.horizon), k)

    def _perm(self, n: int, *key) -> List[int]:
        order = list(range(n))
        rng = random.Random(":".join(str(k) for k in (self.seed,) + key))
        rng.shuffle(order)
        return order

    def warp_order(self, block_id: int, rnd: int, n: int) -> Sequence[int]:
        if not self._preempted(block_id, rnd):
            return list(range(n))
        return self._perm(n, "w", block_id, rnd)

    def commit_order(self, block_id: int, rnd: int, warp_id: int,
                     n: int) -> Sequence[int]:
        if not self._preempted(block_id, rnd):
            return list(range(n))
        return self._perm(n, "c", block_id, rnd, warp_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BoundedPreemptionSchedule(seed={self.seed}, "
                f"budget={self.budget}, horizon={self.horizon})")


def _pair_label(address, first: Dict, second: Dict) -> str:
    """Human-readable name of one racing pair."""
    buf, idx = address if address else ("?", 0)
    return (
        f"t{second.get('tid')} {second.get('kind')} vs "
        f"t{first.get('tid')} {first.get('kind')} on {buf!r}[{idx}] "
        f"(block {second.get('block')}, round {first.get('round')}"
        + ("" if first.get("round") == second.get("round")
           else f"->{second.get('round')}")
        + ")"
    )


@dataclass
class BacktrackPoint:
    """One racing or dependent pair and the directed schedule that
    reverses it."""

    schedule: DirectedSchedule
    directive: tuple
    address: Optional[Tuple[str, int]]
    first: Dict[str, object]
    second: Dict[str, object]
    sites: Tuple[str, ...] = ()
    #: True for an atomic dependence, False for a data race.
    dependent: bool = False

    def pair_label(self) -> str:
        return _pair_label(self.address, self.first, self.second)

    def pair_name(self) -> str:
        noun = "dependent pair (atomic)" if self.dependent else "racing pair"
        return f"{noun} {self.pair_label()}"

    def describe(self) -> str:
        kind = "commit order" if self.directive[0] == "commit" else "warp order"
        return (
            f"reverse {kind} for {self.pair_name()} "
            f"via {self.schedule.to_spec()}"
        )


@dataclass
class DporResult:
    """Outcome of a DPOR exploration over one kernel."""

    baseline: Dict[str, np.ndarray]
    stats: RunStats = field(default_factory=RunStats)
    diffs: List[OutputDiff] = field(default_factory=list)
    #: Schedules whose run raised: ``(replay_spec, "ErrType: msg")``.
    errored: List[tuple] = field(default_factory=list)
    #: Every backtracking point generated (executed or pruned).
    backtracks: List[BacktrackPoint] = field(default_factory=list)
    #: The backtracking point whose schedule first diverged (None when
    #: the divergence came from the bounded-preemption fallback or the
    #: kernel is schedule-stable).
    divergent_backtrack: Optional[BacktrackPoint] = None
    #: Replay spec of the first divergent schedule: a directive list for
    #: directed runs, an int seed for fallback runs, None when stable.
    divergent_spec: Optional[object] = None
    report: SanitizerReport = field(
        default_factory=lambda: SanitizerReport("dpor"))

    @property
    def order_dependent(self) -> bool:
        return bool(self.diffs or self.errored)

    @property
    def reproduced(self) -> Optional[object]:
        """Replay spec of the first divergence (None if stable)."""
        return self.divergent_spec

    def text(self) -> str:
        lines = [f"==== DPOR exploration: {self.stats.describe()} ===="]
        if not self.order_dependent:
            if self.stats.stop_reason in ("max_runs", "max_seconds"):
                lines.append(f"outputs stable within {self.stats.runs} runs "
                             f"(stopped on {self.stats.stop_reason})")
            else:
                lines.append(
                    "outputs stable under every inequivalent explored schedule")
        else:
            lines.append(
                f"ORDER DEPENDENCE: replay with schedule "
                f"{self.divergent_spec!r}"
            )
            if self.divergent_backtrack is not None:
                lines.append("  backtracking point: "
                             + self.divergent_backtrack.describe())
            for d in self.diffs:
                lines.append("  " + d.describe())
            for spec, err in self.errored:
                lines.append(f"  schedule {spec!r}: raised {err}")
        return "\n".join(lines)


def _outcome_signature(status: str, payload) -> tuple:
    """Hashable signature of one run's outcome (for distinct counting)."""
    if status == "raised":
        return ("raised",) + tuple(payload)
    parts = []
    for name in sorted(payload):
        value = payload[name]
        if isinstance(value, dict):
            stripped = strip_launch_telemetry(value)
            parts.append((name, tuple(sorted(
                (k, repr(v)) for k, v in stripped.items()))))
        else:
            arr = np.asarray(value)
            parts.append((name, hashlib.sha1(
                arr.tobytes() + str(arr.shape).encode()).hexdigest()))
    return ("ok", tuple(parts))


def _nonrace_categories(reports) -> Tuple[str, ...]:
    """Finding categories of one run, minus the data races.

    Races are the *premise* of the exploration (every run under the
    report-mode session re-reports them), but any other category —
    deadlock, barrier-divergence, stale-mask — is an observable outcome:
    under the report-mode session those launches complete with findings
    instead of raising, so output diffing alone would miss a schedule
    that deadlocks while the default order finishes clean.
    """
    cats = set()
    for report in reports:
        for f in report.findings:
            if f.category != "data-race":
                cats.add(f.category)
    return tuple(sorted(cats))


def _finding_delta_msg(reports, baseline_cats) -> str:
    """Describe the findings a reversed schedule added over the baseline."""
    msgs = []
    for report in reports:
        for f in report.findings:
            if f.category != "data-race" and f.category not in baseline_cats:
                msgs.append(f"{f.category}: {f.message}")
    return "; ".join(msgs[:3]) if msgs else "baseline findings vanished"


def _extract_pairs(reports) -> List[tuple]:
    """Racing pairs from the vector-clock detector's findings, then the
    dependent pairs it recorded, as ``(address, first, second, sites,
    dependent)``."""
    pairs = []
    for report in reports:
        for f in report.findings:
            if f.category != "data-race":
                continue
            first = f.extra.get("first")
            second = f.extra.get("second")
            if not first or not second:
                continue
            pairs.append((f.address, first, second, tuple(f.sites), False))
        pairs.extend(pair + (True,) for pair in report.dependent)
    return pairs


def _pair_key(address, first: Dict, second: Dict) -> tuple:
    return (
        tuple(address) if address else None,
        (first.get("block"), first.get("tid"), first.get("kind")),
        (second.get("block"), second.get("tid"), second.get("kind")),
    )


def explore_schedules_dpor(
    run: Callable[[Optional[object]], Dict[str, np.ndarray]],
    controller: Optional[LoopController] = None,
    preemption_budget: int = 4,
    fallback_schedules: int = 16,
    fallback_seed: int = 1,
    fallback_horizon: int = 64,
) -> DporResult:
    """Systematic order-dependence search by dynamic partial-order reduction.

    ``run(policy)`` must build a *fresh* device + buffers, launch with
    ``schedule_policy=policy``, and return a dict of named output arrays
    (entries that are plain dicts — e.g. ``kc.extra`` — diff key-wise,
    under the launch-scoped JIT telemetry carve-out).  The baseline runs
    under an empty :class:`DirectedSchedule` (identical to the default
    order).

    Each run executes under the happens-before sanitizer (a process-wide
    report-mode session is installed around the ``run`` callback, and
    restored afterwards).  The race detector's findings and the
    dependent pairs it records for atomics are the dynamic conflict
    graph: every same-round pair yields one backtracking point — a
    :class:`DirectedSchedule` extending the current schedule with the
    directive that reverses exactly that pair.  Directive sets are
    canonical, so schedules that would replay an already-executed
    interleaving of conflicting events are pruned
    (``stats.pruned_equivalent``) rather than run: the explorer executes
    only inequivalent warp-order/commit-order schedules, sequentially,
    since each run's pairs seed the next candidates.

    Directed schedules carry at most ``preemption_budget`` directives;
    candidates beyond the budget are counted in ``stats.pruned_budget``.
    When the conflict graph needs more than the budget allows — budget
    prunes happened, or racing pairs span rounds (cross-round pairs are
    ordered by the lockstep round structure and cannot be reversed by a
    round-local directive; only a control-flow change reached through
    earlier perturbation can move them) — the explorer falls back to
    ``fallback_schedules`` seeded :class:`BoundedPreemptionSchedule`
    runs, each perturbing at most ``preemption_budget`` rounds.

    ``controller`` defaults to ``LoopController(max_runs=64)``: atomic
    dependences make the candidate space grow combinatorially with the
    warps and rounds that share an element, so the default search is
    bounded, and a stable verdict then reads "stable within N runs".

    Every divergence is replayable from ``result.divergent_spec`` alone:
    a directive list (:func:`replay_directed`) or a fallback integer
    seed (``run(BoundedPreemptionSchedule(seed, preemption_budget,
    fallback_horizon))``).
    """
    from repro.gpu import device as _device_mod
    from repro import sanitizer as _san

    controller = controller or LoopController(max_runs=64)
    started = time.monotonic()
    result = DporResult(baseline={})
    stats = result.stats
    report = result.report

    def observed_run(policy):
        """Run under a fresh report-mode session; restore the previous one."""
        prev = _device_mod._GLOBAL_SANITIZER
        sess = _san.SanitizerSession(label="dpor")
        _device_mod.set_global_sanitizer(sess)
        try:
            try:
                return ("ok", run(policy)), sess.reports
            except Exception as err:
                return ("raised", (type(err).__name__, str(err))), sess.reports
        finally:
            _device_mod.set_global_sanitizer(prev)

    executed: Dict[tuple, tuple] = {}
    queued: set = set()
    points_by_key: Dict[tuple, BacktrackPoint] = {}
    seen_pairs: set = set()
    signatures: set = set()
    queue: deque = deque([DirectedSchedule()])
    queued.add(())
    divergent = False

    def record_divergence(spec, point, diffs, error) -> None:
        nonlocal divergent
        divergent = True
        if result.divergent_spec is None:
            result.divergent_spec = spec
            result.divergent_backtrack = point
        label = point.pair_name() if point is not None \
            else "bounded-preemption schedule"
        if error is not None:
            err_type, err_msg = error
            result.errored.append((spec, f"{err_type}: {err_msg}"))
            report.add(Finding(
                category="schedule-divergence",
                message=(
                    f"schedule reversing {label} raised {err_type} while the "
                    f"default schedule completed: {err_msg} — replay "
                    f"deterministically with schedule {spec!r}"
                ),
                extra={"schedule": spec},
            ))
            return
        result.diffs.extend(diffs)
        for d in diffs:
            report.add(Finding(
                category="schedule-divergence",
                message=(
                    "kernel output depends on warp/commit order: reversing "
                    f"{label} changes the result — " + d.describe()
                    + f" — replay deterministically with schedule {spec!r}"
                ),
                address=(d.name, 0),
                extra={"schedule": spec, "max_abs_diff": d.max_abs_diff,
                       **({"pair": point.pair_label()} if point else {})},
            ))

    def ingest_pairs(sched: DirectedSchedule, reports) -> None:
        """Turn a run's racing and dependent pairs into backtracking
        candidates."""
        for address, first, second, sites, dependent in _extract_pairs(reports):
            pkey = _pair_key(address, first, second)
            if pkey not in seen_pairs:
                seen_pairs.add(pkey)
                if dependent:
                    stats.dependent_pairs += 1
                else:
                    stats.racing_pairs += 1
                    if first.get("round") != second.get("round"):
                        stats.cross_round_pairs += 1
            if (first.get("round") != second.get("round")
                    or first.get("block") != second.get("block")
                    or first.get("warp") is None
                    or second.get("warp") is None):
                continue  # not reversible by a round-local directive
            block, rnd = second.get("block"), second.get("round")
            if first["warp"] != second["warp"]:
                directive = ("warp", block, rnd, first["warp"], second["warp"])
            else:
                directive = ("commit", block, rnd, first["warp"])
            if directive in sched.directives:
                continue  # this run already reverses the pair
            stats.candidates += 1
            new = sched.extended(directive)
            if len(new.directives) > preemption_budget:
                stats.pruned_budget += 1
                continue
            if new.key in executed or new.key in queued:
                stats.pruned_equivalent += 1
                continue
            point = BacktrackPoint(
                schedule=new, directive=directive, address=address,
                first=dict(first), second=dict(second), sites=sites,
                dependent=dependent,
            )
            result.backtracks.append(point)
            stats.backtrack_points += 1
            points_by_key[new.key] = point
            queued.add(new.key)
            queue.append(new)

    # -- directed exploration ---------------------------------------------
    baseline_status = None
    baseline_cats: Tuple[str, ...] = ()
    while queue:
        reason = controller.should_stop(stats, started, divergent)
        if reason is not None:
            stats.stop_reason = reason
            break
        sched = queue.popleft()
        queued.discard(sched.key)
        (status, payload), reports = observed_run(sched)
        cats = _nonrace_categories(reports)
        stats.runs += 1
        stats.directed_runs += 1
        sig = _outcome_signature(status, payload if status == "ok" else payload)
        sig = sig + (cats,)
        executed[sched.key] = sig
        signatures.add(sig)
        if stats.runs == 1:
            baseline_status = (status, payload)
            baseline_cats = cats
            if status == "ok":
                result.baseline = payload
            else:
                # The default order itself raises; divergence below means
                # *different* outcomes, so keep the error as baseline.
                result.baseline = {}
        else:
            point = points_by_key.get(sched.key)
            spec = sched.to_spec()
            if status == "raised":
                if baseline_status[0] != "raised" or \
                        tuple(baseline_status[1]) != tuple(payload):
                    record_divergence(spec, point, [], payload)
            elif baseline_status[0] == "ok":
                diffs = _diff_outputs(repr(spec), result.baseline, payload)
                if diffs:
                    record_divergence(spec, point, diffs, None)
                elif cats != baseline_cats:
                    # The report-mode session converts e.g. a deadlock into
                    # findings on a *completed* launch: a finding-set delta
                    # is an outcome divergence even when memory agrees.
                    record_divergence(spec, point, [], (
                        "sanitizer", _finding_delta_msg(reports, baseline_cats)))
            else:
                # Baseline raised but this schedule completed.
                record_divergence(spec, point, [], None)
                report.add(Finding(
                    category="schedule-divergence",
                    message=(
                        "default schedule raises but a reversed schedule "
                        f"completes — replay with schedule {spec!r}"
                    ),
                    extra={"schedule": spec},
                ))
        ingest_pairs(sched, reports)
    else:
        if divergent and controller.stop_on_first_divergence:
            stats.stop_reason = "divergence"

    # -- bounded-preemption fallback ---------------------------------------
    need_fallback = (
        fallback_schedules > 0
        and (stats.pruned_budget > 0 or stats.cross_round_pairs > 0)
        and not (divergent and controller.stop_on_first_divergence)
    )
    if need_fallback and baseline_status is not None \
            and baseline_status[0] == "ok":
        for i in range(fallback_schedules):
            reason = controller.should_stop(stats, started, divergent)
            if reason is not None:
                stats.stop_reason = reason
                break
            seed = fallback_seed + i
            policy = BoundedPreemptionSchedule(
                seed, budget=preemption_budget, horizon=fallback_horizon)
            (status, payload), reports = observed_run(policy)
            cats = _nonrace_categories(reports)
            stats.runs += 1
            stats.fallback_runs += 1
            sig = _outcome_signature(status, payload) + (cats,)
            signatures.add(sig)
            if status == "raised":
                record_divergence(seed, None, [], payload)
            else:
                diffs = _diff_outputs(seed, result.baseline, payload)
                if diffs:
                    record_divergence(seed, None, diffs, None)
                elif cats != baseline_cats:
                    record_divergence(seed, None, [], (
                        "sanitizer", _finding_delta_msg(reports, baseline_cats)))
            ingest_pairs(DirectedSchedule(), reports)
        else:
            if divergent and controller.stop_on_first_divergence:
                stats.stop_reason = "divergence"

    stats.distinct_outcomes = len(signatures)
    stats.wall_seconds = time.monotonic() - started
    for key, value in stats.to_dict().items():
        if isinstance(value, (int, float)):
            report.stats[f"dpor_{key}"] = float(value)
    return result


def replay_directed(
    run: Callable[[Optional[object]], Dict[str, np.ndarray]],
    spec: Sequence[Sequence],
) -> Dict[str, np.ndarray]:
    """Re-run one directed schedule from its directive spec alone."""
    return run(DirectedSchedule.from_spec(spec))
