"""The repository's speed gates: one table, one measurement, one check.

Each row of :data:`GATES` names a gate, the function that builds its two
legs (``bench_substrate.py``, ``bench_serve.py``, ``bench_exec.py``), and
the bound on each score the legs yield.  A bound is a floor, a ceiling,
a band relative to the committed baseline, or an absolute limit together
with a band.

:func:`measure` runs a row as interleaved A/B pairs, alternating which
leg goes first so drift in host load hits both legs alike.  Every pair
passes the row's pair check, which asserts the legs bit-identical and
returns the pair's score ratios plus the deterministic fields (lane
steps, rounds, cycles, page counts) that must not drift.  A row scores
the **median of its per-pair ratios**, reported with its quartiles.
:func:`compare` checks those scores and fields against one baseline
file, ``BENCH_gates.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_gates.py                 # measure
    PYTHONPATH=src python benchmarks/bench_gates.py --check         # gate
    PYTHONPATH=src python benchmarks/bench_gates.py --check --only streaming jit_stencil
    PYTHONPATH=src python benchmarks/bench_gates.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

import bench_exec
import bench_serve
import bench_substrate as sub
from repro.exec.pool import fork_available

#: The committed baseline that ``--check`` compares against.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_gates.json")


@dataclass(frozen=True)
class Bound:
    """The pass region of one score.

    ``higher`` says which way is better.  ``limit`` is an absolute floor
    (higher is better) or ceiling (lower is better); ``band`` is the
    largest relative move from the baseline median in the worse
    direction.  With both, the tighter one binds; with neither, the score
    is recorded, not gated.
    """

    higher: bool = True
    limit: Optional[float] = None
    band: Optional[float] = None

    def threshold(self, base: Optional[float]) -> Optional[float]:
        """The floor (or ceiling) for baseline median ``base``."""
        bars = [] if self.limit is None else [self.limit]
        if self.band is not None:
            bars.append(base * (1.0 - self.band if self.higher
                                else 1.0 + self.band))
        if not bars:
            return None
        return max(bars) if self.higher else min(bars)


@dataclass(frozen=True)
class Gate:
    """One row: ``legs()`` builds the workload once and returns
    ``(leg_a, leg_b, pair)``; each leg returns ``(output, seconds)`` and
    ``pair(a, b)`` returns ``(scores, fields)``."""

    legs: Callable
    bounds: Dict[str, Bound]
    pairs: int = 7
    #: Runs of each leg per pair, interleaved; the fastest run of each
    #: leg stands for it (host interference only ever adds time).
    launches: int = 1


GATES: Dict[str, Gate] = {
    # The fused round loop over its deferred-commit path: within 25% of
    # the baseline median.  A leg is one 15-40 ms launch, short enough
    # that one burst of host load swings a single-launch pair by 2x.
    "streaming": Gate(sub.fused_legs(sub.make_streaming),
                      {"speedup": Bound(band=0.25)}, launches=5),
    "generic_simd": Gate(sub.fused_legs(sub.make_generic_simd),
                         {"speedup": Bound(band=0.25)}, launches=5),
    # The JIT tier over the round loop: within 25% of the baseline and
    # never under 12.0x, the tier's acceptance bar.
    "jit_streaming": Gate(sub.jit_legs(sub.make_jit_streaming),
                          {"jit_speedup": Bound(limit=12.0, band=0.25)},
                          launches=3),
    "jit_stencil": Gate(sub.jit_legs(sub.make_jit_stencil),
                        {"jit_speedup": Bound(limit=12.0, band=0.25)},
                        launches=3),
    # What a report-mode sanitizer session costs on the paper's kernels.
    "sanitized_paper": Gate(sub.sanitized_legs, {
        "sanitized_ratio": Bound(higher=False, limit=2.4)}),
    # O(dirty) restore beats an O(arena) one clearly.  Floor only: the
    # ratio scales with write sparsity, so a band around it would flake.
    "snapshot_rollback": Gate(sub.snapshot_legs, {
        "snapshot_speedup": Bound(limit=5.0)}),
    "serve_batching": Gate(bench_serve.batching_legs, {
        "p99_ratio": Bound(limit=1.1, band=0.30),
        "throughput_ratio": Bound(limit=0.6, band=0.30)}),
    # A leg's p99 over 128 launches is nearly its maximum, so its pair
    # ratios spread wide; this row needs the pairs to resolve 1.15.
    "serve_journal": Gate(bench_serve.journal_legs, {
        "journal_p99_ratio": Bound(higher=False, limit=1.15, band=0.30)},
        pairs=31),
    # The inert fault plan's hooks cost under 2%.  Its cost is O(1) per
    # launch, far under the host's run-to-run noise, so this row needs
    # more pairs and interleaved launches per leg to resolve 2%.
    "faults_off": Gate(bench_exec.faults_off_legs, {
        "overhead_pct": Bound(higher=False, limit=2.0)},
        pairs=21, launches=5),
}
if fork_available():
    GATES["warm_pool"] = Gate(bench_serve.warm_pool_legs,
                              {"pool_throughput_ratio": Bound()})
    # Speedup needs real CPUs: the 2x floor applies from 4 of them.
    GATES["parallel"] = Gate(bench_exec.parallel_legs, {"speedup": Bound(
        limit=2.0 if (os.cpu_count() or 1) >= 4 else None)})


def measure(gate: Gate) -> dict:
    """Run ``gate`` as interleaved pairs; its scores' median and IQR.

    One untimed warm-up pair (still checked) keeps first-call costs —
    imports, trace caches, allocator growth — out of the scores.
    """
    *legs, pair = gate.legs()
    pair(legs[0](), legs[1]())
    runs: Dict[str, list] = {}
    fields = None
    for i in range(gate.pairs):
        best = [None, None]
        for _ in range(gate.launches):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                sample = legs[side]()
                if best[side] is None or sample[1] < best[side][1]:
                    best[side] = sample
        scores, got = pair(*best)
        assert fields is None or got == fields, (
            f"deterministic fields moved between pairs: {fields} -> {got}"
        )
        fields = got
        for key, value in scores.items():
            runs.setdefault(key, []).append(float(value))
    summary = {}
    for key, values in runs.items():
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        summary[key] = {"median": float(med),
                        "quartiles": [float(q1), float(q3)],
                        "runs": [round(v, 4) for v in values]}
    return {"pairs": gate.pairs, "launches": gate.launches,
            "scores": summary, "fields": fields}


def compare(measured: dict, baseline: dict, names) -> list:
    """Failure messages for gates ``names``: a score outside its bound, a
    drifted field, or a row missing from ``measured`` or ``baseline``
    (both map gate name to a :func:`measure` result)."""
    failures = []
    for name in names:
        got, base = measured.get(name), baseline.get(name)
        if got is None or "error" in got:
            why = got["error"] if got else "not measured"
            failures.append(f"{name}: workload missing ({why})")
            continue
        if base is None:
            failures.append(f"{name}: no baseline")
            continue
        for key, bound in GATES[name].bounds.items():
            score = got["scores"][key]["median"]
            base_score = base["scores"].get(key, {}).get("median")
            if bound.band is not None and base_score is None:
                failures.append(f"{name}: no baseline for {key}")
                continue
            bar = bound.threshold(base_score)
            if bar is None:
                continue
            if score < bar if bound.higher else score > bar:
                kind = "floor" if bound.higher else "ceiling"
                failures.append(f"{name}: {key} {score:.3f} outside its "
                                f"{kind} {bar:.3f}")
        if got["fields"] != base["fields"]:
            failures.append(f"{name}: deterministic fields changed "
                            f"{base['fields']} -> {got['fields']} (update "
                            "the baseline deliberately if intended)")
    return failures


def _report(name: str, result: dict, baseline: dict) -> None:
    if "error" in result:
        print(f"GATE {name}: ERROR {result['error']}")
        return
    base = baseline.get(name, {}).get("scores", {})
    for key, bound in GATES[name].bounds.items():
        s = result["scores"][key]
        q1, q3 = s["quartiles"]
        bar = bound.threshold(base.get(key, {}).get("median", np.nan))
        rule = ("recorded" if bar is None
                else f"{'>=' if bound.higher else '<='} {bar:.3f}")
        print(f"GATE {name}: {key} median {s['median']:.3f} "
              f"[IQR {q1:.3f}-{q3:.3f}, {result['pairs']} pairs] {rule}",
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", action="extend", metavar="GATE",
                    choices=list(GATES),
                    help="measure (and check) only the named gates")
    ap.add_argument("--check", action="store_true",
                    help=f"compare against {BASELINE_PATH}")
    ap.add_argument("--write-baseline", action="store_true",
                    help=f"update {BASELINE_PATH} from this run")
    ap.add_argument("--json", metavar="PATH",
                    help="write the measured results to PATH")
    args = ap.parse_args(argv)

    baseline = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)["gates"]
    names = args.only or list(GATES)
    measured = {}
    for name in names:
        try:
            measured[name] = measure(GATES[name])
        except Exception as err:  # a failed pair check fails the row
            measured[name] = {"error": f"{type(err).__name__}: {err}"}
        _report(name, measured[name], baseline)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"gates": measured}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.write_baseline:
        baseline.update((k, v) for k, v in measured.items()
                        if "error" not in v)
        with open(BASELINE_PATH, "w") as fh:
            json.dump({"gates": baseline}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"GATE baseline written to {BASELINE_PATH}")
    if args.check:
        failures = compare(measured, baseline, names)
        for msg in failures:
            print(f"GATE FAIL {msg}")
        if not failures:
            print(f"GATE OK: {len(names)} gates")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
