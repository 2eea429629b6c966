"""Serve-tier benchmark: sustained concurrent load through the service.

Drives :class:`repro.serve.server.LaunchService` with the standard
loadgen workload (concurrent stream clients, mixed demo kernels, every
response verified against the NumPy oracle) and records
launches/second plus p50/p99 latency for three legs:

* ``unbatched`` — ``max_batch=1``: every request is its own grid (the
  pre-serve dispatch model, the comparison baseline);
* ``batched`` — coalescing up to 32 compatible requests into one
  merged grid per dispatch;
* ``warm_pool`` — batched dispatch through a persistent forked
  :class:`~repro.serve.lease.PoolLease` (skipped where fork is
  unavailable; recorded, not gated);
* ``journal`` — batched dispatch with the write-ahead request journal
  attached (keyed requests, fsync'd group commit to a temporary WAL):
  durability must ride the group-commit path, not the latency ladder.

The **gates** (``--check``, run by the CI ``serve-smoke`` job) follow
the repo's perf-gate philosophy (see ``bench_substrate.py``): absolute
throughput is machine-dependent and only recorded, while the gated
scores are machine-relative ratios measured from interleaved runs in
one process:

* ``p99_ratio`` = unbatched p99 / batched p99 — batching exists to
  absorb bursts, so it must keep cutting tail latency (hard floor
  :data:`P99_RATIO_FLOOR` plus baseline tolerance);
* ``throughput_ratio`` = batched / unbatched launches per second —
  coalescing must not tax sustained throughput (hard floor
  :data:`THROUGHPUT_RATIO_FLOOR`);
* ``journal_p99_ratio`` = journal-on p99 / journal-off p99 — one group
  fsync per dispatch must keep the durability tax under
  :data:`JOURNAL_P99_CEIL` (lower is better for this ratio);
* every leg must complete all launches with **zero** verification
  errors — a perf number from wrong answers is meaningless;
* the warm-pool leg must show zero worker respawns (the pool really
  stayed warm) and at least one warm dispatch per batch.

Run standalone (prints BENCH lines, writes/checks ``BENCH_serve.json``)::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --check
    PYTHONPATH=src python benchmarks/bench_serve.py --write-baseline
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile

from repro.exec.pool import fork_available
from repro.gpu.device import Device
from repro.serve.demo import demo_catalog
from repro.serve.lease import PoolLease
from repro.serve.loadgen import drive_service
from repro.serve.scheduler import FairScheduler
from repro.serve.server import LaunchService

#: Committed baseline that ``--check`` compares against.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_serve.json")

#: Relative tolerance on the gated ratios vs the committed baseline.
TOLERANCE_PCT = 30

#: Hard floors, enforced by ``--check`` regardless of the baseline.
P99_RATIO_FLOOR = 1.1
THROUGHPUT_RATIO_FLOOR = 0.6

#: Hard ceiling on the durability tax: journal-on p99 must stay within
#: 15% of journal-off p99 (group commit, one fsync per dispatch group).
JOURNAL_P99_CEIL = 1.15

#: Interleaved (unbatched, batched) measurement pairs; score is best-of.
DEFAULT_REPS = 3

#: The workload every leg runs: concurrent stream clients with mixed
#: kernels, verified responses.
CLIENTS = 32
REQUESTS_PER_CLIENT = 4
SEED = 9


async def _run_leg(*, max_batch, executor=None, journal_path=None):
    service = LaunchService(
        Device(), demo_catalog(),
        scheduler=FairScheduler(max_queue=4096),
        executor=executor,
        max_batch=max_batch,
        max_inflight=4096,
    )
    if journal_path is not None:
        service.load_journal(journal_path)
    async with service:
        metrics = await drive_service(
            service,
            clients=CLIENTS,
            requests_per_client=REQUESTS_PER_CLIENT,
            seed=SEED,
            keyed=journal_path is not None,
        )
    metrics["batches"] = float(service.stats["batches"])
    metrics["max_batch_size"] = float(service.stats["max_batch_size"])
    if service.journal is not None:
        metrics["journal_appends"] = float(service.journal.stats["appends"])
        metrics["journal_commits"] = float(service.journal.stats["commits"])
        service.journal.close()
    return metrics


def _leg(max_batch, executor=None, journal_path=None):
    return asyncio.run(_run_leg(max_batch=max_batch, executor=executor,
                                journal_path=journal_path))


def measure(reps: int = DEFAULT_REPS) -> dict:
    expected = float(CLIENTS * REQUESTS_PER_CLIENT)
    best = None
    journal_best = None
    for _ in range(reps):
        unbatched = _leg(1)
        batched = _leg(32)
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
            journal = _leg(32, journal_path=os.path.join(tmp, "wal"))
        for leg in (unbatched, batched, journal):
            if leg["errors"] or leg["launches"] != expected:
                raise SystemExit(
                    f"benchmark leg failed: {leg['errors']} errors, "
                    f"{leg['launches']}/{expected} launches"
                )
        p99_ratio = unbatched["p99_ms"] / max(batched["p99_ms"], 1e-9)
        tp_ratio = (batched["launches_per_s"]
                    / max(unbatched["launches_per_s"], 1e-9))
        journal_ratio = journal["p99_ms"] / max(batched["p99_ms"], 1e-9)
        if journal_best is None or journal_ratio < journal_best["ratio"]:
            journal_best = {"ratio": journal_ratio, "leg": journal}
        if best is None or p99_ratio > best["p99_ratio"]:
            best = {
                "p99_ratio": p99_ratio,
                "throughput_ratio": tp_ratio,
                "unbatched": unbatched,
                "batched": batched,
            }
        else:
            best["throughput_ratio"] = max(best["throughput_ratio"],
                                           tp_ratio)

    result = {
        "schema": 1,
        "metric": "launches_per_second",
        "tolerance_pct": TOLERANCE_PCT,
        "p99_ratio_floor": P99_RATIO_FLOOR,
        "throughput_ratio_floor": THROUGHPUT_RATIO_FLOOR,
        "journal_p99_ceil": JOURNAL_P99_CEIL,
        "workload": {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "seed": SEED,
        },
        "gates": {
            "p99_ratio": best["p99_ratio"],
            "throughput_ratio": best["throughput_ratio"],
            "journal_p99_ratio": journal_best["ratio"],
        },
        "legs": {
            "unbatched": best["unbatched"],
            "batched": best["batched"],
            "journal": journal_best["leg"],
        },
    }

    if fork_available():
        lease = PoolLease(demo_catalog(), Device().params, workers=2)
        try:
            pool_leg = asyncio.run(_run_leg(max_batch=32, executor=lease))
            pool_leg["worker_respawns"] = float(
                lease.stats["worker_respawns"])
            pool_leg["warm_dispatches"] = float(
                lease.stats["warm_dispatches"])
        finally:
            lease.close()
        if pool_leg["errors"]:
            raise SystemExit("warm-pool leg returned errors")
        result["legs"]["warm_pool"] = pool_leg
    return result


def _print_bench(result: dict) -> None:
    for name, leg in sorted(result["legs"].items()):
        print(f"BENCH serve.{name}: {leg['launches_per_s']:.1f} launches/s "
              f"p50={leg['p50_ms']:.1f}ms p99={leg['p99_ms']:.1f}ms "
              f"errors={int(leg['errors'])}")
    g = result["gates"]
    print(f"BENCH serve.gates: p99_ratio={g['p99_ratio']:.2f} "
          f"throughput_ratio={g['throughput_ratio']:.2f} "
          f"journal_p99_ratio={g['journal_p99_ratio']:.2f}")


def check_against_baseline(result: dict, baseline_path: str) -> int:
    failures = []
    g = result["gates"]
    if g["p99_ratio"] < P99_RATIO_FLOOR:
        failures.append(
            f"p99_ratio {g['p99_ratio']:.2f} below hard floor "
            f"{P99_RATIO_FLOOR} — batching no longer cuts tail latency")
    if g["throughput_ratio"] < THROUGHPUT_RATIO_FLOOR:
        failures.append(
            f"throughput_ratio {g['throughput_ratio']:.2f} below hard "
            f"floor {THROUGHPUT_RATIO_FLOOR} — coalescing is taxing "
            f"sustained throughput")
    if g["journal_p99_ratio"] > JOURNAL_P99_CEIL:
        failures.append(
            f"journal_p99_ratio {g['journal_p99_ratio']:.2f} above hard "
            f"ceiling {JOURNAL_P99_CEIL} — the WAL is on the latency "
            f"ladder instead of riding group commit")
    journal_leg = result["legs"]["journal"]
    if journal_leg["journal_commits"] > journal_leg["batches"] + 1:
        failures.append(
            "journal leg committed more often than it dispatched — "
            "group commit is not grouping")
    pool = result["legs"].get("warm_pool")
    if pool is not None:
        if pool["worker_respawns"]:
            failures.append(
                f"warm-pool leg respawned {int(pool['worker_respawns'])} "
                f"workers with no faults injected — pool is not staying "
                f"warm")
        if pool["warm_dispatches"] < pool["batches"]:
            failures.append(
                "warm-pool leg dispatched fewer warm batches than the "
                "service ran — batches are bypassing the pool")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        tol = baseline.get("tolerance_pct", TOLERANCE_PCT) / 100.0
        for key in ("p99_ratio", "throughput_ratio"):
            base = baseline.get("gates", {}).get(key)
            if base is None:
                continue
            if g[key] < base * (1.0 - tol):
                failures.append(
                    f"{key} {g[key]:.2f} regressed more than {tol:.0%} "
                    f"below baseline {base:.2f}")
        base = baseline.get("gates", {}).get("journal_p99_ratio")
        if base is not None and g["journal_p99_ratio"] > base * (1.0 + tol):
            # Lower is better for the durability tax.
            failures.append(
                f"journal_p99_ratio {g['journal_p99_ratio']:.2f} regressed "
                f"more than {tol:.0%} above baseline {base:.2f}")
    else:
        failures.append(f"no baseline at {baseline_path} "
                        f"(run --write-baseline first)")
    for msg in failures:
        print(f"GATE FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("serve gates: OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail if gates regress vs the committed baseline")
    ap.add_argument("--write-baseline", action="store_true",
                    help=f"rewrite {BASELINE_PATH}")
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS)
    args = ap.parse_args(argv)

    result = measure(reps=args.reps)
    _print_bench(result)
    if args.write_baseline:
        with open(BASELINE_PATH, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if args.check:
        return check_against_baseline(result, BASELINE_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
