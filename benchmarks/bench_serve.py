"""Serve-tier gate legs: sustained concurrent load through the service.

Drives :class:`repro.serve.server.LaunchService` with the standard
loadgen workload (concurrent stream clients, mixed demo kernels, every
response verified against the NumPy oracle).  A leg is one service run
and returns its metrics — launches/second plus p50/p99 latency:

* ``unbatched`` — ``max_batch=1``: every request is its own grid (the
  pre-serve dispatch model, the comparison baseline);
* ``batched`` — coalescing up to 32 compatible requests into one
  merged grid per dispatch;
* ``journal`` — batched dispatch with the write-ahead request journal
  attached (keyed requests, fsync'd group commit to a temporary WAL);
* ``warm_pool`` — batched dispatch through a persistent forked
  :class:`~repro.serve.lease.PoolLease`.

``benchmarks/bench_gates.py`` measures three gates from them, as
machine-relative ratios of legs run in interleaved pairs:

* ``serve_batching`` — ``p99_ratio`` (unbatched p99 / batched p99:
  batching exists to absorb bursts, so it must keep cutting tail
  latency) and ``throughput_ratio`` (batched / unbatched launches per
  second: coalescing must not tax sustained throughput);
* ``serve_journal`` — ``journal_p99_ratio`` (journal-on p99 /
  journal-off p99: one group fsync per dispatch must keep the
  durability tax low), and every journal leg commits at most once per
  batch, plus one;
* ``warm_pool`` — the pool leg shows zero worker respawns (the pool
  really stayed warm) and at least one warm dispatch per batch; its
  throughput ratio over the in-process batched leg is recorded.

Every leg must complete all launches with **zero** verification errors —
a perf number from wrong answers is meaningless.
"""

from __future__ import annotations

import asyncio
import os
import tempfile

from repro.gpu.device import Device
from repro.serve.demo import demo_catalog
from repro.serve.lease import PoolLease
from repro.serve.loadgen import drive_service
from repro.serve.scheduler import FairScheduler
from repro.serve.server import LaunchService

#: The workload every leg runs: concurrent stream clients with mixed
#: kernels, verified responses.
CLIENTS = 32
REQUESTS_PER_CLIENT = 4
SEED = 9
LAUNCHES = CLIENTS * REQUESTS_PER_CLIENT


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
    if service.journal is not None:
        metrics["journal_commits"] = float(service.journal.stats["commits"])
        service.journal.close()
    return metrics


def run_leg(max_batch, executor=None, journal=False):
    """One verified service run; returns ``(metrics, wall seconds)``."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        path = os.path.join(tmp, "wal") if journal else None
        m = asyncio.run(_run_leg(max_batch=max_batch, executor=executor,
                                 journal_path=path))
    assert not m["errors"] and m["launches"] == LAUNCHES, (
        f"serve leg failed: {m['errors']:.0f} errors, "
        f"{m['launches']:.0f}/{LAUNCHES} launches"
    )
    return m, m["wall_s"]


def batching_legs():
    """Legs of the ``serve_batching`` gate: unbatched (A), batched (B)."""

    def pair(unbatched, batched):
        (a, _), (b, _) = unbatched, batched
        return {
            "p99_ratio": a["p99_ms"] / max(b["p99_ms"], 1e-9),
            "throughput_ratio": b["launches_per_s"]
            / max(a["launches_per_s"], 1e-9),
        }, {"launches": LAUNCHES}

    return lambda: run_leg(1), lambda: run_leg(32), pair


def journal_legs():
    """Legs of the ``serve_journal`` gate: batched without (A) and with
    (B) the write-ahead journal."""

    def pair(plain, journal):
        (a, _), (b, _) = plain, journal
        assert b["journal_commits"] <= b["batches"] + 1, (
            "journal leg committed more often than it dispatched — group "
            "commit is not grouping"
        )
        return ({"journal_p99_ratio": b["p99_ms"] / max(a["p99_ms"], 1e-9)},
                {"launches": LAUNCHES})

    return lambda: run_leg(32), lambda: run_leg(32, journal=True), pair


def _warm_pool_leg():
    lease = PoolLease(demo_catalog(), Device().params, workers=2)
    try:
        m, wall = run_leg(32, executor=lease)
        respawns = lease.stats["worker_respawns"]
        warm = lease.stats["warm_dispatches"]
    finally:
        lease.close()
    assert not respawns, (
        f"warm-pool leg respawned {respawns} workers with no faults "
        "injected — the pool is not staying warm"
    )
    assert warm >= m["batches"], (
        "warm-pool leg dispatched fewer warm batches than the service ran "
        "— batches are bypassing the pool"
    )
    return m, wall


def warm_pool_legs():
    """Legs of the ``warm_pool`` gate: batched in process (A) and through
    a warm forked pool (B)."""

    def pair(local, pool):
        (a, _), (b, _) = local, pool
        return ({"pool_throughput_ratio": b["launches_per_s"]
                 / max(a["launches_per_s"], 1e-9)},
                {"launches": LAUNCHES})

    return lambda: run_leg(32), _warm_pool_leg, pair
