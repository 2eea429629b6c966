"""Load generator: drive the serve tier, measure, and verify.

Two transports, one workload model: ``drive_service`` submits straight
into an in-process :class:`~repro.serve.server.LaunchService` (what the
tests and the serve gate legs use), ``drive_tcp`` opens real sockets
against a running server (what ``python -m repro.serve --selftest``
uses).  Each simulated client is
an asyncio task that issues requests back-to-back on its own stream —
so per-stream ordering is continuously exercised — retrying typed
backpressure rejects after the server's ``retry_after`` hint.

Every response is checked against the NumPy oracle in
:data:`repro.serve.demo.REFERENCE`; a single wrong element fails the
run.  The returned metrics dict (latency percentiles, launches/sec,
reject/retry counts) is what a serve leg of ``benchmarks/bench_serve.py``
returns; ``benchmarks/bench_gates.py`` gates ratios of those legs.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional

import numpy as np

from repro.serve.demo import DEMO_N, REFERENCE
from repro.serve.scheduler import Backpressure

__all__ = ["drive_service", "drive_tcp", "percentile"]

#: Cap on backpressure retries before a request counts as failed.
MAX_RETRIES = 50


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` (0.0 if empty)."""
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


def _make_request(rng: np.random.Generator, client: int, seq: int,
                  *, seed: int = 0, keyed: bool = False) -> dict:
    kernel = ("axpy", "square", "scale_sum")[seq % 3]
    args = {"x": rng.standard_normal(DEMO_N)}
    if kernel == "axpy":
        args["y"] = rng.standard_normal(DEMO_N)
    elif kernel == "square":
        args["y"] = np.zeros(DEMO_N)
    else:
        args["y"] = np.zeros(DEMO_N)
        args["acc"] = np.zeros(1)
    spec = {
        "kernel": kernel,
        "args": args,
        "num_teams": 1 + (seq % 3),
        "team_size": 64,
        "out": sorted(args),
        "tenant": f"tenant-{client % 4}",
        "stream": f"client-{client}",
    }
    if keyed:
        spec["key"] = f"s{seed}-c{client}-r{seq}"
    return spec


def _verify(kernel: str, args: Dict[str, np.ndarray],
            outputs: Dict[str, np.ndarray]) -> None:
    expected = REFERENCE[kernel](args)
    for name, want in expected.items():
        got = np.asarray(outputs[name])
        if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
            raise AssertionError(
                f"{kernel}: output {name!r} mismatch "
                f"(max |err| {np.max(np.abs(got - want))})"
            )


def _metrics(latencies: List[float], wall: float, rejects: int,
             retries: int, errors: int) -> Dict[str, float]:
    n = len(latencies)
    return {
        "launches": float(n),
        "wall_s": wall,
        "launches_per_s": n / wall if wall > 0 else 0.0,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "max_ms": (max(latencies) * 1e3) if latencies else 0.0,
        "rejects": float(rejects),
        "retries": float(retries),
        "errors": float(errors),
    }


async def drive_service(
    service,
    *,
    clients: int = 32,
    requests_per_client: int = 8,
    seed: int = 0,
    verify: bool = True,
    keyed: bool = False,
) -> Dict[str, float]:
    """Drive an in-process service with concurrent stream clients.

    ``keyed=True`` stamps every request with a deterministic idempotency
    key (``s<seed>-c<client>-r<seq>``) so journaled services exercise
    the durability path under plain load.
    """
    latencies: List[float] = []
    counters = {"rejects": 0, "retries": 0, "errors": 0}
    from repro.serve.server import LaunchRequest

    async def client(cid: int) -> None:
        rng = np.random.default_rng(seed * 10007 + cid)
        for seq in range(requests_per_client):
            spec = _make_request(rng, cid, seq, seed=seed, keyed=keyed)
            args = spec.pop("args")
            request = LaunchRequest(args={k: v.copy() for k, v in args.items()},
                                    **spec)
            start = time.monotonic()
            for _ in range(MAX_RETRIES):
                try:
                    outcome = await service.submit(request)
                    break
                except Backpressure as bp:
                    counters["rejects"] += 1
                    counters["retries"] += 1
                    await asyncio.sleep(bp.retry_after)
            else:
                counters["errors"] += 1
                continue
            latencies.append(time.monotonic() - start)
            if outcome.error is not None:
                counters["errors"] += 1
            elif verify:
                _verify(spec["kernel"], args, outcome.outputs)

    start = time.monotonic()
    await asyncio.gather(*(client(c) for c in range(clients)))
    wall = time.monotonic() - start
    return _metrics(latencies, wall, counters["rejects"],
                    counters["retries"], counters["errors"])


async def drive_tcp(
    host: str,
    port: int,
    *,
    clients: int = 16,
    requests_per_client: int = 8,
    seed: int = 0,
    verify: bool = True,
    keyed: bool = False,
) -> Dict[str, float]:
    """Drive a TCP server: one connection + one stream per client.

    With ``keyed=True`` every request carries a deterministic
    idempotency key and a dropped connection (injected
    ``serve.conn_drop`` or a restart) is handled by reconnecting and
    resubmitting the same key — the journal answers the resubmit
    without re-executing.
    """
    latencies: List[float] = []
    counters = {"rejects": 0, "retries": 0, "errors": 0}

    async def client(cid: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        rng = np.random.default_rng(seed * 10007 + cid)
        try:
            for seq in range(requests_per_client):
                spec = _make_request(rng, cid, seq, seed=seed, keyed=keyed)
                args = spec.pop("args")
                msg = dict(spec)
                msg["id"] = seq
                msg["args"] = {k: v.tolist() for k, v in args.items()}
                start = time.monotonic()
                reply: Optional[dict] = None
                for _ in range(MAX_RETRIES):
                    try:
                        writer.write(json.dumps(msg).encode() + b"\n")
                        await writer.drain()
                        raw = await reader.readline()
                    except (ConnectionError, OSError):
                        raw = b""
                    if not raw:
                        # Connection dropped mid-request: reconnect and
                        # resubmit.  Only safe for keyed requests, which
                        # the journal deduplicates.
                        reply = None
                        counters["retries"] += 1
                        try:
                            writer.close()
                        except Exception:
                            pass
                        await asyncio.sleep(0.05)
                        try:
                            reader, writer = await asyncio.open_connection(
                                host, port)
                        except OSError:
                            pass
                        continue
                    reply = json.loads(raw)
                    if "backpressure" in reply:
                        counters["rejects"] += 1
                        counters["retries"] += 1
                        await asyncio.sleep(
                            reply["backpressure"].get("retry_after", 0.05)
                        )
                        continue
                    break
                if reply is None or "backpressure" in reply:
                    counters["errors"] += 1
                    continue
                latencies.append(time.monotonic() - start)
                if not reply.get("ok"):
                    counters["errors"] += 1
                elif verify:
                    _verify(spec["kernel"], args, reply["outputs"])
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    start = time.monotonic()
    await asyncio.gather(*(client(c) for c in range(clients)))
    wall = time.monotonic() - start
    return _metrics(latencies, wall, counters["rejects"],
                    counters["retries"], counters["errors"])
