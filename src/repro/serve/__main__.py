"""CLI: boot the launch service, optionally drive it with load.

Modes::

    python -m repro.serve                     # serve the demo catalog on TCP
    python -m repro.serve --port 9000 --pool 4
    python -m repro.serve --journal /var/tmp/serve.wal   # durable serve
    python -m repro.serve --selftest          # boot + TCP loadgen + verify,
                                              # print metrics JSON, exit
    python -m repro.serve --selftest --faults 42:worker.crash=0.3
    python -m repro.serve chaos --cycles 25 --seed 2023  # kill/restart
                                              # campaign (see serve/chaos.py)

``--pool N`` makes the service's executor a
:class:`~repro.serve.lease.PoolLease`, a persistent warm worker pool
(N forked workers), so block execution survives across launches with
zero fork-per-launch; without it, batches run on the in-process serial
executor.  ``--faults`` takes the ``REPRO_FAULTS`` grammar and wires
the plan into the pool (``worker.crash``/``worker.hang``), admission
(``serve.reject``), and the serve-layer durability sites
(``serve.conn_drop``, ``serve.dispatch_stall``, ``journal.torn_write``,
``lease.corrupt``) — the selftest must still return verified-correct
results, which is exactly what the CI fault leg asserts.

``--journal PATH`` makes acknowledged requests durable: the write-ahead
journal is replayed at boot (completed keys answer resubmits without
re-execution; admitted-but-unfinished requests are re-executed), and
SIGTERM triggers a graceful drain — new submissions get
``Backpressure(reason="draining")``, in-flight requests finish, the
journal is flushed, then the process exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.faults import coerce_faults
from repro.gpu.device import Device
from repro.serve.demo import demo_catalog
from repro.serve.lease import PoolLease
from repro.serve.loadgen import drive_tcp
from repro.serve.scheduler import FairScheduler
from repro.serve.server import LaunchService


def build_service(args) -> LaunchService:
    """Wire device, catalog, scheduler, and executor (the warm pool
    under ``--pool``)."""
    device = Device()
    catalog = demo_catalog()
    faults = coerce_faults(args.faults) if args.faults else None
    executor = None
    if args.pool:
        executor = PoolLease(catalog, device.params, workers=args.pool,
                             faults=faults)
    scheduler = FairScheduler(max_queue=args.max_queue, faults=faults)
    return LaunchService(
        device, catalog,
        scheduler=scheduler,
        executor=executor,
        engine=args.engine,
        faults=faults,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
    )


async def _serve(args) -> int:
    service = build_service(args)
    state = None
    if getattr(args, "journal", None):
        state = service.load_journal(args.journal)
    server = await service.serve_tcp(args.host, args.port)
    addr = server.sockets[0].getsockname()
    print(f"repro.serve listening on {addr[0]}:{addr[1]} "
          f"(kernels: {', '.join(service.catalog.names())})", flush=True)
    if state is not None:
        recovered = await service.recover(state)
        print(f"journal: {len(state.done)} durable results replayed, "
              f"{recovered} unfinished re-executed, "
              f"{state.torn_records} torn records skipped", flush=True)
    loop = asyncio.get_running_loop()
    drain_requested = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
    except NotImplementedError:  # pragma: no cover - non-POSIX loops
        pass
    serve_task = asyncio.ensure_future(server.serve_forever())
    drain_task = asyncio.ensure_future(drain_requested.wait())
    try:
        await asyncio.wait({serve_task, drain_task},
                           return_when=asyncio.FIRST_COMPLETED)
        if drain_requested.is_set():
            print("SIGTERM: draining...", flush=True)
            service.begin_drain()
            await service.drain()
            print("drained; shutting down", flush=True)
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serve_task, drain_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        await service.stop()
        if service.journal is not None:
            service.journal.close()
        if isinstance(service.executor, PoolLease):
            service.executor.close()
    return 0


async def _selftest(args) -> int:
    service = build_service(args)
    server = await service.serve_tcp(args.host, 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        metrics = await drive_tcp(
            host, port,
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
        )
    finally:
        await service.stop()
        lease = service.executor
        if isinstance(lease, PoolLease):
            metrics["pool_warm_dispatches"] = float(
                lease.stats.get("warm_dispatches", 0))
            metrics["pool_worker_deaths"] = float(
                lease.stats.get("worker_deaths", 0))
            lease.close()
    metrics["batches"] = float(service.stats["batches"])
    metrics["batched_requests"] = float(service.stats["batched_requests"])
    metrics["max_batch_size"] = float(service.stats["max_batch_size"])
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if metrics["errors"]:
        print(f"selftest FAILED: {int(metrics['errors'])} errors",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="async launch-stream service over the simulated GPU",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8473)
    parser.add_argument("--pool", type=int, default=0, metavar="N",
                        help="run batches on a warm worker pool with N "
                             "forked workers")
    parser.add_argument("--engine", default=None,
                        help="round engine for batches (fast/jit)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault plan, REPRO_FAULTS grammar "
                             "(e.g. 42:worker.crash=0.3)")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-queue", type=int, default=2048)
    parser.add_argument("--max-inflight", type=int, default=4096)
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="write-ahead request journal (replayed at boot; "
                             "SIGTERM drains gracefully)")
    parser.add_argument("--selftest", action="store_true",
                        help="boot, drive TCP load, verify outputs, exit")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.selftest:
        return asyncio.run(_selftest(args))
    return asyncio.run(_serve(args))


def _dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "chaos":
        from repro.serve.chaos import main as chaos_main
        return chaos_main(argv[1:])
    return main(argv)


if __name__ == "__main__":
    sys.exit(_dispatch())
