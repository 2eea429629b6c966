"""LaunchService: concurrency, ordering, backpressure, fault legs, TCP.

The headline assertions match the subsystem's acceptance bar: the
service absorbs hundreds of concurrent in-flight requests with
verified-correct (bit-identical-to-solo) responses, same-stream
requests complete in submission order, admission rejects surface as
typed :class:`Backpressure` rather than unbounded queueing, and a
fault-injected warm pool (``worker.crash``) still returns correct
results for every request.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, coerce_faults
from repro.gpu.device import Device
from repro.serve import Backpressure, FairScheduler, LaunchService, PoolLease
from repro.serve.demo import REFERENCE
from repro.serve.lease import PoolLease as _PoolLease  # noqa: F401 (re-export)
from repro.serve.loadgen import drive_service, drive_tcp
from repro.serve.server import LaunchRequest
from repro.exec.pool import fork_available

from serve_helpers import make_args

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _service(**kw):
    kw.setdefault("scheduler", FairScheduler(max_queue=kw.pop("max_queue", 4096)))
    return LaunchService(Device(), kw.pop("catalog"), **kw)


def _request(kernel, args, *, num_teams=2, tenant="default", stream=None):
    return LaunchRequest(kernel=kernel,
                         args={k: v.copy() for k, v in args.items()},
                         num_teams=num_teams, team_size=64,
                         tenant=tenant, stream=stream)


class TestConcurrency:
    def test_500_concurrent_inflight_verified(self, catalog):
        """500 concurrent clients, every response verified against the
        NumPy oracle, zero errors, batching actually engaged."""

        async def main():
            service = _service(catalog=catalog, max_inflight=4096,
                               max_batch=32)
            async with service:
                metrics = await drive_service(
                    service, clients=500, requests_per_client=1, seed=7)
            return metrics, dict(service.stats)

        metrics, stats = asyncio.run(main())
        assert metrics["errors"] == 0
        assert metrics["launches"] == 500
        assert stats["max_batch_size"] > 1, "batching never engaged"
        assert stats["batched_requests"] == 500

    def test_responses_bit_identical_to_solo(self, catalog):
        """Responses must match a solo launch exactly, not just the
        oracle to tolerance (the batching bit-identity contract,
        end-to-end through the service)."""
        from repro import omp

        rng = np.random.default_rng(3)
        specs = [(k, make_args(k, rng), 1 + i % 3) for i, k in
                 enumerate(("axpy", "square", "scale_sum", "axpy"))]

        async def main():
            service = _service(catalog=catalog)
            async with service:
                return await asyncio.gather(*(
                    service.submit(_request(k, a, num_teams=nt))
                    for k, a, nt in specs))

        outcomes = asyncio.run(main())
        for (kernel, args, nt), out in zip(specs, outcomes):
            assert out.error is None
            dev = Device()
            bufs = {n: dev.from_array(n, v.copy()) for n, v in args.items()}
            omp.launch(dev, catalog.get(kernel), num_teams=nt,
                       team_size=64, args=bufs)
            for name in args:
                assert np.array_equal(bufs[name].to_numpy(),
                                      out.outputs[name]), (kernel, name)


class TestStreamOrdering:
    def test_same_stream_completes_in_submission_order(self, catalog):
        rng = np.random.default_rng(9)
        completion = []

        async def main():
            service = _service(catalog=catalog, max_batch=8)

            async def one(i):
                args = make_args("axpy", rng)
                out = await service.submit(
                    _request("axpy", args, num_teams=1, stream="s0"))
                completion.append(i)
                assert out.error is None

            async with service:
                await asyncio.gather(*(one(i) for i in range(12)))

        asyncio.run(main())
        assert completion == list(range(12))

    def test_same_stream_never_shares_a_batch(self, catalog):
        rng = np.random.default_rng(10)

        async def main():
            service = _service(catalog=catalog, max_batch=32)
            async with service:
                await asyncio.gather(*(
                    service.submit(_request(
                        "axpy", make_args("axpy", rng),
                        num_teams=1, stream="solo-stream"))
                    for _ in range(6)))
            return dict(service.stats)

        stats = asyncio.run(main())
        # Six requests on one stream -> six single-request batches.
        assert stats["batches"] == 6
        assert stats["max_batch_size"] == 1

    def test_independent_streams_do_batch(self, catalog):
        rng = np.random.default_rng(11)

        async def main():
            service = _service(catalog=catalog, max_batch=32,
                               batch_window=0.01)
            async with service:
                await asyncio.gather(*(
                    service.submit(_request(
                        "axpy", make_args("axpy", rng),
                        num_teams=1, stream=f"s{i}"))
                    for i in range(8)))
            return dict(service.stats)

        stats = asyncio.run(main())
        assert stats["max_batch_size"] > 1


class TestBackpressure:
    def test_inflight_cap_rejects_typed(self, catalog):
        async def main():
            service = _service(catalog=catalog, max_inflight=1)
            rng = np.random.default_rng(0)
            async with service:
                a = make_args("axpy", rng)
                first = asyncio.ensure_future(
                    service.submit(_request("axpy", a)))
                await asyncio.sleep(0)  # let it register as in flight
                with pytest.raises(Backpressure) as exc:
                    await service.submit(_request("axpy", a))
                await first
                return exc.value

        bp = asyncio.run(main())
        assert bp.reason == "inflight_limit"
        assert bp.retry_after > 0

    def test_queue_full_surfaces_and_retries_succeed(self, catalog):
        async def main():
            service = _service(catalog=catalog, max_queue=2,
                               max_inflight=4096)
            async with service:
                return await drive_service(
                    service, clients=16, requests_per_client=2, seed=1)

        metrics = asyncio.run(main())
        assert metrics["errors"] == 0  # every reject eventually retried in
        assert metrics["rejects"] > 0  # ...but rejects did happen
        assert metrics["launches"] == 32


class TestFaultLegs:
    @needs_fork
    def test_worker_crash_leg_returns_correct_results(self, catalog):
        """Warm pool with injected worker crashes: every response still
        verified correct, deaths actually happened, pool stayed warm."""

        async def main():
            faults = coerce_faults("42:worker.crash=0.3")
            lease = PoolLease(catalog, Device().params, workers=2,
                              faults=faults)
            service = _service(catalog=catalog, executor=lease)
            try:
                async with service:
                    metrics = await drive_service(
                        service, clients=8, requests_per_client=3, seed=4)
            finally:
                stats = dict(lease.stats)
                lease.close()
            return metrics, stats

        metrics, stats = asyncio.run(main())
        assert metrics["errors"] == 0
        assert metrics["launches"] == 24
        assert stats["worker_deaths"] >= 1
        assert stats["warm_dispatches"] >= 2

    @needs_fork
    def test_lease_corrupt_redispatch_is_bit_identical(self, catalog):
        """Every warm-pool result payload arrives corrupt once (the spec's
        ``attempts=1`` lets the re-dispatch through): the lease discards
        and re-dispatches it, and every output and cycle count matches
        the serial service bit for bit."""
        rng = np.random.default_rng(31)
        specs = [(k, make_args(k, rng), nt) for k, nt in
                 (("axpy", 2), ("square", 1), ("scale_sum", 3), ("axpy", 1))]

        async def run(executor):
            service = _service(catalog=catalog, executor=executor)
            async with service:
                return await asyncio.gather(*(
                    service.submit(_request(k, a, num_teams=nt))
                    for k, a, nt in specs))

        faults = FaultPlan(5, [FaultSpec("lease.corrupt", attempts=1)])
        lease = PoolLease(catalog, Device().params, workers=2, faults=faults)
        try:
            got = asyncio.run(run(lease))
        finally:
            lease.close()
        want = asyncio.run(run(None))
        assert faults.counters.lease_corruptions >= 1
        assert faults.counters.unrecovered == 0
        for g, w in zip(got, want):
            assert g.ok and w.ok
            assert sorted(g.outputs) == sorted(w.outputs)
            for name, arr in w.outputs.items():
                assert g.outputs[name].tobytes() == arr.tobytes()
            assert g.counters.cycles == w.counters.cycles
            assert list(g.counters.blocks) == list(w.counters.blocks)

    def test_serve_reject_injection_is_retried_through(self, catalog):
        async def main():
            faults = coerce_faults("17:serve.reject=0.3")
            service = _service(
                catalog=catalog,
                scheduler=FairScheduler(max_queue=4096, faults=faults))
            async with service:
                metrics = await drive_service(
                    service, clients=8, requests_per_client=2, seed=2)
            return metrics, dict(service.scheduler.rejects)

        metrics, rejects = asyncio.run(main())
        assert metrics["errors"] == 0
        assert rejects.get("injected", 0) >= 1
        assert metrics["rejects"] >= rejects["injected"]


class TestWarmPoolService:
    @needs_fork
    def test_no_fork_per_launch(self, catalog):
        """The pool's workers persist across every batch the service
        dispatches — the whole point of the warm pool."""

        async def main():
            lease = PoolLease(catalog, Device().params, workers=2)
            service = _service(catalog=catalog, executor=lease)
            try:
                async with service:
                    await drive_service(service, clients=4,
                                        requests_per_client=2, seed=6)
                    pids_a = lease.pids()
                    await drive_service(service, clients=4,
                                        requests_per_client=2, seed=8)
                    pids_b = lease.pids()
                stats = dict(lease.stats)
            finally:
                lease.close()
            return pids_a, pids_b, stats

        pids_a, pids_b, stats = asyncio.run(main())
        assert pids_a == pids_b
        assert stats["worker_respawns"] == 0
        assert stats["warm_dispatches"] >= 2


class TestTcp:
    def test_tcp_roundtrip_with_ops(self, catalog):
        async def main():
            service = _service(catalog=catalog)
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                metrics = await drive_tcp(host, port, clients=4,
                                          requests_per_client=2, seed=3)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "kernels"}\n')
                await writer.drain()
                kernels = json.loads(await reader.readline())
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                stats = json.loads(await reader.readline())
                writer.write(b'not json\n')
                await writer.drain()
                bad = json.loads(await reader.readline())
                writer.write(b'{"kernel": "nope", "num_teams": 1, '
                             b'"team_size": 64}\n')
                await writer.drain()
                missing = json.loads(await reader.readline())
                writer.close()
            finally:
                await service.stop()
            return metrics, kernels, stats, bad, missing

        metrics, kernels, stats, bad, missing = asyncio.run(main())
        assert metrics["errors"] == 0
        assert metrics["launches"] == 8
        assert set(kernels["kernels"]) == {"axpy", "square", "scale_sum"}
        assert stats["ok"] and "stats" in stats
        assert not bad["ok"]
        assert not missing["ok"]
