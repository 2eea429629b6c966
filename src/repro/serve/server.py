"""The asyncio launch service: socket → scheduler → batcher → device.

:class:`LaunchService` is the serving front door.  Thousands of
concurrent :meth:`LaunchService.submit` calls (or JSON-lines TCP
requests) flow through:

1. **per-stream lanes** — requests naming a stream are chained so a
   stream's request *n+1* enters the scheduler only after *n*
   completes (ordered within a stream; different streams interleave
   freely, which also means same-stream requests never share a batch);
2. **admission** — :class:`~repro.serve.scheduler.FairScheduler`
   either queues the request or rejects it with typed
   :class:`~repro.serve.scheduler.Backpressure` (also the service's
   in-flight cap, and the ``serve.reject`` fault site);
3. **the batching pump** — an asyncio task drains the scheduler in
   weighted DRR order, groups compatible requests (same block shape)
   up to ``max_batch``, and hands each group to the dispatch thread;
4. **dispatch** — the group is prepared (buffers bound), executed as
   one segmented grid via :func:`repro.serve.batch.run_batch` on the
   service's executor (in-process by default, or a warm
   :class:`~repro.serve.lease.PoolLease`), demuxed, and each request's
   future resolved with its own bit-identical
   :class:`~repro.serve.batch.LaunchOutcome`.

A single dispatch thread feeds the device: the device lock serializes
grids anyway, so extra dispatch threads would only add contention.
Concurrency lives in front (the event loop holds thousands of pending
futures) and below (the pool's warm workers run a grid's blocks in
parallel).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.counters import KernelCounters
from repro.runtime.icv import DEFAULT_SHARING_BYTES
from repro.serve import batch as batchmod
from repro.serve.journal import RequestJournal, pack_array, unpack_array
from repro.serve.scheduler import Backpressure, CircuitBreaker, FairScheduler

__all__ = ["LaunchRequest", "LaunchService"]

_request_ids = itertools.count()


@dataclass
class LaunchRequest:
    """One kernel-launch request as the service sees it.

    ``key`` is the client-supplied idempotency key: journaled services
    deduplicate on it, so a resubmission after a lost ack is answered
    from the journal instead of re-executing.  ``deadline_ms`` is the
    client's patience, relative to submission — stale queue entries are
    shed unstarted and the launch watchdog is armed with what remains.
    """

    kernel: str
    args: Dict[str, np.ndarray]
    num_teams: int
    team_size: int
    simd_len: Optional[int] = None
    out: Optional[Sequence[str]] = None
    tenant: str = "default"
    stream: Optional[str] = None
    key: Optional[str] = None
    deadline_ms: Optional[float] = None
    rid: int = field(default_factory=lambda: next(_request_ids))

    @property
    def cost(self) -> float:
        """Scheduling cost: block count — what the device spends."""
        return float(self.num_teams)


class _Pending:
    """A request riding through the service with its future."""

    __slots__ = ("request", "future", "submitted", "prepared", "deadline",
                 "result_wire")

    def __init__(self, request: LaunchRequest, future) -> None:
        self.request = request
        self.future = future
        self.submitted = time.monotonic()
        self.prepared = None
        self.deadline = (
            self.submitted + request.deadline_ms / 1000.0
            if request.deadline_ms is not None else None
        )
        self.result_wire = None


class LaunchService:
    """Async multi-tenant launch service over one simulated device.

    Parameters mirror the layers they configure: ``executor`` the
    execution substrate (default :class:`~repro.exec.SerialExecutor`;
    pass a :class:`~repro.serve.lease.PoolLease` for the warm pool),
    ``scheduler`` the fairness/admission policy, ``engine`` the round
    engine, ``faults`` the fault plan consulted by admission
    (``serve.reject``), dispatch, and batch execution.  ``max_batch``
    bounds requests per merged grid; ``batch_window`` is the pump's
    idle poll interval; ``max_inflight`` caps accepted-but-unfinished
    requests (typed backpressure beyond it).
    """

    def __init__(
        self,
        device,
        catalog,
        *,
        scheduler: Optional[FairScheduler] = None,
        executor=None,
        engine: Optional[str] = None,
        faults=None,
        journal: Optional[RequestJournal] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        max_batch: int = 16,
        batch_window: float = 0.002,
        max_inflight: int = 4096,
        sharing_bytes: int = DEFAULT_SHARING_BYTES,
    ) -> None:
        self.device = device
        self.catalog = catalog
        self.scheduler = scheduler or FairScheduler(faults=faults)
        self.scheduler.on_expire = self._expire_pending
        self.executor = executor
        self.engine = engine
        self.faults = faults
        self.journal = journal
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.max_batch = int(max_batch)
        self.batch_window = float(batch_window)
        self.max_inflight = int(max_inflight)
        self.sharing_bytes = sharing_bytes
        self._lanes: Dict[Tuple[str, Optional[str]], Deque[_Pending]] = {}
        self._inflight = 0
        self._pump_task: Optional[asyncio.Task] = None
        self._tcp_server = None
        self._dispatch = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        #: idempotency key → durable result wire (journal replay + acks).
        self._done_cache: Dict[str, dict] = {}
        #: idempotency key → future of the in-flight execution (dup
        #: submissions of a live key share it instead of re-executing).
        self._inflight_keys: Dict[str, object] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._batch_seq = itertools.count()
        self._conn_drop_attempts: Dict[str, int] = {}
        self.stats = {
            "accepted": 0,
            "completed": 0,
            "errors": 0,
            "rejected": 0,
            "replays": 0,
            "batches": 0,
            "batched_requests": 0,
            "max_batch_size": 0,
        }

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Start the batching pump (idempotent)."""
        if self._pump_task is None or self._pump_task.done():
            self._loop = asyncio.get_running_loop()
            self._pump_task = asyncio.create_task(
                self._pump(), name="serve-pump"
            )

    async def stop(self) -> None:
        """Stop the pump and TCP listener; leave executor/device to owner."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._dispatch.shutdown(wait=True)

    async def __aenter__(self) -> "LaunchService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    # -- durability / graceful shutdown -------------------------------------
    def begin_drain(self) -> None:
        """Enter drain mode: new submissions are rejected with
        ``Backpressure(reason="draining")``; in-flight work finishes."""
        self._draining = True

    async def drain(self, poll: Optional[float] = None) -> None:
        """Wait for every in-flight request to finish, then flush the
        journal.  Call :meth:`begin_drain` first (or this waits forever
        under sustained load)."""
        interval = poll if poll is not None else self.batch_window
        while self._inflight > 0:
            await asyncio.sleep(interval)
        if self.journal is not None:
            self.journal.commit()

    def load_journal(self, path: str, *, fsync: bool = True):
        """Attach (and replay) a journal at ``path``.

        Returns the replayed :class:`~repro.serve.journal.JournalState`;
        every durable ``done`` result seeds the dedup cache so
        resubmitted keys are answered without re-execution.  Pass the
        state to :meth:`recover` to re-execute the crash's in-flight
        requests.
        """
        state = RequestJournal.replay(path)
        self._done_cache.update(state.done)
        self.journal = RequestJournal(path, faults=self.faults, fsync=fsync)
        return state

    async def recover(self, state) -> int:
        """Re-execute the journal's unfinished (admitted, never done)
        requests.  Returns how many were re-run; individual failures are
        journal-visible but do not abort recovery."""
        unfinished = state.unfinished()
        if not unfinished:
            return 0

        async def _one(key: str, wire: dict) -> None:
            try:
                await self.submit(self._request_from_wire(key, wire))
            except Exception:
                pass

        await asyncio.gather(*(
            _one(key, wire) for key, wire in unfinished.items()
        ))
        return len(unfinished)

    # -- submission ---------------------------------------------------------
    async def submit(self, request: LaunchRequest):
        """Accept one request; resolves to its
        :class:`~repro.serve.batch.LaunchOutcome`.

        Raises :class:`Backpressure` synchronously when admission
        rejects — the caller never gets a future that was doomed at
        submit time.

        Keyed requests are idempotent: a key with a durable result is
        answered from the journal/dedup cache (``journal_replay`` marked
        in ``kc.extra``), and a key currently executing shares the
        in-flight future instead of running twice.
        """
        await self.start()
        if self._draining:
            self.stats["rejected"] += 1
            raise Backpressure(
                "draining", tenant=request.tenant, retry_after=0.5,
                detail="service is draining for shutdown",
            )
        key = request.key
        if key is not None:
            wire = self._done_cache.get(key)
            if wire is not None:
                self.stats["replays"] += 1
                return self._outcome_from_wire(request, wire)
            shared = self._inflight_keys.get(key)
            if shared is not None:
                self.stats["replays"] += 1
                return await shared
        breaker = self._breakers.get(request.tenant)
        if breaker is not None and not breaker.allow():
            self.stats["rejected"] += 1
            raise Backpressure(
                "circuit_open", tenant=request.tenant,
                retry_after=breaker.cooldown,
                detail=f"breaker open after repeated failures "
                       f"({breaker.trips} trips)",
            )
        if self._inflight >= self.max_inflight:
            self.stats["rejected"] += 1
            raise Backpressure(
                "inflight_limit", tenant=request.tenant,
                retry_after=0.05,
                detail=f"{self._inflight} in flight (cap "
                       f"{self.max_inflight})",
            )
        future = self._loop.create_future()
        pending = _Pending(request, future)
        if key is not None:
            if self.journal is not None:
                self.journal.append_admit(key, self._request_wire(request))
            self._inflight_keys[key] = future
        lane_key = (request.tenant, request.stream)
        if request.stream is not None:
            lane = self._lanes.setdefault(lane_key, deque())
            if lane:
                # An earlier launch of this stream is still in flight:
                # chain behind it (scheduler admission happens when it
                # reaches the head).
                lane.append(pending)
                self._inflight += 1
                self.stats["accepted"] += 1
                return await future
            lane.append(pending)
        try:
            self.scheduler.submit(
                pending, tenant=request.tenant, cost=request.cost,
                deadline=pending.deadline,
            )
        except Backpressure:
            if request.stream is not None:
                self._lanes[lane_key].remove(pending)
            if key is not None and self._inflight_keys.get(key) is future:
                self._inflight_keys.pop(key, None)
            self.stats["rejected"] += 1
            raise
        self._inflight += 1
        self.stats["accepted"] += 1
        return await future

    # -- the batching pump --------------------------------------------------
    async def _pump(self) -> None:
        while True:
            items: List[_Pending] = self.scheduler.next_batch(self.max_batch)
            if not items:
                await asyncio.sleep(self.batch_window)
                continue
            for group in self._group(items):
                outcomes = await self._loop.run_in_executor(
                    self._dispatch, self._run_group, group
                )
                await self._journal_group(group, outcomes)
                self._resolve_group(group, outcomes)

    async def _journal_group(self, group: List[_Pending],
                             results: List) -> None:
        """Make the group's successful keyed results durable *before*
        any client sees an ack: append one ``done`` record each, then a
        single group fsync (off-loop — the pump must not block)."""
        if self.journal is None:
            return
        durable = []
        for pending, result in zip(group, results):
            key = pending.request.key
            if (key is None or isinstance(result, Exception)
                    or result.error is not None):
                continue
            pending.result_wire = self._result_wire(result)
            durable.append((key, pending.result_wire))
        if not durable:
            return

        def _append_and_commit() -> None:
            # JSON encoding is the journal's dominant cost; keep it (and
            # the fsync) off the event loop so unrelated requests keep
            # flowing while this group becomes durable.
            for key, wire in durable:
                self.journal.append_done(key, wire)
            self.journal.commit()

        await self._loop.run_in_executor(None, _append_and_commit)

    def _block_dim(self, request: LaunchRequest) -> int:
        cfg = self.catalog.get(request.kernel).launch_config(
            request.num_teams, request.team_size, request.simd_len,
            sharing_bytes=self.sharing_bytes, params=self.device.params)
        return cfg.block_dim

    def _group(self, items: List[_Pending]) -> List[List[_Pending]]:
        """Split a scheduling round into batchable groups (same block
        shape), preserving DRR order within each group."""
        groups: "dict[int, List[_Pending]]" = {}
        order: List[int] = []
        for p in items:
            try:
                key = self._block_dim(p.request)
            except Exception as err:
                # Bad geometry/kernel name: fail this request alone.
                self._reject_pending(p, err)
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(p)
        return [groups[k] for k in order]

    def _reject_pending(self, pending: _Pending, err: Exception) -> None:
        self._finish(pending, error=err)

    # -- dispatch thread ----------------------------------------------------
    def _run_group(self, group: List[_Pending]) -> List:
        """Prepare, execute as one segmented grid, read back, release.

        Runs on the dispatch thread; returns one item per pending —
        either a LaunchOutcome or the exception that doomed it.
        """
        if self.faults is not None:
            bid = next(self._batch_seq)
            if self.faults.fires("serve.dispatch_stall", batch=bid) \
                    is not None:
                self.faults.record(
                    "serve.dispatch_stall", {"batch": bid}, recovered=True,
                    detail="dispatch stalled 50ms before launch",
                )
                time.sleep(0.05)
        prepared = []
        live = []
        for p in group:
            req = p.request
            try:
                p.prepared = batchmod.prepare(
                    self.device, self.catalog, req.kernel, req.args,
                    num_teams=req.num_teams, team_size=req.team_size,
                    simd_len=req.simd_len, out=req.out,
                    sharing_bytes=self.sharing_bytes,
                    tag=f"r{req.rid}",
                )
            except Exception as err:
                prepared.append(err)
                continue
            prepared.append(p.prepared)
            live.append(p)
        results: List = list(prepared)
        try:
            if live:
                # Client deadlines arm the launch watchdog: the group
                # gets the tightest member's remaining patience, so a
                # doomed launch is cut off instead of running to
                # completion for a client that stopped waiting.
                deadlines = [p.deadline for p in live
                             if p.deadline is not None]
                timeout = None
                if deadlines:
                    timeout = max(1e-3, min(deadlines) - time.monotonic())
                outcomes = batchmod.run_batch(
                    self.device,
                    [p.prepared for p in live],
                    engine=self.engine,
                    executor=self.executor,
                    faults=self.faults,
                    timeout=timeout,
                )
                it = iter(outcomes)
                results = [
                    next(it) if not isinstance(r, Exception) else r
                    for r in results
                ]
        except Exception as err:
            results = [
                err if not isinstance(r, Exception) else r for r in results
            ]
        finally:
            for p in live:
                batchmod.release(self.device, p.prepared)
            if live:
                self.stats["batches"] += 1
                self.stats["batched_requests"] += len(live)
                self.stats["max_batch_size"] = max(
                    self.stats["max_batch_size"], len(live)
                )
        return results

    # -- completion ---------------------------------------------------------
    def _resolve_group(self, group: List[_Pending], results: List) -> None:
        for pending, result in zip(group, results):
            if isinstance(result, Exception):
                self._finish(pending, error=result)
            else:
                self._finish(pending, outcome=result)

    def _finish(self, pending: _Pending, *, outcome=None, error=None) -> None:
        request = pending.request
        key = request.key
        if key is not None and self._inflight_keys.get(key) is pending.future:
            self._inflight_keys.pop(key, None)
        if not pending.future.done():
            if error is not None:
                if isinstance(error, Backpressure):
                    # Typed shed (deadline expiry, drain): the tenant's
                    # work wasn't tried, so the breaker stays out of it.
                    self.stats["rejected"] += 1
                else:
                    self.stats["errors"] += 1
                    self._breaker_for(request.tenant).record_failure()
                pending.future.set_exception(error)
            else:
                if outcome.error is not None:
                    self.stats["errors"] += 1
                    self._breaker_for(request.tenant).record_failure()
                else:
                    self.stats["completed"] += 1
                    breaker = self._breakers.get(request.tenant)
                    if breaker is not None:
                        breaker.record_success()
                    if key is not None:
                        self._done_cache[key] = (
                            pending.result_wire
                            or self._result_wire(outcome)
                        )
                pending.future.set_result(outcome)
        self._inflight -= 1
        if request.stream is None:
            return
        # Advance the stream lane: this request was the lane head.
        lane_key = (request.tenant, request.stream)
        lane = self._lanes.get(lane_key)
        if not lane:
            return
        if lane and lane[0] is pending:
            lane.popleft()
        while lane:
            nxt = lane[0]
            try:
                self.scheduler.submit(
                    nxt, tenant=nxt.request.tenant, cost=nxt.request.cost,
                    deadline=nxt.deadline,
                )
                break
            except Backpressure as bp:
                # The waiter was accepted at submit time but the queue
                # filled meanwhile: structured reject, try the next.
                lane.popleft()
                self.stats["rejected"] += 1
                self._inflight -= 1
                if not nxt.future.done():
                    nxt.future.set_exception(bp)
        if not lane:
            self._lanes.pop(lane_key, None)

    def _expire_pending(self, pending: _Pending) -> None:
        """Scheduler callback: this entry's client deadline passed while
        it was still queued.  Shed it with a typed reject."""
        self._finish(pending, error=Backpressure(
            "deadline", tenant=pending.request.tenant, retry_after=0.0,
            detail="client deadline expired while queued",
        ))

    def _breaker_for(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown
            )
            self._breakers[tenant] = breaker
        return breaker

    # -- wire forms (journal records and replayed outcomes) ------------------
    @staticmethod
    def _request_wire(request: LaunchRequest) -> dict:
        return {
            "kernel": request.kernel,
            "args": {k: pack_array(v) for k, v in request.args.items()},
            "num_teams": request.num_teams,
            "team_size": request.team_size,
            "simd_len": request.simd_len,
            "out": list(request.out) if request.out is not None else None,
            "tenant": request.tenant,
            "stream": request.stream,
        }

    @staticmethod
    def _request_from_wire(key: str, wire: dict) -> LaunchRequest:
        return LaunchRequest(
            kernel=wire["kernel"],
            args={k: unpack_array(v)
                  for k, v in (wire.get("args") or {}).items()},
            num_teams=int(wire.get("num_teams", 1)),
            team_size=int(wire.get("team_size", 64)),
            simd_len=wire.get("simd_len"),
            out=wire.get("out"),
            tenant=wire.get("tenant", "default"),
            stream=wire.get("stream"),
            key=key,
        )

    @staticmethod
    def _result_wire(outcome) -> dict:
        return {
            "outputs": {k: pack_array(v)
                        for k, v in outcome.outputs.items()},
            "cycles": outcome.counters.cycles,
        }

    def _outcome_from_wire(self, request: LaunchRequest, wire: dict):
        """A durable result replayed as a LaunchOutcome: bit-identical
        outputs, ``journal_replay`` flagged in the counters."""
        counters = KernelCounters(cycles=float(wire.get("cycles", 0.0)))
        counters.extra["journal_replay"] = 1.0
        return batchmod.LaunchOutcome(
            name=request.kernel,
            counters=counters,
            runtime=None,
            outputs={k: unpack_array(v)
                     for k, v in (wire.get("outputs") or {}).items()},
            error=None,
        )

    # -- TCP front door -----------------------------------------------------
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 8473):
        """Listen for JSON-lines launch requests; returns the server.

        One request per line::

            {"id": 7, "kernel": "axpy", "args": {"x": [...], "y": [...]},
             "num_teams": 2, "team_size": 64, "out": ["y"],
             "tenant": "acme", "stream": "s0"}

        Responses echo ``id`` and carry either ``outputs`` (+ per-launch
        ``cycles``) or a structured ``error`` /``backpressure`` object.
        ``{"op": "stats"}`` returns service statistics, ``{"op":
        "kernels"}`` the catalog names.
        """
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_conn, host, port
        )
        return self._tcp_server

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError as err:
                    await self._send(writer, {"ok": False,
                                              "error": f"bad json: {err}"})
                    continue
                if msg.get("op") == "stats":
                    pool = getattr(self.executor, "stats", None)
                    await self._send(writer, {
                        "ok": True,
                        "stats": dict(self.stats),
                        "inflight": self._inflight,
                        "tenants": self.scheduler.snapshot(),
                        "rejects": dict(self.scheduler.rejects),
                        "pool": dict(pool) if pool is not None else None,
                        "respawns": (pool or {}).get("worker_respawns", 0),
                        "forced_rejects": (
                            self.faults.counters.forced_rejects
                            if self.faults is not None else 0),
                        "breakers": {t: b.snapshot()
                                     for t, b in self._breakers.items()},
                        "journal": (dict(self.journal.stats)
                                    if self.journal is not None else None),
                    })
                    continue
                if msg.get("op") == "health":
                    pump = self._pump_task
                    await self._send(writer, {
                        "ok": True,
                        "ready": pump is not None and not pump.done(),
                        "draining": self._draining,
                        "inflight": self._inflight,
                        "queued": self.scheduler.depth,
                    })
                    continue
                if msg.get("op") == "kernels":
                    await self._send(writer, {
                        "ok": True, "kernels": list(self.catalog.names()),
                    })
                    continue
                asyncio.ensure_future(self._handle_request(writer, msg))
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Listener shut down mid-read; end the handler task cleanly.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_request(self, writer: asyncio.StreamWriter,
                              msg: dict) -> None:
        rid = msg.get("id")
        try:
            request = LaunchRequest(
                kernel=msg["kernel"],
                args={k: np.asarray(v, dtype=np.float64)
                      for k, v in msg.get("args", {}).items()},
                num_teams=int(msg["num_teams"]),
                team_size=int(msg["team_size"]),
                simd_len=msg.get("simd_len"),
                out=msg.get("out"),
                tenant=msg.get("tenant", "default"),
                stream=msg.get("stream"),
                key=msg.get("key"),
                deadline_ms=msg.get("deadline_ms"),
            )
        except (KeyError, TypeError, ValueError) as err:
            await self._send(writer, {"id": rid, "ok": False,
                                      "error": f"bad request: {err}"})
            return
        try:
            outcome = await self.submit(request)
        except Backpressure as bp:
            await self._send(writer, {
                "id": rid, "ok": False, "backpressure": bp.as_dict(),
            })
            return
        except Exception as err:
            await self._send(writer, {"id": rid, "ok": False,
                                      "error": repr(err)})
            return
        if outcome.error is not None:
            await self._send(writer, {
                "id": rid, "ok": False,
                "error": repr(outcome.error.rebuild()),
            })
            return
        if self.faults is not None and request.key is not None:
            # The exactly-once ambiguity, injected: the result is
            # executed (and journaled) but the ack never reaches the
            # client, which resubmits the key and must be answered from
            # the journal without a second execution.  ``attempt``
            # counts drops per key so a spec's attempts bound lets the
            # retry through.
            attempt = self._conn_drop_attempts.get(request.key, 0)
            coords = {"tenant": request.tenant, "seq": request.key,
                      "attempt": attempt}
            if self.faults.fires("serve.conn_drop", **coords) is not None:
                self._conn_drop_attempts[request.key] = attempt + 1
                self.faults.record(
                    "serve.conn_drop",
                    {"tenant": request.tenant, "seq": request.key},
                    recovered=True, detail="ack dropped after execution",
                )
                writer.close()
                return
        replayed = outcome.counters.extra.get("journal_replay", 0.0)
        await self._send(writer, {
            "id": rid,
            "ok": True,
            "outputs": {k: v.tolist() for k, v in outcome.outputs.items()},
            "cycles": outcome.counters.cycles,
            **({"replayed": True} if replayed else {}),
        })

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
