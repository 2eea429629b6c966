"""repro.serve — async launch-stream service over the simulated GPU.

The serving tier turns ``omp.launch``'s synchronous, device-owning call
into a multi-tenant request path (the ROADMAP's "serve heavy traffic"
north star), reusing the executor substrate rather than reinventing it:

* :class:`~repro.serve.stream.Stream` — CUDA-style streams: launches
  within a stream run in submission order, independent streams proceed
  concurrently (``omp.launch(..., stream=s)`` returns a
  :class:`~repro.serve.stream.LaunchHandle`);
* :mod:`repro.serve.batch` — coalesces compatible small launches into
  one segmented grid (:class:`repro.exec.GridSegment`) and demuxes
  per-request results, bit-identical to running each launch alone;
* :class:`~repro.serve.lease.PoolLease` — an executor that runs batch
  plans on a persistent warm :class:`repro.exec.WorkerPool` (the pool a
  per-launch ``fork_map`` opens one-shot, here kept warm: no
  fork-per-launch), with its crash/hang retry → redistribute → degrade
  recovery ladder;
* :class:`~repro.serve.scheduler.FairScheduler` — deficit-round-robin
  weighted fairness across tenants with admission control and typed
  :class:`~repro.serve.scheduler.Backpressure` rejects;
* :class:`~repro.serve.journal.RequestJournal` — fsync'd write-ahead
  journal with group commit and torn-tail-tolerant replay; keyed
  (idempotent) requests are exactly-once across process crashes, with
  recovery re-executing only the crash's in-flight requests;
* :class:`~repro.serve.server.LaunchService` — the asyncio front door
  (``python -m repro.serve``), JSON-lines over TCP, with client
  deadlines, drain-mode shutdown, and per-tenant
  :class:`~repro.serve.scheduler.CircuitBreaker` degradation, driven by
  :mod:`repro.serve.loadgen` for benchmarks and CI smoke and by
  :mod:`repro.serve.chaos` (``python -m repro.serve chaos``) for the
  SIGKILL/restart exactly-once campaign.

See ``docs/SERVE.md`` for the full design: batching eligibility rules,
fairness/backpressure semantics, the warm-pool lifecycle, and the
journal's durability contract.
"""

from __future__ import annotations

from repro.serve.batch import LaunchOutcome, PreparedLaunch, prepare, run_batch
from repro.serve.catalog import KernelCatalog
from repro.serve.journal import JournalState, RequestJournal
from repro.serve.lease import PoolLease
from repro.serve.scheduler import Backpressure, CircuitBreaker, FairScheduler
from repro.serve.server import LaunchRequest, LaunchService
from repro.serve.stream import LaunchHandle, Stream

__all__ = [
    "Backpressure",
    "CircuitBreaker",
    "FairScheduler",
    "JournalState",
    "KernelCatalog",
    "LaunchHandle",
    "LaunchOutcome",
    "LaunchRequest",
    "LaunchService",
    "PoolLease",
    "PreparedLaunch",
    "RequestJournal",
    "Stream",
    "prepare",
    "run_batch",
]
