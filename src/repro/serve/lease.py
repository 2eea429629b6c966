"""Warm-pool lease: batched block execution on persistent workers.

The per-launch ``repro.exec.pool.fork_map`` opens a one-shot pool whose
workers fork inside the launch, inheriting the *current* parent state —
kernel closures, live buffers — which is exactly what a persistent pool
cannot do: warm workers were forked once, at boot, and see nothing
created afterwards.  The lease
bridges that gap by making every request **self-describing**:

1. the worker's runner is fixed at pool construction and closes over
   the pre-fork :class:`~repro.serve.catalog.KernelCatalog` and the
   device's cost parameters (inherited copy-on-write);
2. each payload ships picklable data only — kernel *name*, geometry,
   input arrays, and the server-side buffer handle per arg;
3. the worker rebuilds the request locally: fresh
   :class:`~repro.gpu.device.Device`, buffers allocated from the
   shipped arrays, entry bound from the catalog kernel, each block run
   in snapshot isolation via the parallel engine's block runner;
4. the resulting :class:`~repro.exec.BlockRecord`\\ s are remapped from
   worker-local buffer handles to the server's handles (only handle
   keys change: the columnar write-set arrays ship as they are) and
   sent back, where :func:`repro.exec.merge_records` folds them into
   server memory through the *identical* deterministic merge every
   other executor uses.

Recovery inherits :class:`~repro.exec.WorkerPool`'s ladder unchanged —
crash/hang detection, retry with redistribution, in-process
degradation — so a ``worker.crash`` fault plan on the pool exercises
the serve path end-to-end while results stay bit-identical.

In-block fault sites (``sharing.overflow``, ``atomic.transient``,
``memory.bitflip``) are deliberately **not** forwarded to warm workers:
those belong to solo-launch plans where ``Device.launch`` coordinates
snapshot/scrub/rollback.  The lease's fault surface is the worker
lifecycle, which is the one that matters under sustained load.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exec import ParallelExecutor, WorkerPool
from repro.exec.engine import GridSegment, LaunchPlan
from repro.exec.record import BlockRecord
from repro.exec.transport import pack_records, unpack_records

__all__ = ["PoolLease", "make_runner"]


def make_runner(catalog, params):
    """Build the picklable-payload runner a warm pool executes.

    Must be called **before** the pool forks (the returned closure is
    inherited, not shipped).  The payload contract is a dict with keys
    ``kernel`` (catalog name), ``args`` (name → ndarray), ``num_teams``,
    ``team_size``, ``simd_len``, ``sharing_bytes``, ``engine``,
    ``handles`` (arg name → server buffer handle), ``block_range``
    (list of local block ids to run), and ``side_slots``/``side_index``
    (how to pad side-state deltas into the batch's layout).

    Results come back packed (:mod:`repro.exec.transport`): from a
    forked worker, large payloads ride a shared-memory segment instead
    of the result pipe.  Write-sets are columnar already, so remapping
    a record touches only its handle keys.  The pool's
    in-process degradation path returns raw records (``unpack_records``
    passes them through), so recovery semantics are transport-free.
    """
    from repro.gpu.device import Device

    parent_pid = os.getpid()

    def runner(payload: dict):
        dev = Device(params=params)
        local_args = {}
        handle_map: Dict[int, int] = {}
        for arg_name in sorted(payload["args"]):
            buf = dev.from_array(
                f"lease:{arg_name}", np.asarray(payload["args"][arg_name])
            )
            local_args[arg_name] = buf
            handle_map[buf.handle] = payload["handles"][arg_name]
        entry, cfg, rc = catalog.build_entry(
            payload["kernel"],
            dev.gmem,
            local_args,
            num_teams=payload["num_teams"],
            team_size=payload["team_size"],
            simd_len=payload["simd_len"],
            sharing_bytes=payload["sharing_bytes"],
            params=params,
        )
        plan = LaunchPlan(
            segments=(GridSegment(entry, cfg.num_teams),),
            threads_per_block=cfg.block_dim,
            side_state=(rc,),
            engine=payload["engine"],
        )
        watermark = dev.gmem.mark()
        runner_exec = ParallelExecutor(processes=False)
        slots = payload["side_slots"]
        index = payload["side_index"]
        records = []
        for local_id in payload["block_range"]:
            rec = runner_exec._run_block(dev, plan, watermark, local_id)
            _remap_record(rec, handle_map)
            # Pad this request's single-rc delta into the batch-wide
            # side-state layout so the coordinator's apply_deltas zips
            # each delta onto the right RuntimeCounters.
            deltas = list(rec.side_deltas or ({},))
            rec.side_deltas = tuple(
                [{}] * index + deltas + [{}] * (slots - index - 1)
            )
            records.append(rec)
        if os.getpid() == parent_pid:
            # In-process execution (degradation, processes=False): the
            # records never cross a pipe, so hand them back as-is.
            return records
        return pack_records(records)

    return runner


def _remap_record(rec: BlockRecord, handle_map: Dict[int, int]) -> None:
    """Rewrite worker-local buffer handles to server handles in place.

    Blocks can only touch pre-launch arg buffers (tracked by handle) —
    kernel-time allocations travel by name in ``live_allocs`` and need
    no mapping.  An unmapped handle would mean the block reached a
    buffer outside its request, which the disjointness construction
    makes impossible; ``KeyError`` here is therefore a real bug.
    """
    rec.write_set = {handle_map[h]: cols for h, cols in rec.write_set.items()}
    rec.oplog = [
        (op[0], handle_map[op[1]], *op[2:]) for op in rec.oplog
    ]
    if rec.read_cells:
        rec.read_cells = {(handle_map[h], idx) for h, idx in rec.read_cells}


class PoolLease:
    """A serve-tier lease on one persistent :class:`WorkerPool`.

    Construct once at boot (freezing the catalog — warm workers cannot
    see kernels registered later), then :meth:`run` arbitrarily many
    batches: each call health-checks and reuses the same forked
    workers, so sustained load pays zero fork cost per launch
    (asserted by the warm-reuse test via stable worker pids).
    """

    def __init__(
        self,
        catalog,
        params,
        *,
        workers: Optional[int] = None,
        faults=None,
        retry=None,
        processes: Optional[bool] = None,
    ) -> None:
        catalog.freeze()
        self.catalog = catalog
        self.params = params
        self.faults = faults
        self._batch_seq = itertools.count()
        self.pool = WorkerPool(
            make_runner(catalog, params),
            workers,
            faults=faults,
            retry=retry,
            processes=processes,
        )

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.pool.close()

    def pids(self) -> List[Optional[int]]:
        return self.pool.pids()

    @property
    def stats(self) -> dict:
        return self.pool.stats

    # -- execution ----------------------------------------------------------
    def run(
        self,
        device,
        prepared: Sequence,
        *,
        engine: str,
        deadline: Optional[float] = None,
    ) -> List[BlockRecord]:
        """Execute a batch's blocks on the warm pool; return records
        keyed by **global** block id, ready for ``merge_records``.

        One payload per request (small launches are the batching
        target, so request granularity doubles as shard granularity —
        a request's blocks stay on one worker, its records arrive
        together or retry together).
        """
        payloads = []
        offsets = []
        offset = 0
        n = len(prepared)
        for i, p in enumerate(prepared):
            # ``to_numpy`` already returns a fresh host copy.
            arrays = {
                name: buf.to_numpy()
                for name, buf in p.buffers.items()
            }
            handles = {name: buf.handle for name, buf in p.buffers.items()}
            payloads.append({
                "kernel": p.name,
                "args": arrays,
                "handles": handles,
                "num_teams": p.cfg.num_teams,
                "team_size": p.cfg.team_size,
                "simd_len": p.cfg.simd_len,
                "sharing_bytes": p.cfg.sharing_bytes,
                "engine": engine,
                "block_range": list(range(p.num_blocks)),
                "side_slots": n,
                "side_index": i,
            })
            offsets.append(offset)
            offset += p.num_blocks

        batch = next(self._batch_seq)
        records: List[BlockRecord] = []
        for i, (status, result) in enumerate(
            self.pool.map(payloads, deadline=deadline)
        ):
            if status == "err":
                # Machinery failure (kernel errors are captured inside
                # records) — surface it; the service layer converts it
                # into per-request errors.
                result.reraise()
            result = unpack_records(result)
            result = self._verified(batch, i, payloads[i], result, deadline)
            for rec in result:
                rec.block_id += offsets[i]
                records.append(rec)
        return records

    def _verified(self, batch: int, payload_index: int, payload: dict,
                  result: List[BlockRecord],
                  deadline: Optional[float]) -> List[BlockRecord]:
        """The ``lease.corrupt`` hook: a result payload modelled as
        arriving corrupted is discarded whole and its request
        re-dispatched — execution is deterministic, so the replacement
        records are bit-identical to what the corrupt shipment carried.
        The ``attempt`` coordinate counts re-dispatches, so a spec's
        ``attempts`` bound lets a retry through."""
        if self.faults is None:
            return result
        attempt = 0
        while self.faults.fires("lease.corrupt", batch=batch,
                                payload=payload_index,
                                attempt=attempt) is not None:
            self.faults.record(
                "lease.corrupt",
                {"batch": batch, "payload": payload_index,
                 "attempt": attempt},
                recovered=True,
                detail="corrupt result payload discarded; re-dispatched",
            )
            attempt += 1
            status, result = self.pool.map([payload], deadline=deadline)[0]
            if status == "err":
                result.reraise()
            result = unpack_records(result)
        return result
