"""Warm-pool lease: an executor whose blocks run on persistent workers.

The per-launch ``repro.exec.pool.fork_map`` opens a one-shot pool whose
workers fork inside the launch, inheriting the *current* parent state —
kernel closures, live buffers — which is exactly what a persistent pool
cannot do: warm workers were forked once, at boot, and see nothing
created afterwards.  :class:`PoolLease` bridges that gap by making every
segment it ships **self-describing**:

1. the worker's runner is fixed at pool construction and closes over
   the pre-fork :class:`~repro.serve.catalog.KernelCatalog` and the
   device's cost parameters (inherited copy-on-write);
2. each payload ships picklable data only — kernel *name*, geometry,
   input arrays, and the server-side buffer handle per arg — built from
   the request a batched segment carries
   (:attr:`~repro.exec.GridSegment.source`);
3. the worker rebuilds the request locally: fresh
   :class:`~repro.gpu.device.Device`, buffers allocated from the
   shipped arrays, entry bound from the catalog kernel, each block run
   in snapshot isolation by :func:`repro.exec.engine.run_block` — the
   block runner :class:`~repro.exec.ParallelExecutor` uses;
4. the resulting :class:`~repro.exec.BlockRecord`\\ s are remapped from
   worker-local buffer handles to the server's handles (only handle
   keys change: the columnar write-set arrays stay as they are) and
   returned; the pool's result pipe pickles them, as it does for
   ``fork_map``;
5. the coordinator shifts them to global block ids, puts each
   side-state delta in its owner's plan slot, and folds them into server
   memory through :func:`repro.exec.merge_records`, the merge every
   other executor uses.

Recovery inherits :class:`~repro.exec.WorkerPool`'s ladder unchanged —
crash/hang detection, retry with redistribution, in-process
degradation — so a ``worker.crash`` fault plan on the pool exercises
the serve path end-to-end while results stay bit-identical.

In-block fault sites (``sharing.overflow``, ``atomic.transient``,
``memory.bitflip``) are deliberately **not** forwarded to warm workers:
``execute`` ignores ``plan.faults``.  Those sites belong to solo-launch
plans where ``Device.launch`` coordinates snapshot/scrub/rollback.  The
lease's own fault plan drives the worker lifecycle sites and
``lease.corrupt``, which are the ones that matter under sustained load.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.errors import LaunchError
from repro.exec import WorkerPool, merge_records
from repro.exec.engine import ExecOutcome, GridSegment, LaunchPlan, run_block
from repro.exec.record import BlockRecord

__all__ = ["PoolLease", "make_runner"]


def make_runner(catalog, params):
    """Build the picklable-payload runner a warm pool executes.

    Must be called **before** the pool forks (the returned closure is
    inherited, not shipped).  The payload contract is a dict with keys
    ``kernel`` (catalog name), ``args`` (name → ndarray), ``num_teams``,
    ``team_size``, ``simd_len``, ``sharing_bytes``, ``engine`` and
    ``handles`` (arg name → server buffer handle).  The runner returns
    the request's block records, local block ids, server handles.
    """
    from repro.gpu.device import Device

    def runner(payload: dict) -> List[BlockRecord]:
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
        )
        plan.resolve_engine(payload["engine"])
        watermark = dev.gmem.mark()
        records = []
        for block_id in range(cfg.num_teams):
            rec = run_block(dev, plan, watermark, block_id)
            _remap_record(rec, handle_map)
            records.append(rec)
        return records

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


def _payload(seg: GridSegment, engine: Optional[str]) -> dict:
    """The self-describing payload for one batched segment."""
    p = seg.source
    if p is None:
        raise LaunchError(
            f"PoolLease runs batched segments only: segment {seg.label!r} "
            "carries no source request (a solo launch's kernel closure "
            "cannot reach warm workers)"
        )
    return {
        "kernel": p.name,
        # ``to_numpy`` already returns a fresh host copy.
        "args": {name: buf.to_numpy() for name, buf in p.buffers.items()},
        "handles": {name: buf.handle for name, buf in p.buffers.items()},
        "num_teams": p.cfg.num_teams,
        "team_size": p.cfg.team_size,
        "simd_len": p.cfg.simd_len,
        "sharing_bytes": p.cfg.sharing_bytes,
        "engine": engine,
    }


class PoolLease:
    """An executor leasing one persistent :class:`WorkerPool`.

    Construct once at boot (freezing the catalog — warm workers cannot
    see kernels registered later), then :meth:`execute` arbitrarily many
    batch plans: each call health-checks and reuses the same forked
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
    def execute(self, device, plan: LaunchPlan) -> ExecOutcome:
        """Run a batch plan's blocks on the warm pool; merge the records.

        One payload per segment (small launches are the batching target,
        so request granularity doubles as shard granularity — a
        request's blocks stay on one worker, its records arrive together
        or retry together).  A segment without a ``source`` raises
        :class:`~repro.errors.LaunchError`.
        """
        payloads = [_payload(seg, plan.engine) for seg in plan.segments]
        batch = next(self._batch_seq)
        records: List[BlockRecord] = []
        offset = 0
        outcomes = self.pool.map(payloads, deadline=plan.deadline)
        for i, (seg, (status, result)) in enumerate(
                zip(plan.segments, outcomes)):
            if status == "err":
                # Machinery failure (kernel errors are captured inside
                # records) — surface it; the service layer converts it
                # into per-request errors.
                result.reraise()
            result = self._verified(batch, i, payloads[i], result,
                                    plan.deadline)
            # Worker side state is the request's runtime counters, then its
            # JIT record: each delta goes to its owner's slot in the plan.
            owners = (seg.source.rc, plan.jit_stats)
            for rec in result:
                rec.block_id += offset
                by_owner = dict(zip(map(id, owners), rec.side_deltas))
                rec.side_deltas = tuple(by_owner.get(id(obj), {})
                                        for obj in plan.side_state)
                records.append(rec)
            offset += seg.num_blocks
        return merge_records(device, plan, records)

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
        return result
