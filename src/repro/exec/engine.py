"""Launch executors: the serial reference loop and the block-sharding engine.

The paper's execution model (§3) gives thread blocks no way to synchronize
with one another — teams map to blocks, and every barrier the runtime
offers is warp- or block-scoped.  A grid is therefore an embarrassingly
parallel bag of blocks, and :class:`ParallelExecutor` exploits exactly
that: it fans contiguous shards of blocks out over a worker pool (forked
processes by default, an in-process loop otherwise), runs **every block
against the pre-launch snapshot of global memory**, and has the
coordinator merge the per-block effects back deterministically.

Serial equivalence
==================

The merge is constructed so that, for any kernel that is well-formed
under the model (no block reads another block's writes, no block branches
on an atomic's returned old value accumulated across blocks), the result
is *bit-identical* to :class:`SerialExecutor`:

* plainly-stored cells carry their final per-block value and are applied
  last-writer-wins in ascending block id — the order the serial loop
  commits them;
* cells touched by atomics carry the block's chronological store/atomic
  op sequence and are **replayed through**
  :func:`repro.gpu.atomics.apply_atomic` in ascending block id, so
  read-modify-write results compose exactly as serial execution computed
  them (``add`` re-accumulates, ``max``/``min`` re-fold, ``cas`` re-tests);
  each replayed atomic's old value is *validated* against the value the
  block actually observed under its snapshot — a mismatch means the block
  could have branched on another block's atomic result (e.g. dynamic
  work-claiming off a shared counter), so the merge rolls itself back and
  the launch re-executes serially (optimistic execution with read
  validation);
* per-block counters, shared-memory high-water marks, sanitizer reports,
  and side-state deltas merge in ascending block id;
* a block that errors marks a *cutoff*: state merges only for blocks the
  serial loop would have executed (everything below the cutoff, plus the
  erroring block's partial effects), then the error re-raises — or, for a
  deadlock under a report-mode sanitizer, the launch truncates exactly
  where the serial loop ``break``s.

Running every block against the same snapshot (rather than letting a
shard accumulate its blocks' writes) is what makes the result invariant
to worker count and shard boundaries.  Conflicting non-atomic writes to
the same cell from different blocks — the one case where "some legal
interleaving" and "the serial interleaving" can disagree — are detected
during the merge and flagged as ``cross-block-write-conflict`` sanitizer
findings.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeadlockError, LaunchError, LaunchTimeout
from repro.gpu.atomics import apply_atomic
from repro.gpu.block import DEFAULT_MAX_ROUNDS, ThreadBlock
from repro.gpu.counters import BlockCounters
from repro.exec.pool import RetryPolicy, fork_available, fork_map
from repro.exec.record import (
    OP_ATOMIC,
    OP_STORE,
    BlockRecord,
    ErrorCapsule,
    GlobalWriteRecorder,
)
from repro.exec.state import (
    apply_deltas,
    apply_pages,
    capture_dirty_pages,
    delta_numeric,
    restore_numeric,
    snapshot_numeric,
)

#: Default cap on auto-detected worker count.
MAX_AUTO_WORKERS = 8


@dataclass(frozen=True)
class GridSegment:
    """One kernel and its grid inside a :class:`LaunchPlan`.

    A solo launch is a plan of exactly one segment; the serve tier's
    batcher coalesces compatible small launches into one plan by
    concatenating their block ranges.  Segment *i* occupies global
    block ids ``[offset_i, offset_i + num_blocks)`` but its blocks
    execute with **local** coordinates — ``block_id`` in
    ``[0, num_blocks)`` and ``num_blocks`` equal to the segment's own
    grid — so every lane observes exactly what a solo launch of that
    request would have shown it.  That, plus the ascending-block-id
    merge, is what makes batched results bit-identical to unbatched
    runs (segments must touch disjoint buffers; the batcher enforces
    that before merging requests).
    """

    entry: object
    num_blocks: int
    label: Optional[str] = None


@dataclass
class SegmentOutcome:
    """Per-segment slice of a launch's outcome.

    ``error`` carries the :class:`~repro.exec.record.ErrorCapsule` a
    solo launch of this segment *raises* (``Device.launch`` re-raises
    it); other segments are unaffected (each segment has its own
    serial-cutoff semantics).  A report-mode deadlock truncates the
    segment without setting ``error``.
    """

    blocks: List[BlockCounters] = field(default_factory=list)
    shared_used: int = 0
    error: Optional[ErrorCapsule] = None


@dataclass
class LaunchPlan:
    """Everything an executor needs to run one grid of segments.

    ``segments`` names the kernels: one :class:`GridSegment` for a solo
    launch (built by :meth:`repro.gpu.device.Device.launch` after
    validation and sanitizer resolution), several for a batch (built by
    :func:`repro.serve.batch.run_batch`), concatenated in ascending
    global block id.  ``num_blocks`` is their total.  Executors never
    consult the global sanitizer session or touch ``device.last_launch``
    — the device applies those only after a successful merge.
    """

    segments: Tuple[GridSegment, ...]
    threads_per_block: int
    args: tuple = ()
    max_rounds: int = DEFAULT_MAX_ROUNDS
    #: Resolved :class:`~repro.sanitizer.monitor.SanitizerConfig` (None =
    #: not sanitizing) and the report label.
    config: object = None
    label: Optional[str] = None
    #: True when a deadlock truncates the launch instead of raising.
    report_mode: bool = False
    schedule_policy: object = None
    #: Host-side observation hook; forces in-process serial execution.
    tracer: object = None
    #: Host-side accumulator objects (e.g. ``RuntimeCounters``) whose
    #: numeric fields blocks mutate; the parallel engine merges them as
    #: per-block deltas.
    side_state: tuple = ()
    #: Optional fault plan (:class:`repro.faults.FaultPlan`); consulted by
    #: the block scheduler, the sharing space, and the worker pool.
    faults: object = None
    #: Optional absolute :func:`time.monotonic` watchdog deadline; expiry
    #: raises :class:`~repro.errors.LaunchTimeout` (block granularity on
    #: the serial executor, chunk granularity on the pool).
    deadline: Optional[float] = None
    #: Optional worker-pool :class:`~repro.exec.pool.RetryPolicy`.
    retry: object = None
    #: Resolved round-engine name (``"fast"``/``"jit"``; None means the
    #: block round loop).  Hooked launches never resolve to ``"jit"``.
    #: ``Device.launch`` resolves the kwarg/env/hook ladder before
    #: building the plan.
    engine: Optional[str] = None
    #: Per-launch :class:`repro.jit.stats.JitCounters` when ``engine`` is
    #: ``"jit"``; also rides ``side_state`` so worker deltas merge back.
    jit_stats: object = None
    #: Optional :class:`repro.faults.checkpoint.LaunchCheckpoint`.  The
    #: parallel engine merges its completed block records instead of
    #: re-executing those blocks, and harvests newly completed blocks
    #: into it when an attempt dies mid-flight (watchdog timeout, merged
    #: block error) so ``launch(retries=..., resume=True)`` resumes from
    #: where the last attempt got to instead of from zero.
    checkpoint: object = None
    #: Total blocks over all segments.
    num_blocks: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_blocks = sum(s.num_blocks for s in self.segments)

    def block_binding(self, block_id: int) -> Tuple[object, int, int]:
        """``(entry, local_block_id, local_num_blocks)`` for one global
        block id."""
        offset = 0
        for seg in self.segments:
            if block_id < offset + seg.num_blocks:
                return seg.entry, block_id - offset, seg.num_blocks
            offset += seg.num_blocks
        raise LaunchError(
            f"block id {block_id} outside grid of {offset} blocks"
        )

    def validate_segments(self) -> None:
        """Hooks (tracer, sanitizer, schedule policy) need exactly one
        segment: batched launches are hook-free by construction."""
        if len(self.segments) != 1 and (
                self.tracer is not None or self.config is not None
                or self.schedule_policy is not None):
            raise LaunchError(
                "tracer, sanitizer, and schedule_policy require a "
                "one-segment (solo) launch"
            )


@dataclass
class ExecOutcome:
    """What an executor hands back for counter composition."""

    #: One outcome per plan segment, in plan order.
    segments: List[SegmentOutcome]
    report: object = None
    cross_block_conflicts: int = 0
    #: Worker-pool recovery stats (:data:`repro.exec.pool.STAT_KEYS`);
    #: None when execution never touched the pool.
    recovery: Optional[dict] = None
    #: Checkpoint/resume split (``plan.checkpoint``): blocks merged from
    #: a prior attempt's checkpoint vs blocks executed this attempt.
    blocks_resumed: int = 0
    blocks_replayed: int = 0


def _make_monitor(plan: LaunchPlan):
    if plan.config is None:
        return None
    from repro.sanitizer.monitor import SanitizerMonitor

    return SanitizerMonitor(plan.config, label=plan.label or "kernel")


class SerialExecutor:
    """The reference executor: the classic sequential block loop.

    Segments run in plan order, each its blocks in ascending *local* id
    against live global memory — byte-for-byte what a solo launch of
    that segment does, because segments touch disjoint buffers.  A
    solo launch shares one monitor across its blocks.  An error inside
    a segment is captured into its :class:`SegmentOutcome` after the
    partial state committed, and execution continues with the next
    segment; a report-mode deadlock truncates the segment instead,
    without updating the deadlocked block's shared high-water mark.
    """

    def execute(self, device, plan: LaunchPlan) -> ExecOutcome:
        plan.validate_segments()
        monitor = _make_monitor(plan)
        seg_outs = [SegmentOutcome() for _ in plan.segments]
        done = 0
        for out, seg in zip(seg_outs, plan.segments):
            for local_id in range(seg.num_blocks):
                if plan.deadline is not None and time.monotonic() >= plan.deadline:
                    if plan.faults is not None:
                        plan.faults.counters.timeouts += 1
                    ran = [b for o in seg_outs for b in o.blocks]
                    raise LaunchTimeout(
                        f"launch watchdog expired after {done}/"
                        f"{plan.num_blocks} blocks",
                        blocks_done=done,
                        num_blocks=plan.num_blocks,
                        progress=[(i, b.rounds) for i, b in enumerate(ran)],
                    )
                block = ThreadBlock(
                    block_id=local_id,
                    num_threads=plan.threads_per_block,
                    params=device.params,
                    gmem=device.gmem,
                    entry=seg.entry,
                    args=plan.args,
                    num_blocks=seg.num_blocks,
                    max_rounds=plan.max_rounds,
                    tracer=plan.tracer,
                    monitor=monitor,
                    schedule_policy=plan.schedule_policy,
                    faults=plan.faults,
                    engine=plan.engine,
                    jit_stats=plan.jit_stats,
                )
                try:
                    out.blocks.append(block.run())
                except Exception as err:
                    # The error ends the segment, as a solo launch raises
                    # here.  A report-mode deadlock ends it too, with no
                    # error: the analyzer already recorded the finding,
                    # and later blocks cannot produce trustworthy results.
                    out.blocks.append(block.counters)
                    if not (plan.report_mode and isinstance(err, DeadlockError)):
                        out.error = ErrorCapsule(err)
                    done += seg.num_blocks - local_id
                    break
                out.shared_used = max(out.shared_used, block.shared.used)
                done += 1
        report = None
        if monitor is not None and seg_outs[0].error is None:
            report = monitor.finalize()
        return ExecOutcome(segments=seg_outs, report=report)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor:
    """Block-sharding launch engine with a deterministic merge.

    Parameters
    ----------
    workers:
        Worker count (None = one per CPU, capped at
        :data:`MAX_AUTO_WORKERS`).
    processes:
        True forces forked workers, False forces the in-process isolated
        loop, None picks processes when ``fork`` is available and more
        than one worker is useful.  Both paths run the identical
        snapshot/record/merge machinery — only the transport differs.
    shard_size:
        Blocks per work unit (None = one contiguous shard per worker).
        Exposed so the determinism tests can vary shard boundaries.

    Forked workers inherit the parent by copy-on-write, so kernel entry
    closures and live buffers need no pickling; only
    :class:`~repro.exec.record.BlockRecord` contents travel back.  The
    cost is that *host-side* mutations a kernel makes (appending to a
    Python list, printing) stay in the child — kernels observed that way
    (and ``tracer=`` launches, which the device routes to
    :class:`SerialExecutor`) need an in-process executor.
    """

    #: Consulted by ``Device.launch(resume=True)``: per-block isolated
    #: records make checkpoint/resume sound here (module docstring).
    supports_checkpoint = True

    def __init__(
        self,
        workers: Optional[int] = None,
        processes: Optional[bool] = None,
        shard_size: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.workers = workers
        self.processes = processes
        self.shard_size = shard_size

    # ------------------------------------------------------------------
    def execute(self, device, plan: LaunchPlan) -> ExecOutcome:
        if plan.tracer is not None:
            # Closure observation needs the kernel in-process and in the
            # serial interleaving.
            return SerialExecutor().execute(device, plan)
        plan.validate_segments()
        n = plan.num_blocks
        workers = self.workers
        if workers is None:
            workers = min(os.cpu_count() or 1, MAX_AUTO_WORKERS)
        workers = max(1, min(int(workers), n))
        processes = self.processes
        if processes is None:
            processes = workers > 1 and fork_available()

        # The handle watermark separates pre-launch buffers (tracked,
        # merged) from kernel-time allocations (block-local by the model).
        watermark = device.gmem.mark()

        # Checkpoint/resume: blocks a prior attempt completed are merged
        # from their recorded deltas instead of re-executing.  Sound
        # because every block runs against the pre-launch snapshot — the
        # retry ladder's rollback restores exactly the state those
        # records were computed under (see repro.faults.checkpoint).
        ckpt = plan.checkpoint
        resumed: List[BlockRecord] = []
        block_ids: Sequence[int] = range(n)
        if ckpt is not None:
            ckpt.bind(n, plan.threads_per_block)
            done = ckpt.completed_ids()
            if done:
                block_ids = [b for b in range(n) if b not in done]
                resumed = ckpt.take(range(n))

        records: List[BlockRecord] = list(resumed)
        stats: dict = {}
        harvest: Optional[list] = [] if ckpt is not None else None
        try:
            if block_ids:
                workers = min(workers, len(block_ids))
                size = self.shard_size or -(-len(block_ids) // workers)
                shards = [block_ids[s:s + size]
                          for s in range(0, len(block_ids), size)]

                def run_shard(ids):
                    return [self._run_block(device, plan, watermark, b)
                            for b in ids]

                retry = plan.retry if plan.retry is not None else RetryPolicy()
                shard_err = None
                for status, payload in fork_map(
                    run_shard,
                    shards,
                    workers=workers,
                    processes=processes,
                    faults=plan.faults,
                    retry=retry,
                    deadline=plan.deadline,
                    stats=stats,
                    partial=harvest,
                ):
                    if status == "err":
                        # Per-block errors are captured inside records; a
                        # shard-level error means the machinery itself
                        # failed.
                        shard_err = shard_err or payload
                        continue
                    records.extend(payload)
                if shard_err is not None:
                    shard_err.reraise()
            outcome = merge_records(device, plan, records)
        except BaseException:
            if ckpt is not None:
                # Harvest what did complete — the timeout sink's shards
                # plus any fully collected records — so the next attempt
                # resumes instead of starting over.
                for _, payload in harvest or ():
                    ckpt.add(payload)
                ckpt.add(records)
            raise
        if ckpt is not None and any(o.error for o in outcome.segments):
            # A merged block error fails this attempt: keep the completed
            # records for the next one.
            ckpt.add(records)
        outcome.blocks_resumed = len(resumed)
        outcome.blocks_replayed = len(records) - len(resumed)
        if any(stats.values()):
            outcome.recovery = stats
        return outcome

    # ------------------------------------------------------------------
    def _run_block(self, device, plan: LaunchPlan, watermark: int, block_id: int) -> BlockRecord:
        """Run one block in isolation against the pre-launch snapshot.

        ``block_id`` is the *global* grid id (the merge key); the block
        executes with its segment's local coordinates so lanes observe
        exactly the solo-launch geometry.
        """
        gmem = device.gmem
        rec = GlobalWriteRecorder(watermark, track_reads=plan.config is not None)
        monitor = _make_monitor(plan)
        side_base = snapshot_numeric(plan.side_state)
        record = BlockRecord(block_id)
        block = None
        entry, local_id, local_blocks = plan.block_binding(block_id)
        try:
            block = ThreadBlock(
                block_id=local_id,
                num_threads=plan.threads_per_block,
                params=device.params,
                gmem=gmem,
                entry=entry,
                args=plan.args,
                num_blocks=local_blocks,
                max_rounds=plan.max_rounds,
                tracer=None,
                monitor=monitor,
                schedule_policy=plan.schedule_policy,
                recorder=rec,
                faults=plan.faults,
                engine=plan.engine,
                jit_stats=plan.jit_stats,
            )
            record.counters = block.run()
            record.completed = True
            record.shared_used = int(block.shared.used)
        except BaseException as err:
            record.error = ErrorCapsule(err)
            record.deadlock = isinstance(err, DeadlockError)
            record.counters = block.counters if block is not None else BlockCounters()
        finally:
            record.write_set, record.oplog = rec.extract()
            record.read_cells = rec.read_cells
            rec.undo()
            record.live_allocs = _capture_and_purge(gmem, watermark)
            record.side_deltas = delta_numeric(plan.side_state, side_base)
            restore_numeric(plan.side_state, side_base)
            if monitor is not None:
                record.report = monitor.finalize()
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelExecutor(workers={self.workers}, "
            f"processes={self.processes}, shard_size={self.shard_size})"
        )


def merge_records(device, plan: LaunchPlan, records: List[BlockRecord]) -> ExecOutcome:
    """Fold per-block records into the serial outcome, ascending id.

    Within each segment the serial-cutoff rule applies independently:
    the lowest-id error is the one the serial loop would have hit, and
    blocks past it never ran, so their records are dropped — while
    *other* segments are untouched (solo launches of unrelated requests
    cannot observe each other's failures).  The surviving records then
    apply in one ascending-global-id pass, which equals running the
    segments back-to-back because they touch disjoint buffers.  The
    error lands in the segment's :class:`SegmentOutcome` after the
    partial state, mirroring the serial loop, where every write before
    the raise is already committed; a deadlock under a report-mode
    sanitizer instead truncates the segment.

    Module-level (rather than a :class:`ParallelExecutor` method) so the
    serve tier's warm-pool lease can feed records produced by persistent
    remote workers through the *identical* merge the in-process engine
    uses — one deterministic-merge implementation for every transport.
    """
    records.sort(key=lambda r: r.block_id)
    seg_outs = [SegmentOutcome() for _ in plan.segments]
    applied: List[BlockRecord] = []
    segs = iter(zip(seg_outs, plan.segments))
    out, end, cut = None, 0, False
    for r in records:
        while r.block_id >= end:
            out, seg = next(segs)
            end += seg.num_blocks
            cut = False
        if cut:
            continue
        applied.append(r)
        out.blocks.append(r.counters)
        out.shared_used = max(out.shared_used, r.shared_used)
        if r.error is not None:
            cut = True
            if not (r.deadlock and plan.report_mode):
                out.error = r.error

    gmem = device.gmem
    if plan.config is not None and _sanitized_cross_block_sharing(applied):
        # The serial launch runs ONE monitor across all blocks, so its
        # happens-before analysis flags cross-block races; per-block
        # monitors cannot see them.  Whenever blocks share a tracked
        # cell in a potentially racing way, re-run serially so the
        # finding set matches ground truth exactly.  (No state was
        # applied yet — the snapshot is intact.)
        return SerialExecutor().execute(device, plan)
    if _apply_records(gmem, applied):
        # Read validation failed: some block observed an atomic old
        # value that cross-block interleaving changes, so its whole
        # execution is suspect.  The rollback restored the pre-launch
        # snapshot; re-execute the ground truth.
        return SerialExecutor().execute(device, plan)
    apply_deltas(plan.side_state, [r.side_deltas for r in applied])
    conflicts = _find_cross_block_conflicts(gmem, applied)

    report = None
    if plan.config is not None and seg_outs[0].error is None:
        report = _merge_reports(plan, applied)
        for finding in conflicts:
            report.add(finding)
    return ExecOutcome(
        segments=seg_outs,
        report=report,
        cross_block_conflicts=len(conflicts),
    )


class _StaleAtomicRead(Exception):
    """Internal: merge-time read validation failed for one atomic."""


def _sanitized_cross_block_sharing(records: Sequence[BlockRecord]) -> bool:
    """True when blocks share a tracked cell in a way the launch-wide
    serial monitor could flag as a cross-block race: a plain write
    against *any* other block's access, or an atomic against another
    block's plain access.  Read-read and atomic-atomic sharing is
    race-free (and atomic results are still read-validated by
    :func:`_apply_records`)."""
    readers: Dict[Tuple[int, int], set] = {}
    writers: Dict[Tuple[int, int], set] = {}
    atomics: Dict[Tuple[int, int], set] = {}
    for r in records:
        b = r.block_id
        for cell in r.read_cells:
            readers.setdefault(cell, set()).add(b)
        for cell in r.write_set:
            writers.setdefault(cell, set()).add(b)
        for op in r.oplog:
            cell = (op[1], op[2])
            if op[0] == OP_STORE:
                writers.setdefault(cell, set()).add(b)
            else:
                atomics.setdefault(cell, set()).add(b)
    for cell, wb in writers.items():
        others = (
            readers.get(cell, set())
            | wb
            | atomics.get(cell, set())
        )
        if len(wb) > 1 or others - wb:
            return True
    for cell, ab in atomics.items():
        plain = readers.get(cell, set()) | writers.get(cell, set())
        if plain - ab:
            return True
    return False


def _apply_records(gmem, records: Sequence[BlockRecord]) -> bool:
    """Apply merged block effects to live memory; True if rolled back.

    Replays each record's write-set and oplog in ascending block id while
    validating every atomic: :func:`apply_atomic` recomputes the old
    value the *serial* interleaving would have produced, and if that
    differs from the value the block observed under its snapshot, the
    block's subsequent behaviour (control flow, later writes) cannot be
    trusted.  All effects applied so far are then undone — the caller
    falls back to serial execution against the intact pre-launch state.
    """
    undo: List[tuple] = []
    added: List[object] = []
    try:
        for r in records:
            # Columnar apply: group the write-set by buffer (first-seen
            # handle order), then one gather (old values, canonical
            # bounds fault) + one scatter per buffer instead of a Python
            # read/write round-trip per cell.  Cells are unique within a
            # record, so per-buffer grouping cannot reorder conflicting
            # writes.
            by_handle: Dict[int, Tuple[list, list]] = {}
            for (handle, idx), value in r.write_set.items():
                cols = by_handle.get(handle)
                if cols is None:
                    cols = by_handle[handle] = ([], [])
                cols[0].append(idx)
                cols[1].append(value)
            for handle, (idxs, values) in by_handle.items():
                buf = gmem.lookup(handle)
                idx_arr = np.asarray(idxs, dtype=np.int64)
                vals = np.asarray(values, dtype=buf.dtype)
                undo.append((buf, idx_arr, buf.gather(idx_arr)))
                buf.scatter(idx_arr, vals)
            for op in r.oplog:
                buf = gmem.lookup(op[1])
                idx = op[2]
                undo.append((buf, idx, buf.read(idx)))
                if op[0] == OP_STORE:
                    buf.write(idx, op[3])
                else:
                    old = apply_atomic(buf, idx, op[3], op[4])
                    # NaN-safe: anything but a clean match falls back to
                    # serial, which is always correct.
                    if not (old == op[5]):
                        raise _StaleAtomicRead
            for name, size, dtype, pages in r.live_allocs:
                buf = gmem.alloc(name, size, dtype)
                apply_pages(buf, pages)
                added.append(buf)
    except _StaleAtomicRead:
        for buf in added:
            gmem.free(buf)
        for buf, idx, old in reversed(undo):
            buf.data[idx] = old
            buf.mark_dirty_sel(idx)
        return True
    return False


def _capture_and_purge(gmem, watermark: int) -> List[tuple]:
    """Capture kernel-time global allocations still live, then drop them.

    Serial launches leave such allocations (per-team ``dyn_counter``
    scratch, leaked sharing fallbacks) live in global memory; the
    coordinator recreates them from the returned descriptions so
    ``live_bytes`` accounting matches.  Purging them here keeps the
    in-process path's parent state identical to the forked path's.
    """
    survivors = []
    for buf in gmem.allocated_since(watermark):
        if buf.space == "global":
            # Kernel-time allocations start zeroed with a clear bitmap,
            # so their dirty pages are exactly the written content —
            # ship those instead of the whole buffer.
            survivors.append(
                (buf.name, buf.size, buf.dtype, capture_dirty_pages(buf))
            )
            gmem.free(buf)
        else:
            # Shared/local buffers registered for handle travel: forget the
            # handle (the block that owned the memory is gone).
            gmem.drop(buf)
    return survivors


def _find_cross_block_conflicts(gmem, records: Sequence[BlockRecord]) -> List[object]:
    """Flag cells where distinct blocks' non-atomic writes collide.

    Two blocks plainly storing *different* final values to one cell, or
    one block plainly storing a cell another block updates atomically,
    is a cross-block data race the per-block monitors cannot see — and
    the one situation where the merged result is merely *a* legal
    interleaving rather than the serial one.
    """
    plain: Dict[Tuple[int, int], Dict[int, object]] = {}
    atomic: Dict[Tuple[int, int], List[int]] = {}
    for r in records:
        for cell, value in r.write_set.items():
            plain.setdefault(cell, {})[r.block_id] = value
        for op in r.oplog:
            cell = (op[1], op[2])
            if op[0] == OP_STORE:
                plain.setdefault(cell, {})[r.block_id] = op[3]
            else:
                blocks = atomic.setdefault(cell, [])
                if not blocks or blocks[-1] != r.block_id:
                    blocks.append(r.block_id)

    findings = []
    from repro.sanitizer.report import Finding

    for cell in sorted(plain):
        by_block = plain[cell]
        handle, idx = cell
        name = gmem.lookup(handle).name
        writers = sorted(by_block)
        values = [by_block[b] for b in writers]
        if len(writers) > 1 and any(v != values[0] for v in values[1:]):
            findings.append(Finding(
                category="cross-block-write-conflict",
                message=(
                    f"blocks {writers} store conflicting values to "
                    f"{name!r}[{idx}] with no inter-block ordering; the "
                    f"merged result keeps block {writers[-1]}'s value "
                    "(the serial interleaving), but any order is legal"
                ),
                address=(name, idx),
                extra={"blocks": writers},
            ))
        foreign_atomics = [b for b in atomic.get(cell, ()) if b not in by_block]
        if foreign_atomics:
            findings.append(Finding(
                category="cross-block-write-conflict",
                message=(
                    f"block(s) {writers} plainly store {name!r}[{idx}] "
                    f"while block(s) {sorted(set(foreign_atomics))} update "
                    "it atomically; plain stores do not compose with "
                    "cross-block atomics"
                ),
                address=(name, idx),
                extra={"blocks": writers, "atomic_blocks": sorted(set(foreign_atomics))},
            ))
    return findings


def _merge_reports(plan: LaunchPlan, records: Sequence[BlockRecord]):
    """Merge per-block sanitizer reports ascending, re-applying the
    launch-wide ``max_findings`` cap the serial shared monitor enforced."""
    from repro.sanitizer.report import SanitizerReport

    merged = SanitizerReport(plan.label or "kernel")
    cap = plan.config.max_findings
    for r in records:
        rep = r.report
        if rep is None:
            continue
        for finding in rep.findings:
            # The race detector suppresses further race findings once the
            # report is full; other detectors are never capped.
            if finding.category == "data-race" and len(merged.findings) >= cap:
                merged.truncated += 1
            else:
                merged.findings.append(finding)
        merged.notes.extend(rep.notes)
        merged.merge_stats(rep.stats)
        merged.truncated += rep.truncated
        merged.dependent.extend(rep.dependent)
    return merged
