"""Block-granular launch checkpoints: resume instead of full rollback.

The parallel engine runs **every block against the pre-launch snapshot**
and merges per-block :class:`~repro.exec.record.BlockRecord` deltas
afterwards (see :mod:`repro.exec.engine`).  That isolation is exactly
what makes a checkpoint sound: a completed block's record is a pure
function of the pre-launch state, so after the retry ladder rolls memory
back to the snapshot the record is *still valid* — it can be merged on a
later attempt as if the block had just run.  Side-state deltas ride the
records and apply only at merge time, so a resumed block's counters are
never double-counted.

:class:`LaunchCheckpoint` is the carrier.  ``Device.launch(retries=...,
resume=True)`` attaches one to the plan; when an attempt dies mid-flight
(watchdog timeout, worker crash exhausting the pool ladder) the engine
harvests every block that *did* complete into the checkpoint before the
error propagates, and the next attempt re-executes only the remainder —
``kc.extra["blocks_resumed"]``/``["blocks_replayed"]`` report the split.

Checkpoints also persist: :meth:`save`/:meth:`load` write the records
through an atomic tmp-rename with fsync, so a launch killed by process
death can resume in a fresh process.  Only ``completed=True`` records are ever checkpointed — a
partial or erroring block re-executes from scratch.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Dict, Iterable, List, Optional, Set


class LaunchCheckpoint:
    """Completed per-block records for one logical launch.

    ``num_blocks``/``threads_per_block`` fingerprint the grid geometry;
    :meth:`matches` refuses to resume a plan with a different shape (the
    engine then falls back to full re-execution — a stale checkpoint can
    cost performance, never correctness).
    """

    def __init__(self, num_blocks: Optional[int] = None,
                 threads_per_block: Optional[int] = None) -> None:
        self.num_blocks = num_blocks
        self.threads_per_block = threads_per_block
        self.records: Dict[int, object] = {}

    # -- population --------------------------------------------------------
    def bind(self, num_blocks: int, threads_per_block: int) -> None:
        """Pin the grid geometry (first launch attempt); a geometry
        change discards previously checkpointed records."""
        if (self.num_blocks, self.threads_per_block) != (
                num_blocks, threads_per_block):
            self.records.clear()
        self.num_blocks = num_blocks
        self.threads_per_block = threads_per_block

    def add(self, records: Iterable[object]) -> int:
        """Absorb completed records; returns how many were new."""
        fresh = 0
        for rec in records:
            if rec is None or not getattr(rec, "completed", False):
                continue
            if getattr(rec, "error", None) is not None:
                continue
            if rec.block_id not in self.records:
                fresh += 1
            self.records[rec.block_id] = rec
        return fresh

    def clear(self) -> None:
        self.records.clear()

    # -- queries -----------------------------------------------------------
    def matches(self, num_blocks: int, threads_per_block: int) -> bool:
        return (self.num_blocks == num_blocks
                and self.threads_per_block == threads_per_block)

    def completed_ids(self) -> Set[int]:
        return set(self.records)

    def take(self, block_ids: Iterable[int]) -> List[object]:
        return [self.records[b] for b in block_ids if b in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return True  # an empty checkpoint is still a checkpoint

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically persist (tmp + fsync + rename): a crash mid-save
        leaves the previous checkpoint file intact, never a torn one."""
        payload = pickle.dumps({
            "num_blocks": self.num_blocks,
            "threads_per_block": self.threads_per_block,
            "records": self.records,
        }, protocol=pickle.HIGHEST_PROTOCOL)
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "LaunchCheckpoint":
        """Load a saved checkpoint; a missing or unreadable file yields
        an empty checkpoint (resume then degrades to full execution)."""
        ckpt = cls()
        try:
            with open(path, "rb") as fh:
                state = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return ckpt
        ckpt.num_blocks = state.get("num_blocks")
        ckpt.threads_per_block = state.get("threads_per_block")
        records = state.get("records") or {}
        if isinstance(records, dict):
            ckpt.records = records
        return ckpt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LaunchCheckpoint(blocks={self.num_blocks}, "
                f"completed={len(self.records)})")
