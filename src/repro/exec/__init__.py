"""repro.exec — launch executors for the simulated GPU.

Two executors implement ``Device.launch``'s block loop:

* :class:`SerialExecutor` — the classic sequential reference loop;
* :class:`ParallelExecutor` — the block-sharding engine: every block
  runs against a read-snapshot of pre-launch global memory (in forked
  worker processes by default), and the coordinator merges write-sets,
  replays cross-block atomics through ``apply_atomic``, and folds
  counters/sanitizer reports back in ascending block id, bit-identical
  to the serial loop for well-formed kernels (see
  :mod:`repro.exec.engine` and ``docs/EXECUTOR.md``).

The serve tier's :class:`~repro.serve.lease.PoolLease` is a third
executor with the same ``execute(device, plan)`` interface: it runs a
batch's blocks on persistent warm workers through the same
:func:`~repro.exec.engine.run_block` and :func:`merge_records`.

Selection, most specific wins:

1. ``device.launch(..., executor=...)`` per launch;
2. ``Device(..., executor=...)`` per device;
3. :func:`set_default_executor` process-wide override (used by CLI
   ``--workers`` flags);
4. the ``REPRO_EXECUTOR`` environment variable:

   ===================  ===================================================
   ``serial`` / unset   :class:`SerialExecutor`
   ``parallel[:N]``     :class:`ParallelExecutor` with the in-process
                        isolated loop — full snapshot/merge semantics, no
                        forking, safe for kernels observed through host
                        closures (how the test-suite matrix leg runs the
                        whole tier-1 suite through the engine)
   ``fork[:N]``         :class:`ParallelExecutor` over ``N`` forked
                        worker processes (the performance configuration)
   ===================  ===================================================
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from repro.exec.engine import (
    ExecOutcome,
    GridSegment,
    LaunchPlan,
    ParallelExecutor,
    SegmentOutcome,
    SerialExecutor,
    merge_records,
)
from repro.exec.pool import (
    RetryPolicy,
    WorkerPool,
    fork_available,
    fork_map,
)
from repro.exec.record import BlockRecord, ErrorCapsule, GlobalWriteRecorder

__all__ = [
    "BlockRecord",
    "ErrorCapsule",
    "ExecOutcome",
    "GlobalWriteRecorder",
    "GridSegment",
    "LaunchPlan",
    "ParallelExecutor",
    "RetryPolicy",
    "SegmentOutcome",
    "SerialExecutor",
    "WorkerPool",
    "coerce_executor",
    "default_executor",
    "fork_available",
    "fork_map",
    "merge_records",
    "set_default_executor",
]

#: Environment variable consulted by :func:`default_executor`.
EXECUTOR_ENV = "REPRO_EXECUTOR"

_override = None
#: The serve tier launches from multiple threads; the process-wide
#: default must be read/written under a lock rather than relying on the
#: GIL's per-op atomicity (a documented guarantee, not an accidental one).
_override_lock = threading.Lock()


def set_default_executor(executor) -> None:
    """Install (or clear, with None) a process-wide default executor.

    Takes precedence over :data:`EXECUTOR_ENV`; used by CLI entry points
    to honour a ``--workers`` flag for every launch a script performs.
    Thread-safe: concurrent launches resolving the default and callers
    flipping it serialize on an internal lock.
    """
    global _override
    with _override_lock:
        _override = executor


def coerce_executor(spec: str):
    """Parse an executor spec string (the ``REPRO_EXECUTOR`` grammar)."""
    spec = (spec or "").strip().lower()
    if spec in ("", "serial"):
        return SerialExecutor()
    kind, _, arg = spec.partition(":")
    workers = None
    if arg:
        try:
            workers = int(arg)
        except ValueError:
            raise ValueError(f"bad worker count in executor spec {spec!r}")
    if kind == "parallel":
        return ParallelExecutor(workers=workers, processes=False)
    if kind == "fork":
        return ParallelExecutor(workers=workers, processes=True)
    raise ValueError(
        f"unrecognized executor spec {spec!r}; "
        "expected serial, parallel[:N], or fork[:N]"
    )


def default_executor():
    """The executor launches use when none is given explicitly.

    Re-reads the environment on every call so test fixtures and
    subprocesses pick up changes without import-order games.
    """
    if _override is not None:
        return _override
    return coerce_executor(os.environ.get(EXECUTOR_ENV, ""))
