"""Launch coalescing: many small requests, one segmented grid.

A solo launch is a :class:`~repro.exec.LaunchPlan` of one
:class:`~repro.exec.GridSegment`; a batch is the same plan with one
segment per compatible request, run by the same executors, merged by
the same :func:`~repro.exec.merge_records`, and composed into counters
by the same :func:`~repro.gpu.device.launch_counters`.  Each request's
blocks execute with **local** coordinates (block 0..n-1 of its own
grid) so every lane — and the JIT's trace-cache key — observes exactly
what a solo launch would have shown it; only the merge order uses
global ids.  The result is bit-identical to running the requests one at
a time (tested by the hypothesis property in ``tests/serve``).

Eligibility (:func:`compatible`): same ``threads_per_block``, hook-free
(no tracer/sanitizer/races/schedule-policy — enforced by
``LaunchPlan.validate_segments``), same resolved round engine, and
disjoint global buffers — guaranteed here by construction, because
:func:`prepare` allocates each request's buffers fresh from its input
arrays.  Per-request telemetry demuxes from the per-segment outcome:
block counters, shared high-water mark, runtime-counter deltas, and the
cost model's cycle composition.  Launch-scoped telemetry — JIT
(``kc.extra["engine"]``/``["jit_*"]``), pool recovery, fault deltas and
cross-block conflicts — cannot be attributed to a single request inside
a batch, so batched counters omit it (documented in ``docs/SERVE.md``);
a JIT batch's one record still folds into :func:`repro.jit.snapshot`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import LaunchError, LaunchTimeout
from repro.exec import GridSegment, LaunchPlan, SerialExecutor
from repro.exec.record import ErrorCapsule
from repro.gpu.counters import KernelCounters
from repro.gpu.device import launch_counters, runtime_extras
# Unused here, but kept as a module attribute: profilers wrap it by name.
from repro.gpu.sm import compose_kernel_cycles  # noqa: F401
from repro.runtime.icv import DEFAULT_SHARING_BYTES

__all__ = [
    "LaunchOutcome",
    "PreparedLaunch",
    "compatible",
    "prepare",
    "release",
    "run_batch",
]


@dataclass
class PreparedLaunch:
    """One request, bound to the serving device and ready to run.

    Created by :func:`prepare`: input arrays are materialized as fresh
    global buffers (disjoint from every other prepared request by
    construction), the entry closure is bound, and geometry is resolved
    through the same ladder ``omp.launch`` uses.
    """

    name: str
    kernel: object
    cfg: object
    rc: object
    entry: object
    buffers: Dict[str, object]
    out: Sequence[str]
    regs_per_thread: int = 32

    @property
    def num_blocks(self) -> int:
        return self.cfg.num_teams

    @property
    def threads_per_block(self) -> int:
        return self.cfg.block_dim


@dataclass
class LaunchOutcome:
    """Demuxed per-request result of a (possibly batched) execution."""

    name: str
    counters: Optional[KernelCounters] = None
    runtime: object = None
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)
    error: Optional[ErrorCapsule] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> None:
        if self.error is not None:
            self.error.reraise()


def prepare(
    device,
    catalog,
    name: str,
    args: Dict[str, np.ndarray],
    *,
    num_teams: int,
    team_size: int,
    simd_len: Optional[int] = None,
    out: Optional[Sequence[str]] = None,
    sharing_bytes: int = DEFAULT_SHARING_BYTES,
    regs_per_thread: int = 32,
    tag: Optional[str] = None,
) -> PreparedLaunch:
    """Bind one request: allocate its buffers, build its entry.

    ``args`` maps kernel arg names to host arrays; each is copied into
    a fresh global buffer (tagged so concurrent requests never share a
    name).  ``out`` names the args to read back after execution
    (default: all of them).
    """
    kernel = catalog.get(name)
    tag = tag or name
    buffers = {}
    with device.lock:
        try:
            for arg_name in sorted(args):
                buffers[arg_name] = device.from_array(
                    f"{tag}:{arg_name}", np.asarray(args[arg_name])
                )
        except BaseException:
            for buf in buffers.values():
                device.free(buf)
            raise
    entry, cfg, rc = catalog.build_entry(
        name,
        device.gmem,
        buffers,
        num_teams=num_teams,
        team_size=team_size,
        simd_len=simd_len,
        sharing_bytes=sharing_bytes,
        params=device.params,
    )
    return PreparedLaunch(
        name=name,
        kernel=kernel,
        cfg=cfg,
        rc=rc,
        entry=entry,
        buffers=buffers,
        out=tuple(out) if out is not None else tuple(sorted(args)),
        regs_per_thread=regs_per_thread,
    )


def release(device, prepared: PreparedLaunch) -> None:
    """Free a prepared request's buffers (after outputs are read)."""
    with device.lock:
        for buf in prepared.buffers.values():
            try:
                device.free(buf)
            except Exception:
                pass  # already freed (e.g. rollback path)
        prepared.buffers = {}


def compatible(a: PreparedLaunch, b: PreparedLaunch) -> bool:
    """Can ``a`` and ``b`` share one merged grid?

    Same block shape is the only per-pair condition — buffer
    disjointness holds by construction and hook-freedom is enforced at
    plan level.  (The resolved engine is a batch-level property: every
    request in a batch runs under the batch's engine.)
    """
    return a.threads_per_block == b.threads_per_block


def run_batch(
    device,
    prepared: Sequence[PreparedLaunch],
    *,
    engine: Optional[str] = None,
    executor=None,
    faults=None,
    timeout: Optional[float] = None,
) -> List[LaunchOutcome]:
    """Execute prepared requests as one segmented grid; demux results.

    ``executor`` runs the plan (default
    :class:`~repro.exec.SerialExecutor`); a warm
    :class:`~repro.serve.lease.PoolLease` is one more executor, which
    rebuilds each segment from the request it carries
    (``GridSegment.source``).  The whole execute-and-merge runs under
    ``device.lock`` (one grid owns the device at a time).

    A request whose kernel raises gets the error in its own
    :class:`LaunchOutcome` — the same exception a solo launch would
    have raised, after the same partial state commit — and the other
    requests in the batch are unaffected.
    """
    if not prepared:
        return []
    tpb = prepared[0].threads_per_block
    for p in prepared[1:]:
        if not compatible(prepared[0], p):
            raise LaunchError(
                f"incompatible batch: {prepared[0].name!r} has "
                f"threads_per_block={tpb}, {p.name!r} has "
                f"{p.threads_per_block}"
            )
    plan = LaunchPlan(
        segments=tuple(GridSegment(p.entry, p.num_blocks, label=p.name,
                                   source=p) for p in prepared),
        threads_per_block=tpb,
        side_state=tuple(p.rc for p in prepared) + (
            (faults.counters,) if faults is not None else ()),
        faults=faults,
        deadline=(time.monotonic() + timeout) if timeout is not None else None,
    )
    exec_ = executor if executor is not None else SerialExecutor()

    with plan.engine_scope(engine), device.lock:
        try:
            outcome = exec_.execute(device, plan)
        except LaunchTimeout as err:
            if err.timeout is None:
                err.timeout = timeout
            raise

        results: List[LaunchOutcome] = []
        for p, seg in zip(prepared, outcome.segments):
            kc = launch_counters(
                device.params, seg, p.num_blocks, tpb, p.regs_per_thread,
                runtime_extras(p.rc, p.cfg.simd_len),
            )
            results.append(LaunchOutcome(
                name=p.name,
                counters=kc,
                runtime=p.rc,
                # ``to_numpy`` already returns a fresh host copy.
                outputs={name: p.buffers[name].to_numpy()
                         for name in p.out if name in p.buffers},
                error=seg.error,
            ))
    return results
