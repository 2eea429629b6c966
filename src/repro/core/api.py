"""Public API: build directive programs, compile them, launch them.

This is the surface a downstream user works with::

    import numpy as np
    from repro import Device, omp

    dev = Device()
    x = dev.from_array("x", np.arange(4096, dtype=np.float64))
    y = dev.from_array("y", np.zeros(4096))

    def body(tc, ivs, view):
        (i,) = ivs
        v = yield from tc.load(view["x"], i)
        yield from tc.compute("fma")
        yield from tc.store(view["y"], i, 2.0 * v)

    prog = omp.target(omp.teams_distribute_parallel_for(4096, body=body))
    result = omp.launch(dev, prog, num_teams=16, team_size=128,
                        args={"x": x, "y": y})
    print(result.cycles, result.cfg.describe())

Loop bodies are generator functions ``body(tc, ivs, view)`` — ``tc`` is the
device thread context, ``ivs`` the tuple of enclosing loop variables
(outermost first), ``view`` the named argument environment (launch-arg
buffers plus any locals captured from ``pre=`` callbacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.errors import CodegenError
from repro.codegen.canonical_loop import CanonicalLoop
from repro.codegen.directives import (
    ParallelFor,
    Simd,
    Target,
    TeamsDistribute,
    TeamsDistributeParallelFor,
)
from repro.codegen.irbuilder import compile_kernel
from repro.codegen.program import CompiledKernel
from repro.gpu.counters import KernelCounters
from repro.gpu.device import Device, runtime_extras
from repro.runtime.icv import DEFAULT_SHARING_BYTES, ExecMode, LaunchConfig
from repro.runtime.state import RuntimeCounters

__all__ = [
    "ExecMode",
    "LaunchResult",
    "collapsed_loop",
    "compile",
    "launch",
    "loop",
    "parallel_for",
    "simd",
    "target",
    "teams_distribute",
    "teams_distribute_parallel_for",
]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def loop(
    trip_count,
    body=None,
    nested=None,
    pre=None,
    post=None,
    uses: Optional[Sequence[str]] = None,
    captures: Sequence[Tuple[str, str]] = (),
    start: int = 0,
    step: int = 1,
    name: str = "loop",
) -> CanonicalLoop:
    """Build a canonical loop (see :class:`~repro.codegen.canonical_loop.CanonicalLoop`)."""
    return CanonicalLoop(
        trip_count=trip_count,
        body=body,
        nested=nested,
        pre=pre,
        post=post,
        uses=uses,
        captures=tuple(captures),
        start=start,
        step=step,
        name=name,
    )


def collapsed_loop(
    trips: Sequence[int],
    body,
    uses: Optional[Sequence[str]] = None,
    name: str = "collapsed",
) -> CanonicalLoop:
    """Fuse perfectly nested loops — the ``collapse(n)`` clause (§7).

    ``trips`` are the component trip counts, outermost first; ``body``
    receives the decoded component indices in place of the fused induction
    value, with the div/mod decode charged as device ALU ops.  Leaf loops
    only (collapse of a loop containing further constructs is not part of
    the supported matrix).
    """
    from repro.runtime.collapse import collapsed_trip, decode_index_device

    trips = tuple(int(t) for t in trips)
    total = collapsed_trip(trips)

    def decode_body(tc, ivs, view):
        *outer, flat = ivs
        idx = yield from decode_index_device(tc, int(flat), trips)
        yield from body(tc, tuple(outer) + idx, view)

    return loop(total, body=decode_body, uses=uses, name=name)


def _as_loop(loop_or_trip, kwargs) -> CanonicalLoop:
    if isinstance(loop_or_trip, CanonicalLoop):
        if kwargs:
            raise CodegenError(
                "pass loop options either via a CanonicalLoop or keywords, not both"
            )
        return loop_or_trip
    return loop(loop_or_trip, **kwargs)


def simd(
    loop_or_trip,
    simdlen: Optional[int] = None,
    reduction: Optional[tuple] = None,
    external: bool = False,
    **loop_kwargs,
) -> Simd:
    """``#pragma omp simd`` over a loop (innermost, leaf body).

    ``reduction=(op, finalize)`` enables the reduction extension: the body
    returns a value per iteration, the runtime combines them across the
    group, and the SIMD main thread runs ``finalize(tc, ivs, view, total)``.
    ``external=True`` models a body from another translation unit, forcing
    the indirect-call dispatch fallback (§5.5).
    """
    return Simd(
        _as_loop(loop_or_trip, loop_kwargs),
        simdlen=simdlen,
        reduction=reduction,
        external=external,
    )


def parallel_for(
    loop_or_trip,
    mode: ExecMode = ExecMode.AUTO,
    schedule: str = "static_cyclic",
    chunk: int = 1,
    reduction: Optional[tuple] = None,
    **loop_kwargs,
) -> ParallelFor:
    """``#pragma omp parallel for`` across the team's SIMD groups.

    ``reduction=(op, finalize)`` is the for-level reduction clause: the
    leaf body returns a value per iteration, executors accumulate, and the
    first executor runs ``finalize(tc, ivs_outer, view, team_total)`` once
    per region instance.
    """
    return ParallelFor(
        _as_loop(loop_or_trip, loop_kwargs), mode=mode, schedule=schedule,
        chunk=chunk, reduction=reduction,
    )


def teams_distribute(
    loop_or_trip,
    schedule: str = "static",
    dist_chunk: int = 1,
    num_teams: Optional[int] = None,
    thread_limit: Optional[int] = None,
    **loop_kwargs,
) -> TeamsDistribute:
    """``#pragma omp teams distribute`` across the league.

    ``schedule`` is the ``dist_schedule``: "static" contiguous blocks or
    "static_cyclic" round-robin chunks of ``dist_chunk``.
    """
    return TeamsDistribute(
        _as_loop(loop_or_trip, loop_kwargs),
        schedule=schedule,
        dist_chunk=dist_chunk,
        num_teams=num_teams,
        thread_limit=thread_limit,
    )


def teams_distribute_parallel_for(
    loop_or_trip,
    mode: ExecMode = ExecMode.AUTO,
    schedule: str = "static_cyclic",
    chunk: int = 1,
    dist_schedule: str = "static",
    dist_chunk: int = 1,
    num_teams: Optional[int] = None,
    thread_limit: Optional[int] = None,
    reduction: Optional[tuple] = None,
    **loop_kwargs,
) -> TeamsDistributeParallelFor:
    """The combined ``teams distribute parallel for`` construct.

    ``reduction=(op, finalize)`` reduces leaf-body values across each
    team's executors; ``finalize`` runs once per team (accumulate across
    teams with an atomic in the finalizer).
    """
    return TeamsDistributeParallelFor(
        _as_loop(loop_or_trip, loop_kwargs),
        mode=mode,
        schedule=schedule,
        chunk=chunk,
        dist_schedule=dist_schedule,
        dist_chunk=dist_chunk,
        num_teams=num_teams,
        thread_limit=thread_limit,
        reduction=reduction,
    )


def target(child, teams_mode: ExecMode = ExecMode.AUTO) -> Target:
    """``#pragma omp target`` around a teams-level construct."""
    return Target(child, teams_mode=teams_mode)


def compile(
    tree: Target, arg_names: Sequence[str], name: str = "kernel"
) -> CompiledKernel:
    """Lower a directive tree into a launchable kernel."""
    return compile_kernel(tree, arg_names, name=name)


# ---------------------------------------------------------------------------
# Launch
# ---------------------------------------------------------------------------


@dataclass
class LaunchResult:
    """Everything one launch produced: counters, config, and the kernel."""

    kernel: CompiledKernel
    cfg: LaunchConfig
    counters: KernelCounters
    runtime: RuntimeCounters

    @property
    def cycles(self) -> float:
        """Cost-model cycle estimate of the kernel."""
        return self.counters.cycles

    @property
    def sanitizer(self):
        """Sanitizer report of the launch (None unless ``check=`` was set)."""
        return self.counters.sanitizer

    def summary(self) -> Dict[str, float]:
        out = self.counters.summary()
        out["simd_len"] = float(self.cfg.simd_len)
        out["num_teams"] = float(self.cfg.num_teams)
        out["team_size"] = float(self.cfg.team_size)
        return out


def launch(
    device: Device,
    kernel: Union[CompiledKernel, Target],
    num_teams: Optional[int] = None,
    team_size: Optional[int] = None,
    simd_len: Optional[int] = None,
    args: Optional[Dict[str, object]] = None,
    sharing_bytes: int = DEFAULT_SHARING_BYTES,
    name: str = "kernel",
    regs_per_thread: int = 32,
    check=None,
    schedule_policy=None,
    executor=None,
    engine: Optional[str] = None,
    faults=None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    resume: bool = False,
    stream=None,
) -> LaunchResult:
    """Launch a compiled kernel (or compile a tree on the fly) on ``device``.

    ``num_teams``/``team_size`` set the league geometry (``team_size`` is the
    worker-thread count; generic teams mode adds the extra main warp
    automatically).  ``simd_len`` is the SIMD group size — 1 reproduces the
    pre-paper two-level behaviour.  ``regs_per_thread`` is the register
    estimate the occupancy calculation uses (what ``-Xptxas -v`` would
    report for the generated kernel).

    ``check`` runs the launch under the correctness sanitizer
    (:mod:`repro.sanitizer`): ``True``/``"raise"`` raises on the first
    data race, ``"report"`` collects all findings into
    ``result.sanitizer``; a
    :class:`~repro.sanitizer.monitor.SanitizerConfig` gives full control.
    ``schedule_policy`` permutes warp/commit order (see
    :func:`repro.sanitizer.explore_schedules_dpor`).

    ``executor`` selects the launch engine for this call (e.g. a
    :class:`repro.exec.ParallelExecutor`); by default the device's
    executor, then the ``REPRO_EXECUTOR`` environment default, applies.
    ``engine`` selects the round engine (``"auto"``/``"fast"``/``"jit"``)
    exactly like :meth:`Device.launch` — explicit jit on a hooked launch
    is a :class:`~repro.errors.LaunchError`; the fuzz harness uses this
    to pin each differential leg.
    The runtime counters are registered as launch side state so the
    parallel engine merges their per-team deltas deterministically.

    ``faults``/``timeout``/``retries``/``backoff``/``resume`` pass
    straight through to :meth:`~repro.gpu.device.Device.launch` —
    fault-injection plan, wall-clock watchdog, launch-level
    retry-with-rollback, and block-granular checkpoint/resume (see
    ``docs/RESILIENCE.md``).

    ``stream`` (a :class:`repro.serve.Stream`) makes the call
    asynchronous: the launch is queued behind the stream's earlier
    launches and a :class:`repro.serve.LaunchHandle` is returned
    immediately — ``handle.result()`` yields the
    :class:`LaunchResult` (or re-raises the launch's error).  Launches
    on independent streams proceed concurrently, serialized only at
    the device (see ``docs/SERVE.md``).
    """
    args = dict(args or {})
    if isinstance(kernel, Target):
        kernel = compile_kernel(kernel, tuple(sorted(args)), name=name)
    if simd_len is None:
        # Honour the simd construct's simdlen clause; default to the
        # two-level behaviour (group size 1) like pre-paper LLVM.
        simd_len = kernel.simdlen_hint or 1
    if not kernel.has_simd:
        # §5.4: without a simd construct the group size is always one —
        # otherwise group lanes would execute leaf loop bodies redundantly.
        simd_len = 1
    hint_teams, hint_threads = kernel.launch_hints
    if num_teams is None:
        num_teams = hint_teams
    if team_size is None:
        team_size = hint_threads
    if num_teams is None or team_size is None:
        raise CodegenError(
            "launch needs num_teams and team_size — pass them or put "
            "num_teams/thread_limit clauses on the teams construct"
        )
    cfg = LaunchConfig(
        num_teams=num_teams,
        team_size=team_size,
        simd_len=simd_len,
        teams_mode=kernel.teams_mode,
        parallel_mode=kernel.parallel_mode,
        sharing_bytes=sharing_bytes,
        params=device.params,
    )
    def _run() -> LaunchResult:
        # Entry binding happens inside the stream's turn so a queued
        # launch observes buffer contents as of its ordered position,
        # not submission time.
        rc = RuntimeCounters()
        entry = kernel.make_entry(cfg, device.gmem, rc, args)
        kc = device.launch(
            entry,
            num_blocks=cfg.num_teams,
            threads_per_block=cfg.block_dim,
            regs_per_thread=regs_per_thread,
            sanitize=check,
            schedule_policy=schedule_policy,
            executor=executor,
            engine=engine,
            side_state=(rc,),
            faults=faults,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            resume=resume,
        )
        kc.extra.update(runtime_extras(rc, cfg.simd_len))
        return LaunchResult(kernel=kernel, cfg=cfg, counters=kc, runtime=rc)

    if stream is not None:
        return stream.submit(_run)
    return _run()
