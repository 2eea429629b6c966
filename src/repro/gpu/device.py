"""The simulated device: memory ownership and kernel launch.

:class:`Device` is the substrate's top-level object.  It owns global memory,
carries a :class:`~repro.gpu.costmodel.CostParams` profile, and launches
kernels: it instantiates one :class:`~repro.gpu.block.ThreadBlock` per grid
block, runs them functionally in deterministic order, and composes the
per-block counters into a cycle estimate via :mod:`repro.gpu.sm`.

Typical use::

    dev = Device()                      # A100-like profile
    x = dev.from_array("x", np.arange(1024, dtype=np.float64))

    def kernel(tc, x):
        i = tc.global_tid
        if i < x.size:
            v = yield from tc.load(x, i)
            yield from tc.store(x, i, 2 * v)

    counters = dev.launch(kernel, num_blocks=8, threads_per_block=128, args=(x,))
    print(counters.cycles)
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import LaunchError, LaunchTimeout, MemoryFault, SimulationError
from repro.gpu.block import DEFAULT_MAX_ROUNDS
from repro.gpu.costmodel import CostParams, nvidia_a100
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import Buffer, GlobalMemory
from repro.gpu.sm import compose_kernel_cycles
from repro.exec.state import delta_numeric, restore_numeric, snapshot_numeric

#: CUDA-style upper bound on block size.
MAX_THREADS_PER_BLOCK = 1024

#: Process-wide sanitizer session (set by ``repro.sanitizer.activate``).
#: When active, launches that pass no explicit ``sanitize=`` run under it
#: in report mode — this is what lets ``python -m repro.sanitizer app.py``
#: sanitize an unmodified application, compute-sanitizer style.
_GLOBAL_SANITIZER = None


def set_global_sanitizer(session) -> None:
    """Install (or clear, with None) the process-wide sanitizer session."""
    global _GLOBAL_SANITIZER
    _GLOBAL_SANITIZER = session


class Device:
    """A simulated GPU with its global memory and cost profile."""

    def __init__(self, params: Optional[CostParams] = None, executor=None,
                 faults=None) -> None:
        self.params = params if params is not None else nvidia_a100()
        self.gmem = GlobalMemory()
        #: Default executor for this device's launches (None = resolve via
        #: ``repro.exec.default_executor()``, i.e. the ``REPRO_EXECUTOR``
        #: environment variable, at each launch).
        self.executor = executor
        #: Default fault plan for this device's launches (None = resolve
        #: via ``repro.faults.default_faults()``, i.e. ``REPRO_FAULTS``;
        #: False = faults off, ignoring the environment).
        self.faults = faults
        #: Counters of the most recent launch (convenience for examples).
        #: Updated only after a launch fully completes and merges — a
        #: failed launch leaves it untouched.
        self.last_launch: Optional[KernelCounters] = None
        #: Serializes launches: one simulated GPU runs one grid at a time,
        #: so concurrent callers (the serve tier's streams) queue here
        #: instead of interleaving global-memory mutations.  Reentrant so
        #: serve-side helpers holding it may call :meth:`launch`.
        self.lock = threading.RLock()

    # -- memory facade -------------------------------------------------
    # Allocation takes the device lock: handle assignment is a compound
    # read-modify-write on the allocator, and serve-tier threads
    # allocate concurrently with launches in flight.
    def alloc(self, name: str, size: int, dtype) -> Buffer:
        """Allocate ``size`` elements of ``dtype`` in global memory."""
        with self.lock:
            return self.gmem.alloc(name, size, dtype)

    def from_array(self, name: str, array) -> Buffer:
        """Allocate and initialise a global buffer from host data."""
        with self.lock:
            return self.gmem.from_array(name, array)

    def scalar(self, name: str, value, dtype=None) -> Buffer:
        """Allocate a 1-element global buffer (a boxed scalar)."""
        with self.lock:
            return self.gmem.scalar(name, value, dtype)

    def free(self, buf: Buffer) -> None:
        with self.lock:
            self.gmem.free(buf)

    def to_numpy(self, buf: Buffer) -> np.ndarray:
        return buf.to_numpy()

    # -- launch ----------------------------------------------------------
    def launch(
        self,
        entry,
        num_blocks: int,
        threads_per_block: int,
        args: Sequence = (),
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        regs_per_thread: int = 32,
        tracer=None,
        sanitize=None,
        schedule_policy=None,
        executor=None,
        side_state: Sequence = (),
        faults=None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        resume: bool = False,
        checkpoint=None,
        engine: Optional[str] = None,
    ) -> KernelCounters:
        """Run ``entry(tc, *args)`` over a grid and return kernel counters.

        ``entry`` must be a generator function whose first parameter is the
        :class:`~repro.gpu.thread.ThreadCtx`.  Blocks cannot synchronize
        with one another, so any block execution order is legal; the
        default :class:`~repro.exec.SerialExecutor` runs them sequentially
        in ascending block id, and :class:`~repro.exec.ParallelExecutor`
        shards them over a worker pool and merges the per-block effects
        back deterministically — bit-identical results either way for
        well-formed kernels (see ``docs/EXECUTOR.md``).

        ``executor`` overrides the execution strategy for this launch;
        otherwise the device's executor, then the process default
        (``REPRO_EXECUTOR``), applies.  ``side_state`` names host-side
        accumulator objects (e.g. the OpenMP runtime's counters) whose
        numeric fields the kernel mutates, so the parallel engine can
        merge their per-block deltas; launches with a ``tracer`` always
        run serially in-process.

        ``tracer(block_id, round, tid, event)``, when given, observes every
        posted event — a debugging hook for protocol inspection.

        ``sanitize`` attaches the correctness sanitizer
        (:mod:`repro.sanitizer`): ``True``/``"raise"`` raises on the first
        data race (deadlocks raise regardless, now with the analyzer's
        explanation appended); ``"report"`` collects every finding into a
        :class:`~repro.sanitizer.report.SanitizerReport` attached to the
        returned counters as ``kc.sanitizer``.  A
        :class:`~repro.sanitizer.monitor.SanitizerConfig` selects
        individual detectors.

        ``schedule_policy`` (e.g. a seeded
        :class:`~repro.sanitizer.schedule.BoundedPreemptionSchedule` or a
        :class:`~repro.sanitizer.schedule.DirectedSchedule`) permutes warp
        resolution and commit order per round — a legal interleaving used
        by the schedule explorer.  Both options are zero-cost when unset.

        Resilience surface (see ``docs/RESILIENCE.md``):

        * ``faults`` attaches a :class:`repro.faults.FaultPlan` for this
          launch (``False`` forces faults off; None resolves the device
          plan — where ``False`` likewise forces faults off — then
          :func:`repro.faults.default_faults`, i.e. the ``REPRO_FAULTS``
          environment variable).
        * ``timeout`` arms a wall-clock watchdog (seconds); expiry raises
          :class:`~repro.errors.LaunchTimeout` with per-block progress.
        * ``retries``/``backoff`` arm launch-level retry-with-rollback:
          a launch that fails with a :class:`~repro.errors.SimulationError`
          (including timeouts and unrepaired memory faults) is rolled back
          to a pre-launch snapshot — buffer contents restored, kernel-time
          allocations freed, side-state counters rewound — and re-executed
          after capped exponential backoff, up to ``retries`` times.
        * ``resume=True`` upgrades those retries to block-granular
          checkpoint/resume on checkpoint-capable executors (the
          parallel engine): blocks an attempt completed before dying are
          harvested into a :class:`repro.faults.LaunchCheckpoint` and
          merged — not re-executed — on the next attempt, with
          ``kc.extra["blocks_resumed"]``/``["blocks_replayed"]``
          reporting the split.  ``checkpoint=`` supplies an external
          (possibly persisted) checkpoint instead, for cross-process
          resume.  On the serial executor, or when no blocks were
          checkpointed, resume degrades cleanly to the full-rollback
          retry it upgrades.

        ``engine`` selects the block round engine (``docs/PERF.md``):
        ``"auto"`` and ``"fast"`` run the block round loop, into which
        every hook (``tracer``/``sanitize``/``schedule_policy``/a fault
        plan) is specialized at construction; ``"jit"`` trace-compiles
        stable warps into batched NumPy scripts and deoptimizes to the
        round loop per block otherwise.  Results are bit-identical
        across engines.  Passing ``engine="jit"`` together with a hook
        raises :class:`~repro.errors.LaunchError`, since the JIT carries
        no hook points.  When ``engine`` is omitted the ``REPRO_ENGINE``
        environment variable applies (a ``jit`` preference falls back to
        the round loop silently under hooks, so whole suites can be
        swept), then ``"auto"``.
        JIT launches report the chosen engine and per-launch compile/
        deopt telemetry in ``kc.extra`` (``engine``,
        ``jit_warps_compiled``, ``jit_deopt_<reason>``).
        """
        with self.lock:
            if num_blocks < 1:
                raise LaunchError("grid must have at least one block")
            if not 1 <= threads_per_block <= MAX_THREADS_PER_BLOCK:
                raise LaunchError(
                    f"threads_per_block must be in [1, {MAX_THREADS_PER_BLOCK}], "
                    f"got {threads_per_block}"
                )
            # Imported lazily: repro.exec pulls in the sanitizer package,
            # which imports this module.
            from repro.exec.engine import GridSegment, LaunchPlan
            from repro.jit import JitCounters, resolve_engine

            config, label, report_mode, session = _resolve_sanitizer(
                sanitize, entry)
            exec_ = self._resolve_executor(executor, tracer)
            faults_ = self._resolve_faults(faults)
            resolved = resolve_engine(
                engine, _hook_name(tracer, config, schedule_policy, faults_))
            jit_stats = JitCounters() if resolved == "jit" else None

            user_side = tuple(side_state)
            # Fault counters and JIT telemetry ride the side-state merge so
            # bumps made inside forked workers travel back to the
            # coordinator deterministically.
            plan_side = user_side
            if faults_ is not None:
                plan_side += (faults_.counters,)
            if jit_stats is not None:
                plan_side += (jit_stats,)
            plan = LaunchPlan(
                segments=(GridSegment(entry, num_blocks),),
                args=tuple(args),
                threads_per_block=threads_per_block,
                max_rounds=max_rounds,
                config=config,
                label=label,
                report_mode=report_mode,
                schedule_policy=schedule_policy,
                tracer=tracer,
                side_state=plan_side,
                faults=faults_,
                engine=resolved,
                jit_stats=jit_stats,
            )
            if checkpoint is None and resume:
                from repro.faults.checkpoint import LaunchCheckpoint

                checkpoint = LaunchCheckpoint()
            if checkpoint is not None and getattr(
                    exec_, "supports_checkpoint", False):
                plan.checkpoint = checkpoint

            fc_base = None
            if faults_ is not None:
                faults_.launch_index += 1
                fc_base = snapshot_numeric((faults_.counters,))
            outcome = self._run_attempts(
                exec_, plan, user_side, timeout, int(retries) + 1, backoff)

            kc = launch_counters(self.params, outcome.segments[0], num_blocks,
                                 threads_per_block, regs_per_thread)
            _add_launch_extras(kc, plan, outcome, session)
            if faults_ is not None:
                _add_fault_extras(kc, faults_, fc_base)
            self.last_launch = kc
            return kc

    # -- launch steps ----------------------------------------------------
    def _resolve_executor(self, executor, tracer):
        """The launch's executor: the argument, the device's, then the
        process default.  Tracing observes live generators through a host
        closure, which only the in-process serial interleaving supports."""
        from repro.exec import SerialExecutor, default_executor

        exec_ = executor if executor is not None else self.executor
        if exec_ is None:
            exec_ = default_executor()
        if tracer is not None and not isinstance(exec_, SerialExecutor):
            exec_ = SerialExecutor()
        return exec_

    def _resolve_faults(self, faults):
        """The launch's fault plan (None = faults off): the argument, the
        device's, then ``REPRO_FAULTS``; ``False`` forces faults off."""
        if faults is None:
            faults = self.faults
        if faults is None:
            from repro.faults import default_faults

            return default_faults()
        return None if faults is False else faults

    def _run_attempts(self, exec_, plan, user_side, timeout, max_attempts,
                      backoff):
        """Execute the plan, rolling back and retrying on failure.

        Executors raise (or return the segment error, re-raised here)
        before any coordinator-side bookkeeping happens, so a failed
        launch leaves ``last_launch`` and the sanitizer session exactly as
        they were.  With retries armed, a SimulationError (timeout,
        unrepaired memory fault, worker failure, injected breakage) rolls
        global memory and side state back to the pre-launch snapshot and
        re-executes after capped exponential backoff.
        """
        faults_ = plan.faults
        need_snapshot = max_attempts > 1 or (
            faults_ is not None
            and any(s.site == "memory.bitflip" for s in faults_.specs)
        )
        side_base = snapshot_numeric(user_side) if max_attempts > 1 else None
        attempt = 0
        leak_mark = self.gmem.mark()
        snapshot = None
        while True:
            if need_snapshot:
                from repro.faults.scrub import MemorySnapshot

                # Chained: attempt 0 pays the full copy; every retry
                # advances the previous snapshot for O(dirty pages)
                # (the failed attempt was rolled back through marked
                # write paths, so the bitmap covers all divergence).
                snapshot = MemorySnapshot(self.gmem, base=snapshot)
            if faults_ is not None:
                faults_.launch_attempt = attempt
            plan.deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            try:
                if faults_ is not None:
                    self._inject_memory_faults(faults_, snapshot, attempt)
                outcome = exec_.execute(self, plan)
                error = outcome.segments[0].error
                if error is not None:
                    error.reraise()
                return outcome
            except SimulationError as err:
                if isinstance(err, LaunchTimeout) and err.timeout is None:
                    err.timeout = timeout
                if attempt + 1 >= max_attempts:
                    # Terminal failure: reclaim sharing-space overflow
                    # allocations the dying kernel could not release
                    # in-band (the lockstep loop stopped resuming lanes).
                    from repro.runtime.sharing import release_leaked_overflow

                    release_leaked_overflow(self.gmem, leak_mark)
                    raise
                if snapshot is not None:
                    snapshot.restore()
                if side_base is not None:
                    restore_numeric(user_side, side_base)
                if faults_ is not None:
                    faults_.counters.launch_retries += 1
                    faults_.counters.rollbacks += 1
                time.sleep(min(1.0, backoff * (2 ** attempt)))
                attempt += 1

    def _inject_memory_faults(self, plan, snapshot, attempt: int) -> None:
        """Fire the ``memory.bitflip`` site, then run the ECC-style scrub.

        Flips land between the pre-launch snapshot and execution, exactly
        where a real upset between kernel launches would.  With the plan's
        ``scrub`` enabled (default) dirty pages are detected by checksum
        and repaired from the snapshot — or, for a ``repair=False`` spec,
        surfaced as :class:`~repro.errors.MemoryFault` with provenance
        (which the retry ladder can roll back and retry past, since the
        spec's ``attempts`` bound stops it re-firing).
        """
        from repro.faults.scrub import inject_bitflips

        coords = {"launch": plan.launch_index, "attempt": attempt}
        spec = plan.fires("memory.bitflip", **coords)
        if spec is None:
            return
        flips = inject_bitflips(self.gmem, plan, spec, coords)
        if not flips:
            return
        if not plan.scrub:
            plan.record("memory.bitflip", coords, recovered=False,
                        detail=f"{flips} flip(s), scrub disabled")
            return
        try:
            pages = snapshot.scrub(plan, repair=spec.repair)
        except MemoryFault as err:
            plan.record("memory.bitflip", coords, recovered=False,
                        detail=str(err))
            raise
        plan.record("memory.bitflip", coords, recovered=True,
                    detail=f"{flips} flip(s) across {pages} dirty page(s)")


def _resolve_sanitizer(sanitize, entry):
    """``(config, label, report_mode, session)`` for a launch: the
    explicit ``sanitize=`` argument, else the process-wide session (in
    report mode), else no sanitizer."""
    if sanitize in (None, False, "off"):
        if sanitize is None and _GLOBAL_SANITIZER is not None:
            return (_GLOBAL_SANITIZER.config, _entry_label(entry), True,
                    _GLOBAL_SANITIZER)
        return None, None, False, None
    from repro.sanitizer.monitor import SanitizerConfig

    config = SanitizerConfig.coerce(sanitize)
    return config, _entry_label(entry), config.mode == "report", None


def _entry_label(entry) -> str:
    return getattr(entry, "__qualname__", None) or repr(entry)


def _hook_name(tracer, config, schedule_policy, faults) -> Optional[str]:
    """The first hook a launch attaches, as :func:`repro.jit.resolve_engine`
    names it (None = hook-free)."""
    for name, hook in (("tracer", tracer), ("sanitizer", config),
                       ("schedule_policy", schedule_policy),
                       ("fault plan", faults)):
        if hook is not None:
            return name
    return None


def launch_counters(params, out, num_blocks: int, threads_per_block: int,
                    regs_per_thread: int, extra=None) -> KernelCounters:
    """Compose one segment outcome into :class:`KernelCounters`.

    The one composition both launch paths share: ``Device.launch`` for
    its single segment and ``run_batch`` per request.  Cycles come from
    the cost model's :func:`~repro.gpu.sm.compose_kernel_cycles`;
    ``extra`` (e.g. :func:`runtime_extras`) is appended after the
    geometry keys.
    """
    kc = KernelCounters(num_blocks=num_blocks, threads_per_block=threads_per_block)
    kc.blocks = out.blocks
    kc.cycles, kc.blocks_per_sm, kc.waves = compose_kernel_cycles(
        params, kc.blocks, threads_per_block, out.shared_used, regs_per_thread,
    )
    kc.extra["shared_bytes_per_block"] = float(out.shared_used)
    kc.extra["regs_per_thread"] = float(regs_per_thread)
    if extra:
        kc.extra.update(extra)
    return kc


def runtime_extras(rc, simd_len: int) -> dict:
    """``kc.extra`` entries of an OpenMP launch: its runtime-counter
    values and SIMD group size."""
    extra = rc.as_dict()
    extra["simd_len"] = float(simd_len)
    return extra


def _add_launch_extras(kc: KernelCounters, plan, outcome, session) -> None:
    """Attach what only a solo launch reports: the sanitizer report, the
    merge's cross-block conflicts, JIT telemetry, pool recovery stats and
    the checkpoint/resume split."""
    if outcome.report is not None:
        kc.sanitizer = outcome.report
        kc.extra["sanitizer_findings"] = float(len(outcome.report.findings))
        if session is not None:
            session.add(outcome.report)
    if outcome.cross_block_conflicts:
        kc.extra["cross_block_conflicts"] = float(outcome.cross_block_conflicts)
    if plan.jit_stats is not None:
        # JIT launches only: hook-free launches without an engine
        # preference carry no extra keys, so their counters stay
        # bit-identical to every pre-JIT baseline.
        kc.extra["engine"] = "jit"
        for key, value in plan.jit_stats.extra_items():
            kc.extra[key] = value
    if outcome.recovery:
        for key, val in sorted(outcome.recovery.items()):
            if val:
                kc.extra[f"pool_{key}"] = float(val)
    if plan.checkpoint is not None:
        kc.extra["blocks_resumed"] = float(outcome.blocks_resumed)
        kc.extra["blocks_replayed"] = float(outcome.blocks_replayed)


def _add_fault_extras(kc: KernelCounters, faults, base) -> None:
    """Per-launch fault-counter deltas: a plan under which nothing fired
    adds no keys, keeping counters bit-identical to a plane-less run."""
    delta = delta_numeric((faults.counters,), base)[0]
    injected = sum(
        delta.get(k, 0)
        for k in ("worker_crashes", "worker_hangs", "bitflips",
                  "forced_overflows", "atomic_transients")
    )
    for key, value in (
        ("faults", injected),
        ("faults_detected", delta.get("detected", 0)),
        ("faults_recovered", delta.get("recovered", 0)),
        ("faults_unrecovered", delta.get("unrecovered", 0)),
        ("faults_retries",
         delta.get("chunk_retries", 0) + delta.get("launch_retries", 0)),
        ("faults_degradations", delta.get("degradations", 0)),
        ("faults_timeouts", delta.get("timeouts", 0)),
    ):
        if value:
            kc.extra[key] = float(value)
