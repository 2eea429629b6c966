"""A self-healing fork-based worker pool for embarrassingly parallel fan-out.

The simulator's work units — thread blocks, schedule-exploration seeds —
close over generator functions, device objects, and live NumPy buffers,
none of which survive pickling.  ``fork`` sidesteps that entirely: each
worker is a forked child that *inherits* the parent's full state
(copy-on-write), runs its chunk of tasks, and ships only the **results**
back over a pipe.  Results must therefore be picklable; the task
callables need not be.

:func:`fork_map` is deliberately deterministic: tasks are split into
contiguous chunks, one worker per chunk, and results are returned in
task order regardless of which worker finished first.  A task that
raises is returned as an :class:`~repro.exec.record.ErrorCapsule` in its
slot rather than aborting the whole map — callers decide what an error
in slot *i* means (for block shards: "serial execution would have
stopped here").

Worker *processes*, on the other hand, can die or wedge — naturally
(OOM-killed, a segfaulting extension) or injected by a
:class:`repro.faults.FaultPlan` at the ``worker.crash``/``worker.hang``
sites.  The pool recovers instead of aborting (the recovery ladder,
governed by :class:`RetryPolicy`):

1. failed chunks are **retried** with capped exponential backoff, their
   task indices **redistributed** across a fresh set of forked workers;
2. after ``max_retries`` rounds the survivors' results are kept and the
   still-missing tasks **degrade to in-process** serial execution, which
   cannot suffer worker faults — the map always completes;
3. only with ``recover=False`` does the old behaviour return: a
   :class:`WorkerError` naming each dead worker's exit code or signal.

A ``deadline`` (absolute :func:`time.monotonic` value) turns the pool
into a launch watchdog: expiry kills outstanding workers and raises
:class:`~repro.errors.LaunchTimeout` with progress counts.

On platforms without ``fork`` (or when ``workers <= 1``) the map runs
in-process with identical semantics, so results never depend on the
transport.

:func:`fork_map` is the *per-launch* pool: children fork, run, and die
with each call.  :class:`WorkerPool` is the *persistent warm* pool the
serve tier (:mod:`repro.serve`) schedules onto: workers fork once,
stay resident across launches, are health-checked and respawned on
loss, and run picklable payloads through a runner fixed at spawn time.
It reuses the same retry/redistribute/degrade ladder and the same
``worker.crash``/``worker.hang`` fault sites.  Warm pools must be
closed (``close()``, a ``with`` block, or the module's atexit sweep)
so forked children never outlive the interpreter.

Block shards inherit the scheduler's engine selection unchanged: each
shard runs the block round loop (or the JIT) inside a worker exactly as
it would serially, because the exec-layer write recorder, like every
other hook, is a construction-time specialization of the block's
handler tables (see ``docs/PERF.md``).
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import signal as _signal
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import LaunchTimeout, SimulationError
from repro.exec.record import ErrorCapsule


class WorkerError(SimulationError):
    """A worker process died without delivering its results.

    Raised only when recovery is disabled (``recover=False``) or by the
    legacy single-shot path; the default pool retries, redistributes,
    and degrades in-process instead.  The message names each failed
    chunk's task range and its worker's exit code or fatal signal.
    """


#: Exit code used by injected worker crashes (distinctive in diagnostics).
INJECTED_CRASH_EXIT = 86

#: How long an injected hang sleeps; the parent reaps it long before.
_HANG_SLEEP = 3600.0

#: Hang watchdog applied when a fault plan is attached but the policy
#: does not set one — keeps injected hangs from stalling the suite.
DEFAULT_FAULT_HANG_TIMEOUT = 1.5


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs for :func:`fork_map`.

    ``max_retries`` bounds redistribution rounds (not counting the final
    in-process degradation).  Backoff before retry round *k* is
    ``min(backoff_cap, backoff * 2**(k-1))`` seconds.  ``hang_timeout``
    is how long the parent waits on a chunk's pipe before declaring the
    worker hung (None = wait forever, unless a fault plan is attached —
    then :data:`DEFAULT_FAULT_HANG_TIMEOUT` applies so injected hangs
    are detected promptly).
    """

    max_retries: int = 2
    backoff: float = 0.02
    backoff_cap: float = 0.5
    hang_timeout: Optional[float] = None


def retry_delay(policy: RetryPolicy, attempt: int, *,
                faults=None, salt: object = 0) -> float:
    """Backoff before retry round ``attempt + 1``, with seeded jitter.

    The base is the classic capped exponential
    ``min(backoff_cap, backoff * 2**attempt)``; without jitter,
    concurrent failed chunks (several launches retrying after one
    injected crash wave) sleep in lockstep and re-collide.  The jitter
    factor is drawn in ``[0.5, 1.5)`` from a pure hash of
    ``(plan seed, salt, attempt)`` — deterministic, so a campaign with
    the same seed reproduces the identical retry timing, but distinct
    chunks (distinct ``salt``) de-synchronize.  With no fault plan the
    seed is 0: still jittered, still reproducible.
    """
    base = min(policy.backoff_cap, policy.backoff * (2 ** attempt))
    if base <= 0.0:
        return 0.0
    seed = getattr(faults, "seed", 0) if faults is not None else 0
    key = f"{seed}|backoff|{salt!r}|{attempt}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    frac = int.from_bytes(digest, "big") / 2.0 ** 64
    return base * (0.5 + frac)


#: Stats keys :func:`fork_map` maintains in a caller-supplied dict.
STAT_KEYS = (
    "worker_deaths",
    "worker_hangs",
    "chunk_retries",
    "redistributions",
    "degraded_chunks",
    "degraded_tasks",
    "retry_rounds",
)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()


def describe_exit(code: Optional[int]) -> str:
    """Human-readable worker exit status (exit code or signal name)."""
    if code is None:
        return "no exit status"
    if code < 0:
        try:
            name = _signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"


def _chunk(n_tasks: int, workers: int) -> List[range]:
    """Split ``range(n_tasks)`` into ``workers`` contiguous chunks."""
    workers = max(1, min(workers, n_tasks))
    base, rem = divmod(n_tasks, workers)
    chunks, start = [], 0
    for w in range(workers):
        size = base + (1 if w < rem else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def _run_chunk(fn: Callable, tasks: Sequence, chunk: Sequence[int]) -> List[tuple]:
    out = []
    for i in chunk:
        try:
            out.append((i, "ok", fn(tasks[i])))
        except BaseException as exc:  # ship, don't kill the chunk
            out.append((i, "err", ErrorCapsule(exc)))
    return out


def _child_main(conn, fn: Callable, tasks: Sequence, chunk: Sequence[int],
                faults=None, attempt: int = 0) -> None:
    """Forked-child entry: run the chunk, ship results, exit *hard*.

    ``os._exit`` matters: the child inherited the parent's interpreter
    state (pytest hooks, atexit handlers, open benchmark sessions) and
    must not run any of it on the way out.  Fault injection happens here,
    before any work: a fired ``worker.crash`` dies with
    :data:`INJECTED_CRASH_EXIT`, a fired ``worker.hang`` sleeps until
    the parent's watchdog reaps it.  The parent re-evaluates the same
    (stateless) predicates for provenance.
    """
    code = 0
    try:
        if faults is not None and len(chunk):
            coords = {"chunk": int(chunk[0]), "attempt": attempt}
            # Hang before crash: a plan arming both (the campaign's
            # ``--hang`` leg) pins the hang to one chunk and must not
            # have the broader crash predicate mask it.
            if faults.fires("worker.hang", **coords) is not None:
                time.sleep(_HANG_SLEEP)
            if faults.fires("worker.crash", **coords) is not None:
                os._exit(INJECTED_CRASH_EXIT)
        results = _run_chunk(fn, tasks, chunk)
        try:
            conn.send(results)
        except Exception as exc:  # an unpicklable *result* slipped through
            conn.send([(i, "err", ErrorCapsule(exc)) for i in chunk])
    except BaseException:
        code = 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(code)


def _deadline_timeout(msg_done: int, n_tasks: int) -> LaunchTimeout:
    return LaunchTimeout(
        f"launch watchdog expired with {msg_done}/{n_tasks} work chunks done",
        blocks_done=msg_done,
        num_blocks=n_tasks,
    )


def fork_map(
    fn: Callable,
    tasks: Sequence,
    workers: Optional[int] = None,
    processes: bool = True,
    *,
    faults=None,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
    recover: bool = True,
    stats: Optional[dict] = None,
    partial: Optional[list] = None,
) -> List[Tuple[str, object]]:
    """Run ``fn`` over ``tasks`` across forked workers; ordered outcomes.

    Returns one ``("ok", result)`` or ``("err", ErrorCapsule)`` pair per
    task, in task order.  ``workers=None`` uses one worker per available
    CPU (capped at 8); ``processes=False`` forces the in-process path.

    Keyword-only recovery surface: ``faults`` is an optional
    :class:`repro.faults.FaultPlan` consulted at the worker hook sites;
    ``retry`` a :class:`RetryPolicy`; ``deadline`` an absolute
    :func:`time.monotonic` watchdog; ``recover=False`` restores the
    legacy raise-on-death behaviour; ``stats`` (a dict) receives the
    :data:`STAT_KEYS` counts for observability.

    ``partial`` (a list) is the checkpoint harvest sink: when the
    watchdog raises :class:`~repro.errors.LaunchTimeout` mid-map, the
    ``("ok", result)`` outcomes already collected are appended to it
    before the raise, so callers can checkpoint completed work instead
    of discarding it (see :mod:`repro.faults.checkpoint`).
    """
    tasks = list(tasks)
    if stats is not None:
        for key in STAT_KEYS:
            stats.setdefault(key, 0)
    if not tasks:
        return []
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    workers = max(1, min(int(workers), len(tasks)))
    policy = retry if retry is not None else RetryPolicy()

    if workers == 1 or not processes or not fork_available():
        if deadline is None:
            flat = _run_chunk(fn, tasks, range(len(tasks)))
        else:
            flat = []
            for i in range(len(tasks)):
                if time.monotonic() >= deadline:
                    if faults is not None:
                        faults.counters.timeouts += 1
                    if partial is not None:
                        partial.extend((s, p) for _, s, p in flat
                                       if s == "ok")
                    raise _deadline_timeout(i, len(tasks))
                flat.extend(_run_chunk(fn, tasks, (i,)))
        return [(status, payload) for _, status, payload in flat]

    ctx = multiprocessing.get_context("fork")
    outcomes: List[Optional[Tuple[str, object]]] = [None] * len(tasks)
    hang = policy.hang_timeout
    if hang is None and faults is not None:
        hang = DEFAULT_FAULT_HANG_TIMEOUT

    def spawn(chunks: List[Sequence[int]], attempt: int):
        children = []
        for chunk in chunks:
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_main,
                args=(send_end, fn, tasks, chunk, faults, attempt),
            )
            proc.daemon = True
            proc.start()
            send_end.close()
            # The hang clock starts at spawn, not at first poll, so the
            # watchdogs of several hung workers expire concurrently.
            children.append((proc, recv_end, chunk, time.monotonic()))
        return children

    def reap(children) -> None:
        for proc, recv_end, _, _ in children:
            try:
                recv_end.close()
            except Exception:
                pass
            if proc.is_alive():
                proc.terminate()
            proc.join()

    def collect(children, attempt: int):
        """Drain every child; returns [(chunk, why, exitcode)] failures."""
        failed = []
        for pos, (proc, recv_end, chunk, started) in enumerate(children):
            why = None
            rows = None
            try:
                while rows is None and why is None:
                    budgets = []
                    if hang is not None:
                        budgets.append(hang - (time.monotonic() - started))
                    if deadline is not None:
                        budgets.append(deadline - time.monotonic())
                    try:
                        if not budgets:
                            rows = recv_end.recv()
                        elif recv_end.poll(max(0.0, min(budgets))):
                            rows = recv_end.recv()
                    except EOFError:
                        why = "died"
                        break
                    if rows is not None or why is not None:
                        break
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        reap(children[pos:])
                        if faults is not None:
                            faults.counters.timeouts += 1
                        done = sum(1 for o in outcomes if o is not None)
                        raise _deadline_timeout(done, len(tasks))
                    if hang is not None and now - started >= hang:
                        why = "hung"
            finally:
                if why is None and rows is None:
                    pass  # LaunchTimeout path already reaped
                else:
                    try:
                        recv_end.close()
                    except Exception:
                        pass
            if rows is not None:
                for i, status, payload in rows:
                    outcomes[i] = (status, payload)
                proc.join()
                continue
            if why == "hung":
                proc.terminate()
            proc.join()
            failed.append((list(chunk), why, proc.exitcode))
            if stats is not None:
                key = "worker_deaths" if why == "died" else "worker_hangs"
                stats[key] += 1
            if faults is not None:
                site = "worker.crash" if why == "died" else "worker.hang"
                coords = {"chunk": int(chunk[0]), "attempt": attempt}
                if faults.fires(site, **coords) is not None:
                    faults.record(site, coords, recovered=recover,
                                  detail=describe_exit(proc.exitcode))
        return failed

    def guarded_collect(children, attempt: int):
        """Collect, reaping every child if the drain itself blows up.

        The normal paths join each child as it is processed (and the
        watchdog path reaps the tail), but an unexpected exception —
        KeyboardInterrupt mid-``recv``, an unpicklable surprise — used
        to leak live forked children.  ``reap`` is idempotent, so the
        double-reap on the LaunchTimeout path is harmless.
        """
        try:
            return collect(children, attempt)
        except BaseException:
            reap(children)
            raise

    chunks: List[Sequence[int]] = list(_chunk(len(tasks), workers))
    attempt = 0
    try:
        failed = guarded_collect(spawn(chunks, attempt), attempt)

        while failed and attempt < policy.max_retries:
            delay = retry_delay(policy, attempt, faults=faults,
                                salt=(len(tasks), failed[0][0][0]))
            if delay > 0:
                time.sleep(delay)
            attempt += 1
            indices = sorted(i for chunk, _, _ in failed for i in chunk)
            sub = _chunk(len(indices), workers)
            chunks = [[indices[p] for p in r] for r in sub if len(r)]
            if stats is not None:
                stats["chunk_retries"] += len(failed)
                stats["retry_rounds"] += 1
                if len(chunks) != len(failed):
                    stats["redistributions"] += 1
            if faults is not None:
                faults.counters.chunk_retries += len(failed)
            failed = guarded_collect(spawn(chunks, attempt), attempt)
    except LaunchTimeout:
        if partial is not None:
            partial.extend(o for o in outcomes
                           if o is not None and o[0] == "ok")
        raise

    if failed:
        if not recover:
            parts = []
            for chunk, why, code in failed:
                parts.append(
                    f"tasks {chunk[0]}..{chunk[-1]} {why} "
                    f"({describe_exit(code)})"
                )
            raise WorkerError(
                "worker process(es) failed before delivering results: "
                + "; ".join(parts)
            )
        # Degradation floor: run the still-missing tasks in-process.
        # Worker faults cannot fire here (they live in the forked child's
        # entry), so the map is guaranteed to complete.
        remaining = sorted(i for chunk, _, _ in failed for i in chunk)
        if stats is not None:
            stats["degraded_chunks"] += len(failed)
            stats["degraded_tasks"] += len(remaining)
        if faults is not None:
            faults.counters.degradations += 1
        for i, status, payload in _run_chunk(fn, tasks, remaining):
            outcomes[i] = (status, payload)
    return outcomes  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Persistent warm worker pool
# ---------------------------------------------------------------------------

#: Stats keys :meth:`WorkerPool.map` maintains in a caller-supplied dict
#: (a superset of :data:`STAT_KEYS`).
POOL_STAT_KEYS = STAT_KEYS + ("worker_respawns", "warm_dispatches")

#: Live pools swept at interpreter exit so warm workers never outlive
#: the parent (the per-launch ``fork_map`` children are daemons joined
#: in-band; persistent pools need the explicit sweep).
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_SWEEP_REGISTERED = False
_SWEEP_LOCK = threading.Lock()


def _sweep_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _register_sweep() -> None:
    global _SWEEP_REGISTERED
    with _SWEEP_LOCK:
        if not _SWEEP_REGISTERED:
            atexit.register(_sweep_pools)
            _SWEEP_REGISTERED = True


def _pool_worker_main(conn, runner: Callable, faults) -> None:
    """Forked warm-worker entry: serve commands until told to stop.

    Commands over the duplex pipe:

    * ``("ping", nonce)`` — health check, answered ``("pong", nonce)``;
    * ``("run", attempt, [(i, payload), ...])`` — run the chunk through
      ``runner`` and answer ``("done", [(i, status, result), ...])``;
    * ``("stop",)`` — exit cleanly.

    Fault injection mirrors the per-launch pool: the ``worker.hang`` /
    ``worker.crash`` sites are consulted per task with
    ``{"chunk": task_index, "attempt": attempt}`` coordinates, so the
    same seeded plans (and the parent's provenance re-evaluation) work
    unchanged on the warm path.  Exits via ``os._exit`` for the same
    reason :func:`_child_main` does: the child inherited the parent's
    interpreter state and must not run its atexit/pytest machinery.
    """
    code = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "ping":
                conn.send(("pong", msg[1]))
                continue
            _, attempt, items = msg
            out = []
            for i, payload in items:
                if faults is not None:
                    coords = {"chunk": int(i), "attempt": int(attempt)}
                    if faults.fires("worker.hang", **coords) is not None:
                        time.sleep(_HANG_SLEEP)
                    if faults.fires("worker.crash", **coords) is not None:
                        os._exit(INJECTED_CRASH_EXIT)
                try:
                    out.append((i, "ok", runner(payload)))
                except BaseException as exc:
                    out.append((i, "err", ErrorCapsule(exc)))
            try:
                conn.send(("done", out))
            except Exception as exc:  # an unpicklable result slipped through
                conn.send(("done", [(i, "err", ErrorCapsule(exc))
                                    for i, _ in items]))
    except BaseException:
        code = 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(code)


class _PoolWorker:
    """Parent-side handle on one warm worker process."""

    __slots__ = ("proc", "conn", "slot", "busy_since")

    def __init__(self, proc, conn, slot: int) -> None:
        self.proc = proc
        self.conn = conn
        self.slot = slot
        self.busy_since: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()


class WorkerPool:
    """A persistent, health-checked pool of warm forked workers.

    Unlike :func:`fork_map` — which forks a fresh set of children for
    every call — a :class:`WorkerPool` forks its workers **once** and
    reuses them across an arbitrary number of :meth:`map` calls: the
    serve tier's "workers stay warm across launches" requirement.  The
    trade-off is explicit: warm workers inherit the parent's state *at
    spawn time*, so the ``runner`` callable (fixed at construction,
    inherited by fork) must derive everything request-specific from the
    **picklable payload** it receives — it cannot see parent state
    created after the fork.

    The PR 3 recovery ladder carries over intact:

    1. a worker that dies or hangs mid-chunk is killed, its tasks are
       retried with capped exponential backoff and **redistributed**
       across the surviving (and freshly **respawned**) workers;
    2. after ``retry.max_retries`` rounds the still-missing tasks
       **degrade to in-process** execution of ``runner`` — the map
       always completes;
    3. the ``worker.crash``/``worker.hang`` fault sites fire exactly as
       on the per-launch pool (coordinates ``chunk``/``attempt``), with
       the plan captured at construction so forked children and parent
       agree on the schedule.

    Health-checked reuse: :meth:`ensure` (called before every dispatch)
    respawns any worker whose process has died since the last call, so
    a pool survives sporadic worker loss under sustained load without
    ever being rebuilt wholesale.  Pools must be closed — ``close()``,
    a ``with`` block, or the module's atexit sweep — so warm children
    never outlive the interpreter.
    """

    def __init__(
        self,
        runner: Callable,
        workers: Optional[int] = None,
        *,
        faults=None,
        retry: Optional[RetryPolicy] = None,
        processes: Optional[bool] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.workers = workers or min(os.cpu_count() or 1, 8)
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        if processes is None:
            processes = fork_available()
        self.processes = bool(processes) and fork_available()
        self._ctx = multiprocessing.get_context("fork") if self.processes else None
        self._slots: List[Optional[_PoolWorker]] = [None] * self.workers
        self._spawned_once = [False] * self.workers
        self._closed = False
        self._lock = threading.Lock()
        self.stats = {key: 0 for key in POOL_STAT_KEYS}
        _register_sweep()
        _LIVE_POOLS.add(self)

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [w for w in self._slots if w is not None]
            self._slots = [None] * self.workers
        for w in workers:
            try:
                w.conn.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + 1.0
        for w in workers:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            w.kill()
        _LIVE_POOLS.discard(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def pids(self) -> List[Optional[int]]:
        """PIDs of the live workers (test/observability surface)."""
        return [w.pid for w in self._slots if w is not None and w.alive()]

    # -- spawning ----------------------------------------------------------
    def _spawn(self, slot: int) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.runner, self.faults),
        )
        proc.daemon = True
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn, slot)

    def ensure(self) -> List[_PoolWorker]:
        """Spawn missing/dead workers; return the live roster."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if not self.processes:
            return []
        live = []
        with self._lock:
            for slot in range(self.workers):
                w = self._slots[slot]
                if w is not None and not w.alive():
                    w.kill()
                    w = None
                    self._slots[slot] = None
                if w is None:
                    w = self._spawn(slot)
                    self._slots[slot] = w
                    if self._spawned_once[slot]:
                        self.stats["worker_respawns"] += 1
                    self._spawned_once[slot] = True
                live.append(w)
        return live

    # -- dispatch ----------------------------------------------------------
    def map(
        self,
        payloads: Sequence,
        *,
        deadline: Optional[float] = None,
        stats: Optional[dict] = None,
    ) -> List[Tuple[str, object]]:
        """Run ``runner`` over ``payloads`` on the warm workers.

        Returns ordered ``("ok", result)`` / ``("err", ErrorCapsule)``
        pairs exactly like :func:`fork_map`.  ``stats`` (optional dict)
        receives :data:`POOL_STAT_KEYS` increments; the pool's own
        cumulative :attr:`stats` is always maintained.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        payloads = list(payloads)
        sinks = [self.stats] + ([stats] if stats is not None else [])
        if stats is not None:
            for key in POOL_STAT_KEYS:
                stats.setdefault(key, 0)
        if not payloads:
            return []

        n = len(payloads)
        outcomes: List[Optional[Tuple[str, object]]] = [None] * n
        hang = self.retry.hang_timeout
        if hang is None and self.faults is not None:
            hang = DEFAULT_FAULT_HANG_TIMEOUT

        def bump(key: str, inc: int = 1) -> None:
            for sink in sinks:
                sink[key] += inc

        def run_local(indices: Sequence[int]) -> None:
            for i in indices:
                if deadline is not None and time.monotonic() >= deadline:
                    if self.faults is not None:
                        self.faults.counters.timeouts += 1
                    done = sum(1 for o in outcomes if o is not None)
                    raise _deadline_timeout(done, n)
                try:
                    outcomes[i] = ("ok", self.runner(payloads[i]))
                except BaseException as exc:
                    outcomes[i] = ("err", ErrorCapsule(exc))

        pending = list(range(n))
        attempt = 0
        while pending and self.processes and not self._closed:
            workers = self.ensure()
            if not workers:
                break
            bump("warm_dispatches")
            chunks = _chunk(len(pending), len(workers))
            assignments = []  # (worker, [task indices])
            for w, r in zip(workers, chunks):
                if not len(r):
                    continue
                indices = [pending[p] for p in r]
                try:
                    w.conn.send(
                        ("run", attempt, [(i, payloads[i]) for i in indices])
                    )
                    w.busy_since = time.monotonic()
                    assignments.append((w, indices))
                except Exception:
                    # Died between health check and dispatch: retry round.
                    w.kill()
                    with self._lock:
                        if self._slots[w.slot] is w:
                            self._slots[w.slot] = None
                    assignments.append((w, indices))
                    w.busy_since = None

            failed: List[List[int]] = []
            for pos, (w, indices) in enumerate(assignments):
                if w.busy_since is None:  # dispatch itself failed
                    failed.append(indices)
                    bump("worker_deaths")
                    continue
                why = None
                rows = None
                while rows is None and why is None:
                    budgets = []
                    if hang is not None:
                        budgets.append(hang - (time.monotonic() - w.busy_since))
                    if deadline is not None:
                        budgets.append(deadline - time.monotonic())
                    try:
                        if not budgets:
                            rows = w.conn.recv()
                        elif w.conn.poll(max(0.0, min(budgets))):
                            rows = w.conn.recv()
                    except EOFError:
                        why = "died"
                        break
                    if rows is not None or why is not None:
                        break
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        for ww, _ in assignments[pos:]:
                            ww.kill()
                            with self._lock:
                                if self._slots[ww.slot] is ww:
                                    self._slots[ww.slot] = None
                        if self.faults is not None:
                            self.faults.counters.timeouts += 1
                        done = sum(1 for o in outcomes if o is not None)
                        raise _deadline_timeout(done, n)
                    if hang is not None and now - w.busy_since >= hang:
                        why = "hung"
                if rows is not None:
                    w.busy_since = None
                    for i, status, payload in rows[1]:
                        outcomes[i] = (status, payload)
                    continue
                # Worker died or hung mid-chunk: reap it, queue a retry.
                exitcode = w.proc.exitcode
                w.kill()
                with self._lock:
                    if self._slots[w.slot] is w:
                        self._slots[w.slot] = None
                failed.append(indices)
                bump("worker_deaths" if why == "died" else "worker_hangs")
                if self.faults is not None:
                    site = "worker.crash" if why == "died" else "worker.hang"
                    coords = {"chunk": int(indices[0]), "attempt": attempt}
                    if self.faults.fires(site, **coords) is not None:
                        self.faults.record(
                            site, coords, recovered=True,
                            detail=describe_exit(exitcode),
                        )

            pending = sorted(i for indices in failed for i in indices)
            if not pending:
                return outcomes  # type: ignore[return-value]
            if attempt >= self.retry.max_retries:
                break
            bump("chunk_retries", len(failed))
            bump("retry_rounds")
            bump("redistributions")
            if self.faults is not None:
                self.faults.counters.chunk_retries += len(failed)
            delay = retry_delay(self.retry, attempt, faults=self.faults,
                                salt=(len(payloads), pending[0]))
            if delay > 0:
                time.sleep(delay)
            attempt += 1

        if pending:
            # Degradation floor: in-process execution cannot suffer worker
            # faults, so the map always completes.
            if self.processes and not self._closed:
                bump("degraded_chunks")
                bump("degraded_tasks", len(pending))
                if self.faults is not None:
                    self.faults.counters.degradations += 1
            run_local(pending)
        return outcomes  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, processes={self.processes}, "
            f"live={len(self.pids())}, closed={self._closed})"
        )
