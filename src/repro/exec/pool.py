"""A self-healing fork-based worker pool for embarrassingly parallel fan-out.

The simulator's work units — thread blocks, schedule-exploration seeds —
close over generator functions, device objects, and live NumPy buffers,
none of which survive pickling.  ``fork`` sidesteps that entirely: a
worker is a forked child that *inherits* the parent's full state
(copy-on-write), runs the chunks of tasks it is sent, and ships only the
**results** back over a pipe.  Results must therefore be picklable; the
runner need not be.

There is one pool, :class:`WorkerPool`, with two lifetimes:

* **warm** — the serve tier (:mod:`repro.serve`) forks its workers once
  and reuses them across many :meth:`WorkerPool.map` calls; they are
  health-checked and respawned on loss.  The runner is fixed at spawn,
  so each payload must carry everything request-specific.
* **one-shot** — :func:`fork_map` opens a pool whose runner is
  ``lambda i: fn(tasks[i])``, maps it over the task *indices* and closes
  it.  Workers fork inside that ``map``, after the caller has built the
  pre-launch state, so unpicklable closures and live buffers are
  inherited and only results travel back; each exits once it has
  answered its chunk.

:meth:`WorkerPool.map` is deterministic: tasks are split into contiguous
chunks, one per worker, and results come back in task order regardless
of which worker finished first.  A task that raises is returned as an
:class:`~repro.exec.record.ErrorCapsule` in its slot rather than
aborting the map — callers decide what an error in slot *i* means (for
block shards: "serial execution would have stopped here").

Worker *processes*, on the other hand, can die or wedge — naturally
(OOM-killed, a segfaulting extension) or injected by a
:class:`repro.faults.FaultPlan` at the ``worker.crash``/``worker.hang``
sites, consulted once per dispatched chunk.  The pool recovers instead
of aborting (the recovery ladder, governed by :class:`RetryPolicy`):

1. failed chunks are **retried** with capped exponential backoff, their
   task indices **redistributed** across the surviving and respawned
   workers;
2. after ``max_retries`` rounds the still-missing tasks **degrade to
   in-process** execution, which cannot suffer worker faults — the map
   always completes.

A ``deadline`` (absolute :func:`time.monotonic` value) turns the map
into a launch watchdog: expiry kills outstanding workers and raises
:class:`~repro.errors.LaunchTimeout` with progress counts, after handing
the outcomes already collected to the caller's ``partial`` sink.

On platforms without ``fork``, with ``processes=False``, or (for
:func:`fork_map`) with one worker, the map runs in-process with identical
semantics, so results never depend on the transport.  Pools must be
closed (``close()``, a ``with`` block, or the module's atexit sweep) so
forked children never outlive the interpreter.

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

from repro.errors import LaunchTimeout
from repro.exec.record import ErrorCapsule


#: Exit code used by injected worker crashes (distinctive in diagnostics).
INJECTED_CRASH_EXIT = 86

#: How long an injected hang sleeps; the parent reaps it long before.
_HANG_SLEEP = 3600.0

#: Hang watchdog applied when a fault plan is attached but the policy
#: does not set one — keeps injected hangs from stalling the suite.
DEFAULT_FAULT_HANG_TIMEOUT = 1.5


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs for :class:`WorkerPool` and :func:`fork_map`.

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


#: The recovery keys of :attr:`WorkerPool.stats` that one map can bump.
STAT_KEYS = (
    "worker_deaths",
    "worker_hangs",
    "chunk_retries",
    "redistributions",
    "degraded_chunks",
    "degraded_tasks",
    "retry_rounds",
)

#: Keys of :attr:`WorkerPool.stats`: the per-map keys plus lifecycle events.
POOL_STAT_KEYS = STAT_KEYS + ("worker_respawns", "warm_dispatches")


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


def _outcome(runner: Callable, payload) -> Tuple[str, object]:
    try:
        return "ok", runner(payload)
    except BaseException as exc:  # ship, don't kill the chunk
        return "err", ErrorCapsule(exc)


#: Live pools swept at interpreter exit so workers never outlive the
#: parent.
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


def _pool_worker_main(conn, runner: Callable, faults, oneshot: bool,
                      msg: tuple) -> None:
    """Forked-worker entry: serve commands until told to stop.

    The first command, ``msg``, is inherited through the fork; later ones
    arrive over the duplex pipe:

    * ``("run", attempt, [(i, payload), ...])`` — run the chunk through
      ``runner`` and answer ``[(i, status, result), ...]``, then exit if
      ``oneshot``;
    * ``("stop",)`` — exit cleanly.

    Fault injection happens once per chunk, before any of its work, at
    coordinates ``{"chunk": first task index, "attempt": attempt}``: a
    fired ``worker.crash`` dies with :data:`INJECTED_CRASH_EXIT`, a
    fired ``worker.hang`` sleeps until the parent's watchdog reaps it.
    The parent re-evaluates the same (stateless) predicates for
    provenance.  ``os._exit`` matters: the child inherited the parent's
    interpreter state (pytest hooks, atexit handlers, open benchmark
    sessions) and must not run any of it on the way out.
    """
    code = 0
    try:
        while msg[0] == "run":
            _, attempt, items = msg
            if faults is not None:
                coords = {"chunk": int(items[0][0]), "attempt": int(attempt)}
                # Hang before crash: a plan arming both (the campaign's
                # ``--hang`` leg) pins the hang to one chunk and must not
                # have the broader crash predicate mask it.
                if faults.fires("worker.hang", **coords) is not None:
                    time.sleep(_HANG_SLEEP)
                if faults.fires("worker.crash", **coords) is not None:
                    os._exit(INJECTED_CRASH_EXIT)
            out = [(i, *_outcome(runner, payload)) for i, payload in items]
            try:
                conn.send(out)
            except Exception as exc:  # an unpicklable result slipped through
                conn.send([(i, "err", ErrorCapsule(exc)) for i, _ in items])
            if oneshot:
                break
            try:
                msg = conn.recv()
            except EOFError:
                break
    except BaseException:
        code = 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(code)


class _PoolWorker:
    """Parent-side handle on one worker process."""

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
    """A health-checked pool of forked workers running one ``runner``.

    Workers fork lazily, on the first :meth:`map`, and are reused by
    every later call until :meth:`close`.  They inherit the parent's
    state *at spawn time*, so the ``runner`` callable (fixed at
    construction, inherited by fork) must derive everything
    request-specific from the **picklable payload** it receives — it
    cannot see parent state created after the fork.  :func:`fork_map`
    turns that into a per-call pool by making the payloads task indices
    into a list the runner already closes over.

    A ``oneshot`` pool's workers exit as soon as they have answered
    their chunk, and every round forks fresh ones: a pool that is closed
    right after one :meth:`map` then overlaps each worker's exit with
    the rest of the map instead of paying for all of them in
    :meth:`close`.

    :meth:`map` carries the recovery ladder:

    1. a worker that dies or hangs mid-chunk is killed, its tasks are
       retried with capped exponential backoff and **redistributed**
       across the surviving (and freshly **respawned**) workers;
    2. after ``retry.max_retries`` rounds the still-missing tasks
       **degrade to in-process** execution of ``runner`` — the map
       always completes;
    3. the ``worker.crash``/``worker.hang`` fault sites fire once per
       dispatched chunk (coordinates ``chunk``/``attempt``), with the
       plan captured at construction so forked children and parent
       agree on the schedule.

    Health-checked reuse: every dispatch to a worker slot first respawns
    the slot's worker if its process has died since the last call, so
    a pool survives sporadic worker loss under sustained load without
    ever being rebuilt wholesale.  Pools must be closed — ``close()``,
    a ``with`` block, or the module's atexit sweep — so children never
    outlive the interpreter.
    """

    def __init__(
        self,
        runner: Callable,
        workers: Optional[int] = None,
        *,
        faults=None,
        retry: Optional[RetryPolicy] = None,
        processes: Optional[bool] = None,
        oneshot: bool = False,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.runner = runner
        self.oneshot = oneshot
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
    def _spawn(self, slot: int, msg: tuple) -> _PoolWorker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.runner, self.faults, self.oneshot, msg),
        )
        proc.daemon = True
        proc.start()
        child_conn.close()
        return _PoolWorker(proc, parent_conn, slot)

    def _retire(self, w: _PoolWorker) -> None:
        """Kill ``w`` and free its slot for a respawn."""
        w.busy_since = None
        w.kill()
        with self._lock:
            if self._slots[w.slot] is w:
                self._slots[w.slot] = None

    def _dispatch(self, slot: int, msg: tuple) -> _PoolWorker:
        """Hand ``msg`` to the worker in ``slot``; return that worker.

        A live worker receives it over its pipe.  A missing or dead one is
        (re)spawned with ``msg`` as its first command, inherited by fork
        rather than pickled, so it starts work at once.  A worker that
        dies between the health check and the send is retired, and its
        chunk fails in this round.  The hang clock starts here, so the
        watchdogs of several hung workers expire concurrently.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            w = self._slots[slot]
            if w is not None and not w.alive():
                w.kill()
                w = None
            if w is None:
                w = self._slots[slot] = self._spawn(slot, msg)
                if self._spawned_once[slot]:
                    self.stats["worker_respawns"] += 1
                self._spawned_once[slot] = True
                w.busy_since = time.monotonic()
                return w
        try:
            w.conn.send(msg)
            w.busy_since = time.monotonic()
        except Exception:
            self._retire(w)
        return w

    # -- dispatch ----------------------------------------------------------
    def map(
        self,
        payloads: Sequence,
        *,
        deadline: Optional[float] = None,
        partial: Optional[list] = None,
    ) -> List[Tuple[str, object]]:
        """Run ``runner`` over ``payloads``; ordered outcomes.

        Returns one ``("ok", result)`` or ``("err", ErrorCapsule)`` pair
        per payload, in payload order.  ``deadline`` is an absolute
        :func:`time.monotonic` watchdog.  Recovery events count once, in
        :attr:`stats`; the map's retries, redistributions and degradation
        then fold from there into the fault plan's counters.

        ``partial`` (a list) is the checkpoint harvest sink: when the
        watchdog raises :class:`~repro.errors.LaunchTimeout` mid-map, the
        ``("ok", result)`` outcomes already collected are appended to it
        before the raise, so callers can checkpoint completed work
        instead of discarding it (see :mod:`repro.faults.checkpoint`).
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        payloads = list(payloads)
        base = dict(self.stats)
        outcomes: List[Optional[Tuple[str, object]]] = [None] * len(payloads)
        try:
            self._ladder(payloads, outcomes, deadline)
        except LaunchTimeout:
            if partial is not None:
                partial.extend(o for o in outcomes
                               if o is not None and o[0] == "ok")
            raise
        finally:
            if self.faults is not None:
                c, now = self.faults.counters, self.stats
                c.chunk_retries += now["chunk_retries"] - base["chunk_retries"]
                c.redistributions += now["redistributions"] - base["redistributions"]
                c.degradations += now["degraded_chunks"] > base["degraded_chunks"]
        return outcomes  # type: ignore[return-value]

    def _ladder(self, payloads, outcomes, deadline) -> None:
        """Retry → redistribute → degrade until every outcome is filled."""
        faults, stats = self.faults, self.stats
        pending = list(range(len(payloads)))
        failed: List[List[int]] = []
        attempt = 0
        while pending and self.processes and not self._closed:
            failed = self._round(payloads, outcomes, pending, attempt,
                                 deadline)
            pending = sorted(i for chunk in failed for i in chunk)
            if not pending or attempt >= self.retry.max_retries:
                break
            delay = retry_delay(self.retry, attempt, faults=faults,
                                salt=(len(payloads), pending[0]))
            if delay > 0:
                time.sleep(delay)
            attempt += 1
            stats["chunk_retries"] += len(failed)
            stats["retry_rounds"] += 1
            # A redistribution is a retry round whose re-chunking does
            # not map each failed chunk back onto one worker.
            if min(len(pending), self.workers) != len(failed):
                stats["redistributions"] += 1

        if pending and failed:
            # Degradation floor: in-process execution cannot suffer worker
            # faults, so the map always completes.
            stats["degraded_chunks"] += len(failed)
            stats["degraded_tasks"] += len(pending)
        for done, i in enumerate(pending, len(outcomes) - len(pending)):
            if deadline is not None and time.monotonic() >= deadline:
                raise self._timeout(done, len(outcomes))
            outcomes[i] = _outcome(self.runner, payloads[i])

    def _round(self, payloads, outcomes, pending, attempt,
               deadline) -> List[List[int]]:
        """Dispatch ``pending`` over the workers once; return failed chunks."""
        faults = self.faults
        hang = self.retry.hang_timeout
        if hang is None and faults is not None:
            hang = DEFAULT_FAULT_HANG_TIMEOUT
        self.stats["warm_dispatches"] += 1
        assignments = []  # (worker, [task indices])
        for slot, r in enumerate(_chunk(len(pending), self.workers)):
            # One worker at a time, so the first chunk runs while later
            # workers are still forking.
            indices = [pending[p] for p in r]
            msg = ("run", attempt, [(i, payloads[i]) for i in indices])
            assignments.append((self._dispatch(slot, msg), indices))

        failed: List[List[int]] = []
        try:
            for w, indices in assignments:
                rows, why = None, "died"
                while w.busy_since is not None:
                    budgets = []
                    if hang is not None:
                        budgets.append(hang - (time.monotonic() - w.busy_since))
                    if deadline is not None:
                        budgets.append(deadline - time.monotonic())
                    try:
                        if not budgets or w.conn.poll(max(0.0, min(budgets))):
                            rows = w.conn.recv()
                            break
                    except EOFError:
                        break
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        done = sum(1 for o in outcomes if o is not None)
                        raise self._timeout(done, len(outcomes))
                    if hang is not None and now - w.busy_since >= hang:
                        why = "hung"
                        break
                if rows is not None:
                    w.busy_since = None
                    if self.oneshot:  # the worker exits on its own
                        w.proc.join()
                        self._retire(w)
                    for i, status, payload in rows:
                        outcomes[i] = (status, payload)
                    continue
                # Worker died or hung mid-chunk: reap it, queue a retry.
                self._retire(w)
                failed.append(indices)
                self.stats["worker_deaths" if why == "died" else "worker_hangs"] += 1
                if faults is not None:
                    site = "worker.crash" if why == "died" else "worker.hang"
                    coords = {"chunk": int(indices[0]), "attempt": attempt}
                    if faults.fires(site, **coords) is not None:
                        faults.record(site, coords, recovered=True,
                                      detail=describe_exit(w.proc.exitcode))
        finally:
            # Whatever cut the drain short (the watchdog, an interrupt)
            # must not leave a worker holding a stale answer.
            for w, _ in assignments:
                if w.busy_since is not None:
                    self._retire(w)
        return failed

    def _timeout(self, done: int, n_tasks: int) -> LaunchTimeout:
        if self.faults is not None:
            self.faults.counters.timeouts += 1
        return LaunchTimeout(
            f"launch watchdog expired with {done}/{n_tasks} work chunks done",
            blocks_done=done,
            num_blocks=n_tasks,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(workers={self.workers}, processes={self.processes}, "
            f"live={len(self.pids())}, closed={self._closed})"
        )


def fork_map(fn: Callable, tasks: Sequence, workers: Optional[int] = None,
             processes: bool = True, *, faults=None, retry=None, deadline=None,
             stats=None, partial=None) -> List[Tuple[str, object]]:
    """Run ``fn`` over ``tasks`` on a one-shot :class:`WorkerPool`: one
    worker per CPU (at most 8) by default, in-process for one worker or
    ``processes=False``; the keywords are the pool's and its map's, but
    ``stats`` (a dict), which receives the map's :data:`STAT_KEYS` counts."""
    tasks = list(tasks)
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    workers = max(1, min(int(workers), len(tasks)))
    with WorkerPool(lambda i: fn(tasks[i]), workers, faults=faults, retry=retry,
                    processes=processes and workers > 1, oneshot=True) as pool:
        out = pool.map(range(len(tasks)), deadline=deadline, partial=partial)
    if stats is not None:
        stats.update((key, pool.stats[key]) for key in STAT_KEYS)
    return out
