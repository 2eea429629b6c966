"""Micro-benchmarks of the simulator substrate itself.

These track the *interpreter's* wall-clock throughput (lane-steps per
second) so regressions in the scheduler hot path show up, and record the
cost-model outputs of canonical access patterns as a calibration record.

All setup — :class:`~repro.gpu.device.Device` construction, host array
allocation, buffer uploads — happens *outside* the benchmarked closures,
so the metric is pure event-loop throughput (the pre-refactor version of
this file timed device construction inside the closures, understating the
interpreter's true rate).

The headline legs are the **engine speedup gates**: the streaming and
generic-SIMD workloads run the block round loop hook-free (fused: side
effects inline, accounting per warp) against the same loop under the
identity schedule policy ``DirectedSchedule(())``, whose deferred-commit
path holds every memory side effect to round end — and the ``jit_*``
workloads run the trace-compiling JIT tier against the hook-free loop
(see ``docs/PERF.md``) — all interleaved within one process and scored
best-of-N so machine noise cancels out of the ratio.  The hook-free loop
is the JIT's yardstick because it is also the JIT's deopt target.
Counters are asserted bit-exact between the legs on every measurement
(JIT telemetry keys stripped first) — the speedup claims are only
meaningful because the semantics are identical.  The JIT legs carry a
hard floor (:data:`JIT_MIN_SPEEDUP`) in ``--check`` on top of the
baseline tolerance.  The ``sanitized_paper`` leg prices the sanitizer: a
paper-kernel mix inside a report-mode session against the same mix
hook-free, under a hard ceiling (:data:`SANITIZED_MAX_RATIO`).

Run standalone (prints BENCH lines, writes/checks ``BENCH_substrate.json``,
used by the CI ``perf-smoke`` job)::

    PYTHONPATH=src python benchmarks/bench_substrate.py
    PYTHONPATH=src python benchmarks/bench_substrate.py --check
    PYTHONPATH=src python benchmarks/bench_substrate.py --write-baseline

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_substrate.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np
import pytest

from repro.gpu.costmodel import nvidia_a100
from repro.gpu.device import Device
from repro.gpu.events import (
    AtomicOp,
    Load,
    Shuffle,
    Store,
    intern_compute,
    intern_syncblock,
    intern_syncwarp,
)
from repro.sanitizer.schedule import DirectedSchedule, strip_launch_telemetry

#: Committed baseline that ``--check`` compares against.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_substrate.json")

#: Relative tolerance on the fused/deferred speedup ratio.  The ratio is
#: machine-relative (both legs run in the same process), so it is far more
#: stable across hosts than absolute lane-steps/s, which are recorded but
#: not gated.
TOLERANCE_PCT = 25

#: Interleaved measurement pairs per workload; the score is best-of.
DEFAULT_REPS = 7

#: Hard floor on the JIT-vs-fast ratio for the ``jit_*`` gate workloads —
#: the tier's acceptance bar, enforced by ``--check`` regardless of what
#: the committed baseline says.  It was 4.8, the former ">= 10x over the
#: instrumented engine" bar restated over the fast engine.  Since the
#: JIT traces a block's warps in one lockstep pass, 10 ``--check`` runs
#: on a 2-vCPU KVM guest read jit_streaming 9.04-11.72x (median 10.29x)
#: and jit_stencil 8.49-12.72x (median 10.52x), and the floor went to
#: 7.0.  Since a compiled block is one columnar script consumed in a few
#: NumPy passes, 10 runs read jit_streaming 17.03-19.68x and jit_stencil
#: 20.24-21.64x; every run clears 12.0.
JIT_MIN_SPEEDUP = 12.0

#: Hard floor on the incremental-vs-full snapshot ratio for the
#: ``snapshot_rollback`` workload.  This gate is floor-only (never
#: baseline-relative): the ratio scales with how sparse the writes are
#: relative to the arena, so its absolute value is huge and
#: machine-sensitive — a ±25% band around a committed value would flake,
#: while the acceptance bar ("O(dirty) beats O(N) clearly") is stable.
SNAPSHOT_MIN_SPEEDUP = 5.0

#: Hard ceiling on the sanitized-to-fast time ratio of the
#: ``sanitized_paper`` workload (lower is better): what a report-mode
#: sanitizer session costs on the paper's kernels over the hook-free fast
#: engine.  With O(1) event-site capture and per-event race checks, 10
#: full ``--check`` runs read 1.58-1.94x (median 1.79x) on a 2-vCPU KVM
#: guest; the monitor before them, which walked every event's generator
#: chain and checked races element by element, read 3.00-3.92x in 10 runs.
SANITIZED_MAX_RATIO = 2.4


# ---------------------------------------------------------------------------
# Gate workloads.
#
# Each maker builds the device and buffers once and returns a
# ``run(engine, **hooks)`` closure that only launches — so a measurement
# times the interpreter, not the setup.  The kernels drive the raw event
# ISA with loop-invariant index tuples hoisted, keeping kernel-side Python
# cost (paid identically by both legs) from diluting the comparison.


def make_streaming():
    """Vector triad over 4 blocks x 128 threads: pure event-loop speed."""
    dev = Device(nvidia_a100())
    n = 4 * 128 * 16
    x = dev.from_array("x", np.arange(n, dtype=np.float64))
    y = dev.from_array("y", np.zeros(n))
    fma = intern_compute("fma")

    def k(tc, x, y):
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            ii = (i,)
            v = (yield Load(x, ii))[0]
            yield fma
            yield Store(y, ii, (2.0 * v,))
            i += step

    def run(engine, **hooks):
        t0 = time.perf_counter()
        kc = dev.launch(k, 4, 128, args=(x, y), engine=engine, **hooks)
        dt = time.perf_counter() - t0
        assert np.array_equal(y.to_numpy(), 2.0 * np.arange(n))
        return kc, dt

    return run


def make_generic_simd():
    """Generic-mode SIMD shape: worksharing regions over warp-level SIMD.

    Models the paper's generic execution mode at the event level: each
    parallel-region activation is a block barrier (the state-machine round
    trip), the region stages arguments through the shared-memory sharing
    space behind a ``syncwarp``, and the SIMD body distributes a 4-element
    worksharing chunk per lane with divergent compute and a shuffle step
    per element, closing with a region-exit ``syncwarp`` and a leader-lane
    atomic.
    """
    dev = Device(nvidia_a100())
    n = 2 * 128 * 8
    x = dev.from_array("x", np.arange(n, dtype=np.float64))
    out = dev.from_array("out", np.zeros(n))
    acc = dev.alloc("acc", 2, np.int64)
    cells = {}
    bar = intern_syncblock()
    fma2 = intern_compute("fma", 2)
    alu = intern_compute("alu")

    def k(tc, x, out, acc):
        if tc.tid == 0:
            cells[tc.block_id] = tc.shared_alloc("share", tc.block_dim, np.float64)
        yield bar
        sh = cells[tc.block_id]
        wm = tc.warp_mask()
        sw = intern_syncwarp(wm)
        base = tc.warp_id * tc.warp_size
        my = (tc.tid,)
        nb = (base + (tc.lane_id + 1) % tc.warp_size,)
        op = fma2 if tc.lane_id % 2 == 0 else alu
        lane0 = tc.lane_id == 0
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            yield bar  # parallel-region activation (state-machine round)
            ii = (i,)
            v = (yield Load(x, ii))[0]
            yield Store(sh, my, (v,))  # stage args in the sharing space
            yield sw  # SIMD region entry
            u = (yield Load(sh, nb))[0]
            for _ in range(4):  # 4-element worksharing chunk per region
                v = (yield Load(x, ii))[0]
                yield op
                s = yield Shuffle("down", v, 16, wm)
                v += 0.0 if s is None else s
                yield Store(out, ii, (v + u,))
                i += step
                ii = (i,)
            yield sw  # SIMD region exit
            if lane0:
                yield AtomicOp(acc, 0, "add", 1)

    def run(engine, **hooks):
        t0 = time.perf_counter()
        kc = dev.launch(k, 2, 128, args=(x, out, acc), engine=engine, **hooks)
        dt = time.perf_counter() - t0
        return kc, dt

    return run


WORKLOADS = {
    "streaming": make_streaming,
    "generic_simd": make_generic_simd,
}


# ---------------------------------------------------------------------------
# JIT gate workloads.
#
# These are the shapes the trace-compiling tier exists for: convergent
# grid-stride loops over global memory.  They use the portable ``tc``
# API (not raw events) because the same kernel body must drive both the
# scalar ThreadCtx and the JIT's vectorized VecThreadCtx.  Each maker
# returns a ``run(engine)`` closure; measurements interleave
# ``engine="jit"`` against ``engine="auto"`` (the hook-free round loop).


def make_jit_streaming():
    """Coalesced float32 triad, 4 blocks x 128 threads, grid-stride."""
    dev = Device(nvidia_a100())
    n = 32768
    x = dev.from_array("x", np.arange(n, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)
    expect = np.arange(n, dtype=np.float32) * np.float32(2.0) + np.float32(1.0)

    def k(tc, x, y, n):
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            v = yield from tc.load(x, i)
            yield from tc.compute("fma", 1)
            yield from tc.store(y, i, v * 2.0 + 1.0)
            i += step

    def run(engine):
        t0 = time.perf_counter()
        kc = dev.launch(k, 4, 128, args=(x, y, n), engine=engine)
        dt = time.perf_counter() - t0
        assert np.array_equal(y.to_numpy(), expect)
        return kc, dt

    return run


def make_jit_stencil():
    """3-point float32 stencil with a halo: three overlapping coalesced
    loads per iteration exercise the L1 sector cache under the JIT's
    precomputed footprints."""
    dev = Device(nvidia_a100())
    n = 32768
    x = dev.from_array("x", np.linspace(0.0, 1.0, n + 2, dtype=np.float32))
    out = dev.alloc("out", n, np.float32)
    xs = x.to_numpy()
    # Same expression as the kernel: NEP-50 keeps float32 through the
    # python-float coefficients, so this is bit-exact against any engine.
    expect = 0.25 * xs[:n] + 0.5 * xs[1 : n + 1] + 0.25 * xs[2 : n + 2]

    def k(tc, x, out, n):
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            a = yield from tc.load(x, i)
            b = yield from tc.load(x, i + 1)
            c = yield from tc.load(x, i + 2)
            yield from tc.compute("fma", 4)
            yield from tc.store(out, i, 0.25 * a + 0.5 * b + 0.25 * c)
            i += step

    def run(engine):
        t0 = time.perf_counter()
        kc = dev.launch(k, 4, 128, args=(x, out, n), engine=engine)
        dt = time.perf_counter() - t0
        assert np.array_equal(out.to_numpy(), expect)
        return kc, dt

    return run


JIT_WORKLOADS = {
    "jit_streaming": make_jit_streaming,
    "jit_stencil": make_jit_stencil,
}


# ---------------------------------------------------------------------------
# Sanitizer gate workload.
#
# A small mix of the paper's kernels (a Fig 9 SIMD launch of each kernel
# and the two Fig 10 SIMD variants of laplace3d, at the repository
# benchmark's small sizes) run hook-free and inside a report-mode
# sanitizer session, which specializes the monitor into every launch's
# round loop.  The ratio is what the monitor and its hooks cost on the
# shapes the paper cares about.


def make_sanitized_paper():
    from repro import sanitizer
    from repro.exec.engine import SerialExecutor
    from repro.gpu.costmodel import benchmark_profile
    from repro.kernels import ideal, laplace3d, sparse_matvec, su3

    dev = Device(benchmark_profile(), executor=SerialExecutor())
    spmv = sparse_matvec.build_data(dev, n_rows=64, n_cols=64, mean_nnz=10.0,
                                    seed=2023)
    su3_data = su3.build_data(dev, sites=128, seed=2023)
    ideal_data = ideal.build_data(dev, n_rows=64, seed=2023)
    lap = laplace3d.build_data(dev, nx=6, ny=6, nz=66, seed=2023)
    launches = [
        lambda: sparse_matvec.run_simd(dev, spmv, simd_len=8, num_teams=4,
                                       team_size=64),
        lambda: su3.run_simd(dev, su3_data, simd_len=4, num_teams=4,
                             team_size=64),
        lambda: ideal.run_simd(dev, ideal_data, simd_len=8, num_teams=4,
                               team_size=64),
        lambda: laplace3d.run(dev, lap, "spmd_simd", simd_len=32,
                              num_teams=4, team_size=64),
        lambda: laplace3d.run(dev, lap, "generic_simd", simd_len=32,
                              num_teams=4, team_size=64),
    ]

    def run(sanitized):
        t0 = time.perf_counter()
        if sanitized:
            with sanitizer.session() as sess:
                results = [launch() for launch in launches]
            assert sess.clean, sess.text()
        else:
            results = [launch() for launch in launches]
        dt = time.perf_counter() - t0
        counters = [r.counters for r in results]
        for kc in counters:
            kc.extra.pop("sanitizer_findings", None)
        return counters, dt

    return run


def measure_sanitized_ratio(reps: int = DEFAULT_REPS) -> dict:
    """Interleaved fast/sanitized measurement of the paper-kernel mix.

    Same protocol as :func:`measure_speedup`: alternating legs, best-of
    each, and bit-identical counters on every launch of the mix.
    """
    run = make_sanitized_paper()
    best_fast = best_san = float("inf")
    kc_fast = kc_san = None
    for _ in range(reps):
        kcs, dt = run(False)
        if dt < best_fast:
            best_fast, kc_fast = dt, kcs
        kcs, dt = run(True)
        if dt < best_san:
            best_san, kc_san = dt, kcs
    assert all(a.identical(b) for a, b in zip(kc_fast, kc_san)), (
        "sanitized_paper: fast/sanitized counters diverged — ratio is void"
    )
    steps = sum(kc.total("lane_steps") for kc in kc_fast)
    return {
        "lane_steps": int(steps),
        "rounds": int(sum(kc.rounds for kc in kc_fast)),
        "cycles": float(sum(kc.cycles for kc in kc_fast)),
        "fast_steps_per_s": steps / best_fast,
        "sanitized_steps_per_s": steps / best_san,
        "sanitized_ratio": best_san / best_fast,
    }


# ---------------------------------------------------------------------------
# Snapshot gate workload.
#
# The retry-ladder / serve-clone shape: a large device arena, a loop of
# sparse kernel writes, and a snapshot + rollback per attempt.  The full
# leg rebuilds an un-chained ``MemorySnapshot`` every iteration — the
# pre-refactor cost model, O(arena) copy + checksum per attempt — while
# the incremental leg chains ``base=`` snapshots exactly as
# ``Device.launch``'s retry loop and the serve tier do, paying O(dirty
# pages) per attempt.  Both legs restore to the identical pre-loop state
# (asserted bit-exact), so the ratio compares equal work.


def measure_snapshot_speedup(reps: int = DEFAULT_REPS) -> dict:
    from repro.faults.scrub import MemorySnapshot
    from repro.gpu.memory import PAGE_SHIFT, GlobalMemory

    n = 1 << 20  # 8 MiB arena: 4096 pages of 256 float64 elements
    iters = 16
    # Sparse write pattern: a fixed stride walk dirties a handful of
    # pages per attempt, the regime snapshots exist for.
    idx = (np.arange(32, dtype=np.int64) * 12007) % n
    dirty_per_iter = len(np.unique(idx >> PAGE_SHIFT))

    gmem = GlobalMemory()
    buf = gmem.from_array("state", np.zeros(n))
    baseline_state = buf.to_numpy()
    pages_total = buf.npages

    def run_full():
        t0 = time.perf_counter()
        for it in range(iters):
            snap = MemorySnapshot(gmem)
            buf.scatter(idx, np.full(idx.size, float(it + 1)))
            snap.restore()
        return time.perf_counter() - t0

    def run_incremental():
        snap = MemorySnapshot(gmem)  # seed paid once, like the retry loop
        t0 = time.perf_counter()
        for it in range(iters):
            buf.scatter(idx, np.full(idx.size, float(it + 1)))
            snap.restore()
            snap = MemorySnapshot(gmem, base=snap)
        return time.perf_counter() - t0

    best_full = best_incr = float("inf")
    for _ in range(reps):
        best_full = min(best_full, run_full())
        assert np.array_equal(buf.to_numpy(), baseline_state)
        best_incr = min(best_incr, run_incremental())
        assert np.array_equal(buf.to_numpy(), baseline_state)
    return {
        "pages_total": int(pages_total),
        "dirty_pages_per_iter": int(dirty_per_iter),
        "iters": int(iters),
        "full_s_per_iter": best_full / iters,
        "incr_s_per_iter": best_incr / iters,
        "snapshot_speedup": best_full / best_incr,
    }


def measure_speedup(name: str, reps: int = DEFAULT_REPS) -> dict:
    """Interleaved fused/deferred measurement of one gate workload.

    Runs ``reps`` pairs alternating the hook-free round loop with the same
    loop under the identity ``DirectedSchedule(())`` (so slow drift in
    machine load hits both legs equally), scores each leg best-of, and
    asserts the two legs produced bit-identical counters.
    """
    run = WORKLOADS[name]()
    best_fast = best_deferred = float("inf")
    kc_fast = kc_deferred = None
    for _ in range(reps):
        kc, dt = run("auto")
        if dt < best_fast:
            best_fast, kc_fast = dt, kc
        kc, dt = run("auto", schedule_policy=DirectedSchedule(()))
        if dt < best_deferred:
            best_deferred, kc_deferred = dt, kc
    assert kc_fast.identical(kc_deferred), (
        f"{name}: fused/deferred counters diverged — speedup is void"
    )
    steps = kc_fast.total("lane_steps")
    return {
        "lane_steps": int(steps),
        "rounds": int(kc_fast.rounds),
        "cycles": float(kc_fast.cycles),
        "fast_steps_per_s": steps / best_fast,
        "deferred_steps_per_s": steps / best_deferred,
        "speedup": best_deferred / best_fast,
    }


def measure_jit_speedup(name: str, reps: int = DEFAULT_REPS) -> dict:
    """Interleaved jit/fast measurement of one JIT gate workload.

    Same protocol as :func:`measure_speedup`; additionally requires that
    every warp actually compiled (a silently deoptimizing workload would
    make the ratio meaningless) and that the counters — after stripping
    the telemetry keys — are bit-identical.
    """
    run = JIT_WORKLOADS[name]()
    best_jit = best_fast = float("inf")
    kc_jit = kc_fast = None
    for _ in range(reps):
        kc, dt = run("jit")
        if dt < best_jit:
            best_jit, kc_jit = dt, kc
        kc, dt = run("auto")  # the hook-free round loop
        if dt < best_fast:
            best_fast, kc_fast = dt, kc
    warps = kc_jit.extra.get("jit_warps_compiled", 0.0)
    deopts = {k: v for k, v in kc_jit.extra.items() if k.startswith("jit_deopt_")}
    assert warps > 0 and not deopts, (
        f"{name}: gate workload did not stay compiled "
        f"(warps={warps}, deopts={deopts}) — speedup is void"
    )
    kc_jit.extra = strip_launch_telemetry(kc_jit.extra)
    assert kc_jit.identical(kc_fast), (
        f"{name}: jit/fast counters diverged — speedup is void"
    )
    steps = kc_jit.total("lane_steps")
    return {
        "lane_steps": int(steps),
        "rounds": int(kc_jit.rounds),
        "cycles": float(kc_jit.cycles),
        "jit_steps_per_s": steps / best_jit,
        "fast_steps_per_s": steps / best_fast,
        "jit_speedup": best_fast / best_jit,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark legs


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_streaming(benchmark):
    """Streaming triad under the fast round engine."""
    run = make_streaming()

    kc, _ = benchmark(run, "auto")
    benchmark.extra_info["rounds"] = kc.rounds
    benchmark.extra_info["cycles"] = kc.cycles
    benchmark.extra_info["lane_steps"] = kc.total("lane_steps")


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_generic_simd(benchmark):
    """Generic-mode SIMD workload under the fast round engine."""
    run = make_generic_simd()

    kc, _ = benchmark(run, "auto")
    benchmark.extra_info["rounds"] = kc.rounds
    benchmark.extra_info["lane_steps"] = kc.total("lane_steps")


def test_fastpath_speedup_gate():
    """The fused and deferred-commit legs agree bit-exactly and the fused
    loop is faster.

    A light version (few reps) for plain pytest runs; the CI ``perf-smoke``
    job runs the full standalone measurement and compares the speedup
    against the committed baseline with ±25% tolerance instead of a hard
    threshold, so a loaded CI host cannot flake the suite.
    """
    for name in WORKLOADS:
        r = measure_speedup(name, reps=3)
        assert r["speedup"] > 1.0, f"{name}: fused loop slower than deferred"


def test_jit_speedup_gate():
    """The JIT gate workloads compile fully, agree bit-exactly with the
    fast engine, and run clearly ahead of it.

    The light pytest leg keeps a generous floor (about half the ratio
    best-of-N measures) so loaded hosts cannot flake it; the hard
    :data:`JIT_MIN_SPEEDUP` acceptance floor over the fast engine lives
    in the CI ``perf-smoke`` ``--check`` run, measured best-of-N
    interleaved.
    """
    for name in JIT_WORKLOADS:
        r = measure_jit_speedup(name, reps=3)
        assert r["jit_speedup"] > 3.0, (
            f"{name}: jit speedup {r['jit_speedup']:.2f}x is not clearly "
            "ahead of the fast interpreter"
        )


def test_snapshot_speedup_gate():
    """Incremental (chained) snapshots clearly beat full-copy snapshots
    on a sparse-write rollback loop, and both restore bit-exactly.

    The light pytest leg keeps a generous floor; the hard ``>= 5x``
    acceptance floor lives in the CI ``perf-smoke`` ``--check`` run.
    """
    r = measure_snapshot_speedup(reps=2)
    assert r["snapshot_speedup"] > 2.0, (
        f"snapshot_rollback: incremental snapshots only "
        f"{r['snapshot_speedup']:.2f}x over full copies"
    )


def test_sanitized_ratio_gate():
    """A sanitized pass of the paper-kernel mix agrees bit-exactly with
    the fast engine and stays within a generous multiple of the hard
    :data:`SANITIZED_MAX_RATIO` ceiling, which the CI ``--check`` runs
    enforce."""
    r = measure_sanitized_ratio(reps=2)
    assert r["sanitized_ratio"] < 1.5 * SANITIZED_MAX_RATIO, (
        f"sanitized_paper: sanitized launches cost "
        f"{r['sanitized_ratio']:.2f}x the fast engine"
    )


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_streaming_jit(benchmark):
    """Streaming triad under the trace-compiling JIT tier."""
    run = make_jit_streaming()

    kc, _ = benchmark(run, "jit")
    benchmark.extra_info["rounds"] = kc.rounds
    benchmark.extra_info["lane_steps"] = kc.total("lane_steps")
    benchmark.extra_info["jit_warps_compiled"] = kc.extra["jit_warps_compiled"]


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_barrier_heavy(benchmark):
    """Alternating compute/barrier: stresses the barrier completion path."""
    dev = Device(nvidia_a100())
    bar = intern_syncblock()
    alu = intern_compute("alu")

    def k(tc):
        for _ in range(64):
            yield alu
            yield bar

    kc = benchmark(dev.launch, k, 2, 256)
    assert kc.syncblocks == 2 * 64
    benchmark.extra_info["sync_cycles"] = kc.sync_cycles


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_atomic_contention(benchmark):
    """All lanes hammer one address: atomic serialization path."""
    dev = Device(nvidia_a100())
    acc = dev.alloc("acc", 1, np.int64)

    def k(tc, acc):
        for _ in range(16):
            yield from tc.atomic_add(acc, 0, 1)

    def run():
        acc.data[0] = 0  # the accumulator carries across benchmark rounds
        kc = dev.launch(k, 2, 128, args=(acc,))
        assert acc.read(0) == 2 * 128 * 16
        return kc

    kc = benchmark(run)
    benchmark.extra_info["atomic_conflicts"] = kc.total("atomic_conflicts")


@pytest.mark.benchmark(group="substrate")
def test_scheduler_throughput_parallel_engine(benchmark):
    """The streaming triad again, sharded over the parallel launch engine.

    Tracks the engine's overhead/speedup against the serial leg above;
    the cycle outputs must be identical (the engine may only change
    wall-clock, never results).  Worker processes inherit the per-block
    engine selection.
    """
    from repro.exec import ParallelExecutor
    from repro.exec.pool import fork_available

    dev = Device(
        nvidia_a100(),
        executor=ParallelExecutor(processes=fork_available()),
    )
    n = 4 * 128 * 8
    x = dev.from_array("x", np.arange(n, dtype=np.float64))
    y = dev.from_array("y", np.zeros(n))
    fma = intern_compute("fma")

    def k(tc, x, y):
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            ii = (i,)
            v = (yield Load(x, ii))[0]
            yield fma
            yield Store(y, ii, (2.0 * v,))
            i += step

    def run():
        kc = dev.launch(k, 4, 128, args=(x, y))
        assert np.array_equal(y.to_numpy(), 2.0 * np.arange(n))
        return kc

    kc = benchmark(run)
    benchmark.extra_info["rounds"] = kc.rounds
    benchmark.extra_info["cycles"] = kc.cycles


@pytest.mark.benchmark(group="substrate")
def test_coalescing_cost_calibration(benchmark):
    """Record the modelled cost ratio of scattered vs coalesced access."""
    # One SM holding 8 warps: throughput terms decide, as on a loaded
    # device — a lone block would hide the difference under latency.
    n = 32 * 16 * 8
    setups = {}
    for label, stride in (("coalesced", 1), ("scattered", 16)):
        dev = Device(nvidia_a100().with_overrides(num_sms=1))
        x = dev.from_array("x", np.zeros(n))

        def k(tc, x, stride=stride):
            for r in range(8):
                idx = ((r * 32 + tc.block_id * 8 + tc.lane_id) * stride) % n
                yield from tc.load(x, idx)

        setups[label] = (dev, k, x)

    def run():
        return {
            label: dev.launch(k, 8, 32, args=(x,)).cycles
            for label, (dev, k, x) in setups.items()
        }

    out = benchmark(run)
    ratio = out["scattered"] / out["coalesced"]
    benchmark.extra_info["scatter_penalty"] = round(ratio, 2)
    assert ratio > 1.0


# ---------------------------------------------------------------------------
# Standalone entry point (CI perf-smoke leg)


def run_measurements(reps: int, only=None) -> dict:
    from repro.jit import snapshot as jit_snapshot

    def wanted(name):
        return only is None or name in only

    results = {}
    for name in WORKLOADS:
        if not wanted(name):
            continue
        r = measure_speedup(name, reps=reps)
        results[name] = r
        print(
            f"BENCH substrate {name}: fast {r['fast_steps_per_s'] / 1e3:.1f}k "
            f"steps/s  deferred {r['deferred_steps_per_s'] / 1e3:.1f}k steps/s  "
            f"speedup {r['speedup']:.2f}x  (rounds={r['rounds']}, "
            f"cycles={r['cycles']:.0f})"
        )
    for name in JIT_WORKLOADS:
        if not wanted(name):
            continue
        r = measure_jit_speedup(name, reps=reps)
        results[name] = r
        print(
            f"BENCH substrate {name}: jit {r['jit_steps_per_s'] / 1e3:.1f}k "
            f"steps/s  fast {r['fast_steps_per_s'] / 1e3:.1f}k steps/s  "
            f"speedup {r['jit_speedup']:.2f}x  (gate >= "
            f"{JIT_MIN_SPEEDUP:.1f}x, rounds={r['rounds']}, "
            f"cycles={r['cycles']:.0f})"
        )
    if wanted("sanitized_paper"):
        r = measure_sanitized_ratio(reps=reps)
        results["sanitized_paper"] = r
        print(
            f"BENCH substrate sanitized_paper: fast "
            f"{r['fast_steps_per_s'] / 1e3:.1f}k steps/s  sanitized "
            f"{r['sanitized_steps_per_s'] / 1e3:.1f}k steps/s  ratio "
            f"{r['sanitized_ratio']:.2f}x  (gate <= "
            f"{SANITIZED_MAX_RATIO:.2f}x, rounds={r['rounds']}, "
            f"cycles={r['cycles']:.0f})"
        )
    if wanted("snapshot_rollback"):
        r = measure_snapshot_speedup(reps=reps)
        results["snapshot_rollback"] = r
        print(
            f"BENCH substrate snapshot_rollback: full "
            f"{r['full_s_per_iter'] * 1e3:.2f}ms/iter  incremental "
            f"{r['incr_s_per_iter'] * 1e3:.2f}ms/iter  speedup "
            f"{r['snapshot_speedup']:.1f}x  (gate >= "
            f"{SNAPSHOT_MIN_SPEEDUP:.0f}x, {r['dirty_pages_per_iter']}/"
            f"{r['pages_total']} pages dirty per iter)"
        )
    return {
        "schema": 1,
        "metric": "lane_steps_per_second",
        "tolerance_pct": TOLERANCE_PCT,
        "jit_min_speedup": JIT_MIN_SPEEDUP,
        "snapshot_min_speedup": SNAPSHOT_MIN_SPEEDUP,
        "sanitized_max_ratio": SANITIZED_MAX_RATIO,
        # Advisory process-global JIT totals for this bench run (trace
        # cache temperature, deopt tallies); recorded, never gated.
        "jit_stats": jit_snapshot(),
        "workloads": results,
    }


def check_against_baseline(measured: dict, baseline_path: str,
                           only=None) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    rc = 0
    tol = baseline.get("tolerance_pct", TOLERANCE_PCT) / 100.0
    jit_min = baseline.get("jit_min_speedup", JIT_MIN_SPEEDUP)
    snap_min = baseline.get("snapshot_min_speedup", SNAPSHOT_MIN_SPEEDUP)
    san_max = baseline.get("sanitized_max_ratio", SANITIZED_MAX_RATIO)
    for name, base in baseline["workloads"].items():
        if only is not None and name not in only:
            continue
        got = measured["workloads"].get(name)
        if got is None:
            print(f"BENCH substrate FAIL: workload {name!r} missing")
            rc = 1
            continue
        lo, hi = 0.0, float("inf")
        if "sanitized_ratio" in base:
            # Ceiling-only gate: a cost ratio, lower is better, and the
            # bar is absolute.
            ratio_key, hi = "sanitized_ratio", san_max
        elif "snapshot_speedup" in base:
            # Floor-only gate: the absolute ratio is sparsity- and
            # machine-dependent, so no baseline-relative band.
            ratio_key, lo = "snapshot_speedup", snap_min
        elif "jit_speedup" in base:
            ratio_key = "jit_speedup"
            # The JIT tier's acceptance bar is absolute: >= JIT_MIN_SPEEDUP
            # over the fast engine whatever the committed baseline
            # drifted to.
            lo = max(base[ratio_key] * (1.0 - tol), jit_min)
        else:
            ratio_key = "speedup"
            lo = base[ratio_key] * (1.0 - tol)
        if got[ratio_key] < lo:
            print(
                f"BENCH substrate FAIL: {name} {ratio_key} "
                f"{got[ratio_key]:.2f}x below {lo:.2f}x (baseline "
                f"{base[ratio_key]:.2f}x -{int(tol * 100)}%)"
            )
            rc = 1
        elif got[ratio_key] > hi:
            print(
                f"BENCH substrate FAIL: {name} {ratio_key} "
                f"{got[ratio_key]:.2f}x above the {hi:.2f}x ceiling "
                f"(baseline {base[ratio_key]:.2f}x)"
            )
            rc = 1
        else:
            bound = f"floor {lo:.2f}x" if hi == float("inf") else f"ceiling {hi:.2f}x"
            print(
                f"BENCH substrate OK: {name} {ratio_key} {got[ratio_key]:.2f}x "
                f"(baseline {base[ratio_key]:.2f}x, {bound})"
            )
        # Simulation outputs are deterministic and must never drift at all.
        for field in ("lane_steps", "rounds", "cycles",
                      "pages_total", "dirty_pages_per_iter", "iters"):
            if field in base and got[field] != base[field]:
                print(
                    f"BENCH substrate FAIL: {name} {field} changed "
                    f"{base[field]} -> {got[field]} (update the baseline "
                    "deliberately if intended)"
                )
                rc = 1
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=DEFAULT_REPS,
                    help="interleaved measurement pairs per workload")
    ap.add_argument("--json", metavar="PATH",
                    help="write measured results to PATH")
    ap.add_argument("--check", action="store_true",
                    help=f"compare speedups against {BASELINE_PATH}")
    ap.add_argument("--write-baseline", action="store_true",
                    help=f"rewrite {BASELINE_PATH} from this run")
    ap.add_argument("--only", action="append", metavar="WORKLOAD",
                    help="measure (and check) only the named workload; "
                    "repeatable")
    args = ap.parse_args(argv)

    measured = run_measurements(args.reps, only=args.only)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(measured, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.write_baseline:
        with open(BASELINE_PATH, "w") as f:
            json.dump(measured, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"BENCH substrate baseline written to {BASELINE_PATH}")
    if args.check:
        return check_against_baseline(measured, BASELINE_PATH,
                                      only=args.only)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
