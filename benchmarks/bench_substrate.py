"""Micro-benchmarks of the simulator substrate itself.

These track the *interpreter's* wall-clock throughput (lane-steps per
second) so regressions in the scheduler hot path show up, and record the
cost-model outputs of canonical access patterns as a calibration record.

All setup — :class:`~repro.gpu.device.Device` construction, host array
allocation, buffer uploads — happens *outside* the benchmarked closures,
so the metric is pure event-loop throughput.

The module also holds the legs of five speed gates, which
``benchmarks/bench_gates.py`` measures and checks (see ``docs/PERF.md``):

* ``streaming`` / ``generic_simd`` — the block round loop hook-free
  (fused: side effects inline, accounting per warp) against the same
  loop under the identity schedule policy ``DirectedSchedule(())``, whose
  deferred-commit path holds every memory side effect to round end;
* ``jit_streaming`` / ``jit_stencil`` — the trace-compiling JIT tier
  against the hook-free round loop, its deopt target;
* ``sanitized_paper`` — a paper-kernel mix inside a report-mode
  sanitizer session against the same mix hook-free;
* ``snapshot_rollback`` — whole-arena against O(dirty-page) restores of
  one re-armed snapshot.

Each ``*_legs`` function builds its workload once and returns the two
legs plus the pair check, which asserts the legs bit-identical (counters,
outputs, restored memory) on every pair — a speedup is only meaningful
because the semantics are identical.

Record the throughput legs under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_substrate.py --benchmark-only
"""

from __future__ import annotations

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


def launch_fields(counters) -> dict:
    """The deterministic simulation outputs of one launch (or a list of
    launches): the fields a gate pins exactly against its baseline."""
    kcs = counters if isinstance(counters, list) else [counters]
    return {
        "lane_steps": int(sum(kc.total("lane_steps") for kc in kcs)),
        "rounds": int(sum(kc.rounds for kc in kcs)),
        "cycles": float(sum(kc.cycles for kc in kcs)),
    }


# ---------------------------------------------------------------------------
# Round-loop gate workloads.
#
# Each maker builds the device and buffers once and returns a
# ``run(engine, **hooks)`` closure that only launches and returns
# ``(counters, seconds)`` — so a leg times the interpreter, not the
# setup.  The kernels drive the raw event ISA with loop-invariant index
# tuples hoisted, keeping kernel-side Python cost (paid identically by
# both legs) from diluting the comparison.


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


def fused_legs(make):
    """Legs of a fused/deferred gate over the workload ``make`` builds:
    the hook-free round loop (A) and the same loop under the identity
    ``DirectedSchedule(())`` (B).  Score ``speedup``: B's time over A's."""

    def legs():
        run = make()

        def pair(fused, deferred):
            (kc, t_fused), (kc_deferred, t_deferred) = fused, deferred
            assert kc.identical(kc_deferred), (
                "fused/deferred counters diverged — speedup is void"
            )
            return {"speedup": t_deferred / t_fused}, launch_fields(kc)

        return (lambda: run("auto"),
                lambda: run("auto", schedule_policy=DirectedSchedule(())),
                pair)

    return legs


# ---------------------------------------------------------------------------
# JIT gate workloads.
#
# These are the shapes the trace-compiling tier exists for: convergent
# grid-stride loops over global memory.  They use the portable ``tc``
# API (not raw events) because the same kernel body must drive both the
# scalar ThreadCtx and the JIT's vectorized VecThreadCtx.  Each maker
# returns a ``run(engine)`` closure; the legs run ``engine="jit"`` and
# ``engine="auto"`` (the hook-free round loop).


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


def jit_legs(make):
    """Legs of a JIT gate over the workload ``make`` builds: the JIT tier
    (A) and the hook-free round loop (B).  Score ``jit_speedup``: B's time
    over A's.  Every pair requires that every warp compiled (a silently
    deoptimizing workload would make the ratio meaningless) and that the
    counters, telemetry keys stripped, are bit-identical."""

    def legs():
        run = make()

        def pair(jit, fast):
            (kc_jit, t_jit), (kc_fast, t_fast) = jit, fast
            warps = kc_jit.extra.get("jit_warps_compiled", 0.0)
            deopts = {k: v for k, v in kc_jit.extra.items()
                      if k.startswith("jit_deopt_")}
            assert warps > 0 and not deopts, (
                f"gate workload did not stay compiled (warps={warps}, "
                f"deopts={deopts}) — speedup is void"
            )
            kc_jit.extra = strip_launch_telemetry(kc_jit.extra)
            assert kc_jit.identical(kc_fast), (
                "jit/fast counters diverged — speedup is void"
            )
            return {"jit_speedup": t_fast / t_jit}, launch_fields(kc_fast)

        return (lambda: run("jit"), lambda: run("auto"), pair)

    return legs


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


def sanitized_legs():
    """Legs of the ``sanitized_paper`` gate: the paper-kernel mix
    hook-free (A) and inside a report-mode session (B), counters
    bit-identical on every launch of the mix.  Score ``sanitized_ratio``:
    B's time over A's (lower is better)."""
    run = make_sanitized_paper()

    def pair(fast, sanitized):
        (kcs_fast, t_fast), (kcs_san, t_san) = fast, sanitized
        assert all(a.identical(b) for a, b in zip(kcs_fast, kcs_san)), (
            "fast/sanitized counters diverged — ratio is void"
        )
        return {"sanitized_ratio": t_san / t_fast}, launch_fields(kcs_fast)

    return (lambda: run(False), lambda: run(True), pair)


# ---------------------------------------------------------------------------
# Snapshot gate workload.
#
# The retry-ladder shape: a large device arena, a loop of sparse kernel
# writes, and a rollback per attempt from one snapshot, which each
# restore re-arms, exactly as ``Device.launch``'s retry loop does.  The
# incremental leg restores the dirty pages only; the full leg clears the
# dirty bits before each restore, so the snapshot's epoch check must fall
# back to copying the whole arena — the cost of a rollback without write
# tracking.  Both legs restore to the identical pre-loop state (asserted
# bit-exact), so the ratio compares equal work.


def snapshot_legs():
    """Legs of the ``snapshot_rollback`` gate: whole-arena restores (A)
    and O(dirty-page) restores (B) of one snapshot.  Score
    ``snapshot_speedup``: A's time over B's."""
    from repro.faults.scrub import MemorySnapshot
    from repro.gpu.memory import PAGE_SHIFT, GlobalMemory

    n = 1 << 22  # 32 MiB arena: 16384 pages of 256 float64 elements
    iters = 16
    # Sparse write pattern: a fixed stride walk dirties a handful of
    # pages per attempt, the regime snapshots exist for.
    idx = (np.arange(32, dtype=np.int64) * 12007) % n
    gmem = GlobalMemory()
    buf = gmem.from_array("state", np.zeros(n))
    baseline_state = buf.to_numpy()
    fields = {
        "pages_total": int(buf.npages),
        "dirty_pages_per_iter": len(np.unique(idx >> PAGE_SHIFT)),
        "iters": iters,
    }

    def run(tracked):
        snap = MemorySnapshot(gmem)  # taken once, like the retry loop
        t0 = time.perf_counter()
        for it in range(iters):
            buf.scatter(idx, np.full(idx.size, float(it + 1)))
            if not tracked:
                buf.clear_dirty()
            snap.restore()
        elapsed = time.perf_counter() - t0
        return np.array_equal(buf.data, baseline_state), elapsed

    def pair(full, incremental):
        (restored_full, t_full), (restored_incr, t_incr) = full, incremental
        assert restored_full and restored_incr, "a leg did not restore"
        return {"snapshot_speedup": t_full / t_incr}, fields

    return lambda: run(False), lambda: run(True), pair


# ---------------------------------------------------------------------------
# pytest-benchmark throughput records


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
