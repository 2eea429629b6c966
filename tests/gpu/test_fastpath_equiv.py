"""Differential suite: the block round loop and the JIT, bit for bit.

The block round loop — hook-free or with hooks specialized in — and the
trace-compiling JIT (``docs/PERF.md``) must stay *observationally
identical* to the reference semantics: same memory state, same
:class:`~repro.gpu.counters.KernelCounters`, same errors with the same
messages.  The reference is ``reference_engine_fixture.json``: the
results of the buffered reference engine (``engine="instrumented"``,
since deleted), recorded hook-free on the serial executor, twice and
byte-identical, before its deletion — every counter field and a memory
digest for the random-soup seeds and the streaming kernel, and the
error type, message and memory digest of the fault and deadlock cases.
It is an oracle: regenerating it from the engines it checks would make
the suite a self-comparison.  Randomized programs mixing every event
type plus directed kernels targeting each engine's seams (partial
same-round arrivals, sub-mask groups, counted barriers, faulting
accesses, and every JIT deoptimization reason) run under every engine
and are compared against it, or, where it has no entry, against the
round loop.

JIT launches additionally report ``engine``/``jit_*`` telemetry keys in
``kc.extra``; :func:`repro.sanitizer.strip_launch_telemetry` removes
exactly those before the ``identical()`` oracle runs, so the comparison
still covers every architectural counter.

The engines come from the leg table (:mod:`repro.exec.legs`), and every
launch takes the ``executor`` fixture, so each CI cell re-runs the suite
on its executor, worker processes included.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re

import numpy as np
import pytest

from repro.errors import DeadlockError, LaunchError, MemoryFault
from repro.exec.legs import ENGINES
from repro.gpu.costmodel import amd_mi100, benchmark_profile, nvidia_a100
from repro.gpu.device import Device
from repro.sanitizer import strip_launch_telemetry
from repro.sanitizer.monitor import SanitizerConfig
from repro.sanitizer.schedule import BoundedPreemptionSchedule, DirectedSchedule

#: Random-soup legs: the hook-free engines, plus ``"hooked"`` — the round
#: loop with a report-mode sanitizer, an identity schedule policy and a
#: no-op tracer attached.
LEGS = [*ENGINES, "hooked"]

#: The races-only, raise-on-first-race sanitizer.
RACES = SanitizerConfig(barriers=False, sharing=False, mode="raise")

#: Recorded oracle for the hooked and permuted paths
#: (see :func:`test_hooked_reports_pinned` / :func:`test_shuffle_schedule_pinned`).
FIXTURE = os.path.join(os.path.dirname(__file__), "hooked_engine_fixture.json")

#: The reference engine's recorded hook-free results (module docstring).
REFERENCE = os.path.join(os.path.dirname(__file__), "reference_engine_fixture.json")


# ---------------------------------------------------------------------------
# Random program generator.
#
# A program is a seeded list of generator closures; every lane runs the same
# program, with divergence, masks, and addresses derived from lane/thread
# ids.  Global stores stay inside a block-private slice of ``w`` so kernels
# remain well-formed (race-free) under any block execution order.


def _op_compute(rng):
    kind = rng.choice(["alu", "fma", "sfu", "branch"])
    ops = rng.randint(1, 4)

    def op(tc, b, total):
        yield from tc.compute(kind, ops)
        return total + 1.0

    return op


def _op_divergent_compute(rng):
    k1 = rng.choice(["alu", "fma"])
    k2 = rng.choice(["sfu", "branch"])
    mod = rng.choice([2, 3, 5])

    def op(tc, b, total):
        if tc.lane_id % mod == 0:
            yield from tc.compute(k1, 2)
        else:
            yield from tc.compute(k2)
        return total + 0.5

    return op


def _op_load(rng):
    mult = rng.choice([1, 3, 5])
    off = rng.randint(0, 63)

    def op(tc, b, total):
        v = yield from tc.load(b["x"], (tc.global_tid * mult + off) % b["n"])
        return total + v

    return op


def _op_load_vec(rng):
    off = rng.randint(0, 31)

    def op(tc, b, total):
        g = tc.global_tid * 2 + off
        vs = yield from tc.load_vec(b["x"], [g % b["n"], (g + 1) % b["n"]])
        return total + vs[0] - vs[1]

    return op


def _op_store(rng):
    mult = rng.choice([1, 3, 5])  # odd: bijective over the pow-2 slice
    off = rng.randint(0, 63)

    def op(tc, b, total):
        size = 2 * tc.block_dim
        base = tc.block_id * size
        yield from tc.store(b["w"], base + (tc.tid * mult + off) % size, total)
        return total

    return op


def _op_store_vec(rng):
    def op(tc, b, total):
        base = tc.block_id * 2 * tc.block_dim
        i = base + 2 * tc.tid
        yield from tc.store_vec(b["w"], [i, i + 1], [total, -total])
        return total

    return op


def _op_atomic(rng):
    mode = rng.choice(["add", "max", "min", "exch"])
    idx = rng.randint(0, 3)
    val = rng.randint(1, 9)

    def op(tc, b, total):
        fn = getattr(tc, f"atomic_{mode}")
        old = yield from fn(b["acc"], idx, val)
        return total + float(old % 13)

    return op


def _op_shuffle(rng):
    mode = rng.choice(["down", "up", "xor", "idx"])
    delta = rng.randint(1, 7)

    def op(tc, b, total):
        if mode == "idx":
            s = yield from tc.shfl(total, delta)
        else:
            fn = getattr(tc, f"shfl_{mode}")
            s = yield from fn(total, delta)
        return total + (0.0 if s is None else s * 0.125)

    return op


def _op_shuffle_submask(rng):
    delta = rng.randint(1, 3)

    def op(tc, b, total):
        half = tc.warp_size // 2
        m = (1 << half) - 1
        if tc.lane_id < half:
            s = yield from tc.shfl_down(total, delta, m)
            return total + (0.0 if s is None else s)
        yield from tc.compute("alu")
        return total

    return op


def _op_vote(rng):
    mode = rng.choice(["any", "all", "ballot"])
    mod = rng.choice([2, 3, 7])

    def op(tc, b, total):
        pred = tc.lane_id % mod == 0
        if mode == "ballot":
            r = yield from tc.ballot(pred)
            return total + (r % 97)
        fn = getattr(tc, f"vote_{mode}")
        r = yield from fn(pred)
        return total + (1.0 if r else -1.0)

    return op


def _op_syncwarp(rng):
    def op(tc, b, total):
        yield from tc.syncwarp()
        return total

    return op


def _op_syncwarp_submask(rng):
    def op(tc, b, total):
        half = tc.warp_size // 2
        if tc.lane_id < half:
            yield from tc.syncwarp((1 << half) - 1)
        else:
            yield from tc.compute("fma")
        return total

    return op


def _op_bar(rng):
    def op(tc, b, total):
        yield from tc.syncthreads()
        return total

    return op


def _op_counted_bar(rng):
    def op(tc, b, total):
        count = tc.block_dim // 2
        if tc.tid < count:
            yield from tc.syncthreads(bar_id=1, count=count)
        else:
            yield from tc.compute("alu", 2)
        return total

    return op


def _op_skewed_collective(rng):
    """Lanes reach a collective in different rounds: exercises the fast
    engine's migration from inline same-round completion to the parked
    waiter path."""
    which = rng.choice(["bar", "syncwarp", "shfl"])
    mod = rng.choice([2, 3])

    def op(tc, b, total):
        for _ in range(tc.lane_id % mod):
            yield from tc.compute("alu")
        if which == "bar":
            yield from tc.syncthreads()
        elif which == "syncwarp":
            yield from tc.syncwarp()
        else:
            s = yield from tc.shfl_xor(total, 1)
            total += 0.0 if s is None else s
        return total

    return op


def _op_shared_tile(rng):
    d = rng.randint(1, 5)

    def op(tc, b, total):
        sh = b["cells"].get(tc.block_id)
        if sh is None:
            yield from tc.compute("alu")
            return total
        yield from tc.store(sh, tc.tid, total)
        yield from tc.syncthreads()
        v = yield from tc.load(sh, (tc.tid + d) % tc.block_dim)
        yield from tc.syncthreads()
        return total + v * 0.5

    return op


def _op_coalesced_stream(rng):
    """A straight-line vectorizable stretch — the shape the JIT compiles.
    Mixed into the soup it exercises the boundary where a trace stays
    stable for a while before another op forces a deopt."""
    scale = rng.choice([0.5, 2.0, 4.0])

    def op(tc, b, total):
        v = yield from tc.load(b["x"], tc.global_tid)
        yield from tc.compute("fma", 2)
        base = tc.block_id * 2 * tc.block_dim
        yield from tc.store(b["w"], base + tc.tid, v * scale + total)
        return total + 0.25

    return op


_OP_MAKERS = [
    _op_compute,
    _op_divergent_compute,
    _op_load,
    _op_load_vec,
    _op_store,
    _op_store_vec,
    _op_atomic,
    _op_shuffle,
    _op_shuffle_submask,
    _op_vote,
    _op_syncwarp,
    _op_syncwarp_submask,
    _op_bar,
    _op_counted_bar,
    _op_skewed_collective,
    _op_shared_tile,
    _op_coalesced_stream,
]


def _run_random_kernel(seed, executor, params, engine, blocks=2, threads=64,
                       **hooks):
    """Build the seed's program on a fresh device and run it under one
    engine; ``hooks`` (tracer/sanitize/schedule_policy) ride the launch."""
    rng = random.Random(seed)
    prog = [rng.choice(_OP_MAKERS)(rng) for _ in range(rng.randint(10, 18))]
    use_shared = rng.random() < 0.75

    dev = Device(params, executor=executor)
    t = blocks * threads
    n = 2 * t
    x = dev.from_array("x", np.arange(n, dtype=np.float64) * 0.25 - 7.0)
    w = dev.from_array("w", np.zeros(n))
    acc = dev.alloc("acc", 4, np.int64)
    cells: dict = {}
    bufs = {"x": x, "w": w, "acc": acc, "cells": cells, "n": n}

    def k(tc, x, w, acc):
        if use_shared:
            if tc.tid == 0:
                cells[tc.block_id] = tc.shared_alloc(
                    "tile", tc.block_dim, np.float64
                )
            yield from tc.syncthreads()
        total = float(tc.global_tid) * 0.25
        for op in prog:
            total = yield from op(tc, bufs, total)
        size = 2 * tc.block_dim
        yield from tc.store(w, tc.block_id * size + tc.tid, total)

    kc = dev.launch(k, blocks, threads, args=(x, w, acc), engine=engine,
                    **hooks)
    return kc, x.to_numpy(), w.to_numpy(), acc.data.copy()


def _no_op_tracer(block_id, rnd, tid, ev):
    pass


def _run_hooked(seed, executor, params):
    """The random soup on the round loop with every hook attached:
    a report-mode sanitizer, an identity schedule policy, a no-op tracer.
    Returns the run with the sanitizer extras stripped, plus the report."""
    kc, *mem = _run_random_kernel(
        seed, executor, params, "auto",
        sanitize=SanitizerConfig(mode="report"),
        schedule_policy=DirectedSchedule(()),
        tracer=_no_op_tracer,
    )
    kc.extra.pop("sanitizer_findings", None)
    return (kc, *mem), kc.sanitizer


def _assert_leg_identical(seed, executor, params, leg):
    """One random-soup leg against the reference fixture; the hooked leg's
    release stream is also checked against its own counters (every
    release reaches the monitor)."""
    if leg == "hooked":
        run, report = _run_hooked(seed, executor, params)
        assert report.stats.get("releases_block", 0) == run[0].syncblocks
        assert report.stats.get("releases_warp", 0) == run[0].syncwarps
    else:
        run = _run_random_kernel(seed, executor, params, leg)
        run[0].extra = strip_launch_telemetry(run[0].extra)
    want = _load_reference()["random"][str(seed)]
    assert _json_exact(_reference_record(*run)) == want, (
        f"seed {seed}: counters or memory diverged"
    )


@pytest.mark.parametrize("engine", LEGS)
@pytest.mark.parametrize("seed", range(10))
def test_random_kernels_bit_identical(executor, seed, engine):
    """Random event soup: memory, counters, and atomics match bit-for-bit."""
    _assert_leg_identical(seed, executor, nvidia_a100(), engine)


@pytest.mark.parametrize("engine", LEGS)
@pytest.mark.parametrize("seed", range(10, 15))
def test_random_kernels_bit_identical_amd(executor, seed, engine):
    """Same differential property on 64-wide wavefronts."""
    _assert_leg_identical(seed, executor, amd_mi100(), engine)


# ---------------------------------------------------------------------------
# Pinned hooked and permuted paths.
#
# No engine is an oracle for the monitor's observations or for a permuted
# schedule (a warp-order permutation changes how the L1 evolves), so both
# are pinned against values recorded once into FIXTURE.


def _params_for(seed):
    return amd_mi100() if seed >= 10 else nvidia_a100()


def _counters_record(kc, *mem):
    """JSON-exact record of a launch: every counter, plus a memory digest."""
    digest = hashlib.sha256()
    for arr in mem:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return {
        "cycles": kc.cycles,
        "blocks_per_sm": kc.blocks_per_sm,
        "waves": kc.waves,
        "blocks": [b.as_dict() for b in kc.blocks],
        "extra": dict(kc.extra),
        "mem_sha256": digest.hexdigest(),
    }


def _json_exact(obj):
    return json.loads(json.dumps(obj))


def _report_record(report):
    """Compact record of a sanitizer report: its stats and finding count in
    the clear, plus a digest of the full ``to_dict()``.  Source sites keep
    their file but lose the line number, so editing this file does not
    move the pin."""
    full = re.sub(r"(\.py):\d+", r"\1", json.dumps(report.to_dict(), sort_keys=True))
    return {
        "clean": report.clean,
        "findings": len(report.findings),
        "stats": dict(report.stats),
        "sha256": hashlib.sha256(full.encode()).hexdigest(),
    }


def _reference_record(kc, *mem):
    """:func:`_counters_record` plus the launch geometry: every
    :class:`~repro.gpu.counters.KernelCounters` field the ``identical()``
    oracle compares."""
    record = _counters_record(kc, *mem)
    record["num_blocks"] = kc.num_blocks
    record["threads_per_block"] = kc.threads_per_block
    return record


def _load_fixture():
    with open(FIXTURE) as f:
        return json.load(f)


def _load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


@pytest.mark.parametrize("seed", range(15))
def test_hooked_reports_pinned(executor, seed):
    """The hooked leg's sanitizer report is the recorded one, finding for
    finding and stat for stat."""
    _, report = _run_hooked(seed, executor, _params_for(seed))
    want = _load_fixture()["hooked_reports"][str(seed)]
    assert _json_exact(_report_record(report)) == want


@pytest.mark.parametrize("seed", range(5))
def test_shuffle_schedule_pinned(executor, seed):
    """A seeded warp/commit-order permutation yields the recorded counters
    and memory."""
    run = _run_random_kernel(
        seed, executor, nvidia_a100(), "auto",
        schedule_policy=BoundedPreemptionSchedule(2023),
    )
    want = _load_fixture()["shuffle_2023"][str(seed)]
    assert _json_exact(_counters_record(*run)) == want


# ---------------------------------------------------------------------------
# Directed JIT compilation and deoptimization coverage


def _run_streaming(executor, engine, threads=64, **hooks):
    dev = Device(nvidia_a100(), executor=executor)
    n = 4 * threads
    x = dev.from_array("x", np.arange(n, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)

    def k(tc, x, y, n):
        i = tc.global_tid
        stride = tc.num_blocks * tc.block_dim
        while i < n:
            v = yield from tc.load(x, i)
            yield from tc.compute("fma", 1)
            yield from tc.store(y, i, v * 2.0 + 1.0)
            i += stride

    kc = dev.launch(k, 2, threads, args=(x, y, n), engine=engine, **hooks)
    return kc, y.to_numpy()


def test_jit_compiles_streaming_kernel(executor):
    """A convergent grid-stride stream compiles: every warp goes scripted,
    the launch reports it, and the results stay bit-identical."""
    kj, yj = _run_streaming(executor, "jit")
    assert kj.extra["engine"] == "jit"
    assert kj.extra["jit_warps_compiled"] == 4.0  # 2 blocks x 2 warps
    want = _load_reference()["streaming"]
    kj.extra = strip_launch_telemetry(kj.extra)
    assert _json_exact(_reference_record(kj, yj)) == want


@pytest.mark.parametrize("engine", ["fast", "traced"])
def test_streaming_kernel_matches_reference(executor, engine):
    """The round loop, hook-free and traced, reproduces the reference
    streaming run."""
    if engine == "traced":
        run = _run_streaming(executor, "fast", tracer=_no_op_tracer)
    else:
        run = _run_streaming(executor, engine)
    assert _json_exact(_reference_record(*run)) == _load_reference()["streaming"]


def test_non_jit_launch_has_no_jit_extras(executor):
    """Counters from round-loop launches carry no engine telemetry — they
    stay bit-identical to pre-JIT baselines."""
    for engine in ("auto", "fast"):
        kc, _ = _run_streaming(executor, engine)
        assert "engine" not in kc.extra
        assert not any(key.startswith("jit_") for key in kc.extra)


# Each deopt reason gets its own kernel *function* below: the trace-verdict
# cache keys on the entry's code object, so sharing one closure across
# reasons would replay the first-seen verdict instead of exercising each
# guard.


def _deopt_divergence(dev):
    x = dev.from_array("x", np.arange(128, dtype=np.float64))
    w = dev.alloc("w", 128, np.float64)

    def k(tc, x, w):
        if tc.lane_id % 2 == 0:  # data-dependent branch: non-uniform
            yield from tc.compute("alu")
        else:
            yield from tc.compute("fma")
        v = yield from tc.load(x, tc.global_tid)
        yield from tc.store(w, tc.global_tid, v + 1.0)

    return k, (x, w), [w]


def _deopt_event(dev):
    x = dev.from_array("x", np.arange(128, dtype=np.float64))
    w = dev.alloc("w", 128, np.float64)
    acc = dev.alloc("acc", 4, np.int64)

    def k(tc, x, w, acc):
        old = yield from tc.atomic_add(acc, 0, 1)  # unsupported event kind
        yield from tc.store(w, tc.global_tid, float(old % 7))

    return k, (x, w, acc), [w, acc]


def _deopt_alloc(dev):
    w = dev.alloc("w", 128, np.float64)

    def k(tc, w):
        tmp = tc.alloca("tmp", 2, np.float64)  # dynamic allocation
        yield from tc.store(tmp, 0, tc.tid * 1.0)
        v = yield from tc.load(tmp, 0)
        yield from tc.store(w, tc.global_tid, v * 2.0)

    return k, (w,), [w]


def _deopt_dependence(dev):
    w = dev.alloc("w", 128, np.float64)

    def k(tc, w):
        yield from tc.store(w, tc.global_tid, 2.0)
        v = yield from tc.load(w, tc.global_tid)  # reads own earlier store
        yield from tc.store(w, tc.global_tid + 64, v + 1.0)

    return k, (w,), [w]


def _deopt_isolation(dev):
    x = dev.from_array("x", np.arange(128, dtype=np.float64))

    def k(tc, x):
        # Warp 0 reads the cells warp 1 stores (all loads land a round
        # before any store, so the interpreters see pre-launch values —
        # but the dry-run cannot prove that and must refuse).
        v = yield from tc.load(x, (tc.global_tid + tc.warp_size) % 128)
        yield from tc.store(x, tc.global_tid, v + 1.0)

    return k, (x,), [x]


_DEOPT_CASES = {
    "divergence": _deopt_divergence,
    "event": _deopt_event,
    "alloc": _deopt_alloc,
    "dependence": _deopt_dependence,
    "isolation": _deopt_isolation,
}


@pytest.mark.parametrize("reason", sorted(_DEOPT_CASES))
def test_jit_deopt_bit_identical(executor, reason):
    """Each guard fires, is reported, and the fallback stays bit-identical."""
    build = _DEOPT_CASES[reason]

    def run(engine):
        dev = Device(nvidia_a100(), executor=executor)
        k, args, bufs = build(dev)
        kc = dev.launch(k, 1, 64, args=args, engine=engine)
        return kc, [b.to_numpy().copy() for b in bufs]

    kj, mj = run("jit")
    ki, mi = run("fast")
    assert kj.extra["engine"] == "jit"
    assert kj.extra.get(f"jit_deopt_{reason}", 0) >= 1, (
        f"expected a {reason} deopt, extras: {kj.extra}"
    )
    assert kj.extra.get("jit_warps_compiled", 0) == 0
    for a, b in zip(mj, mi):
        assert np.array_equal(a, b)
    kj.extra = strip_launch_telemetry(kj.extra)
    assert kj.identical(ki)


def test_trace_verdict_keyed_by_scalar_args(executor):
    """A size that diverges must not poison the verdict for a size that
    compiles: the trace cache keys on the scalar launch arguments."""
    dev = Device(nvidia_a100(), executor=executor)
    n_max = 32868
    x = dev.from_array("x", np.arange(n_max, dtype=np.float32))
    y = dev.alloc("y", n_max, np.float32)

    def k(tc, x, y, n):
        i = tc.global_tid
        stride = tc.num_blocks * tc.block_dim
        while i < n:
            v = yield from tc.load(x, i)
            yield from tc.compute("fma", 1)
            yield from tc.store(y, i, v * 2.0 + 1.0)
            i += stride

    def launch(n):
        return dev.launch(k, 4, 128, args=(x, y, n), engine="jit")

    assert launch(32768).extra["jit_warps_compiled"] == 16.0
    ragged = launch(n_max)  # a partial last stride: block 0 diverges
    assert ragged.extra.get("jit_deopt_divergence", 0) == 1
    again = launch(32768)
    assert again.extra["jit_warps_compiled"] == 16.0
    assert not any(key.startswith("jit_deopt_") for key in again.extra)


def test_runtime_kernel_deopts_as_alloc(executor, monkeypatch):
    """An OpenMP-runtime kernel reaches its team shared state through
    ``tc.block`` at entry; the tracer classifies that as an ``alloc``
    deopt, not as an unexpected ``error``."""
    from repro.kernels import laplace3d

    monkeypatch.setenv("REPRO_ENGINE", "jit")
    dev = Device(benchmark_profile(), executor=executor)
    data = laplace3d.build_data(dev, nx=6, ny=6, nz=66, seed=2023)
    res = laplace3d.run(dev, data, "spmd_simd", simd_len=32, num_teams=4,
                        team_size=64)
    extra = res.counters.extra
    assert extra["engine"] == "jit"
    assert extra.get("jit_deopt_alloc", 0) > 0
    assert "jit_deopt_error" not in extra


# One kernel function per case: the trace verdict is cached per code object.
def _scaled_by_tid_f32(dev):
    x = dev.from_array("x", (np.arange(64) * 1.37 + 0.3).astype(np.float32))
    y = dev.alloc("y", 64, np.float32)

    def k(tc, x, y):
        v = yield from tc.load(x, tc.tid)
        yield from tc.store(y, tc.tid, v * tc.tid + 0.1)

    return k, (x, y), [y]


def _scaled_by_tid_mod_f32(dev):
    x = dev.from_array("x", (np.arange(64) * 1.37 + 0.3).astype(np.float32))
    y = dev.alloc("y", 64, np.float32)

    def k(tc, x, y):
        v = yield from tc.load(x, tc.tid)
        yield from tc.store(y, tc.tid, v * (tc.tid % 5) + 0.1)

    return k, (x, y), [y]


def _scaled_by_tid_f64(dev):
    x = dev.from_array("x", np.arange(64) * 1.37 + 0.3)
    y = dev.alloc("y", 64, np.float64)

    def k(tc, x, y):
        v = yield from tc.load(x, tc.tid)
        yield from tc.store(y, tc.tid, v * tc.tid + 0.1)

    return k, (x, y), [y]


@pytest.mark.parametrize("build,compiles", [
    (_scaled_by_tid_f32, False),
    (_scaled_by_tid_mod_f32, False),
    (_scaled_by_tid_f64, True),
], ids=["float32", "float32-mod", "float64"])
def test_thread_id_lanes_promote_like_python_ints(executor, build, compiles):
    """The round loop sees ``tid`` as a Python int, which NumPy treats as
    weak: ``float32 * tid`` stays float32.  The JIT's id lanes are int64
    arrays, so it compiles where they promote alike (float64) and deopts
    where they would not, bit-identical either way."""
    def run(engine):
        dev = Device(nvidia_a100(), executor=executor)
        k, args, bufs = build(dev)
        kc = dev.launch(k, 1, 64, args=args, engine=engine)
        return kc, [b.to_numpy().copy() for b in bufs]

    kj, mj = run("jit")
    ki, mi = run("fast")
    assert (kj.extra.get("jit_warps_compiled", 0) == 2.0) == compiles
    for a, b in zip(mj, mi):
        assert np.array_equal(a, b)
    kj.extra = strip_launch_telemetry(kj.extra)
    assert kj.identical(ki)


@pytest.mark.parametrize("engine", ["fast", "jit"])
def test_float32_ops_accumulate_in_float64(executor, engine):
    """A float32 ``ops`` charges in float64: the running ``issue_cycles``
    sum must not narrow to float32, where 2**24 + 1 rounds back to 2**24.
    The JIT compiles the block rather than deoptimizing it."""
    def k(tc):
        yield from tc.compute("alu", np.float32(16777216.0))
        yield from tc.compute("alu", 1)

    dev = Device(nvidia_a100(), executor=executor)
    kc = dev.launch(k, 1, 32, engine=engine)
    assert kc.total("issue_cycles") == 16777217.0
    assert kc.extra.get("jit_warps_compiled", 1.0) == 1.0


# ---------------------------------------------------------------------------
# Engine selection and validation


def test_engine_rejects_unknown_name(executor):
    dev = Device(nvidia_a100(), executor=executor)

    def k(tc):
        yield from tc.compute("alu")

    with pytest.raises(LaunchError, match="engine"):
        dev.launch(k, 1, 32, engine="turbo")


def test_explicit_jit_with_hook_is_an_error(executor):
    dev = Device(nvidia_a100(), executor=executor)

    def k(tc):
        yield from tc.compute("alu")

    with pytest.raises(LaunchError, match="incompatible"):
        dev.launch(k, 1, 32, sanitize=RACES, engine="jit")


def test_env_engine_downgrades_silently_under_hook(executor, monkeypatch):
    """A REPRO_ENGINE=jit sweep must not break hook-carrying launches: the
    preference falls back to the round loop and reports no jit telemetry."""
    monkeypatch.setenv("REPRO_ENGINE", "jit")
    dev = Device(nvidia_a100(), executor=executor)
    w = dev.alloc("w", 32, np.float64)

    def k(tc, w):
        yield from tc.store(w, tc.tid, 1.0)

    kc = dev.launch(k, 1, 32, args=(w,), sanitize=RACES)
    assert "engine" not in kc.extra
    assert not any(key.startswith("jit_") for key in kc.extra)
    assert np.all(w.to_numpy() == 1.0)


# ---------------------------------------------------------------------------
# Directed error-behaviour equivalence


def _launch_expect(executor, build, exc, engine):
    """Run ``build``'s kernel expecting ``exc``; return its record: error
    type name, message and a digest of the kernel's buffers."""
    dev = Device(nvidia_a100(), executor=executor)
    k, blocks, threads, args, bufs = build(dev)
    with pytest.raises(exc) as ei:
        dev.launch(k, blocks, threads, args=args, engine=engine)
    digest = hashlib.sha256()
    for b in bufs:
        digest.update(np.ascontiguousarray(b.to_numpy()).tobytes())
    return {"type": type(ei.value).__name__, "message": str(ei.value),
            "mem_sha256": digest.hexdigest()}


def _oob_load(dev):
    x = dev.from_array("x", np.zeros(8))

    def k(tc, x):
        yield from tc.compute("alu")
        if tc.tid == 5:
            yield from tc.load(x, 64)
        else:
            yield from tc.compute("fma")

    return k, 1, 32, (x,), [x]


def _oob_store(dev):
    x = dev.from_array("x", np.arange(16, dtype=np.float64))

    def k(tc, x):
        # Lanes before the faulting one commit their stores first — the
        # partial memory state at the fault must match across engines.
        yield from tc.store(x, tc.tid % 16, -1.0)
        if tc.tid == 9:
            yield from tc.store(x, 99, 0.0)

    return k, 1, 32, (x,), [x]


def _oob_vec_load(dev):
    x = dev.from_array("x", np.zeros(8))

    def k(tc, x):
        # Convergent: under the JIT this faults *inside* the compiled
        # script (an 'F' step), not via deopt.
        yield from tc.load_vec(x, [tc.tid % 8, 8 + tc.tid])

    return k, 1, 32, (x,), [x]


def _oob_jit_store(dev):
    x = dev.from_array("x", np.arange(48, dtype=np.float64))

    def k(tc, x):
        # Convergent second store walks off the end: the JIT must commit
        # the exact lane-major prefix before raising.
        yield from tc.store(x, tc.tid, -1.0)
        yield from tc.store(x, tc.tid + 32, -2.0)

    return k, 1, 32, (x,), [x]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "build", [_oob_load, _oob_store, _oob_vec_load, _oob_jit_store]
)
def test_memory_fault_identical(executor, build, engine):
    """Faults carry the reference type/message and leave its memory."""
    got = _launch_expect(executor, build, MemoryFault, engine)
    assert got == _load_reference()["memory_fault"][build.__name__]


def _retired_lane_deadlock(dev):
    def k(tc):
        if tc.lane_id < 16:
            return  # retire: the full-mask group below can never complete
            yield
        yield from tc.syncwarp()

    return k, 1, 32, (), []


def _counted_bar_deadlock(dev):
    def k(tc):
        # Only 4 lanes arrive at a barrier demanding 8: never releases.
        # (A classic barrier would release once the rest retire — counted
        # barriers demand absolute arrivals.)
        if tc.tid < 4:
            yield from tc.syncthreads(bar_id=1, count=8)

    return k, 1, 32, (), []


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("build", [_retired_lane_deadlock, _counted_bar_deadlock])
def test_deadlock_identical(executor, build, engine):
    """Incomplete groups deadlock as the reference did under every engine."""
    got = _launch_expect(executor, build, DeadlockError, engine)
    assert got == _load_reference()["deadlock"][build.__name__]


# ---------------------------------------------------------------------------
# Regressions: seams where hooked and hook-free runs used to disagree


def _counted_bar_then_syncwarp(tc):
    if tc.warp_id == 0:
        yield from tc.syncthreads(bar_id=1, count=32)
    else:
        yield from tc.syncwarp()
    yield from tc.compute("alu")


def _counted_bar_then_shfl(tc):
    if tc.warp_id == 0:
        yield from tc.syncthreads(bar_id=1, count=32)
    else:
        yield from tc.shfl_down(1.0, 1)
    yield from tc.compute("alu")


@pytest.mark.parametrize("kernel", [_counted_bar_then_syncwarp,
                                    _counted_bar_then_shfl])
def test_counted_barrier_releases_with_warp_groups(executor, kernel):
    """A counted barrier releasing in the same round as a warp barrier or
    shuffle group must not hold that group back a round: the hook-free
    loop (which completes the warp group inline) and a sanitized launch
    (which parks every group until the round-end release) agree."""

    def run(**hooks):
        dev = Device(nvidia_a100(), executor=executor)
        kc = dev.launch(kernel, 1, 64, **hooks)
        kc.extra.pop("sanitizer_findings", None)
        kc.sanitizer = None
        return kc

    plain = run(engine="fast")
    sanitized = run(sanitize=SanitizerConfig(mode="report"))
    assert plain.rounds == 2
    assert sanitized.identical(plain)


def _div_floor_by_zero(tc, w):
    yield from tc.store(w, tc.tid, tc.tid // 0)


def _mod_by_zero(tc, w):
    yield from tc.store(w, tc.tid, tc.tid % 0)


def _div_by_lane(tc, w):
    yield from tc.store(w, tc.tid, 7 // tc.tid)  # lane 0 divides by zero


@pytest.mark.parametrize("leg", ["fast", "jit", "traced"])
@pytest.mark.parametrize("kernel", [_div_floor_by_zero, _mod_by_zero,
                                    _div_by_lane])
def test_zero_divisor_raises_on_every_engine(executor, kernel, leg):
    """A zero divisor in any lane raises ``ZeroDivisionError`` and stores
    nothing: the JIT aborts its trace instead of letting NumPy yield 0."""
    dev = Device(nvidia_a100(), executor=executor)
    w = dev.alloc("w", 32, np.int64)
    hooks = {"tracer": _no_op_tracer} if leg == "traced" else {}
    engine = "fast" if leg == "traced" else leg
    with pytest.raises(ZeroDivisionError):
        dev.launch(kernel, 1, 32, args=(w,), engine=engine, **hooks)
    assert not w.to_numpy().any()
