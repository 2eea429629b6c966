"""Lockstep JIT tracing against per-warp tracing, step for step.

:func:`repro.jit.compile.compile_block` first traces a block's warps in
one lockstep pass and re-traces warp by warp only when that pass
aborts.  The lockstep pass is legal only if, whenever it succeeds, the
per-warp passes succeed too and produce the same steps.  This suite
checks that directly — the block script read back warp by warp and
every warp's steps compared by value (tags, issue sizes and charges,
sector lists, transactions, compute charges with their type, committed
``(index, value)`` pairs with their dtype, the fault prefix) — and checks
each launch's counters, memory and dirty pages against the fast
interpreter.  Each case pins the ``kc.extra`` JIT telemetry the
per-warp tracer reports, so a fallback keeps its deopt reason.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro import jit
from repro.errors import MemoryFault
from repro.exec import legs
from repro.exec.engine import SerialExecutor
from repro.gpu.block import ThreadBlock
from repro.gpu.costmodel import amd_mi100, nvidia_a100
from repro.gpu.device import Device
from repro.gpu.events import T_COMPUTE, T_LOAD, T_STORE
from repro.jit.compile import compile_block
from repro.jit.stats import JitCounters, fold
from repro.jit.trace import PER_WARP, TRACE_CACHE, trace_key
from repro.jit.vector import JitAbort
from repro.sanitizer import strip_launch_telemetry

from test_fastpath_equiv import (
    _OP_MAKERS,
    _op_compute,
    _op_coalesced_stream,
    _op_load,
    _op_load_vec,
    _op_store,
    _op_store_vec,
)


# ---------------------------------------------------------------------------
# Step-by-step comparison


_TAG_NAMES = {T_COMPUTE: "C", T_LOAD: "L", T_STORE: "S"}


def _commit_values(sel, values, tid0, ws):
    """One commit whose values start at thread ``tid0``, split by warp:
    ``{warp: (indices, dtype, values)}``."""
    idx = np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel
    idx = np.asarray(idx)
    warp = (tid0 + np.arange(len(values))) // ws
    return {
        w: (idx[warp == w].tolist(), values.dtype.str,
            values[warp == w].tolist())
        for w in np.unique(warp).tolist()
    }


def _warp_steps(script, ws):
    """A block script read back warp by warp: per warp, the list of its
    step values in round order (``F`` last, for the faulting warp)."""
    commits = {}
    for step, buf, pairs in script.stores:
        tid0 = int(script.warp[step]) * ws
        rnd = int(script.round[step])
        for sel, values in pairs:
            for w, value in _commit_values(sel, values, tid0, ws).items():
                entry = commits.setdefault((rnd, w), (buf.name, []))
                entry[1].append(value)
    steps = [[] for _ in script.nlanes]
    for i in range(script.round.size):
        w = int(script.warp[i])
        tag = _TAG_NAMES[int(script.tag[i])]
        charge = script.issue[i]
        if tag == "C":
            steps[w].append(("C", type(charge).__name__, charge))
            continue
        secs = script.sectors[script.offsets[i]:script.offsets[i + 1]]
        value = (tag, int(script.npos[i]), int(script.nelem[i]), charge,
                 secs.tolist(), int(script.transactions[i]))
        if tag == "S":
            value += commits.pop((int(script.round[i]), w))
        steps[w].append(value)
    assert not commits, "a commit outside every store step"
    if script.fault is not None:
        _, w, buf, prefix, bad_idx = script.fault
        steps[w].append(("F", buf.name, [(i, v.item()) for i, v in prefix],
                         bad_idx))
    return steps


def _compiled(block, lockstep):
    """``(verdict, lockstep_ok, scripts)``: verdict ``None`` or the deopt
    reason, scripts as per-warp ``(lanes, step values)``."""
    try:
        script, ok = compile_block(block, lockstep)
    except JitAbort as abort:
        return abort.reason, False, None
    except Exception:
        return "error", False, None
    steps = _warp_steps(script, block.params.warp_size)
    return None, ok, [(int(nl), st) for nl, st in zip(script.nlanes, steps)]


def _blocks(dev, kernel, blocks, threads, args):
    return [
        ThreadBlock(b, threads, dev.params, dev.gmem, kernel, args,
                    num_blocks=blocks, engine="jit")
        for b in range(blocks)
    ]


def _assert_lockstep_sound(params, build):
    """Per block: a lockstep success implies an equal per-warp success.
    Returns the per-block ``(per-warp verdict, lockstep_ok)`` list."""
    dev = Device(params)
    kernel, blocks, threads, args, _ = build(dev)
    out = []
    for block in _blocks(dev, kernel, blocks, threads, args):
        lv, lok, lsteps = _compiled(block, True)
        wv, _, wsteps = _compiled(block, False)
        if lok:
            assert wv is None, (
                f"block {block.block_id}: lockstep compiled but the "
                f"per-warp passes deopt ({wv})"
            )
            for w, (a, b) in enumerate(zip(lsteps, wsteps)):
                assert a == b, f"block {block.block_id} warp {w}: steps differ"
            assert len(lsteps) == len(wsteps) == block.num_warps
        else:
            # A failed lockstep pass defers to the per-warp passes.
            assert lv == wv
            assert lsteps == wsteps
        out.append((wv, lok))
    return out


def _run(params, build, executor, engine):
    dev = Device(params, executor=executor)
    kernel, blocks, threads, args, bufs = build(dev)
    try:
        kc = dev.launch(kernel, blocks, threads, args=args, engine=engine)
        err = None
    except MemoryFault as fault:
        kc, err = None, str(fault)
    mem = [(b.to_numpy().copy(), bytes(b.dirty)) for b in bufs]
    return kc, err, mem


def _assert_launch_matches_fast(params, build, executor):
    """The jit launch against the fast engine: counters, memory, dirty
    pages, errors.  Returns the jit launch's telemetry keys."""
    kj, ej, mj = _run(params, build, executor, "jit")
    kf, ef, mf = _run(params, build, executor, "fast")
    assert ej == ef
    for (aj, dj), (af, df) in zip(mj, mf):
        assert aj.dtype == af.dtype and np.array_equal(aj, af)
        assert dj == df, "dirty pages differ"
    if kj is None:
        return None
    telemetry = {k: v for k, v in kj.extra.items() if k.startswith("jit_")}
    kj.extra = strip_launch_telemetry(kj.extra)
    assert kj.identical(kf)
    return telemetry


# ---------------------------------------------------------------------------
# Directed cases.  Each kernel is its own function, so trace-cache verdicts
# never leak between cases.


def _triad(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        v = yield from tc.load(x, i)
        yield from tc.compute("fma", 1)
        yield from tc.store(y, i, v * 2.0 + 1.0)
        i += step


def _triad_case(blocks, threads, n, kernel=_triad):
    def build(dev):
        x = dev.from_array("x", np.arange(n, dtype=np.float32) * 0.5 - 3.0)
        y = dev.alloc("y", n, np.float32)
        return kernel, blocks, threads, (x, y, n), [x, y]

    return build


def _ragged_triad(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        v = yield from tc.load(x, i)
        yield from tc.store(y, i, v - 1.0)
        i += step


def _ragged_mid_warp(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        v = yield from tc.load(x, i)
        yield from tc.store(y, i, v + 1.0)
        i += step


def _lane_warp_index(dev):
    blocks, threads = 2, 128
    n = blocks * threads
    x = dev.from_array("x", np.linspace(-1.0, 1.0, n, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)
    z = dev.alloc("z", n, np.int64)

    def k(tc, x, y, z):
        i = tc.block_id * tc.block_dim + tc.warp_id * tc.warp_size + tc.lane_id
        v = yield from tc.load(x, i)
        yield from tc.compute("alu", tc.warp_id + 1)
        yield from tc.compute("fma", tc.lane_id % 3 + 1)
        yield from tc.store(y, i, v * 2.0 - 1.0)
        yield from tc.store(z, i, (tc.warp_id * 100 + tc.lane_id) % 7)
        yield from tc.store(z, (i + tc.warp_size) % n, -1 - tc.warp_id)

    return k, blocks, threads, (x, y, z), [x, y, z]


def _warp_scalar_float(dev):
    blocks, threads = 2, 128
    n = blocks * threads
    x = dev.from_array("x", np.arange(n, dtype=np.float32) * 1.37 + 0.3)
    y = dev.alloc("y", n, np.float32)

    def k(tc, x, y):
        v = yield from tc.load(x, tc.global_tid)
        # Per warp ``warp_id`` is a Python int and keeps ``v`` float32;
        # an int64 lane array would promote it to float64.
        yield from tc.store(y, tc.global_tid, v * tc.warp_id + 0.1)

    return k, blocks, threads, (x, y), [x, y]


def _warp_branch(dev):
    blocks, threads = 2, 96
    n = blocks * threads
    y = dev.alloc("y", n, np.float64)

    def k(tc, y):
        if tc.warp_id == 0:
            yield from tc.compute("sfu", 2)
            yield from tc.store(y, tc.global_tid, 1.5)
        else:
            yield from tc.store(y, tc.global_tid, -2.5)

    return k, blocks, threads, (y,), [y]


def _in_place(dev):
    blocks, threads = 2, 128
    n = 3 * blocks * threads
    y = dev.from_array("y", np.linspace(0.0, 3.0, n))

    def k(tc, y, n):
        i = tc.global_tid
        step = tc.block_dim * tc.num_blocks
        while i < n:
            v = yield from tc.load(y, i)
            yield from tc.compute("fma", 1)
            yield from tc.store(y, i, v * v + 1.0)
            i += step

    return k, blocks, threads, (y, n), [y]


def _write_write(dev):
    blocks, threads = 2, 128
    n = blocks * threads
    x = dev.from_array("x", np.arange(n, dtype=np.float64) - 17.0)
    w = dev.alloc("w", blocks * 32, np.float64)

    def k(tc, x, w):
        v = yield from tc.load(x, tc.global_tid)
        # Every warp of a block writes the same 32 cells: the last warp
        # in commit order wins, as on the interpreters.
        yield from tc.store(w, tc.block_id * 32 + tc.tid % 32, v)

    return k, blocks, threads, (x, w), [x, w]


def _read_write(dev):
    n = 128
    x = dev.from_array("x", np.arange(n, dtype=np.float64))

    def k(tc, x):
        v = yield from tc.load(x, (tc.global_tid + tc.warp_size) % n)
        yield from tc.store(x, tc.global_tid, v + 1.0)

    return k, 1, 64, (x,), [x]


def _strided_vec(dev):
    blocks, threads = 2, 64
    n = blocks * threads
    x = dev.from_array("x", np.arange(4 * n, dtype=np.float64) * 0.125)
    y = dev.alloc("y", 2 * n, np.float64)

    def k(tc, x, y):
        g = tc.global_tid
        a, b = yield from tc.load_vec(x, [g * 3, g * 3 + 1])
        c = yield from tc.load(x, (g * 5) % (4 * n))
        yield from tc.compute("alu", 2)
        yield from tc.store_vec(y, [2 * g, 2 * g + 1], [a + c, b - c])

    return k, blocks, threads, (x, y), [x, y]


def _int64_overflow(dev):
    y = dev.alloc("y", 128, np.float64)

    def k(tc, y):
        # Exact on the scalar engines; warp 1's lanes start at 2**63.
        yield from tc.compute("alu", tc.tid * 2**58)
        yield from tc.store(y, tc.tid, 1.0)

    return k, 1, 128, (y,), [y]


def _int64_wrap_one_warp(dev):
    y = dev.alloc("y", 32, np.float64)

    def k(tc, y):
        # Lanes 2.. leave int64: an int64 array would wrap the charge.
        yield from tc.compute("alu", tc.tid * 2**62 + 1)
        yield from tc.store(y, tc.tid, 1.0)

    return k, 1, 32, (y,), [y]


def _lane_id_overflow(dev):
    y = dev.alloc("y", 64, np.float64)

    def k(tc, y):
        yield from tc.compute("alu", tc.lane_id * 2**62 * 4 + 1)
        yield from tc.store(y, tc.tid, 1.0)

    return k, 1, 64, (y,), [y]


def _oob_store(dev):
    blocks, threads = 2, 128
    n = blocks * threads
    x = dev.from_array("x", np.arange(n, dtype=np.float64))
    y = dev.alloc("y", n - 10, np.float64)

    def k(tc, x, y):
        v = yield from tc.load(x, tc.global_tid)
        yield from tc.compute("alu")
        # Only the last warp of block 1 runs past the end of ``y``.
        yield from tc.store(y, tc.global_tid, v + 0.5)

    return k, blocks, threads, (x, y), [x, y]


def _oob_load(dev):
    blocks, threads = 2, 64
    n = blocks * threads
    x = dev.from_array("x", np.arange(n - 5, dtype=np.float64))
    y = dev.alloc("y", n, np.float64)

    def k(tc, x, y):
        yield from tc.store(y, tc.global_tid, 1.0)
        v = yield from tc.load(x, tc.global_tid)
        yield from tc.store(y, (tc.global_tid + 1) % n, v)

    return k, blocks, threads, (x, y), [x, y]


#: name -> (params, build, per-block lockstep outcome, jit telemetry).
#: The telemetry is what the per-warp tracer reports (``None``: the
#: launch raises); a lockstep outcome of ``False`` means that block
#: compiled only warp by warp or deopted.
CASES = {
    "partial_last_warp": (nvidia_a100(), _triad_case(2, 100, 600),
                          [True, True], {"jit_warps_compiled": 8.0}),
    "wave64": (amd_mi100(), _triad_case(2, 192, 768),
               [True, True], {"jit_warps_compiled": 6.0}),
    # Reading lane_id or warp_id aborts a lockstep pass.
    "lane_warp_index": (nvidia_a100(), _lane_warp_index,
                        [False, False], {"jit_warps_compiled": 8.0}),
    "warp_scalar_float": (nvidia_a100(), _warp_scalar_float,
                          [False, False], {"jit_warps_compiled": 8.0}),
    "warp_branch": (nvidia_a100(), _warp_branch,
                    [False, False], {"jit_warps_compiled": 6.0}),
    "in_place": (nvidia_a100(), _in_place,
                 [True, True], {"jit_warps_compiled": 8.0}),
    "write_write": (nvidia_a100(), _write_write,
                    [True, True], {"jit_warps_compiled": 8.0}),
    "read_write": (nvidia_a100(), _read_write, [False],
                   {"jit_warps_compiled": 0.0, "jit_deopt_isolation": 1.0}),
    # Block 0's last stride covers warps 0-1 only: uniform per warp,
    # divergent over the block.
    "ragged_warp_uniform": (nvidia_a100(), _triad_case(2, 128, 576, _ragged_triad),
                            [False, True], {"jit_warps_compiled": 8.0}),
    # Block 0's last stride ends inside warp 1: divergent per warp too.
    "ragged_mid_warp": (nvidia_a100(), _triad_case(2, 128, 560, _ragged_mid_warp),
                        [False, True],
                        {"jit_warps_compiled": 4.0, "jit_deopt_divergence": 1.0}),
    # Lane values outside int64 abort rather than wrap.
    "int64_overflow": (nvidia_a100(), _int64_overflow, [False],
                       {"jit_warps_compiled": 0.0, "jit_deopt_error": 1.0}),
    "int64_wrap_one_warp": (nvidia_a100(), _int64_wrap_one_warp, [False],
                            {"jit_warps_compiled": 0.0, "jit_deopt_error": 1.0}),
    "lane_id_overflow": (nvidia_a100(), _lane_id_overflow, [False],
                         {"jit_warps_compiled": 0.0, "jit_deopt_error": 1.0}),
    "strided_vec": (nvidia_a100(), _strided_vec,
                    [True, True], {"jit_warps_compiled": 4.0}),
    "oob_store_one_warp": (nvidia_a100(), _oob_store, [True, False], None),
    "oob_load": (nvidia_a100(), _oob_load, [True, False], None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lockstep_matches_per_warp(executor, name):
    params, build, lockstep, telemetry = CASES[name]
    outcome = _assert_lockstep_sound(params, build)
    assert [ok for _, ok in outcome] == lockstep
    assert _assert_launch_matches_fast(params, build, executor) == telemetry


# ---------------------------------------------------------------------------
# Event soup: the differential suite's random programs, started from a
# lane-varying total so the vectorizable ones compile.

_VECTORIZABLE = [_op_compute, _op_load, _op_load_vec, _op_store,
                 _op_store_vec, _op_coalesced_stream]


def _soup(seed):
    rng = random.Random(seed)
    makers = _VECTORIZABLE if seed % 2 == 0 else _OP_MAKERS
    prog = [rng.choice(makers)(rng) for _ in range(rng.randint(6, 12))]
    params = amd_mi100() if seed % 5 == 4 else nvidia_a100()
    threads = 2 * params.warp_size

    def build(dev):
        blocks = 2
        n = 2 * blocks * threads
        x = dev.from_array("x", np.arange(n, dtype=np.float64) * 0.25 - 7.0)
        w = dev.from_array("w", np.zeros(n))
        acc = dev.alloc("acc", 4, np.int64)
        bufs = {"x": x, "w": w, "acc": acc, "cells": {}, "n": n}

        def k(tc, x, w, acc, seed):
            total = tc.global_tid * 0.25
            for op in prog:
                total = yield from op(tc, bufs, total)
            size = 2 * tc.block_dim
            yield from tc.store(w, tc.block_id * size + tc.tid, total)

        # ``seed`` is a scalar argument, so it keys the trace cache.
        return k, blocks, threads, (x, w, acc, seed), [x, w, acc]

    return params, build


@pytest.mark.parametrize("seed", range(16))
def test_event_soup_lockstep_matches_per_warp(executor, seed):
    params, build = _soup(seed)
    outcome = _assert_lockstep_sound(params, build)
    telemetry = _assert_launch_matches_fast(params, build, executor)
    nwarps = 2
    want = {"jit_warps_compiled": float(
        nwarps * sum(1 for verdict, _ in outcome if verdict is None))}
    for verdict, _ in outcome:
        if verdict is not None:
            key = f"jit_deopt_{verdict}"
            want[key] = want.get(key, 0.0) + 1.0
    assert telemetry == want
    if seed % 2 == 0 and all(v is None for v, _ in outcome):
        # Converged vectorizable programs compile in lockstep.
        assert all(ok for _, ok in outcome)


def test_vectorizable_soup_compiles():
    """The soup test is not vacuous: most vectorizable programs compile."""
    compiled = 0
    for seed in range(0, 16, 2):
        params, build = _soup(seed)
        compiled += all(ok for _, ok in _assert_lockstep_sound(params, build))
    assert compiled >= 6


# ---------------------------------------------------------------------------
# Verdict cache and advisory counters


def test_per_warp_verdict_skips_lockstep():
    """A block that compiled only per warp is remembered as such: its
    next launch goes straight to the per-warp passes."""
    params, build, _, _ = CASES["warp_branch"]
    # Serial: the process-global counters must see every block.
    dev = Device(params, executor=SerialExecutor())
    kernel, blocks, threads, args, _ = build(dev)
    keys = [trace_key(kernel, args, b, blocks, threads, params.warp_size)
            for b in range(blocks)]
    for key in keys:
        TRACE_CACHE.store(key, None)  # forget earlier runs of this kernel
    jit.reset()
    dev.launch(kernel, blocks, threads, args=args, engine="jit")
    first = jit.snapshot()
    assert [TRACE_CACHE.lookup(k) for k in keys] == [(PER_WARP, True)] * 2
    assert first["warp_retraces"] == blocks * 3
    assert first["lockstep_blocks"] == 0
    assert first["blocks_compiled"] == blocks
    kc = dev.launch(kernel, blocks, threads, args=args, engine="jit")
    second = jit.snapshot()
    assert second["warp_retraces"] == 2 * blocks * 3
    assert second["blocks_compiled"] == 2 * blocks
    assert kc.extra["jit_warps_compiled"] == 6.0


def _gate_stencil(tc, x, out, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        a = yield from tc.load(x, i)
        b = yield from tc.load(x, i + 1)
        c = yield from tc.load(x, i + 2)
        yield from tc.compute("fma", 4)
        yield from tc.store(out, i, 0.25 * a + 0.5 * b + 0.25 * c)
        i += step


@pytest.mark.parametrize("kernel,halo", [(_triad, 0), (_gate_stencil, 2)],
                         ids=["triad", "stencil"])
def test_gate_kernels_compile_in_lockstep(kernel, halo):
    """The substrate gate shapes (4 x 128 grid-stride triad and stencil)
    compile every block in lockstep, with no per-warp re-trace, and the
    advisory counters stay out of ``kc.extra``."""
    n = 8192
    dev = Device(nvidia_a100(), executor=SerialExecutor())
    x = dev.from_array("x", np.linspace(0.0, 1.0, n + halo, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)
    jit.reset()
    kc = dev.launch(kernel, 4, 128, args=(x, y, n), engine="jit")
    stats = jit.snapshot()
    assert stats["blocks_compiled"] == 4
    assert stats["lockstep_blocks"] == 4
    assert stats["warp_retraces"] == 0
    assert sorted(k for k in kc.extra if k.startswith("jit_")) == [
        "jit_warps_compiled"]


def test_concurrent_folds_lose_no_count():
    """Launches on several threads fold their records into the process
    totals at once; no count may be lost."""
    record = JitCounters()
    record.note_compiled(4, True)
    record.note_deopt("event")
    jit.reset()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [fold(record)
                                                    for _ in range(10000)])
                   for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in workers)
    snap = jit.snapshot()
    jit.reset()
    assert (snap["blocks_compiled"], snap["warps_compiled"],
            snap["lockstep_blocks"], snap["deopts"]["event"]) == (
        80000, 320000, 80000, 80000)


# ---------------------------------------------------------------------------
# Consumption: counters from the block script's columns


def _stencil_launch(params, executor, engine, n):
    dev = Device(params, executor=executor)
    x = dev.from_array("x", np.linspace(0.0, 1.0, n + 2, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)
    kc = dev.launch(_gate_stencil, 4, 128, args=(x, y, n), engine=engine)
    telemetry = {k: v for k, v in kc.extra.items() if k.startswith("jit_")}
    kc.extra = strip_launch_telemetry(kc.extra)
    return kc, telemetry, y.to_numpy().copy(), bytes(y.dirty)


@pytest.mark.parametrize("leg", sorted(legs.EXECUTORS))
def test_evicting_block_matches_fast(leg):
    """A block whose distinct sectors overflow its L1 can evict, so its
    hits and misses come from a walk of the cache; every counter still
    equals the fast engine's, on every executor."""
    params = nvidia_a100().with_overrides(l1_size_bytes=256)
    n = 2048
    dev = Device(params)
    x = dev.from_array("x", np.zeros(n + 2, dtype=np.float32))
    y = dev.alloc("y", n, np.float32)
    block = _blocks(dev, _gate_stencil, 4, 128, (x, y, n))[0]
    script, _ = compile_block(block)
    assert np.unique(script.sectors).size > params.l1_size_bytes // params.sector_bytes
    kj, telemetry, mem_j, dirty_j = _stencil_launch(
        params, legs.make_executor(leg), "jit", n)
    kf, _, mem_f, dirty_f = _stencil_launch(
        params, legs.make_executor(leg), "fast", n)
    assert telemetry == {"jit_warps_compiled": 16.0}
    assert kj.total("l1_hits") > 0
    assert kj.identical(kf)
    assert np.array_equal(mem_j, mem_f) and dirty_j == dirty_f


def test_cycle_folds_are_sequential():
    """``mem_cycles`` and ``issue_cycles`` add one step at a time in
    consume order, as the interpreters do: with 0.4-cycle LSU
    transactions a pairwise sum rounds differently."""
    params = nvidia_a100()
    assert params.lsu_transaction_cycles == 0.4
    kj, telemetry, _, _ = _stencil_launch(params, SerialExecutor(), "jit", 8192)
    kf, _, _, _ = _stencil_launch(params, SerialExecutor(), "fast", 8192)
    assert telemetry == {"jit_warps_compiled": 16.0}
    for bj, bf in zip(kj.blocks, kf.blocks):
        assert bj.mem_cycles.hex() == bf.mem_cycles.hex()
        assert bj.issue_cycles.hex() == bf.issue_cycles.hex()
    assert kj.identical(kf)


# ---------------------------------------------------------------------------
# Regression: an int lane compared with an integral float


@pytest.mark.parametrize("threads", [32, 128])
def test_tid_equals_integral_float(executor, threads):
    """``tc.tid == 5.0`` holds at lane 5 on every engine (the tracer once
    took any float as matching no lane and compiled a uniform branch)."""

    def k(tc, y):
        if tc.tid == 5.0:
            yield from tc.store(y, tc.tid, 1.0)
        else:
            yield from tc.store(y, tc.tid, 2.0)

    out = {}
    for engine in ("fast", "jit"):
        dev = Device(nvidia_a100(), executor=executor)
        y = dev.alloc("y", threads, np.float64)
        kc = dev.launch(k, 1, threads, args=(y,), engine=engine)
        kc.extra = strip_launch_telemetry(kc.extra)
        out[engine] = (y.to_numpy().copy(), kc)
    want = np.full(threads, 2.0)
    want[5] = 1.0
    for engine, (mem, kc) in out.items():
        assert np.array_equal(mem, want), engine
        assert kc.identical(out["fast"][1]), engine
