"""Batched merged launches must be bit-identical to solo launches.

This is the serve tier's core correctness contract: coalescing N
compatible requests into one segmented grid changes *scheduling*, never
*semantics*.  Every case runs each request solo on a fresh device (the
ground truth) and once through :func:`repro.serve.batch.run_batch` on a
shared device, then compares memory images, cycle counts, per-block
counters, and counter extras bit-for-bit — on every engine and
executor of the leg table (:mod:`repro.exec.legs`), the serve tier's
warm pool (:class:`~repro.serve.lease.PoolLease`, forked once per case)
included.

The one deliberate carve-out (documented in ``docs/SERVE.md``): solo
jit launches attach launch-scoped telemetry (``extra["engine"]``,
``extra["jit_*"]``) that cannot be attributed per-request inside a
merged grid, so those keys are stripped before comparing extras.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jit, omp
from repro.errors import MemoryFault
from repro.exec import SerialExecutor, fork_available, legs
from repro.gpu.device import Device
from repro.jit.stats import DEOPT_REASONS
from repro.jit.trace import TRACE_CACHE
from repro.sanitizer import strip_launch_telemetry
from repro.serve import batch as B
from repro.serve.catalog import KernelCatalog
from repro.serve.demo import DEMO_N

from serve_helpers import make_args

KERNELS = ("axpy", "square", "scale_sum")

#: Every executor leg, the batched-only warm pool included.
EXECUTOR_LEGS = [
    pytest.param(name, id=name, marks=pytest.mark.skipif(
        name == legs.WARM_POOL and not fork_available(),
        reason="fork unavailable"))
    for name in [*legs.EXECUTORS, legs.WARM_POOL]
]


def _solo(catalog, kernel, args, num_teams):
    """Ground truth: the request run alone on a fresh device."""
    dev = Device()
    bufs = {n: dev.from_array(n, v.copy()) for n, v in args.items()}
    res = omp.launch(dev, catalog.get(kernel), num_teams=num_teams,
                     team_size=64, args=bufs)
    return {n: bufs[n].to_numpy() for n in args}, res.counters


def _batch(catalog, specs, *, engine=None, executor=None, tag="b"):
    dev = Device()
    prepared = [
        B.prepare(dev, catalog, k, a, num_teams=nt, team_size=64,
                  tag=f"{tag}{i}")
        for i, (k, a, nt) in enumerate(specs)
    ]
    try:
        return B.run_batch(dev, prepared, engine=engine, executor=executor)
    finally:
        for p in prepared:
            B.release(dev, p)


@pytest.mark.parametrize("engine", legs.ENGINES)
@pytest.mark.parametrize("leg", EXECUTOR_LEGS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_batch_bit_identical_to_solo(catalog, engine, leg, data):
    n = data.draw(st.integers(1, 4), label="batch size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    specs = []
    for _ in range(n):
        kernel = data.draw(st.sampled_from(KERNELS))
        num_teams = data.draw(st.integers(1, 3))
        specs.append((kernel, make_args(kernel, rng), num_teams))

    import os
    prev = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = engine
    try:
        with legs.batch_executor(leg, catalog, Device().params) as executor:
            outs = _batch(catalog, specs, engine=engine, executor=executor)
        for (kernel, args, num_teams), out in zip(specs, outs):
            assert out.ok
            mem, kc = _solo(catalog, kernel, args, num_teams)
            for name in args:
                assert mem[name].tobytes() == out.outputs[name].tobytes(), (
                    kernel, name)
            assert kc.cycles == out.counters.cycles
            assert list(kc.blocks) == list(out.counters.blocks)
            assert (strip_launch_telemetry(kc.extra)
                    == strip_launch_telemetry(out.counters.extra))
    finally:
        if prev is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prev


@pytest.mark.parametrize("leg", EXECUTOR_LEGS)
def test_per_request_error_demux(catalog, leg):
    """A faulting request errors exactly as it would solo; its batchmates
    complete untouched."""
    bad = omp.compile(
        omp.target(omp.teams_distribute_parallel_for(
            DEMO_N, body=_oob_body)),
        ("x", "y"), name="oob")
    cat2 = type(catalog)()
    cat2.register("axpy", catalog.get("axpy"))
    cat2.register("oob", bad)

    rng = np.random.default_rng(11)
    a0 = make_args("axpy", rng)
    a1 = {"x": rng.standard_normal(DEMO_N), "y": rng.standard_normal(DEMO_N)}
    a2 = make_args("axpy", rng)
    specs = [("axpy", a0, 2), ("oob", a1, 2), ("axpy", a2, 1)]

    with legs.batch_executor(leg, cat2, Device().params) as executor:
        outs = _batch(cat2, specs, executor=executor)
    assert outs[0].ok and outs[2].ok
    assert outs[1].error is not None
    with pytest.raises(MemoryFault):
        outs[1].raise_for_error()

    # The good requests still match their solo ground truth exactly.
    for (kernel, args, nt), out in ((specs[0], outs[0]), (specs[2], outs[2])):
        mem, kc = _solo(cat2, kernel, args, nt)
        for name in args:
            assert np.array_equal(mem[name], out.outputs[name])
        assert kc.cycles == out.counters.cycles

    # And the failing one fails identically solo.
    dev = Device()
    bufs = {n: dev.from_array(n, v.copy()) for n, v in a1.items()}
    with pytest.raises(MemoryFault):
        omp.launch(dev, bad, num_teams=2, team_size=64, args=bufs)


def _oob_body(tc, ivs, view):
    (i,) = ivs
    x = yield from tc.load(view["x"], i)
    # Last iteration stores past the end of y: deterministic fault.
    yield from tc.store(view["y"], i + (1 if i == DEMO_N - 1 else 0), x)


def test_cross_block_atomics_survive_batching(catalog):
    """scale_sum's cross-block atomic forces the stale-read fallback in
    the parallel engine — results must still be bit-identical."""
    rng = np.random.default_rng(23)
    specs = [("scale_sum", make_args("scale_sum", rng), 3),
             ("axpy", make_args("axpy", rng), 2)]
    serial = _batch(catalog, specs, executor=SerialExecutor())
    par = _batch(catalog, specs, executor=legs.make_executor("parallel"),
                 tag="p")
    for o1, o2 in zip(serial, par):
        assert o1.ok and o2.ok
        for name in o1.outputs:
            assert np.array_equal(o1.outputs[name], o2.outputs[name])
        assert o1.counters.extra == o2.counters.extra


def test_incompatible_geometry_rejected(catalog):
    """run_batch refuses mixed block shapes (the batcher's invariant)."""
    rng = np.random.default_rng(5)
    dev = Device()
    p0 = B.prepare(dev, catalog, "axpy", make_args("axpy", rng),
                   num_teams=1, team_size=64, tag="g0")
    p1 = B.prepare(dev, catalog, "axpy", make_args("axpy", rng),
                   num_teams=1, team_size=32, tag="g1")
    try:
        assert not B.compatible(p0, p1)
        with pytest.raises(Exception):
            B.run_batch(dev, [p0, p1])
    finally:
        B.release(dev, p0)
        B.release(dev, p1)


def _raw_triad_entry(cfg, gmem, counters, args):
    """A raw grid-stride kernel the JIT compiles, except block 3, whose
    lane-dependent branch deopts it (``divergence``)."""
    x, y = args["x"], args["y"]

    def entry(tc):
        if tc.block_id == 3 and tc.tid < 16:
            yield from tc.compute("alu", 1)
        i = tc.global_tid
        while i < DEMO_N:
            a = yield from tc.load(x, i)
            yield from tc.store(y, i, 2.0 * a)
            i += tc.block_dim * tc.num_blocks

    return entry


def _jit_totals():
    snap = jit.snapshot()
    return (snap["blocks_compiled"], snap["warps_compiled"],
            snap["lockstep_blocks"], snap["deopts"],
            snap["trace_cache_hits"] + snap["trace_cache_misses"])


def test_jit_totals_equal_on_every_leg(catalog):
    """``jit.snapshot()`` is the fold of every launch's record, so one
    launch reads the same totals on every leg: forked and warm-pool
    workers' counts ride the side-state merge home."""
    raw = KernelCatalog()
    raw.register("raw_triad", dataclasses.replace(
        catalog.get("axpy"), name="raw_triad",
        entry_factory=_raw_triad_entry))
    args = make_args("axpy", np.random.default_rng(3))
    totals = {}
    for leg in [*legs.EXECUTORS, legs.WARM_POOL]:
        if leg == legs.WARM_POOL and not fork_available():
            continue
        # Cold caches everywhere: warm workers fork on their first batch.
        TRACE_CACHE.clear()
        jit.reset()
        dev = Device()
        if leg == legs.WARM_POOL:
            with legs.batch_executor(leg, raw, dev.params) as executor:
                p = B.prepare(dev, raw, "raw_triad", args, num_teams=4,
                              team_size=64)
                (out,) = B.run_batch(dev, [p], engine="jit",
                                     executor=executor)
                B.release(dev, p)
            assert out.ok
        else:
            bufs = {n: dev.from_array(n, v.copy()) for n, v in args.items()}
            omp.launch(dev, raw.get("raw_triad"), num_teams=4, team_size=64,
                       args=bufs, engine="jit",
                       executor=legs.make_executor(leg))
        totals[leg] = _jit_totals()
    deopts = {r: int(r == "divergence") for r in DEOPT_REASONS}
    assert totals["serial"] == (3, 6, 3, deopts, 4)
    assert all(t == totals["serial"] for t in totals.values()), totals
