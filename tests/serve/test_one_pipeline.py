"""A solo launch and a batch run one pipeline, so they fail alike.

``Device.launch`` runs its grid as a one-segment plan through the same
engine ladder, executors and merge as :func:`repro.serve.batch.run_batch`;
these cases pin the error surfaces the two entry points must share: an
unknown engine name, which fault plans count as a JIT hook, a watchdog
expiry, and a kernel's own exception class.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import omp
from repro.errors import LaunchError, LaunchTimeout
from repro.exec import ParallelExecutor, SerialExecutor
from repro.faults import FaultPlan, FaultSpec
from repro.gpu.device import Device
from repro.runtime.state import RuntimeCounters
from repro.serve import batch as B
from repro.serve.lease import PoolLease

from serve_helpers import make_args


def _raw_prepared(dev, kernel, num_blocks, name="raw"):
    """A hand-bound request running ``kernel(tc, out)`` over 32 lanes."""
    out = dev.alloc(f"{name}:out", num_blocks * 32, np.float64)

    def entry(tc):
        yield from kernel(tc, out)

    return B.PreparedLaunch(
        name=name,
        kernel=None,
        cfg=SimpleNamespace(num_teams=num_blocks, block_dim=32, simd_len=1),
        rc=RuntimeCounters(),
        entry=entry,
        buffers={"out": out},
        out=("out",),
    )


@pytest.mark.parametrize("source", ["kwarg", "env"])
@pytest.mark.parametrize("path", ["solo", "batch"])
def test_unknown_engine_is_a_launch_error(catalog, monkeypatch, path, source):
    engine = "bogus" if source == "kwarg" else None
    if source == "env":
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
    dev = Device()
    args = make_args("axpy", np.random.default_rng(0))
    with pytest.raises(LaunchError, match="unknown engine"):
        if path == "solo":
            bufs = {n: dev.from_array(n, v) for n, v in args.items()}
            omp.launch(dev, catalog.get("axpy"), num_teams=1, team_size=64,
                       args=bufs, engine=engine)
        else:
            p = B.prepare(dev, catalog, "axpy", args, num_teams=1,
                          team_size=64)
            B.run_batch(dev, [p], engine=engine)


def _store_one(tc, out):
    yield from tc.store(out, tc.block_id * 32 + tc.tid, 1.0)


@pytest.mark.parametrize("site,probability,hooked", [
    ("atomic.transient", 0.5, True),
    ("sharing.overflow", 1.0, True),
    ("atomic.transient", 0.0, False),
    ("worker.crash", 1.0, False),
    ("memory.bitflip", 1.0, False),
    ("serve.reject", 1.0, False),
])
@pytest.mark.parametrize("path", ["solo", "batch"])
def test_only_in_block_fault_sites_are_jit_hooks(path, site, probability,
                                                 hooked):
    """A fault plan is a hook the JIT lacks only when it can fire inside
    a block; explicit ``engine="jit"`` then raises on both paths."""
    plan = FaultPlan(1, [FaultSpec(site, probability=probability,
                                   attempts=99 if site == "worker.crash"
                                   else 1)])
    dev = Device()

    def run():
        if path == "solo":
            out = dev.alloc("out", 64, np.float64)
            return dev.launch(_store_one, 2, 32, args=(out,), faults=plan,
                              engine="jit", executor=SerialExecutor())
        (outcome,) = B.run_batch(dev, [_raw_prepared(dev, _store_one, 2)],
                                 faults=plan, engine="jit")
        return outcome.counters

    if hooked:
        with pytest.raises(LaunchError, match="fault plan"):
            run()
    else:
        kc = run()
        assert kc.cycles > 0
        if path == "solo":
            assert kc.extra["engine"] == "jit"


def test_warm_pool_refuses_a_solo_closure(catalog):
    """A solo launch's segment carries no request to rebuild, so the
    warm-pool executor raises instead of shipping a closure."""
    dev = Device()
    out = dev.alloc("out", 64, np.float64)
    with PoolLease(catalog, dev.params, workers=1, processes=False) as lease:
        with pytest.raises(LaunchError, match="no source request"):
            dev.launch(_store_one, 2, 32, args=(out,), executor=lease)


def _sleepy(tc, out):
    if tc.block_id == 0:
        time.sleep(0.05)
    yield from tc.store(out, tc.block_id * 32 + tc.tid, 1.0)


@pytest.mark.parametrize("path", ["solo", "batch"])
def test_timeout_carries_its_structure(path):
    dev = Device()
    with pytest.raises(LaunchTimeout) as exc:
        if path == "solo":
            out = dev.alloc("out", 64, np.float64)
            dev.launch(_sleepy, 2, 32, args=(out,), timeout=0.01,
                       executor=SerialExecutor())
        else:
            B.run_batch(dev, [_raw_prepared(dev, _sleepy, 2)], timeout=0.01)
    err = exc.value
    assert err.timeout == 0.01
    assert err.blocks_done == 1
    assert len(err.progress) == 1


@pytest.mark.parametrize("path", ["serial", "parallel", "batch"])
def test_kernel_error_keeps_its_class(path):
    class Boom(Exception):
        pass

    def kernel(tc, out):
        if tc.block_id == 1:
            raise Boom("block 1 failed")
        yield from tc.store(out, tc.block_id * 32 + tc.tid, 1.0)

    dev = Device()
    if path == "batch":
        (outcome,) = B.run_batch(dev, [_raw_prepared(dev, kernel, 2)],
                                 engine="fast")
        with pytest.raises(Boom):
            outcome.raise_for_error()
        return
    executor = (SerialExecutor() if path == "serial"
                else ParallelExecutor(workers=2, processes=False))
    out = dev.alloc("out", 64, np.float64)
    with pytest.raises(Boom):
        dev.launch(kernel, 2, 32, args=(out,), executor=executor,
                   engine="fast")
