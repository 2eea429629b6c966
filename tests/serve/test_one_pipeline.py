"""A solo launch and a batch run one pipeline, so they fail alike.

``Device.launch`` runs its grid as a one-segment plan through the same
engine ladder, executors and merge as :func:`repro.serve.batch.run_batch`;
these cases pin the error surfaces the two entry points must share: an
unknown engine name, a watchdog expiry, and a kernel's own exception
class.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import omp
from repro.errors import LaunchError, LaunchTimeout
from repro.exec import ParallelExecutor, SerialExecutor
from repro.gpu.device import Device
from repro.runtime.state import RuntimeCounters
from repro.serve import batch as B

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
