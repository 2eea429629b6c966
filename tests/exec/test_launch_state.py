"""Failed launches must leave no partial coordinator state behind.

``Device.last_launch`` and the process-wide sanitizer session are updated
by the *coordinator* only after a launch fully completes and merges; an
executor that raises (validation error, kernel fault, deadlock, race)
leaves both exactly as they were — under every executor.  Also covers
the executor-selection plumbing (env spec parsing, precedence).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitizer
from repro.errors import DataRaceError, DeadlockError, LaunchError, MemoryFault
from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    coerce_executor,
    default_executor,
    legs,
    set_default_executor,
)
from repro.gpu.device import Device

#: The leg table's executors (this suite's ids call the parallel leg
#: "inproc").
LEGS = [pytest.param(name, id="inproc" if name == "parallel" else name)
        for name in legs.EXECUTORS]


def _racy(tc, a):
    yield from tc.store(a, 0, float(tc.tid))


def _deadlocked(tc, a):
    if tc.tid < 16:
        yield from tc.syncthreads(bar_id=0)
    else:
        yield from tc.syncthreads(bar_id=1)
    yield from tc.store(a, tc.tid, 1.0)


def _faulting(tc, a):
    yield from tc.store(a, 10_000, 1.0)


def _noop(tc, a):
    if False:
        yield


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize(
    "kernel, kwargs, exc",
    [
        pytest.param(_racy, {"sanitize": "raise"}, DataRaceError, id="race"),
        pytest.param(_deadlocked, {}, DeadlockError, id="deadlock"),
        pytest.param(_faulting, {}, MemoryFault, id="fault"),
    ],
)
def test_failed_launch_leaves_no_partial_state(leg, kernel, kwargs, exc):
    dev = Device(executor=legs.make_executor(leg))
    a = dev.alloc("a", 32, np.float64)

    ok = dev.launch(_noop, num_blocks=1, threads_per_block=1, args=(a,))
    assert dev.last_launch is ok

    with pytest.raises(exc):
        dev.launch(kernel, num_blocks=2, threads_per_block=32, args=(a,),
                   **kwargs)
    assert dev.last_launch is ok, "failed launch must not update last_launch"


@pytest.mark.parametrize("leg", LEGS)
def test_failed_launch_adds_no_session_report(leg):
    dev = Device(executor=legs.make_executor(leg))
    a = dev.alloc("a", 32, np.float64)
    with sanitizer.session() as sess:
        dev.launch(_noop, num_blocks=1, threads_per_block=1, args=(a,))
        n_ok = len(sess.reports)
        assert n_ok == 1
        with pytest.raises(LaunchError):
            dev.launch(_faulting, num_blocks=0, threads_per_block=32, args=(a,))
        assert len(sess.reports) == n_ok, "rejected launch must not report"


@pytest.mark.parametrize("leg", LEGS)
def test_invalid_geometry_rejected_before_execution(leg):
    dev = Device(executor=legs.make_executor(leg))
    before = dev.last_launch
    with pytest.raises(LaunchError):
        dev.launch(_noop, num_blocks=1, threads_per_block=4096, args=(None,))
    assert dev.last_launch is before


def test_report_mode_deadlock_truncates_identically():
    """In report mode a deadlock truncates the launch rather than raising;
    the parallel merge must reproduce the serial truncation point."""

    def kernel(tc, a):
        if tc.block_id == 1:
            if tc.tid < 16:
                yield from tc.syncthreads(bar_id=0)
            else:
                yield from tc.syncthreads(bar_id=1)
        yield from tc.store(a, tc.global_tid, 1.0)

    def run(executor):
        dev = Device(executor=executor)
        a = dev.alloc("a", 128, np.float64)
        kc = dev.launch(kernel, num_blocks=4, threads_per_block=32,
                        args=(a,), sanitize="report")
        return dev.to_numpy(a), kc

    a_s, kc_s = run(SerialExecutor())
    a_p, kc_p = run(ParallelExecutor(workers=3, processes=False))
    assert np.array_equal(a_s, a_p)
    assert kc_s.identical(kc_p)
    assert kc_s.sanitizer.categories() == kc_p.sanitizer.categories()
    assert len(kc_p.blocks) == 2, "blocks past the deadlock must not land"


# ---------------------------------------------------------------------------
# Executor selection plumbing
# ---------------------------------------------------------------------------


def test_coerce_executor_specs():
    assert isinstance(coerce_executor(""), SerialExecutor)
    assert isinstance(coerce_executor("serial"), SerialExecutor)
    par = coerce_executor("parallel:3")
    assert isinstance(par, ParallelExecutor)
    assert par.workers == 3 and par.processes is False
    frk = coerce_executor("fork:2")
    assert frk.workers == 2 and frk.processes is True
    assert coerce_executor("parallel").workers is None
    with pytest.raises(ValueError):
        coerce_executor("threads")
    with pytest.raises(ValueError):
        coerce_executor("parallel:zero")


def test_env_spec_controls_default(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "parallel:2")
    ex = default_executor()
    assert isinstance(ex, ParallelExecutor) and ex.workers == 2
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    assert isinstance(default_executor(), SerialExecutor)


def test_set_default_executor_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    override = ParallelExecutor(workers=2, processes=False)
    set_default_executor(override)
    try:
        assert default_executor() is override
    finally:
        set_default_executor(None)
    assert isinstance(default_executor(), SerialExecutor)


def test_launch_argument_beats_device_executor():
    """Per-launch executor overrides the device's; tracers force serial."""
    calls = []

    class Probe(ParallelExecutor):
        def execute(self, device, plan):
            calls.append("probe")
            return super().execute(device, plan)

    dev = Device(executor=SerialExecutor())
    a = dev.alloc("a", 32, np.float64)

    def kernel(tc, a):
        yield from tc.store(a, tc.tid, 1.0)

    dev.launch(kernel, 1, 32, args=(a,),
               executor=Probe(workers=2, processes=False))
    assert calls == ["probe"]

    # A tracer must silently route any parallel executor to serial
    # in-process execution (closures observe live generators).
    seen = []
    dev2 = Device(executor=ParallelExecutor(workers=2, processes=True))
    b = dev2.alloc("b", 32, np.float64)
    dev2.launch(kernel, 2, 32, args=(b,),
                tracer=lambda *ev: seen.append(ev))
    assert seen, "tracer saw no events"
