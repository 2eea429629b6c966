"""Span recorder tests.  Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import Instrumentation, SpanRecorder  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_children_and_accounting_closes():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def child():
        clock.t += 2.0

    def parent():
        clock.t += 1.0
        rec.call("child", child, (), {})
        clock.t += 3.0
        rec.call("child", child, (), {})

    rec.current_op = "op-1"
    rec.call("parent", parent, (), {})
    selfs = SpanRecorder.self_times(rec.spans)
    assert selfs == {"parent": 4.0, "child": 4.0}
    assert SpanRecorder.covered(rec.spans) == 8.0
    assert sum(selfs.values()) == 8.0
    assert SpanRecorder.check_nesting(rec.spans) == []
    assert {s.op for s in rec.spans} == {"op-1"}
    assert rec.counts == {"parent": 1, "child": 2}


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    try:
        rec.call("boom", boom, (), {})
    except ValueError:
        pass
    (span,) = rec.spans
    assert span.duration == 1.0 and rec._stack() == []


def test_check_nesting_reports_escape_and_foreign_op():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def inner():
        clock.t += 1.0

    def outer():
        rec.call("inner", inner, (), {}, op="other")

    rec.call("outer", outer, (), {}, op="mine")
    problems = SpanRecorder.check_nesting(rec.spans)
    assert len(problems) == 1 and "op 'other'" in problems[0]


def test_covered_merges_overlapping_roots_per_thread():
    rec = SpanRecorder(FakeClock())
    from perfbench.spans import Span

    rec.spans = [Span(1, "a", 0.0, 2.0, None, None, 1),
                 Span(2, "b", 1.0, 3.0, None, None, 1),
                 Span(3, "c", 0.0, 1.0, None, None, 2)]
    assert SpanRecorder.covered(rec.spans) == 4.0


def test_threads_keep_separate_stacks():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=5)

    threads = [threading.Thread(target=rec.call, args=("t", work, (), {}))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    assert all(s.parent is None for s in rec.spans) and len(rec.spans) == 2


def test_instrumentation_spans_a_launch_and_restores_the_program():
    from repro import Device, omp
    from repro.core import api
    from repro.exec.engine import SerialExecutor
    from repro.gpu.device import Device as DeviceCls

    originals = (api.launch, api.compile_kernel, DeviceCls.__dict__["launch"])
    dev = Device(executor=SerialExecutor())
    x = dev.from_array("x", np.arange(256, dtype=np.float64))

    def body(tc, ivs, view):
        (i,) = ivs
        v = yield from tc.load(view["x"], i)
        yield from tc.store(view["x"], i, v + 1.0)

    rec = SpanRecorder()
    with Instrumentation(rec):
        omp.launch(dev, omp.target(omp.teams_distribute_parallel_for(256, body=body)),
                   num_teams=2, team_size=128, args={"x": x})
    assert (api.launch, api.compile_kernel, DeviceCls.__dict__["launch"]) == originals
    names = [s.name for s in rec.spans]
    for name in ("core.launch", "codegen.compile", "runtime.bind", "gpu.launch",
                 "exec.execute", "gpu.cost"):
        assert name in names
    assert SpanRecorder.check_nesting(rec.spans) == []
    assert np.array_equal(x.to_numpy(), np.arange(256) + 1.0)
