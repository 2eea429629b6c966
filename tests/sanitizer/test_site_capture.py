"""Captured event sites equal the walked ones.

A monitored block builds its lanes on :class:`~repro.gpu.thread.SiteThreadCtx`,
whose helpers record the frame that called them; the monitor formats that
frame instead of walking the suspended generator chain.  The walk
(:func:`repro.sanitizer.monitor.yield_site`) stays as the oracle: for every
non-``Compute`` event of the corpus, the paper kernels, fuzz-generated
programs and a kernel yielding raw events, both must name the same
``file.py:lineno``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import omp, sanitizer
from repro.exec.engine import SerialExecutor
from repro.fuzz.generate import build_program, make_inputs, plan_from_seed
from repro.gpu import block as block_mod
from repro.gpu.device import Device
from repro.gpu.events import Store
from repro.gpu.thread import SiteThreadCtx, ThreadCtx
from repro.sanitizer import SanitizerConfig, corpus, monitor as monitor_mod
from repro.sanitizer.monitor import SanitizerMonitor, yield_site

from test_report_pin import PAPER_LAUNCHES, run_paper

REPORT = SanitizerConfig(mode="report")


class SiteOracleMonitor(SanitizerMonitor):
    """Checks each event's captured site against the chain walk."""

    #: ``(captured-or-fallback site, walked site, frame was captured)``.
    seen: list = []

    def event_site(self, block, lane) -> str:
        walked = yield_site(lane.gen)
        captured = block.ctxs[lane.tid].site_frame is not None
        site = super().event_site(block, lane)
        self.seen.append((site, walked, captured))
        return site


@pytest.fixture
def oracle(monkeypatch):
    """Every launch's monitor checks its sites; launches run serially so
    the monitors live in this process."""
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    monkeypatch.setattr(monitor_mod, "SanitizerMonitor", SiteOracleMonitor)
    seen = SiteOracleMonitor.seen = []
    return seen


def assert_sites_agree(seen, min_events=1):
    assert len(seen) >= min_events
    mismatched = [(site, walked) for site, walked, _ in seen if site != walked]
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("case", [c.name for c in corpus.CASES])
def test_corpus_sites(oracle, case):
    corpus.by_name(case).run()
    assert_sites_agree(oracle)


@pytest.mark.parametrize("label", PAPER_LAUNCHES)
def test_paper_kernel_sites(oracle, label):
    with sanitizer.session():
        run_paper(label, SerialExecutor())
    assert_sites_agree(oracle, min_events=100)
    assert all(captured for _, _, captured in oracle)


@pytest.mark.parametrize("seed", range(15))
def test_fuzz_program_sites(oracle, seed):
    plan = plan_from_seed(seed)
    dev = Device(executor=SerialExecutor())
    args = {k: dev.from_array(k, v) for k, v in sorted(make_inputs(plan).items())}
    tree, launch_kwargs = build_program(plan)
    omp.launch(dev, tree, args=args, check=REPORT, **launch_kwargs)
    assert_sites_agree(oracle)


def test_raw_event_falls_back_to_the_walk(oracle):
    """A kernel yielding a raw ``Store`` bypasses the helpers: no frame is
    captured, and the walk names the kernel's own line."""

    def kernel(tc, a):
        yield from tc.store(a, tc.tid, 1.0)
        yield Store(a, (tc.tid,), (2.0,))
        v = yield from tc.load(a, tc.tid)
        yield Store(a, (tc.tid,), (v + 1.0,))

    dev = Device(executor=SerialExecutor())
    a = dev.alloc("a", 64, np.float64)
    dev.launch(kernel, 1, 64, args=(a,), sanitize=REPORT)
    assert_sites_agree(oracle, min_events=4 * 64)
    assert {captured for _, _, captured in oracle} == {True, False}
    assert np.array_equal(a.to_numpy(), np.full(64, 3.0))


def test_hook_free_launch_builds_no_site_context(monkeypatch):
    """Zero cost when off: only monitored blocks capture sites."""
    built = []
    monkeypatch.setattr(block_mod, "SiteThreadCtx", lambda *a, **k: built.append(1))

    def kernel(tc, a):
        yield from tc.store(a, tc.tid, 1.0)

    dev = Device(executor=SerialExecutor())
    a = dev.alloc("a", 64, np.float64)
    for engine in ("auto", "fast", "jit"):
        dev.launch(kernel, 2, 32, args=(a,), engine=engine)
    dev.launch(kernel, 2, 32, args=(a,), tracer=lambda *ev: None)
    assert built == []
    monkeypatch.undo()

    hooked = block_mod.ThreadBlock(0, 32, dev.params, dev.gmem, kernel,
                                   args=(a,), monitor=SanitizerMonitor(REPORT))
    assert {type(c) for c in hooked.ctxs} == {SiteThreadCtx}
    plain = block_mod.ThreadBlock(0, 32, dev.params, dev.gmem, kernel, args=(a,))
    assert {type(c) for c in plain.ctxs} == {ThreadCtx}
