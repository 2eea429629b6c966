"""The three workloads: set-up, one timed phase, and clean-up each.

Every workload runs in its own process, so the process-global JIT trace
cache, the lane-table memo and peak RSS never leak between workloads.
``slo_ms`` is each workload's fixed per-operation latency limit, set so
that most but not all operations meet it at the parent commit.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro import omp, sanitizer

from perfbench import jitstream, paper, serving
from perfbench.common import Fixed, PhaseContext, clock


class Workload:
    name = ""
    slo_ms = 0.0
    #: Percentile reported as ``tail_ms``: fixed per workload, so that it
    #: does not change with the number of operations a run completes, and
    #: the highest with at least ``TAIL_BEYOND`` samples beyond it in a
    #: 30-second run on a host somewhat slower than the one it was set on.
    tail_q = 0.0
    concurrent = False
    #: Slices of the timed phase whose median rate is ``launches_per_s``;
    #: 1 for the sanitize workload, whose launches last up to a second.
    rate_windows = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def phase(self, state, ctx: PhaseContext, seconds: float) -> None:
        raise NotImplementedError

    def paper_err_pct(self, ctx: PhaseContext, seed: int) -> float:
        """Paper error of the phase's own paper points, or else of one
        untimed fast-engine pass of the paper kernels after the phase."""
        if "paper_err_pct" in ctx.extra:
            return ctx.extra["paper_err_pct"]
        return paper.untimed_paper_err_pct(seed)

    def close(self, state) -> None:
        pass


class JitStream(Workload):
    name = "jit_stream"
    rate_windows = 10
    # About 1000 launches per run; p99 would need more.
    tail_q = 95.0
    # Twice the slowest steady launch (a repeated 32768-element stencil), so
    # only outliers miss it and a uniform speed change moves it little.
    slo_ms = 40.0

    def setup(self, seed):
        return jitstream.setup(seed)

    def phase(self, state, ctx, seconds):
        jitstream.run_phase(state, ctx, seconds)


class ServeStreams(Workload):
    name = "serve_streams"
    concurrent = True
    rate_windows = 10
    # About 4000 requests per run; p99.9 would need 10000.
    tail_q = 99.0
    # Above the 99th latency percentile at full host speed (about 0.18 s)
    # and near the 75th on a host 2.6x slower.
    slo_ms = 300.0

    def setup(self, seed):
        return serving.setup(seed)

    def phase(self, state, ctx, seconds):
        serving.run_phase(state, ctx, seconds)

    def close(self, state):
        serving.close(state)


#: A write-write race by construction: pairs of iterations store to the
#: same element with no synchronisation.
RACE_N = 64


def _race_body(tc, ivs, view):
    (i,) = ivs
    yield from tc.store(view["y"], i // 2, 1.0)


class Sanitize(Workload):
    """Reduced-size paper kernels plus one racy kernel, all inside a
    report-mode sanitizer session (the instrumented round engine)."""

    name = "sanitize"
    # Two to four passes of 28 launches; p90 would need 100.
    tail_q = 75.0
    # Between the slowest other launch (a 32-group sparse_matvec, about
    # 0.45 s) and the fastest su3_bench launch (about 0.74 s), so every
    # su3_bench launch misses it while the host runs within about 20% of
    # that speed.
    slo_ms = 600.0

    def setup(self, seed):
        with sanitizer.session():
            state = paper.setup(seed)
        state.race_kernel = omp.compile(
            omp.target(omp.teams_distribute_parallel_for(RACE_N, body=_race_body)),
            ("y",), name="bench.race")
        state.race_y = state.device.alloc("bench.race.y", RACE_N // 2, np.float64)
        return state

    def phase(self, state, ctx, seconds):
        with sanitizer.session() as sess:
            race_op = self._race_op(state, sess)
            points = paper.run_phase(state, ctx, seconds, extra_ops=race_op,
                                     check=self._clean)
        ctx.extra["paper_err_pct"] = paper.paper_err_pct(points)

    @staticmethod
    def _clean(op, res):
        report = res.sanitizer
        if report is None:
            return f"{op.label}: launch was not sanitized"
        if report.findings:
            return f"{op.label}: unexpected finding {report.findings[0].category}"
        return None

    @staticmethod
    def _race_op(state, sess) -> Callable:
        def run(ctx: PhaseContext, passes: int) -> None:
            state.race_y.fill_from(np.zeros(state.race_y.size))
            ctx.begin(f"bench.race#{passes}")
            t0 = clock()
            res = omp.launch(state.device, state.race_kernel, num_teams=1,
                             team_size=RACE_N, args={"y": state.race_y})
            ctx.record(t0)
            ctx.lane_steps += int(res.counters.total("lane_steps"))
            report = res.sanitizer
            if report is None or not any(f.category == "data-race"
                                         for f in report.findings):
                ctx.fail("bench.race: expected data-race finding is missing")
            if not np.array_equal(state.race_y.to_numpy(),
                                  np.ones(state.race_y.size)):
                ctx.fail("bench.race: output differs from the oracle")
            if passes == 0:
                ctx.fixed.append(Fixed("bench.race", res.counters,
                                       res.runtime.as_dict()))
                ctx.extra["sanitizer_reports"] = len(sess.reports)
                ctx.extra["sanitizer_findings"] = sum(
                    len(r.findings) for r in sess.reports)
        return run


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (JitStream(), ServeStreams(), Sanitize())
}
