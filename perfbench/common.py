"""Shared measurement plumbing: phases, latency statistics, the digest of
simulated statistics, and the per-layer metrics of a traced phase."""

from __future__ import annotations

import hashlib
import json
import re
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.special import betainc

from repro import jit

from perfbench.spans import SpanRecorder

clock = time.perf_counter

#: Samples a tail percentile needs beyond it to be reported.
TAIL_BEYOND = 10

#: Summary keys that hold host timings, never part of the digest.
_TIMING_KEY = re.compile(r"(_s|_ms|_ns|_sec|_seconds|time)$")


@dataclass
class Fixed:
    """Simulated statistics of one operation of the workload's fixed set."""

    label: str
    counters: object  # repro.gpu.counters.KernelCounters
    runtime: Dict[str, float]


class PhaseContext:
    """Bookkeeping for one timed phase (traced when ``rec`` is given).

    Sequential workloads are busy only while an operation runs; a
    ``concurrent`` phase (many clients in flight) is busy for its whole
    wall time.
    """

    def __init__(self, rec: Optional[SpanRecorder] = None,
                 concurrent: bool = False, rate_windows: int = 1) -> None:
        self.rec = rec
        self.concurrent = concurrent
        self.rate_windows = rate_windows
        self.latencies: List[float] = []
        #: ``(end time, duration)`` of every successful operation.
        self.stamps: List[tuple] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.lane_steps = 0
        self.fixed: List[Fixed] = []
        self.extra: Dict[str, object] = {}
        self._counts0 = dict(rec.counts) if rec is not None else {}
        self._jit0 = jit.snapshot()
        self.fixed_counts: Dict[str, int] = {}
        self.jit_fixed: Dict[str, float] = {}
        self.start = clock()
        self.fixed_end: Optional[float] = None
        self.end: Optional[float] = None

    def begin(self, op: str) -> None:
        """An operation is about to start; spans on this thread that have
        no parent carry ``op`` as their operation id."""
        self.attempted += 1
        if self.rec is not None:
            self.rec.current_op = op

    def record(self, t0: float) -> None:
        """A successful operation that started at ``t0`` just returned."""
        end = clock()
        self.latencies.append(end - t0)
        self.stamps.append((end, end - t0))
        if not self.concurrent:
            self.busy_s += end - t0

    def record_error(self, t0: float, what: str) -> None:
        if not self.concurrent:
            self.busy_s += clock() - t0
        self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def fixed_done(self) -> None:
        """Mark the end of the fixed set of operations (counts stop here)."""
        self.fixed_end = clock()
        if self.rec is not None:
            self.fixed_counts = {
                k: v - self._counts0.get(k, 0) for k, v in self.rec.counts.items()
            }
        self.jit_fixed = _jit_delta(self._jit0, jit.snapshot())

    def close(self) -> None:
        self.end = clock()
        if self.fixed_end is None:
            raise RuntimeError("phase ended before its fixed set completed")
        if self.concurrent:
            self.busy_s = self.end - self.start

    def rate(self) -> float:
        """Verified operations per busy second: the median over
        ``rate_windows`` equal slices of the phase, so a short burst of
        host contention moves it less, or the whole phase's rate when a
        slice completed no operation."""
        whole = (self.attempted - self.failed) / self.busy_s
        n = self.rate_windows
        width = (self.end - self.start) / n
        counts = [0] * n
        busy = [width if self.concurrent else 0.0] * n
        for end, dt in self.stamps:
            w = min(int((end - self.start) / width), n - 1)
            counts[w] += 1
            if not self.concurrent:
                busy[w] += dt
        if n == 1 or self.failed or not all(counts):
            return whole
        return median([c / b for c, b in zip(counts, busy)])


def _jit_delta(a: dict, b: dict) -> Dict[str, float]:
    return {
        "hits": b["trace_cache_hits"] - a["trace_cache_hits"],
        "misses": b["trace_cache_misses"] - a["trace_cache_misses"],
        "blocks_compiled": b["blocks_compiled"] - a["blocks_compiled"],
        "deopts": sum(b["deopts"].values()) - sum(a["deopts"].values()),
    }


# -- latency statistics -------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0..100).

    A beta-weighted mean of every order statistic rather than one or two
    of them, so the estimate moves smoothly where a mixed workload's
    latencies leave a gap near the percentile, and one sample's host noise
    weighs little.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), xs))


def beyond(n: int, q: float) -> float:
    """Samples of ``n`` that lie beyond the ``q``-th percentile."""
    return n * (1.0 - q / 100.0)


# -- simulated statistics ----------------------------------------------------


def _clean(d: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in d.items() if not _TIMING_KEY.search(k)}


def digest(fixed: Sequence[Fixed]) -> str:
    """Exact digest of every deterministic counter of the fixed set."""
    rows = [
        {"label": f.label, "summary": _clean(f.counters.summary()),
         "runtime": f.runtime}
        for f in fixed
    ]
    blob = json.dumps(rows, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:32]


def sim_cycles(fixed: Sequence[Fixed]) -> float:
    return float(sum(f.counters.cycles for f in fixed))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


# -- per-layer metrics from a traced phase -----------------------------------


def layer_metrics(ctx: PhaseContext, rec: SpanRecorder,
                  untraced_rate: float, traced_rate: float,
                  build_s: float, tail_q: float,
                  problems: List[str]) -> Dict[str, float]:
    """Per-layer numbers of one traced phase.

    Times are self seconds summed over the phase; counts are over the
    fixed set of operations, so they repeat exactly.  Accounting problems
    (spans escaping their parent or op, self times not closing against
    the traced end-to-end time) are appended to ``problems``.
    """
    spans = rec.window(ctx.start, ctx.end)
    problems.extend(SpanRecorder.check_nesting(spans))
    selfs = SpanRecorder.self_times(spans)
    roots = sum(s.duration for s in spans if s.parent is None)
    covered = SpanRecorder.covered(spans)
    total_self = sum(selfs.values())
    if abs(total_self - roots) > 1e-6 * max(1.0, roots):
        problems.append(f"self times {total_self:.6f}s != root spans {roots:.6f}s")
    e2e = ctx.busy_s
    unattributed = e2e - covered
    if unattributed < -1e-3 * e2e:
        problems.append(f"spans cover {covered:.4f}s of a {e2e:.4f}s phase")

    counts = ctx.fixed_counts
    kcs = [f.counters for f in ctx.fixed]
    rts = [f.runtime for f in ctx.fixed]

    def rt(key: str) -> float:
        return float(sum(r.get(key, 0.0) for r in rts))

    def total(attr: str) -> float:
        return float(sum(kc.total(attr) for kc in kcs))

    hits, misses = total("l1_hits"), total("l1_misses")
    exec_incl = sum(s.duration for s in spans if s.name == "exec.execute")
    jitf = ctx.jit_fixed
    jit_attempts = jitf["blocks_compiled"] + jitf["deopts"]
    lookups = jitf["hits"] + jitf["misses"]
    sel = lambda name: float(selfs.get(name, 0.0))  # noqa: E731
    out = {
        "core.launch_s": sel("core.launch"),
        "core.launches": float(counts.get("core.launch", 0)),
        "codegen.compile_s": sel("codegen.compile"),
        "codegen.compiles": float(counts.get("codegen.compile", 0)),
        "runtime.bind_s": sel("runtime.bind"),
        "runtime.worker_wakeups": rt("omp_worker_wakeups"),
        "runtime.simd_wakeups": rt("omp_simd_wakeups"),
        "runtime.generic_regions": rt("omp_parallel_generic") + rt("omp_simd_generic"),
        "runtime.sharing_fallbacks": rt("omp_sharing_fallbacks"),
        "exec.execute_s": sel("exec.execute"),
        "exec.blocks": float(sum(kc.num_blocks for kc in kcs)),
        "gpu.launch_self_s": sel("gpu.launch"),
        "gpu.cost_s": sel("gpu.cost"),
        "gpu.lane_steps": total("lane_steps"),
        "gpu.rounds": total("rounds"),
        "gpu.steps_per_s": ctx.lane_steps / exec_incl if exec_incl > 0 else 0.0,
        "gpu.l1_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "gpu.mem_cycles": total("mem_cycles"),
        "gpu.sync_cycles": total("sync_cycles"),
        "jit.try_s": sel("jit.try"),
        "jit.compile_s": sel("jit.compile"),
        "jit.compile_share": sel("jit.compile") / e2e if e2e > 0 else 0.0,
        "jit.blocks_compiled": float(jitf["blocks_compiled"]),
        "jit.compiled_frac": (jitf["blocks_compiled"] / jit_attempts
                              if jit_attempts else 0.0),
        "jit.deopts": float(jitf["deopts"]),
        "jit.cache_hit_frac": jitf["hits"] / lookups if lookups else 0.0,
        "sanitizer.finalize_s": sel("sanitizer.finalize"),
        "sanitizer.events": float(counts.get("sanitizer.events", 0)),
        "kernels.build_s": build_s,
        "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0)
                               if traced_rate > 0 else 0.0),
        "trace.unattributed_pct": 100.0 * unattributed / e2e if e2e > 0 else 0.0,
    }
    out.update(_serve_metrics(ctx, spans, selfs, e2e, tail_q))
    out["sanitizer.reports"] = float(ctx.extra.get("sanitizer_reports", 0))
    out["sanitizer.findings"] = float(ctx.extra.get("sanitizer_findings", 0))
    return out


def _serve_metrics(ctx: PhaseContext, spans, selfs, e2e,
                   tail_q: float) -> Dict[str, float]:
    submits: Dict[str, float] = ctx.extra.get("submit_times", {})
    waits = [
        (s.start - submits[s.op]) * 1e3
        for s in spans
        if s.name == "serve.prepare" and s.op in submits
    ]
    stats = ctx.extra.get("serve_stats", {})
    dispatch = [s for s in spans if s.name.startswith("serve.") and s.parent is None]
    busy = SpanRecorder.covered(dispatch) if dispatch else 0.0
    batches = float(stats.get("batches", 0))
    return {
        "serve.queue_p50_ms": percentile(waits, 50.0) if waits else 0.0,
        "serve.queue_tail_ms": (percentile(waits, tail_q)
                                if beyond(len(waits), tail_q) >= TAIL_BEYOND else 0.0),
        "serve.prepare_s": float(selfs.get("serve.prepare", 0.0)),
        "serve.run_batch_s": float(selfs.get("serve.run_batch", 0.0)),
        "serve.release_s": float(selfs.get("serve.release", 0.0)),
        "serve.dispatch_util": busy / e2e if e2e > 0 and dispatch else 0.0,
        "serve.batch_size_mean": (float(stats.get("batched_requests", 0)) / batches
                                  if batches else 0.0),
        "serve.batches": batches,
        "serve.rejects": float(stats.get("rejected", 0)),
    }
