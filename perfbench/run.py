"""Repository benchmark: one workload per process, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sanitize --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
timed phase untraced and then traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the digest of simulated statistics, the tail percentile and its
sample counts.
The exit code is non-zero on any failed operation or oracle mismatch.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Environment that would otherwise choose the executor, engine or fault
#: plan (the kernels' run_* helpers resolve them from it), and thread pools
#: that would add threads to the workload process.
CLEARED_ENV = ("REPRO_EXECUTOR", "REPRO_ENGINE", "REPRO_FAULTS")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_REPS = 5
OUT_DIR = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _pin_environment() -> None:
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    os.environ.update(PINNED_ENV)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"benchmark: no program sources under {src}")
    sys.path[:0] = [src, ROOT]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setups(wl, seed: int, trace_last=None):
    """Set up ``SETUP_REPS`` times; keep the last state, report the median.

    ``trace_last``, when given, is installed around the last set-up only.
    """
    from perfbench.common import clock, median

    times = []
    state = None
    for rep in range(SETUP_REPS):
        if state is not None:
            wl.close(state)
            state = None
            gc.collect()
        last = rep == SETUP_REPS - 1
        if last and trace_last is not None:
            trace_last.install()
        t0 = clock()
        try:
            state = wl.setup(seed)
        finally:
            if last and trace_last is not None:
                trace_last.remove()
        times.append(clock() - t0)
    return state, median(times)


def _phase(wl, state, seconds, rec=None):
    from perfbench.common import PhaseContext

    gc.collect()
    ctx = PhaseContext(rec, concurrent=wl.concurrent, rate_windows=wl.rate_windows)
    wl.phase(state, ctx, seconds)
    return ctx


def end_to_end(wl, ctx, setup_s: float, paper_err: float):
    from perfbench import common

    lat_ms = [x * 1e3 for x in ctx.latencies]
    within = sum(1 for x in lat_ms if x <= wl.slo_ms)
    metrics = {
        "setup_s": setup_s,
        "launches_per_s": ctx.rate(),
        "p50_ms": common.percentile(lat_ms, 50.0),
        "tail_ms": common.percentile(lat_ms, wl.tail_q),
        "slo_ok_frac": within / ctx.attempted,
        "sim_cycles": common.sim_cycles(ctx.fixed),
        "paper_err_pct": paper_err,
        "peak_rss_mb": common.peak_rss_mb(),
        "ok_frac": (ctx.attempted - ctx.failed) / ctx.attempted,
    }
    info = {"tail_percentile": wl.tail_q, "tail_samples": len(lat_ms),
            "tail_beyond": round(common.beyond(len(lat_ms), wl.tail_q), 1),
            "slo_ms": wl.slo_ms}
    return metrics, info


def _units(kind: str) -> dict:
    """Declared metric units from BENCHMARK.json (``end_to_end`` or
    ``per_layer``)."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_environment()
    from perfbench import common
    from perfbench.spans import Instrumentation, SpanRecorder
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    rec = inst = None
    if args.trace:
        rec = SpanRecorder()
        inst = Instrumentation(rec)
    t_build0 = common.clock()
    state, setup_med = _setups(wl, args.seed, trace_last=inst)
    build_window = (t_build0, common.clock())
    try:
        ctx = _phase(wl, state, args.seconds)
        problems = []
        info = {"workload": wl.name, "seed": args.seed,
                "digest": common.digest(ctx.fixed),
                "sim_cycles": common.sim_cycles(ctx.fixed),
                "passes": ctx.extra.get("passes")}
        if args.trace:
            inst.install()
            try:
                tctx = _phase(wl, state, args.seconds, rec)
            finally:
                inst.remove()
            traced_digest = common.digest(tctx.fixed)
            if traced_digest != info["digest"]:
                problems.append(f"traced digest {traced_digest} != untraced "
                                f"{info['digest']}")
            build_s = sum(s.self_time for s in rec.window(*build_window)
                          if s.name == "kernels.build")
            metrics = common.layer_metrics(tctx, rec, ctx.rate(), tctx.rate(),
                                           build_s, wl.tail_q, problems)
            attempted = ctx.attempted + tctx.attempted
            failed = ctx.failed + tctx.failed
            failures = ctx.failures + tctx.failures
            os.makedirs(OUT_DIR, exist_ok=True)
            rec.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.jsonl"))
        else:
            paper_err = wl.paper_err_pct(ctx, args.seed)
            metrics, extra = end_to_end(wl, ctx, import_s + setup_med, paper_err)
            info.update(extra)
            attempted, failed, failures = ctx.attempted, ctx.failed, ctx.failures
    finally:
        wl.close(state)

    units = _units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        problems.append(f"metrics {sorted(set(units) ^ set(metrics))} are "
                        "emitted or declared, not both")
    for line in failures + problems:
        print(f"benchmark: {line}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "count")}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
