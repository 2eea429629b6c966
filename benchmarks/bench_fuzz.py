"""Fuzz-tier throughput: programs/second through the differential matrix.

The standing campaign's value scales with how many programs a wall-clock
budget covers, so this bench times (a) the smoke matrix (three serial
engine legs — the per-PR slice) and (b) the full matrix (adds parallel
executors, a permuted schedule, and serve batching), plus the DPOR
explorer on the corpus's order-dependent kernel against the run count
the deleted seed sampler recorded there.

Run standalone (prints BENCH lines)::

    PYTHONPATH=src python benchmarks/bench_fuzz.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_fuzz.py --benchmark-only

Floors are deliberately loose (2 programs/s smoke, 0.5 full) — they
catch an accidental 10× harness regression, not host noise; ratio gates
live with the engine benches, not here.
"""

from __future__ import annotations

import time

import pytest

from conftest import run_once
from repro.fuzz.harness import default_legs, run_campaign

#: Seeds per timed leg — small enough for CI, large enough to amortize
#: interpreter warm-up.
SMOKE_PROGRAMS = 12
FULL_PROGRAMS = 6

#: Regression floors, programs/second (loose by design, see module doc).
SMOKE_FLOOR = 2.0
FULL_FLOOR = 0.5


def _campaign_rate(count: int, smoke: bool) -> float:
    t0 = time.perf_counter()
    campaign = run_campaign(count, 2023,
                            legs=default_legs(smoke=smoke))
    elapsed = time.perf_counter() - t0
    assert campaign.ok, campaign.describe()
    return count / elapsed


def smoke_matrix_throughput() -> float:
    rate = _campaign_rate(SMOKE_PROGRAMS, True)
    print(f"BENCH fuzz smoke-matrix: {rate:.2f} programs/s")
    assert rate >= SMOKE_FLOOR
    return rate


def full_matrix_throughput() -> float:
    rate = _campaign_rate(FULL_PROGRAMS, False)
    print(f"BENCH fuzz full-matrix: {rate:.2f} programs/s")
    assert rate >= FULL_FLOOR
    return rate


#: Runs the deleted seed sampler executed on the corpus's order-dependent
#: kernel with 64 seeds and no early stop: the baseline plus one per seed.
SAMPLED_RUNS = 65


def dpor_vs_sampling():
    """The pruning claim as a bench: directed exploration must keep
    executing strictly fewer schedules than the recorded no-stop
    sampling loop on the corpus's order-dependent kernel."""
    from repro.sanitizer.corpus import order_dependent_run
    from repro.sanitizer.schedule import explore_schedules_dpor

    t0 = time.perf_counter()
    directed = explore_schedules_dpor(order_dependent_run)
    directed_s = time.perf_counter() - t0
    assert directed.order_dependent
    assert directed.stats.runs < SAMPLED_RUNS
    print(f"BENCH dpor: {directed.stats.runs} runs in {directed_s:.3f}s "
          f"vs sampling's recorded {SAMPLED_RUNS} runs "
          f"(pruned {directed.stats.pruned_equivalent} equivalent)")
    return directed


@pytest.mark.benchmark(group="fuzz")
def test_smoke_matrix_throughput(benchmark):
    rate = run_once(benchmark, smoke_matrix_throughput)
    benchmark.extra_info["programs_per_s"] = round(rate, 2)


@pytest.mark.benchmark(group="fuzz")
def test_full_matrix_throughput(benchmark):
    rate = run_once(benchmark, full_matrix_throughput)
    benchmark.extra_info["programs_per_s"] = round(rate, 2)


@pytest.mark.benchmark(group="fuzz")
def test_dpor_beats_sampling_runs(benchmark):
    directed = run_once(benchmark, dpor_vs_sampling)
    benchmark.extra_info["directed_runs"] = directed.stats.runs
    benchmark.extra_info["sampled_runs"] = SAMPLED_RUNS
    benchmark.extra_info["pruned_equivalent"] = directed.stats.pruned_equivalent


if __name__ == "__main__":
    smoke_matrix_throughput()
    full_matrix_throughput()
    dpor_vs_sampling()
