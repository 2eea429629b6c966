"""Atomic dependences: the race detector hands same-round atomic pairs to
DPOR, which reverses them like racing pairs.

Atomics on one element are synchronized, so the detector never reports
them as races.  They are still order-dependent: a float ``atomicAdd``
sums in commit order, and a plain read sees an atomic or not depending on
which commits first.  Each regression here came back "not order
dependent" after one DPOR run before the detector recorded these pairs.
"""

import numpy as np
import pytest

from repro import omp
from repro.exec import ParallelExecutor, SerialExecutor
from repro.gpu.costmodel import benchmark_profile
from repro.gpu.device import Device
from repro.kernels import sparse_matvec
from repro.sanitizer import SanitizerConfig
from repro.sanitizer.schedule import (
    _diff_outputs,
    explore_schedules_dpor,
    replay_directed,
)

#: The ``sparse_matvec`` launches of the repository benchmark's paper
#: pass, restated: structure seed, sizes, geometry, and seed-1 inputs.
STRUCTURE_SEED = 2023
SPMV_SIZES = {"n_rows": 64, "n_cols": 64, "mean_nnz": 10.0}
SPMV_LAUNCHES = {"base": (1, 4, 32), "g2": (2, 4, 64), "g4": (4, 4, 64),
                 "g8": (8, 4, 64), "g16": (16, 4, 64), "g32": (32, 4, 64)}


def spmv_run(point):
    simd_len, num_teams, team_size = SPMV_LAUNCHES[point]

    def run(policy):
        dev = Device(benchmark_profile())
        data = sparse_matvec.build_data(dev, seed=STRUCTURE_SEED, **SPMV_SIZES)
        rng = np.random.default_rng(1)
        for buf in (data.values, data.x):
            buf.fill_from(rng.standard_normal(buf.size))
        data.reset()
        prog = (sparse_matvec.program_two_level(data.n_rows) if simd_len == 1
                else sparse_matvec.program_simd(data.n_rows))
        args = {"row_ptr": data.row_ptr, "col_idx": data.col_idx,
                "values": data.values, "x": data.x, "y": data.y}
        kernel = omp.compile(prog, tuple(args), name=f"spmv.{point}")
        omp.launch(dev, kernel, num_teams=num_teams, team_size=team_size,
                   simd_len=simd_len, args=args, sharing_bytes=2048,
                   schedule_policy=policy)
        return {"y": dev.to_numpy(data.y)}

    return run


def one_slot_run(policy):
    """64 lanes add irregular floats into one slot: the sum's rounding
    depends on commit order."""
    dev = Device()
    total = dev.scalar("t", 0.0, np.float64)

    def kernel(tc, total):
        yield from tc.atomic_add(total, 0, 0.1 * (tc.tid + 1) ** 3.3)

    dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(total,),
               schedule_policy=policy)
    return {"t": dev.to_numpy(total)}


def mixed_run(order, init=None):
    """In one round, one warp atomically adds to ``c[0]`` while the other
    loads it: ``order`` names which warp does which, ascending.  With
    ``init`` ("store" or "atomic"), lane 0 first sets ``c[0]`` that way
    behind a block barrier, so the buffer has been written or atomically
    updated before the mixed round."""

    def run(policy):
        dev = Device()
        c = dev.alloc("c", 1, np.float64)
        out = dev.alloc("out", 64, np.float64)

        def kernel(tc, c, out):
            if init:
                if tc.tid == 0 and init == "store":
                    yield from tc.store(c, 0, 0.5)
                elif tc.tid == 0:
                    yield from tc.atomic_add(c, 0, 0.5)
                yield from tc.syncthreads()
            if (tc.warp_id == 0) == (order == "atomic-then-read"):
                yield from tc.atomic_add(c, 0, 1.0)
            else:
                v = yield from tc.load(c, 0)
                yield from tc.store(out, tc.tid, v)

        dev.launch(kernel, num_blocks=1, threads_per_block=64, args=(c, out),
                   schedule_policy=policy)
        return {"c": dev.to_numpy(c), "out": dev.to_numpy(out)}

    return run


def stable_atomic_run(policy):
    """Integer-valued atomics over two rounds: exact in any order."""
    dev = Device()
    total = dev.scalar("t", 0.0, np.float64)

    def kernel(tc, total):
        yield from tc.atomic_add(total, 0, float(tc.tid))
        yield from tc.atomic_add(total, 0, float(tc.tid % 7))

    dev.launch(kernel, num_blocks=1, threads_per_block=128, args=(total,),
               schedule_policy=policy)
    return {"t": dev.to_numpy(total)}


def sanitized_report(kernel, args_of, num_blocks=1, threads=64, executor=None):
    dev = Device(executor=executor)
    args = args_of(dev)
    kc = dev.launch(kernel, num_blocks=num_blocks, threads_per_block=threads,
                    args=args, sanitize=SanitizerConfig(mode="report"))
    return kc.sanitizer


def one_slot_kernel(tc, total):
    yield from tc.atomic_add(total, 0, 0.1 * (tc.tid + 1) ** 3.3)


class TestPaperLaunches:
    @pytest.mark.parametrize("point", list(SPMV_LAUNCHES))
    def test_sparse_matvec_is_order_dependent(self, point):
        """Fig 9's float ``atomicAdd`` row sums depend on commit order,
        and every divergence replays from its recorded spec."""
        run = spmv_run(point)
        result = explore_schedules_dpor(run)
        assert result.order_dependent, result.text()
        assert result.stats.stop_reason == "divergence"
        assert result.stats.racing_pairs == 0
        assert result.divergent_backtrack.dependent
        replayed = replay_directed(run, result.divergent_spec)
        again = _diff_outputs(repr(result.divergent_spec), result.baseline,
                              replayed)
        assert [(d.name, d.n_mismatch, d.max_abs_diff) for d in again] == \
            [(d.name, d.n_mismatch, d.max_abs_diff) for d in result.diffs]


class TestMinimizedKernels:
    def test_float_atomics_into_one_slot(self):
        result = explore_schedules_dpor(one_slot_run)
        assert result.order_dependent, result.text()
        assert result.stats.racing_pairs == 0
        assert result.stats.dependent_pairs > 0
        text = result.text()
        assert "dependent pair (atomic)" in text
        assert "racing pair" not in text
        finding = result.report.by_category("schedule-divergence")[0]
        assert "dependent pair (atomic)" in finding.message
        replayed = replay_directed(one_slot_run, result.divergent_spec)
        assert replayed["t"][0] != result.baseline["t"][0]

    def test_divergence_text_names_the_directed_schedule(self):
        """A directed divergence is labelled by its replay spec, not as a
        seed; fallback runs keep their integer seed."""
        result = explore_schedules_dpor(one_slot_run)
        text = result.text()
        assert f"  schedule {result.divergent_spec!r}: output 't' differs" \
            in text
        assert "seed [" not in text
        assert result.diffs[0].describe().startswith("schedule [[")
        fallback = _diff_outputs(7, result.baseline, replay_directed(
            one_slot_run, result.divergent_spec))
        assert fallback[0].describe().startswith("seed 7: output 't'")

    @pytest.mark.parametrize("init", [None, "store", "atomic"])
    @pytest.mark.parametrize("order", ["atomic-then-read", "read-then-atomic"])
    def test_atomic_and_read_across_warps(self, order, init):
        run = mixed_run(order, init)
        result = explore_schedules_dpor(run)
        assert result.order_dependent, result.text()
        point = result.divergent_backtrack
        assert point.dependent
        assert {point.first["kind"], point.second["kind"]} == {"atomic", "read"}
        assert point.directive[0] == "warp"
        replayed = replay_directed(run, result.divergent_spec)
        assert not np.array_equal(replayed["out"], result.baseline["out"])

    def test_stable_atomics_end_within_the_default_budget(self):
        result = explore_schedules_dpor(stable_atomic_run)
        assert not result.order_dependent, result.text()
        assert result.stats.dependent_pairs > 0
        assert result.stats.stop_reason in ("max_runs", "exhausted")
        assert result.stats.runs <= 64
        if result.stats.stop_reason == "max_runs":
            assert f"stable within {result.stats.runs} runs" in result.text()
            assert "every inequivalent" not in result.text()


class TestDependenceFeed:
    """What the detector records, and what it leaves alone."""

    def test_pairs_stay_out_of_the_rendered_report(self):
        report = sanitized_report(
            one_slot_kernel, lambda d: (d.scalar("t", 0.0, np.float64),))
        assert report.dependent
        assert report.clean
        assert "dependent" not in report.to_json()
        assert "dependent" not in report.text()
        assert not any("depend" in k for k in report.stats)

    def test_one_pair_per_element_and_reversal(self):
        """Two warps, one round, one element: warp 0's commit order, warp
        1's commit order, and warp 1 before warp 0."""
        report = sanitized_report(
            one_slot_kernel, lambda d: (d.scalar("t", 0.0, np.float64),))
        reversals = sorted((first["warp"], second["warp"])
                           for _, first, second, _ in report.dependent)
        assert reversals == [(0, 0), (0, 1), (1, 1)]

    def test_cross_round_atomics_are_not_fed(self):
        def kernel(tc, total):
            if tc.warp_id == 1:
                yield from tc.compute("alu")  # skew into round 1
            yield from tc.atomic_add(total, 0, 1.0)

        report = sanitized_report(
            kernel, lambda d: (d.scalar("t", 0.0, np.float64),))
        assert report.dependent
        assert all(first["warp"] == second["warp"]
                   for _, first, second, _ in report.dependent)

    def test_report_merge_carries_pairs(self):
        """Per-block reports merged by a forked parallel launch carry the
        same pairs the serial launch's one monitor records."""

        def kernel(tc, total):
            yield from tc.atomic_add(total, tc.block_id, 0.5 * tc.tid)

        def args_of(dev):
            return (dev.alloc("t", 2, np.float64),)

        serial = sanitized_report(kernel, args_of, num_blocks=2,
                                  executor=SerialExecutor())
        forked = sanitized_report(
            kernel, args_of, num_blocks=2,
            executor=ParallelExecutor(workers=2, processes=True))
        assert len(serial.dependent) == 6
        assert forked.dependent == serial.dependent
