"""Tests for the omp_get_* query functions."""

import numpy as np
import pytest

from repro.gpu.costmodel import amd_mi100
from repro.gpu.device import Device
from repro.runtime.icv import ExecMode
from repro.runtime.query import (
    omp_get_num_teams,
    omp_get_num_threads,
    omp_get_simd_lane,
    omp_get_simd_len,
    omp_get_team_num,
    omp_get_thread_num,
    omp_in_simd_demoted_mode,
)

from conftest import launch_rt, make_cfg


def test_identity_queries(rt_device):
    cfg = make_cfg(num_teams=3, team_size=64, simd_len=8)
    # One row per hardware thread, written to device memory so that every
    # executor, forked workers included, hands it back.
    rows = rt_device.from_array("rows", np.full(3 * 64 * 8, -1, np.int64))

    def body(tc, rt, rows):
        row = (
            tc.block_id,
            tc.tid,
            omp_get_num_teams(tc, rt),
            omp_get_team_num(tc, rt),
            omp_get_num_threads(tc, rt),
            omp_get_thread_num(tc, rt),
            omp_get_simd_lane(tc, rt),
            omp_get_simd_len(tc, rt),
        )
        first = 8 * tc.global_tid
        yield from tc.store_vec(rows, range(first, first + 8), row)

    launch_rt(rt_device, cfg, body, args=(rows,))
    table = rows.to_numpy().reshape(3 * 64, 8)
    assert list(table[:, 0]) == [b for b in range(3) for _ in range(64)]
    assert list(table[:, 1]) == list(range(64)) * 3
    for block, tid, nteams, team, nthreads, thread, lane, slen in table:
        assert nteams == 3
        assert team == block
        assert nthreads == 8  # 64 threads / groups of 8
        assert thread == tid // 8
        assert lane == tid % 8
        assert slen == 8


def test_demotion_query_on_amd():
    dev = Device(amd_mi100())
    cfg = make_cfg(team_size=64, simd_len=8, parallel_mode=ExecMode.GENERIC,
                   params=amd_mi100())
    flags = []

    def body(tc, rt):
        flags.append(omp_in_simd_demoted_mode(tc, rt))
        yield from tc.compute("alu")

    launch_rt(dev, cfg, body)
    assert all(flags)


def test_group_size_one_makes_every_thread_an_omp_thread(rt_device):
    cfg = make_cfg(team_size=32, simd_len=1)
    ids = []

    def body(tc, rt):
        ids.append((omp_get_thread_num(tc, rt), omp_get_num_threads(tc, rt)))
        yield from tc.compute("alu")

    launch_rt(rt_device, cfg, body)
    assert sorted(t for t, _ in ids) == list(range(32))
    assert all(n == 32 for _, n in ids)
