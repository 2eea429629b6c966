"""Tests for TeamRuntime state and runtime counters."""

import numpy as np
import pytest

from repro.exec import SerialExecutor
from repro.gpu.costmodel import nvidia_a100
from repro.gpu.device import Device
from repro.runtime.dispatch import DispatchTable
from repro.runtime.state import RuntimeCounters, TeamRuntime

from conftest import make_cfg


class TestTeamRuntime:
    def test_per_block_singleton(self):
        # Pinned to the serial executor: it observes host object identity
        # (``id(rt)``), which a forked worker cannot hand back.
        dev = Device(nvidia_a100(), executor=SerialExecutor())
        cfg = make_cfg(team_size=32, simd_len=8)
        seen = []

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, dev.gmem, DispatchTable(),
                                 RuntimeCounters())
            seen.append((tc.block_id, id(rt)))
            yield from tc.compute("alu")

        dev.launch(entry, 2, 32)
        per_block = {}
        for block, rt_id in seen:
            per_block.setdefault(block, set()).add(rt_id)
        assert all(len(ids) == 1 for ids in per_block.values())
        assert per_block[0] != per_block[1]

    def test_state_buffers_shaped_by_groups(self, rt_device):
        cfg = make_cfg(team_size=64, simd_len=8)
        captured = {}

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, rt_device.gmem, DispatchTable(),
                                 RuntimeCounters())
            captured["simd_fn"] = rt.simd_fn.size
            captured["argptr"] = rt.sharing.argptr.size
            yield from tc.compute("alu")

        rt_device.launch(entry, 1, 64)
        assert captured["simd_fn"] == 8  # 64/8 groups
        assert captured["argptr"] == 8

    def test_globalize_shared_idempotent(self, rt_device):
        cfg = make_cfg(team_size=32, simd_len=8)
        counters = RuntimeCounters()
        bufs = []

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, rt_device.gmem, DispatchTable(), counters)
            bufs.append(rt.globalize_shared("tmp", 4, np.float64))
            yield from tc.compute("alu")

        rt_device.launch(entry, 1, 32)
        assert len({id(b) for b in bufs}) == 1
        assert counters.globalized_vars == 1

    def test_dyn_counter_is_per_team(self, rt_device):
        cfg = make_cfg(num_teams=2, team_size=32, simd_len=1)
        claims = rt_device.alloc("claims", 2, np.int64)

        def entry(tc, claims):
            rt = TeamRuntime.get(tc, cfg, rt_device.gmem, DispatchTable(),
                                 RuntimeCounters())
            yield from tc.atomic_add(rt.dyn_counter, 0, 1)
            yield from tc.syncthreads()
            if tc.tid == 0:
                n = yield from tc.load(rt.dyn_counter, 0)
                yield from tc.store(claims, tc.block_id, n)

        rt_device.launch(entry, 2, 32, args=(claims,))
        # Each team's counter saw its own 32 claims and no other team's.
        assert list(claims.to_numpy()) == [32, 32]


class TestRuntimeCounters:
    def test_as_dict_keys_prefixed(self):
        d = RuntimeCounters(parallel_spmd=2, simd_wakeups=7).as_dict()
        assert d["omp_parallel_spmd"] == 2.0
        assert d["omp_simd_wakeups"] == 7.0
        assert all(k.startswith("omp_") for k in d)
