"""Device-level tests: launches, counters, L1, LSU transactions, latency."""

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.gpu.costmodel import nvidia_a100
from repro.gpu.device import Device


class TestLaunchValidation:
    def test_zero_blocks(self, device):
        def k(tc):
            yield from tc.compute()

        with pytest.raises(LaunchError, match="at least one block"):
            device.launch(k, 0, 32)

    def test_too_many_threads(self, device):
        def k(tc):
            yield from tc.compute()

        with pytest.raises(LaunchError, match="threads_per_block"):
            device.launch(k, 1, 2048)

    def test_last_launch_recorded(self, device):
        def k(tc):
            yield from tc.compute()

        kc = device.launch(k, 1, 32)
        assert device.last_launch is kc

    @pytest.mark.parametrize("engine", [None, "fast", "jit"])
    def test_device_faults_false_means_no_plan(self, engine, monkeypatch):
        """``Device(faults=False)`` forces faults off exactly like the
        launch-level ``faults=False``: no plan (not even ``REPRO_FAULTS``)
        and so no hook blocking the hook-free engines."""
        monkeypatch.setenv("REPRO_FAULTS", "7:atomic.transient")
        dev = Device(nvidia_a100(), faults=False)
        out = dev.alloc("out", 32, np.int64)

        def k(tc, out):
            yield from tc.atomic_add(out, tc.tid, 1)

        kc = dev.launch(k, 1, 32, args=(out,), engine=engine)
        assert np.all(out.to_numpy() == 1)
        assert not any(key.startswith("faults") for key in kc.extra)


class TestThreadIdentity:
    def test_global_tid_and_geometry(self, device):
        out = device.alloc("o", 128, np.int64)

        def k(tc, out):
            assert tc.num_blocks == 4
            assert tc.block_dim == 32
            yield from tc.store(out, tc.global_tid, tc.block_id * 100 + tc.tid)

        device.launch(k, 4, 32, args=(out,))
        expect = np.concatenate([b * 100 + np.arange(32) for b in range(4)])
        assert np.array_equal(out.to_numpy(), expect)

    def test_warp_and_lane_ids(self, device):
        out = device.alloc("o", 96, np.int64)

        def k(tc, out):
            yield from tc.store(out, tc.tid, tc.warp_id * 1000 + tc.lane_id)

        device.launch(k, 1, 96, args=(out,))
        expect = np.array([t // 32 * 1000 + t % 32 for t in range(96)])
        assert np.array_equal(out.to_numpy(), expect)


class TestL1Cache:
    def test_repeated_loads_hit(self, device):
        x = device.from_array("x", np.arange(4, dtype=np.float64))

        def k(tc, x):
            for _ in range(10):
                yield from tc.load(x, 0)

        kc = device.launch(k, 1, 1, args=(x,))
        assert kc.total("l1_misses") == 1
        assert kc.total("l1_hits") == 9

    def test_cache_is_per_block(self, device):
        x = device.from_array("x", np.arange(4, dtype=np.float64))

        def k(tc, x):
            yield from tc.load(x, 0)

        kc = device.launch(k, 4, 1, args=(x,))
        assert kc.total("l1_misses") == 4

    def test_lru_eviction(self):
        params = nvidia_a100().with_overrides(l1_size_bytes=64)  # 2 sectors
        dev = Device(params)
        x = dev.from_array("x", np.zeros(32))  # 8 sectors

        def k(tc, x):
            # Touch 3 distinct sectors, then re-touch the first: evicted.
            yield from tc.load(x, 0)
            yield from tc.load(x, 4)
            yield from tc.load(x, 8)
            yield from tc.load(x, 0)

        kc = dev.launch(k, 1, 1, args=(x,))
        assert kc.total("l1_misses") == 4

    def test_contiguous_vector_run_counts_sectors_once(self, device):
        x = device.from_array("x", np.arange(8, dtype=np.float64))

        def k(tc, x):
            yield from tc.load_vec(x, range(8))  # 64 bytes = 2 sectors

        kc = device.launch(k, 1, 1, args=(x,))
        assert kc.total("l1_misses") == 2


class TestLsuTransactions:
    def test_coalesced_warp_load(self, device):
        x = device.from_array("x", np.arange(32, dtype=np.float64))

        def k(tc, x):
            yield from tc.load(x, tc.lane_id)

        kc = device.launch(k, 1, 32, args=(x,))
        assert kc.total("lsu_transactions") == 8  # 256B / 32B

    def test_scattered_warp_load(self, device):
        x = device.from_array("x", np.zeros(32 * 8))

        def k(tc, x):
            yield from tc.load(x, tc.lane_id * 8)  # 64B stride

        kc = device.launch(k, 1, 32, args=(x,))
        assert kc.total("lsu_transactions") == 32

    def test_broadcast_is_one_transaction(self, device):
        x = device.from_array("x", np.zeros(4))

        def k(tc, x):
            yield from tc.load(x, 0)

        kc = device.launch(k, 1, 32, args=(x,))
        assert kc.total("lsu_transactions") == 1


class TestLatencyExposure:
    def test_dependent_misses_count_rounds(self, device):
        x = device.from_array("x", np.zeros(1024))

        def k(tc, x):
            for i in range(5):
                yield from tc.load(x, i * 64)  # 5 distinct sectors

        kc = device.launch(k, 1, 1, args=(x,))
        assert kc.total("mem_serial_rounds") == 5

    def test_l1_hits_do_not_stall(self, device):
        x = device.from_array("x", np.zeros(4))

        def k(tc, x):
            for _ in range(5):
                yield from tc.load(x, 0)

        kc = device.launch(k, 1, 1, args=(x,))
        assert kc.total("mem_serial_rounds") == 1

    def test_warps_overlap_in_one_round(self, device):
        x = device.from_array("x", np.zeros(1024))

        def k(tc, x):
            yield from tc.load(x, tc.tid * 4)

        kc = device.launch(k, 1, 128, args=(x,))
        # All four warps miss in the same round: one exposure.
        assert kc.total("mem_serial_rounds") == 1

    def test_stores_do_not_stall(self, device):
        y = device.alloc("y", 1024, np.float64)

        def k(tc, y):
            for i in range(5):
                yield from tc.store(y, i * 64, 1.0)

        kc = device.launch(k, 1, 1, args=(y,))
        assert kc.total("mem_serial_rounds") == 0

    def test_atomics_stall(self, device):
        y = device.alloc("y", 1, np.float64)

        def k(tc, y):
            yield from tc.atomic_add(y, 0, 1.0)

        kc = device.launch(k, 1, 32, args=(y,))
        assert kc.total("mem_serial_rounds") == 1


class TestCountersSummary:
    def test_summary_contains_headline_fields(self, device):
        x = device.from_array("x", np.zeros(32))

        def k(tc, x):
            v = yield from tc.load(x, tc.lane_id)
            yield from tc.compute("fma")
            yield from tc.syncthreads()
            yield from tc.store(x, tc.lane_id, v + 1)

        kc = device.launch(k, 2, 32, args=(x,))
        s = kc.summary()
        for key in ("cycles", "rounds", "issue_cycles", "mem_cycles",
                    "sync_cycles", "global_sectors", "syncblocks"):
            assert key in s
        assert s["blocks"] == 2
        assert kc.cycles > 0

    def test_coalescing_efficiency_bounds(self, device):
        x = device.from_array("x", np.zeros(32 * 16))

        def k(tc, x):
            yield from tc.load(x, tc.lane_id * 16)

        kc = device.launch(k, 1, 32, args=(x,))
        eff = kc.blocks[0].coalescing_efficiency()
        assert 0.0 < eff <= 1.0

    def test_local_buffer_accesses_counted(self, device):
        def k(tc):
            tmp = tc.alloca("t", 4, np.float64)
            yield from tc.store(tmp, 0, 1.0)
            yield from tc.load(tmp, 0)

        kc = device.launch(k, 1, 32)
        assert kc.total("local_accesses") == 64
        assert kc.total("global_load_sectors") == 0
