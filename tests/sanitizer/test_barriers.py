"""Barrier-divergence, stale-mask, and deadlock analysis."""

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.gpu.device import Device
from repro.sanitizer.monitor import SanitizerConfig

REPORT = SanitizerConfig(mode="report")


def divergent_kernel(tc, a):
    if tc.tid < 16:
        yield from tc.syncthreads(bar_id=0)
    else:
        yield from tc.syncthreads(bar_id=1)
    yield from tc.store(a, tc.tid, 1.0)


def stale_mask_kernel(tc, a):
    if tc.tid == 0:
        yield from tc.store(a, 0, 1.0)
        return
    yield from tc.compute("alu")
    yield from tc.syncwarp()


class TestDivergentBarriers:
    def test_report_mode_collects_findings(self):
        dev = Device()
        a = dev.alloc("a", 32, np.float64)
        kc = dev.launch(divergent_kernel, num_blocks=1, threads_per_block=32,
                        args=(a,), sanitize=REPORT)
        report = kc.sanitizer
        div = report.by_category("barrier-divergence")
        assert div, report.text()
        assert "textually different barriers" in div[0].message
        # Both call sites of syncthreads appear in the finding.
        assert len(div[0].sites) == 2
        assert report.by_category("deadlock")

    def test_raise_mode_appends_analysis_to_error(self):
        dev = Device()
        a = dev.alloc("a", 32, np.float64)
        with pytest.raises(DeadlockError, match="sanitizer:") as exc:
            dev.launch(divergent_kernel, num_blocks=1, threads_per_block=32,
                       args=(a,), sanitize="raise")
        assert "barrier divergence" in str(exc.value)

    def test_plain_launch_keeps_legacy_message(self):
        """Without the sanitizer the old deadlock report is unchanged."""
        dev = Device()
        a = dev.alloc("a", 32, np.float64)
        with pytest.raises(DeadlockError, match="hint") as exc:
            dev.launch(divergent_kernel, num_blocks=1, threads_per_block=32,
                       args=(a,))
        assert "sanitizer:" not in str(exc.value)

    def test_deadlock_error_provenance(self):
        dev = Device()
        a = dev.alloc("a", 32, np.float64)
        with pytest.raises(DeadlockError) as exc:
            dev.launch(divergent_kernel, num_blocks=1, threads_per_block=32,
                       args=(a,))
        err = exc.value
        assert err.block_id == 0
        assert err.round is not None and err.round > 0
        assert len(err.lanes) == 32
        tid, warp, lane, state, key = err.lanes[0]
        assert (tid, warp, lane) == (0, 0, 0)


class TestStaleMask:
    def test_stale_mask_flagged_with_provenance(self):
        dev = Device()
        a = dev.alloc("a", 4, np.float64)
        kc = dev.launch(stale_mask_kernel, num_blocks=1, threads_per_block=32,
                        args=(a,), sanitize=REPORT)
        report = kc.sanitizer
        stale = report.by_category("stale-mask")
        assert stale, report.text()
        f = stale[0]
        assert f.block == 0 and f.warp == 0
        assert f.extra["retired_tid"] == 0
        assert "never converge" in f.message

    def test_retire_after_wait_also_detected(self):
        """Reverse interleaving: siblings wait first, then the lane retires."""

        def kernel(tc, a):
            if tc.tid == 0:
                # Two compute steps delay retirement past the others' arrival.
                yield from tc.compute("alu")
                yield from tc.compute("alu")
                return
            yield from tc.syncwarp()

        dev = Device()
        a = dev.alloc("a", 4, np.float64)
        kc = dev.launch(kernel, num_blocks=1, threads_per_block=32,
                        args=(a,), sanitize=REPORT)
        assert kc.sanitizer.by_category("stale-mask"), kc.sanitizer.text()

    def test_same_round_retire_sees_round_start_states(self):
        """Arrivals park only after their warp's scan: a lane retiring in
        the round its siblings post a second syncwarp mask naming it sees
        them still running, so no eager stale-mask finding fires and the
        post-mortem divergence analysis explains the deadlock."""

        def kernel(tc):
            if tc.lane_id < 16:
                yield from tc.syncwarp(0xFFFF)
            elif tc.lane_id < 24:
                yield from tc.syncwarp(0xFFFF0000)  # names lanes 24-31
            else:
                return
            yield from tc.compute("alu")

        kc = Device().launch(kernel, num_blocks=1, threads_per_block=32,
                             sanitize=REPORT)
        report = kc.sanitizer
        assert not report.by_category("stale-mask"), report.text()
        div = report.by_category("barrier-divergence")
        assert div and "lane 24 retired" in div[0].message, report.text()
        assert report.by_category("deadlock")


class TestWorkerLockup:
    def test_absent_lane_listed_in_divergence(self):
        """A lane that never reaches the block barrier is named."""

        def kernel(tc, a):
            if tc.tid == 5:
                # Worker-style lockup: waits on a warp barrier nobody joins
                # while the rest of the block sits at syncthreads.
                yield from tc.syncwarp()
            else:
                yield from tc.syncthreads()
            yield from tc.store(a, tc.tid, 1.0)

        dev = Device()
        a = dev.alloc("a", 32, np.float64)
        kc = dev.launch(kernel, num_blocks=1, threads_per_block=32,
                        args=(a,), sanitize=REPORT)
        report = kc.sanitizer
        div = report.by_category("barrier-divergence")
        assert div, report.text()
        assert any("never arrived" in f.message or "t5" in f.message for f in div)
        dead = report.by_category("deadlock")
        assert dead and "t5" in dead[0].message

    def test_clean_barriers_produce_no_findings(self):
        def kernel(tc, a):
            yield from tc.syncwarp()
            yield from tc.syncthreads()
            yield from tc.store(a, tc.tid, 1.0)

        dev = Device()
        a = dev.alloc("a", 64, np.float64)
        kc = dev.launch(kernel, num_blocks=1, threads_per_block=64,
                        args=(a,), sanitize=REPORT)
        assert kc.sanitizer.clean, kc.sanitizer.text()
        assert kc.sanitizer.stats.get("barrier_arrivals") == 128
