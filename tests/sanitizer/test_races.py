"""Happens-before race detection: cross-round coverage and HB edges."""

import numpy as np
import pytest

from repro.errors import DataRaceError
from repro.gpu.device import Device
from repro.sanitizer.monitor import SanitizerConfig

REPORT = SanitizerConfig(mode="report")


def launch_report(kernel, threads=64, blocks=1, args=()):
    dev = Device()
    built = args(dev) if callable(args) else args
    kc = dev.launch(kernel, num_blocks=blocks, threads_per_block=threads,
                    args=built, sanitize=REPORT)
    return kc.sanitizer


class TestCrossRoundRegression:
    """The bug class the old round-local ``_check_races`` provably missed."""

    @staticmethod
    def kernel(tc, a):
        if tc.tid == 0:
            yield from tc.store(a, 0, 1.0)
        elif tc.tid == 32:
            # The conflicting store lands one scheduling round later, so a
            # same-round comparison never sees the pair.
            yield from tc.compute("alu")
            yield from tc.store(a, 0, 2.0)
        else:
            yield from tc.compute("alu")

    def test_cross_round_write_write_is_reported(self):
        report = launch_report(self.kernel, args=lambda d: (d.alloc("a", 4, np.float64),))
        races = report.by_category("data-race")
        assert races, report.text()
        assert "'a'[0]" in races[0].message

    def test_error_provenance_fields(self):
        dev = Device()
        a = dev.alloc("a", 4, np.float64)
        with pytest.raises(DataRaceError) as exc:
            dev.launch(self.kernel, num_blocks=1, threads_per_block=64,
                       args=(a,), sanitize="raise")
        err = exc.value
        assert err.block_id == 0
        assert err.buffer == "a"
        assert err.index == 0
        assert err.round is not None
        assert len(err.sites) == 2 and all(":" in s for s in err.sites)


class TestReadsBeforeFirstWrite:
    """Reads of a buffer no write has reached yet are only logged until its
    first write; that write must still see every one of them, in order."""

    @staticmethod
    def kernel(tc, a, out):
        if tc.tid in (32, 33):
            v = yield from tc.load(a, 0)  # warp 1 reads a[0] first
            yield from tc.store(out, tc.tid, v)
        elif tc.tid == 0:
            yield from tc.compute("alu")
            yield from tc.store(a, 0, 1.0)  # unordered: write after read

    def test_write_after_unordered_reads_is_reported(self):
        report = launch_report(
            self.kernel,
            args=lambda d: (d.alloc("a", 4, np.float64), d.alloc("out", 64, np.float64)),
        )
        races = report.by_category("data-race")
        assert [(r.extra["first"]["kind"], r.extra["first"]["tid"]) for r in races] == [
            ("read", 32), ("read", 33)], report.text()
        assert all(r.extra["second"] == {"block": 0, "tid": 0, "kind": "write",
                                         "round": 1, "warp": 0} for r in races)


class TestHappensBeforeEdges:
    def test_syncthreads_orders_cross_warp_accesses(self):
        def kernel(tc, a):
            if tc.tid == 0:
                yield from tc.store(a, 0, 1.0)
            yield from tc.syncthreads()
            if tc.tid == 32:
                yield from tc.store(a, 0, 2.0)

        report = launch_report(kernel, args=lambda d: (d.alloc("a", 1, np.float64),))
        assert report.clean, report.text()

    def test_syncwarp_orders_lanes_within_warp(self):
        def kernel(tc, a):
            if tc.tid == 0:
                yield from tc.store(a, 0, 1.0)
            yield from tc.syncwarp()
            v = yield from tc.load(a, 0)
            yield from tc.store(a, 1 + tc.tid, v)

        report = launch_report(kernel, threads=32,
                               args=lambda d: (d.alloc("a", 40, np.float64),))
        assert report.clean, report.text()

    def test_missing_syncwarp_is_a_race(self):
        def kernel(tc, a):
            if tc.tid == 0:
                yield from tc.store(a, 0, 1.0)
            else:
                v = yield from tc.load(a, 0)
                yield from tc.store(a, 1 + tc.tid, v)

        report = launch_report(kernel, threads=32,
                               args=lambda d: (d.alloc("a", 40, np.float64),))
        assert report.by_category("data-race")

    def test_shuffle_joins_group_clocks(self):
        def kernel(tc, a):
            v = yield from tc.shfl(float(tc.tid), 0)
            if tc.tid == 0:
                yield from tc.store(a, 0, v)
            elif tc.tid == 1:
                yield from tc.compute("alu")
                # Ordered with t0's store only through the shuffle join.
                pass
            yield from tc.shfl(v, 0)
            if tc.tid == 1:
                yield from tc.store(a, 0, v + 1)

        report = launch_report(kernel, threads=32,
                               args=lambda d: (d.alloc("a", 1, np.float64),))
        assert report.clean, report.text()

    def test_atomic_claim_then_write_is_clean(self):
        """The dynamic-scheduling idiom: claim an index atomically, then
        write the claimed slot with plain stores — distinct winners, no race."""

        def kernel(tc, counter, out):
            old = yield from tc.atomic_add(counter, 0, 1)
            yield from tc.store(out, int(old), float(tc.tid))

        report = launch_report(kernel, threads=64,
                               args=lambda d: (d.scalar("c", 0, np.int64),
                                               d.alloc("out", 64, np.float64)))
        assert report.clean, report.text()

    def test_atomic_contention_is_not_a_race(self):
        def kernel(tc, a):
            yield from tc.atomic_add(a, 0, 1.0)

        report = launch_report(kernel, threads=64,
                               args=lambda d: (d.alloc("a", 1, np.float64),))
        assert report.clean, report.text()

    def test_plain_write_racing_an_atomic_is_reported(self):
        def kernel(tc, a):
            if tc.tid == 0:
                yield from tc.atomic_add(a, 0, 1.0)
            elif tc.tid == 1:
                yield from tc.compute("alu")
                yield from tc.store(a, 0, 9.0)

        report = launch_report(kernel, threads=32,
                               args=lambda d: (d.alloc("a", 1, np.float64),))
        assert report.by_category("data-race")

    def test_local_buffers_untracked(self):
        def kernel(tc, out):
            scratch = tc.alloca("scratch", 4, np.float64)
            yield from tc.store(scratch, 0, float(tc.tid))
            v = yield from tc.load(scratch, 0)
            yield from tc.store(out, tc.tid, v)

        report = launch_report(kernel, threads=32,
                               args=lambda d: (d.alloc("out", 32, np.float64),))
        assert report.clean, report.text()

    def test_cross_block_conflict_is_reported(self):
        """Blocks cannot synchronize; unordered cross-block writes race."""

        def kernel(tc, a):
            yield from tc.store(a, 0, float(tc.block_id))

        report = launch_report(kernel, threads=1, blocks=2,
                               args=lambda d: (d.alloc("a", 1, np.float64),))
        races = report.by_category("data-race")
        assert races
        blocks = {races[0].extra["first"]["block"], races[0].extra["second"]["block"]}
        assert blocks == {0, 1}


class TestReportBehaviour:
    def test_dedup_one_finding_per_access_pair(self):
        def kernel(tc, a):
            for _ in range(3):
                yield from tc.store(a, 0, float(tc.tid))

        report = launch_report(kernel, threads=2,
                               args=lambda d: (d.alloc("a", 1, np.float64),))
        assert len(report.by_category("data-race")) == 1

    def test_max_findings_truncation(self):
        def kernel(tc, a):
            yield from tc.store(a, tc.tid % 16, float(tc.tid))

        dev = Device()
        a = dev.alloc("a", 16, np.float64)
        cfg = SanitizerConfig(mode="report", max_findings=4)
        kc = dev.launch(kernel, num_blocks=1, threads_per_block=64,
                        args=(a,), sanitize=cfg)
        assert len(kc.sanitizer.findings) == 4
        assert kc.sanitizer.truncated > 0

    def test_no_monitor_means_no_overhead_objects(self):
        dev = Device()
        a = dev.alloc("a", 32, np.float64)

        def kernel(tc, a):
            yield from tc.store(a, tc.tid, 1.0)

        kc = dev.launch(kernel, num_blocks=1, threads_per_block=32, args=(a,))
        assert kc.sanitizer is None
