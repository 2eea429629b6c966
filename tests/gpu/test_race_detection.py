"""Tests for the data-race detector and device assertions."""

import numpy as np
import pytest

from repro.errors import DataRaceError, DeviceAssertionError
from repro.sanitizer.monitor import SanitizerConfig

#: The races-only, raise-on-first-race sanitizer.
RACES = SanitizerConfig(barriers=False, sharing=False, mode="raise")


class TestRaceDetection:
    def test_write_write_race_detected(self, device):
        buf = device.alloc("b", 4, np.float64)

        def k(tc, buf):
            yield from tc.store(buf, 0, float(tc.tid))

        with pytest.raises(DataRaceError, match="data race.*'b'\\[0\\]"):
            device.launch(k, 1, 4, args=(buf,), sanitize=RACES)

    def test_write_read_race_detected(self, device):
        buf = device.alloc("b", 4, np.float64)

        def k(tc, buf):
            if tc.tid == 0:
                yield from tc.store(buf, 1, 5.0)
            else:
                yield from tc.load(buf, 1)

        with pytest.raises(DataRaceError):
            device.launch(k, 1, 2, args=(buf,), sanitize=RACES)

    def test_atomic_plain_write_race_detected(self, device):
        buf = device.alloc("b", 4, np.float64)

        def k(tc, buf):
            if tc.tid == 0:
                yield from tc.store(buf, 0, 1.0)
            else:
                yield from tc.atomic_add(buf, 0, 1.0)

        with pytest.raises(DataRaceError):
            device.launch(k, 1, 2, args=(buf,), sanitize=RACES)

    def test_all_atomic_contention_is_clean(self, device):
        buf = device.alloc("b", 1, np.float64)

        def k(tc, buf):
            yield from tc.atomic_add(buf, 0, 1.0)

        device.launch(k, 1, 32, args=(buf,), sanitize=RACES)
        assert buf.read(0) == 32.0

    def test_disjoint_writes_are_clean(self, device):
        buf = device.alloc("b", 32, np.float64)

        def k(tc, buf):
            yield from tc.store(buf, tc.tid, 1.0)
            v = yield from tc.load(buf, tc.tid)
            yield from tc.store(buf, tc.tid, v + 1.0)

        device.launch(k, 1, 32, args=(buf,), sanitize=RACES)
        assert np.all(buf.to_numpy() == 2.0)

    def test_barrier_separated_accesses_are_clean(self, device):
        buf = device.alloc("b", 1, np.float64)

        def k(tc, buf):
            if tc.tid == 0:
                yield from tc.store(buf, 0, 9.0)
            yield from tc.syncthreads()
            yield from tc.load(buf, 0)

        device.launch(k, 1, 32, args=(buf,), sanitize=RACES)

    def test_runtime_protocols_are_race_free(self, device):
        """Run a generic-mode three-level kernel under the detector: the
        staging/state-machine protocols must be data-race free."""
        from repro.core import api as omp

        x = device.from_array("x", np.arange(64, dtype=np.float64))
        y = device.from_array("y", np.zeros(64))

        def pre(tc, ivs, view):
            yield from tc.compute("alu")
            return {"base": int(ivs[0]) * 8}

        def body(tc, ivs, view):
            i, j = ivs
            idx = int(view["base"]) + j
            v = yield from tc.load(view["x"], idx)
            yield from tc.store(view["y"], idx, v + 1.0)

        tree = omp.target(
            omp.teams_distribute_parallel_for(
                8, pre=pre, captures=[("base", "i64")],
                nested=omp.simd(8, body=body), uses=(),
            )
        )
        omp.launch(device, tree, num_teams=2, team_size=32, simd_len=8,
                   args={"x": x, "y": y}, check=RACES)
        assert np.array_equal(y.to_numpy(), np.arange(64) + 1.0)

    @pytest.mark.parametrize("shape", ["generic_teams", "dynamic", "reduction"])
    def test_more_protocols_race_free(self, device, shape):
        """Team staging, dynamic claims, and reductions under the detector."""
        from repro.core import api as omp

        x = device.from_array("x", np.arange(64, dtype=np.float64))
        y = device.from_array("y", np.zeros(64))
        args = {"x": x, "y": y}

        def element(tc, ivs, view):
            i, j = ivs[-2], ivs[-1]
            idx = i * 8 + j
            v = yield from tc.load(view["x"], idx)
            yield from tc.store(view["y"], idx, v + 1.0)

        if shape == "generic_teams":
            tree = omp.target(
                omp.teams_distribute(8, nested=omp.parallel_for(8, body=element))
            )
            expect = np.arange(64) + 1.0
        elif shape == "dynamic":
            tree = omp.target(
                omp.teams_distribute_parallel_for(
                    8, nested=omp.simd(8, body=element), schedule="dynamic",
                )
            )
            expect = np.arange(64) + 1.0
        else:  # reduction
            def value_body(tc, ivs, view):
                i, j = ivs
                v = yield from tc.load(view["x"], i * 8 + j)
                return float(v)

            def finalize(tc, ivs, view, total):
                (i,) = ivs
                yield from tc.store(view["y"], i, total)

            tree = omp.target(
                omp.teams_distribute_parallel_for(
                    8,
                    nested=omp.simd(
                        omp.loop(8, body=value_body, uses=("x",)),
                        reduction=("add", finalize),
                    ),
                    uses=("y",),
                )
            )
            expect = np.zeros(64)
            expect[:8] = np.arange(64).reshape(8, 8).sum(axis=1)
        omp.launch(device, tree, num_teams=2, team_size=32, simd_len=8,
                   args=args, check=RACES)
        assert np.allclose(y.to_numpy(), expect)

    def test_detector_off_by_default(self, device):
        buf = device.alloc("b", 1, np.float64)

        def k(tc, buf):
            yield from tc.store(buf, 0, float(tc.tid))

        device.launch(k, 1, 4, args=(buf,))  # racy but undetected
        assert buf.read(0) == 3.0  # last lane in deterministic order


class TestDeviceAssert:
    def test_passing_assert_is_silent(self, device):
        def k(tc):
            yield from tc.device_assert(tc.tid < 32, "tid in range")

        device.launch(k, 1, 32)

    def test_failing_assert_names_thread(self, device):
        def k(tc):
            yield from tc.device_assert(tc.tid != 3, "boom")

        with pytest.raises(DeviceAssertionError, match=r"boom \(block 0, thread 3\)"):
            device.launch(k, 1, 32)
