"""Failure-injection tests: misuse must fail loudly with diagnoses, never
silently corrupt results or hang without explanation."""

import numpy as np
import pytest

from repro.errors import (
    AllocationError,
    CodegenError,
    DeadlockError,
    DirectiveNestingError,
    InvalidSimdGroupError,
    MemoryFault,
    SimulationError,
)
from repro.core import api as omp
from repro.gpu.costmodel import nvidia_a100
from repro.gpu.device import Device
from repro.sanitizer.monitor import SanitizerConfig


@pytest.fixture
def dev():
    return Device(nvidia_a100())


class TestSimulatorFaults:
    def test_out_of_bounds_body_access(self, dev):
        x = dev.from_array("x", np.zeros(8))

        def body(tc, ivs, view):
            yield from tc.load(view["x"], 99)

        tree = omp.target(omp.teams_distribute_parallel_for(4, body=body))
        with pytest.raises(MemoryFault, match="out of bounds"):
            omp.launch(dev, tree, num_teams=1, team_size=32, args={"x": x})

    def test_deadlock_report_names_lanes(self, dev):
        def k(tc):
            if tc.lane_id == 3:
                return
                yield
            yield from tc.syncwarp()

        with pytest.raises(DeadlockError) as exc:
            dev.launch(k, 1, 8)
        msg = str(exc.value)
        assert "waiting@syncwarp" in msg
        assert "hint" in msg

    def test_runaway_loop_detected(self, dev):
        def k(tc):
            while True:
                yield from tc.compute("alu")

        with pytest.raises(SimulationError, match="rounds"):
            dev.launch(k, 1, 32, max_rounds=1000)

    def test_shared_memory_exhaustion(self):
        params = nvidia_a100().with_overrides(shared_mem_per_block=1024)
        dev = Device(params)

        def body(tc, ivs, view):
            yield from tc.compute("alu")

        tree = omp.target(omp.teams_distribute_parallel_for(4, body=body))
        # The runtime's sharing space alone (2048 B) exceeds the block's
        # shared memory: allocation must fail loudly.
        with pytest.raises(AllocationError, match="shared memory exhausted"):
            omp.launch(dev, tree, num_teams=1, team_size=32, args={})


class TestRuntimeMisuse:
    def test_mismatched_group_sizes_rejected(self, dev):
        def body(tc, ivs, view):
            yield from tc.compute("alu")

        tree = omp.target(
            omp.teams_distribute_parallel_for(4, nested=omp.simd(8, body=body))
        )
        with pytest.raises(InvalidSimdGroupError, match="divide the warp"):
            omp.launch(dev, tree, num_teams=1, team_size=32, simd_len=5, args={})

    def test_leaf_parallel_for_forces_group_size_one(self, dev):
        """§5.4: without a simd construct, simd_len silently becomes 1 —
        otherwise group lanes would execute leaf bodies redundantly."""
        import numpy as np

        y = dev.from_array("y", np.zeros(32))

        def body(tc, ivs, view):
            (i,) = ivs
            yield from tc.store(view["y"], i, 1.0)

        tree = omp.target(omp.teams_distribute_parallel_for(32, body=body))
        r = omp.launch(dev, tree, num_teams=1, team_size=32, simd_len=8,
                       args={"y": y},
                       check=SanitizerConfig(barriers=False, sharing=False,
                                             mode="raise"))
        assert r.cfg.simd_len == 1
        assert np.all(y.to_numpy() == 1.0)

    def test_worker_without_leader_deadlocks(self, dev):
        """A simd worker whose leader never posts work deadlocks visibly."""
        from repro.runtime.dispatch import DispatchTable
        from repro.runtime.icv import ExecMode, LaunchConfig
        from repro.runtime.simd import simd_state_machine
        from repro.runtime.state import RuntimeCounters, TeamRuntime

        cfg = LaunchConfig(1, 32, 8, ExecMode.SPMD, ExecMode.GENERIC,
                           params=nvidia_a100())

        def entry(tc):
            rt = TeamRuntime.get(tc, cfg, dev.gmem, DispatchTable(), RuntimeCounters())
            if tc.tid % 8 != 0:
                yield from simd_state_machine(tc, rt)
            # Leaders exit immediately without terminating their workers.
            yield from tc.compute("alu")

        with pytest.raises(DeadlockError):
            dev.launch(entry, 1, 32)


class TestCodegenMisuse:
    def test_simd_cannot_nest(self):
        inner = omp.simd(4, body=lambda tc, ivs, view: (yield from tc.compute()))
        with pytest.raises(DirectiveNestingError):
            omp.simd(omp.loop(4, nested=inner))

    def test_body_must_reference_declared_args(self, dev):
        def body(tc, ivs, view):
            yield from tc.compute("alu")

        tree = omp.target(
            omp.teams_distribute_parallel_for(
                omp.loop(4, body=body, uses=("ghost",))
            )
        )
        from repro.errors import OutliningError

        with pytest.raises(OutliningError, match="undeclared"):
            omp.compile(tree, ("x",))

    def test_non_generator_body_diagnosed_at_run(self, dev):
        def body(tc, ivs, view):  # not a generator!
            return 42

        tree = omp.target(omp.teams_distribute_parallel_for(4, body=body))
        with pytest.raises(TypeError):
            omp.launch(dev, tree, num_teams=1, team_size=32, args={})
