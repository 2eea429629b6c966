"""Generator validity: every seeded plan is well-formed, deterministic,
serializable, and its oracle matches the device bit-for-bit."""

import random

import numpy as np
import pytest

from repro.fuzz.generate import (
    ATOMIC_CELLS,
    STRUCTURES,
    KernelPlan,
    build_program,
    make_inputs,
    oracle,
    plan_from_dict,
    plan_from_seed,
    store_slots,
    total_iterations,
)


def _first_seed_per_structure(limit=400):
    found = {}
    for seed in range(limit):
        plan = plan_from_seed(seed)
        if plan.structure not in found:
            found[plan.structure] = seed
        if len(found) == len(STRUCTURES):
            break
    return found


class TestPlanValidity:
    @pytest.mark.parametrize("seed", list(range(40)))
    def test_every_plan_is_well_formed(self, seed):
        plan = plan_from_seed(seed)
        assert plan.structure in STRUCTURES
        assert plan.statements
        assert len(plan.statements) <= 9  # 8 drawn + forced observable store
        # Every program observes something.
        assert any(s[0] in ("store", "store_rot", "atomic_add", "atomic_max")
                   for s in plan.statements)
        # Store slots are private and sequential.
        slots = [s[1] for s in plan.statements
                 if s[0] in ("store", "store_rot")]
        assert slots == list(range(len(slots)))
        # Atomic cell discipline: add owns 0..1, max owns 2..3.
        for s in plan.statements:
            if s[0] == "atomic_add":
                assert s[1] in (0, 1)
            if s[0] == "atomic_max":
                assert s[1] in (2, 3)
        # Cross-lane statements only under the sync geometry.
        if plan.structure != "sync":
            assert not any(s[0] in ("shfl_xor", "vote", "ballot", "syncwarp",
                                    "syncthreads") for s in plan.statements)
        else:
            assert plan.outer == plan.num_teams * plan.team_size
            assert plan.mode == "spmd"
            assert plan.simd_len == 1
        assert plan.bug is None  # never drawn, only injected

    def test_plan_from_seed_is_deterministic(self):
        for seed in (0, 7, 2023, 99999):
            assert plan_from_seed(seed) == plan_from_seed(seed)

    def test_plan_ignores_global_random_state(self):
        random.seed(123)
        a = plan_from_seed(5)
        random.seed(456)
        b = plan_from_seed(5)
        assert a == b

    def test_all_structures_reachable(self):
        assert set(_first_seed_per_structure()) == set(STRUCTURES)

    def test_dict_roundtrip(self):
        for seed in (0, 3, 2023):
            plan = plan_from_seed(seed)
            assert plan_from_dict(plan.to_dict()) == plan

    def test_inputs_shapes(self):
        plan = plan_from_seed(11)
        inputs = make_inputs(plan)
        total = total_iterations(plan)
        assert len(inputs["out"]) == total * store_slots(plan)
        assert len(inputs["acc"]) == ATOMIC_CELLS
        assert len(inputs["x"]) >= 32
        assert all(v.dtype == np.float64 for v in inputs.values())
        # Same seed, same data.
        again = make_inputs(plan)
        assert all(np.array_equal(inputs[k], again[k]) for k in inputs)


class TestOracleMatchesDevice:
    @pytest.mark.parametrize(
        "structure,seed", sorted(_first_seed_per_structure().items()))
    def test_oracle_vs_instrumented(self, structure, seed):
        """The oracle matches an instrumented launch: the round loop with
        a report-mode sanitizer specialized in, which must leave the
        results untouched."""
        from repro.core import api as omp
        from repro.gpu.device import Device

        plan = plan_from_seed(seed)
        assert plan.structure == structure
        inputs = make_inputs(plan)
        expect = oracle(plan, inputs)
        dev = Device()
        buffers = {k: dev.from_array(k, v) for k, v in inputs.items()}
        tree, launch_kwargs = build_program(plan)
        omp.launch(dev, tree, args=buffers, check="report", **launch_kwargs)
        for name in ("out", "acc", "red", "x"):
            got = buffers[name].to_numpy()
            assert np.array_equal(got, expect[name]), \
                f"{structure} seed {seed}: buffer {name!r} diverged"

    def test_injected_bug_breaks_the_oracle_match(self):
        from repro.core import api as omp
        from repro.gpu.device import Device

        plan = KernelPlan(seed=1, structure="flat", outer=33,
                          statements=(("load", 1, 0), ("muladd", 2, 1),
                                      ("store", 0)),
                          bug="off_by_one")
        inputs = make_inputs(plan)
        expect = oracle(plan, inputs)  # oracle is always the honest value
        dev = Device()
        buffers = {k: dev.from_array(k, v) for k, v in inputs.items()}
        tree, launch_kwargs = build_program(plan)
        omp.launch(dev, tree, args=buffers, **launch_kwargs)
        assert not np.array_equal(buffers["out"].to_numpy(), expect["out"])
