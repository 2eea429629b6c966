"""Property tests: schedule policies are pure functions of their seed.

Replayability rests on this: a divergent seed found on one machine must
reproduce on another, so ``BoundedPreemptionSchedule`` permutations,
with or without a budget, may depend on nothing but
``(seed, block, round, warp, n)``
— not process identity, not ``PYTHONHASHSEED``, not call order, not
which executor shards the blocks.
"""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import Device
from repro.sanitizer.schedule import BoundedPreemptionSchedule

_SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
_SMALL = st.integers(min_value=0, max_value=32)


class TestPolicyPurity:
    @given(seed=_SEEDS, block=_SMALL, rnd=st.integers(0, 256),
           n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_warp_order_is_a_seeded_permutation(self, seed, block, rnd, n):
        policy = BoundedPreemptionSchedule(seed)
        order = list(policy.warp_order(block, rnd, n))
        assert sorted(order) == list(range(n))
        assert order == list(BoundedPreemptionSchedule(seed).warp_order(block, rnd, n))

    @given(seed=_SEEDS, block=_SMALL, rnd=st.integers(0, 256),
           warp=_SMALL, n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_commit_order_is_a_seeded_permutation(self, seed, block, rnd,
                                                  warp, n):
        policy = BoundedPreemptionSchedule(seed)
        order = list(policy.commit_order(block, rnd, warp, n))
        assert sorted(order) == list(range(n))
        assert order == list(
            BoundedPreemptionSchedule(seed).commit_order(block, rnd, warp, n))

    @given(seed=_SEEDS, queries=st.lists(
        st.tuples(_SMALL, st.integers(0, 64), st.integers(1, 16)),
        min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_call_order_does_not_matter(self, seed, queries):
        """Statelessness: a policy queried in any order — e.g. blocks
        sharded across executor workers racing through rounds — answers
        identically."""
        forward = BoundedPreemptionSchedule(seed)
        backward = BoundedPreemptionSchedule(seed)
        want = [list(forward.warp_order(b, r, n)) for b, r, n in queries]
        got = [list(backward.warp_order(b, r, n))
               for b, r, n in reversed(queries)]
        assert got[::-1] == want

    @given(seed=_SEEDS, block=_SMALL, rnd=st.integers(0, 256),
           warp=_SMALL, n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_unbudgeted_orders_keep_their_key_strings(self, seed, block, rnd,
                                                      warp, n):
        """With no budget every round is permuted, each order a shuffle
        seeded by the key strings recorded replay seeds were made with."""
        policy = BoundedPreemptionSchedule(seed)

        def shuffled(*key):
            order = list(range(n))
            random.Random(":".join(map(str, (seed,) + key))).shuffle(order)
            return order

        assert list(policy.warp_order(block, rnd, n)) == \
            shuffled("w", block, rnd)
        assert list(policy.commit_order(block, rnd, warp, n)) == \
            shuffled("c", block, rnd, warp)

    @given(seed=_SEEDS, block=_SMALL, rnd=st.integers(0, 64),
           n=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_bounded_preemption_is_pure(self, seed, block, rnd, n):
        a = BoundedPreemptionSchedule(seed, budget=3, horizon=32)
        b = BoundedPreemptionSchedule(seed, budget=3, horizon=32)
        assert list(a.warp_order(block, rnd, n)) == \
            list(b.warp_order(block, rnd, n))
        assert sorted(a.warp_order(block, rnd, n)) == list(range(n))


_SUBPROCESS_PROG = """
import json, sys
from repro.sanitizer.schedule import BoundedPreemptionSchedule
seed = int(sys.argv[1])
shuffle = BoundedPreemptionSchedule(seed)
bounded = BoundedPreemptionSchedule(seed, budget=3, horizon=16)
out = {
    "warp": [list(shuffle.warp_order(b, r, 8))
             for b in range(3) for r in range(6)],
    "commit": [list(shuffle.commit_order(b, r, w, 6))
               for b in range(2) for r in range(4) for w in range(2)],
    "bounded": [list(bounded.warp_order(0, r, 8)) for r in range(16)],
}
print(json.dumps(out, sort_keys=True))
"""


def _orders_in_subprocess(seed: int, hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.abspath("src")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROG, str(seed)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


class TestCrossProcessStability:
    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_permutations_survive_pythonhashseed(self, seed):
        """The SHA-512 string seeding contract: identical permutations in
        fresh processes under different ``PYTHONHASHSEED`` values."""
        a = _orders_in_subprocess(seed, "0")
        b = _orders_in_subprocess(seed, "4242")
        assert a == b
        # And the parent process (whatever its hash seed) agrees too.
        shuffle = BoundedPreemptionSchedule(seed)
        assert a["warp"] == [list(shuffle.warp_order(b_, r, 8))
                             for b_ in range(3) for r in range(6)]


class TestSerialShardedIdentity:
    def test_one_policy_identical_serial_vs_sharded(self):
        """A multi-block kernel run under one BoundedPreemptionSchedule
        gives bit-identical memory whether the blocks execute serially or
        sharded across parallel workers — per-block permutations depend
        only on (seed, block, round), never on scheduling of siblings."""
        from repro.exec import ParallelExecutor, SerialExecutor

        def run(executor):
            dev = Device(executor=executor)
            a = dev.alloc("a", 256, np.float64)

            def kernel(tc, a):
                v = yield from tc.load(a, tc.tid)
                yield from tc.atomic_add(a, tc.tid % 16, v + float(tc.tid))
                yield from tc.store(a, 64 + tc.tid, float(tc.tid % 7))

            dev.launch(kernel, num_blocks=4, threads_per_block=64,
                       args=(a,), schedule_policy=BoundedPreemptionSchedule(11))
            return dev.to_numpy(a)

        serial = run(SerialExecutor())
        threaded = run(ParallelExecutor(workers=2, processes=False))
        forked = run(ParallelExecutor(workers=2, processes=True))
        assert np.array_equal(serial, threaded)
        assert np.array_equal(serial, forked)
