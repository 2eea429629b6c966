"""Property tests: parallel results are invariant to how work is sharded.

The engine runs every block against the pre-launch snapshot, so the
merged outcome may depend only on the *plan* (grid, kernel, schedule
seed) — never on worker count, shard boundaries, or transport.  A seeded
hypothesis sweep checks that directly: one serial baseline per drawn
configuration, then several (workers, shard_size) decompositions that
must all reproduce it bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ParallelExecutor, SerialExecutor
from repro.gpu.device import Device
from repro.sanitizer.schedule import BoundedPreemptionSchedule


def _mixed_kernel(n_cells):
    """A kernel touching every merge path: plain stores, block-exclusive
    atomics, shared memory with warp sync, divergent compute."""

    def kernel(tc, out, acc):
        i = tc.global_tid
        v = float((i * 7 + 3) % 13)
        if i < n_cells:
            yield from tc.store(out, i, v)
        if tc.tid % 3 == 0:
            yield from tc.compute("fma")
        yield from tc.atomic_add(acc, tc.block_id, v)
        yield from tc.syncwarp()
        if i + 1 < n_cells and tc.tid == 0:
            w = yield from tc.load(out, i)
            yield from tc.store(out, i, w + 0.5)

    return kernel


def _run(executor, num_blocks, threads, seed):
    dev = Device(executor=executor)
    n_cells = num_blocks * threads
    out = dev.alloc("out", n_cells, np.float64)
    acc = dev.alloc("acc", num_blocks, np.float64)
    policy = BoundedPreemptionSchedule(seed) if seed else None
    kc = dev.launch(
        _mixed_kernel(n_cells),
        num_blocks=num_blocks,
        threads_per_block=threads,
        args=(out, acc),
        schedule_policy=policy,
    )
    return dev.to_numpy(out), dev.to_numpy(acc), kc


@settings(max_examples=20, deadline=None)
@given(
    num_blocks=st.integers(min_value=1, max_value=9),
    threads=st.integers(min_value=1, max_value=48),
    workers=st.integers(min_value=1, max_value=4),
    shard_size=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    seed=st.integers(min_value=0, max_value=3),
)
def test_invariant_to_workers_and_shards(num_blocks, threads, workers,
                                         shard_size, seed):
    out_s, acc_s, kc_s = _run(SerialExecutor(), num_blocks, threads, seed)
    out_p, acc_p, kc_p = _run(
        ParallelExecutor(workers=workers, processes=False, shard_size=shard_size),
        num_blocks, threads, seed,
    )
    assert np.array_equal(out_s, out_p)
    assert np.array_equal(acc_s, acc_p)
    assert kc_s.identical(kc_p)


def test_all_decompositions_agree_exactly():
    """Exhaustive small-grid sweep: every (workers, shard) decomposition —
    including forked transport — yields one identical outcome."""
    baseline = _run(SerialExecutor(), 6, 32, seed=2)
    decompositions = [
        ParallelExecutor(workers=1, processes=False),
        ParallelExecutor(workers=2, processes=False),
        ParallelExecutor(workers=3, processes=False, shard_size=1),
        ParallelExecutor(workers=2, processes=False, shard_size=5),
        ParallelExecutor(workers=2, processes=True),
        ParallelExecutor(workers=3, processes=True, shard_size=2),
    ]
    for executor in decompositions:
        out, acc, kc = _run(executor, 6, 32, seed=2)
        assert np.array_equal(baseline[0], out), repr(executor)
        assert np.array_equal(baseline[1], acc), repr(executor)
        assert baseline[2].identical(kc), repr(executor)


@settings(max_examples=10, deadline=None)
@given(
    num_blocks=st.integers(min_value=2, max_value=8),
    workers=st.integers(min_value=2, max_value=4),
)
def test_schedule_policy_decomposes_per_block(num_blocks, workers):
    """A BoundedPreemptionSchedule must give each block the same
    permutations no matter which worker runs it (the policy is stateless
    by key)."""

    def kernel(tc, out, mark):
        yield from tc.store(out, tc.global_tid, float(tc.tid))
        yield from tc.syncwarp()
        if tc.tid == 0:
            yield from tc.store(mark, tc.block_id, -1.0)

    def run(executor):
        dev = Device(executor=executor)
        out = dev.alloc("out", num_blocks * 64, np.float64)
        mark = dev.alloc("mark", num_blocks, np.float64)
        kc = dev.launch(kernel, num_blocks=num_blocks, threads_per_block=64,
                        args=(out, mark), schedule_policy=BoundedPreemptionSchedule(99))
        return np.concatenate([dev.to_numpy(out), dev.to_numpy(mark)]), kc

    out_s, kc_s = run(SerialExecutor())
    out_p, kc_p = run(ParallelExecutor(workers=workers, processes=False))
    assert np.array_equal(out_s, out_p)
    assert kc_s.identical(kc_p)


def test_stateless_shuffle_schedule_is_call_order_independent():
    """Unit check of the statelessness the engine relies on: permutations
    depend only on (seed, block, round, warp), not on query order."""
    a = BoundedPreemptionSchedule(5)
    b = BoundedPreemptionSchedule(5)
    # Query b in a scrambled order; answers must match a's.
    keys = [(blk, rnd) for blk in range(4) for rnd in range(3)]
    want = {k: list(a.warp_order(k[0], k[1], 8)) for k in keys}
    for k in reversed(keys):
        assert list(b.warp_order(k[0], k[1], 8)) == want[k]
    assert list(a.commit_order(1, 2, 3, 6)) == list(b.commit_order(1, 2, 3, 6))
