"""Launch-executor gate legs: parallel speedup and the faults off-path.

The simulator's cost model is deterministic, so the *only* thing the
block-sharding engine may change is how long the simulation takes on the
host.  Both gates time one compute-heavy 64-block grid, and
``benchmarks/bench_gates.py`` measures them:

* ``parallel`` — the serial executor against 4 forked workers, results
  and counters bit-identical.  The ≥2× acceptance floor only applies on
  hosts with at least 4 CPUs (a 2-CPU container can demonstrate
  correctness but not speedup);
* ``faults_off`` — no fault plan against an armed but spec-less
  :class:`repro.faults.FaultPlan`: every hook is consulted and must
  decline at hash-draw cost zero (specs are filtered per site before any
  draw happens), so the inert plan costs under 2%.
"""

from __future__ import annotations

import time

import numpy as np

from bench_substrate import launch_fields
from repro.exec import ParallelExecutor, SerialExecutor
from repro.gpu.device import Device

#: Grid geometry: ≥64 blocks per the acceptance criterion.
NUM_BLOCKS = 64
THREADS = 64
INNER = 64


def _kernel(tc, x, y):
    """Compute-heavy streaming kernel; blocks touch disjoint cells."""
    i = tc.global_tid
    v = yield from tc.load(x, i)
    for _ in range(INNER):
        yield from tc.compute("fma")
        v = v * 1.000001 + 0.5
    yield from tc.store(y, i, v)


def run_grid(executor=None, faults=None):
    """Launch the grid on a fresh device; returns ``((y, counters),
    seconds)`` with only the launch timed."""
    dev = Device(executor=executor or SerialExecutor(), faults=faults)
    n = NUM_BLOCKS * THREADS
    x = dev.from_array("x", np.arange(n, dtype=np.float64))
    y = dev.alloc("y", n, np.float64)
    t0 = time.perf_counter()
    kc = dev.launch(_kernel, NUM_BLOCKS, THREADS, args=(x, y))
    elapsed = time.perf_counter() - t0
    return (dev.to_numpy(y), kc), elapsed


def _identical_pair(a, b):
    ((y_a, kc_a), t_a), ((y_b, kc_b), t_b) = a, b
    assert np.array_equal(y_a, y_b), "results diverged between the legs"
    assert kc_a.identical(kc_b), "counters diverged between the legs"
    return t_a, t_b, launch_fields(kc_a)


def parallel_legs():
    """Legs of the ``parallel`` gate: serial (A), 4 forked workers (B).
    Score ``speedup``: A's time over B's."""

    def pair(serial, parallel):
        t_serial, t_parallel, fields = _identical_pair(serial, parallel)
        return {"speedup": t_serial / t_parallel}, fields

    return (run_grid,
            lambda: run_grid(ParallelExecutor(workers=4, processes=True)),
            pair)


def faults_off_legs():
    """Legs of the ``faults_off`` gate: no plan (A), an inert plan (B).
    Score ``overhead_pct``: B's time over A's, less one, in percent."""
    from repro.faults import FaultPlan

    def pair(off, inert):
        t_off, t_inert, fields = _identical_pair(off, inert)
        return {"overhead_pct": (t_inert / t_off - 1.0) * 100.0}, fields

    return run_grid, lambda: run_grid(faults=FaultPlan(seed=2023)), pair

