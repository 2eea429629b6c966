"""On-device semantics validation kernels (an OpenMP V&V-style suite).

Each kernel here checks one contract of the three-level execution model
*on the device itself* with ``tc.device_assert`` — the style of the SOLLVE
V&V suite the OpenMP community uses to validate offloading
implementations.  They run as part of the test suite
(`tests/kernels/test_validation.py`) across mode combinations and group
sizes; a violated contract aborts the launch with block/thread context.

Contracts covered:

* ``simd`` iteration → lane mapping (Fig 8: ``iv ≡ lane (mod group)``);
* SIMD main threads are exactly the ``gid == 0`` lanes, one per group;
* every simd iteration executes exactly once (device-side count);
* ``omp_get_*`` query consistency with the geometry;
* workers observe the leader's captured values exactly (payload fidelity);
* the parallel region's implicit barrier orders cross-group writes.
"""

from __future__ import annotations

import numpy as np

from repro.core import api as omp
from repro.gpu.device import Device
from repro.runtime.query import (
    omp_get_num_teams,
    omp_get_num_threads,
    omp_get_simd_lane,
    omp_get_simd_len,
    omp_get_team_num,
    omp_get_thread_num,
)

#: Iterations per simd loop in the validation programs.
TRIP = 24
#: Outer iterations.
OUTER = 8


def check_lane_mapping(device: Device, num_teams=2, team_size=64, simd_len=8,
                       tight=True):
    """Fig 8 contract: iteration ``j`` runs on group lane ``j % simd_len``."""

    def body(tc, ivs, view):
        j = ivs[-1]
        rt = _rt_of(tc)
        yield from tc.device_assert(
            omp_get_simd_lane(tc, rt) == j % omp_get_simd_len(tc, rt),
            "simd iteration landed on the wrong lane",
        )

    _launch(device, body, num_teams, team_size, simd_len, tight)


def check_single_execution(device: Device, num_teams=2, team_size=64,
                           simd_len=8, tight=True):
    """Every (i, j) simd iteration executes exactly once."""
    hits = device.from_array("hits", np.zeros(OUTER * TRIP, dtype=np.int64))

    def body(tc, ivs, view):
        i, j = ivs[-2], ivs[-1]
        old = yield from tc.atomic_add(view["hits"], i * TRIP + j, 1)
        yield from tc.device_assert(old == 0, "simd iteration executed twice")

    _launch(device, body, num_teams, team_size, simd_len, tight,
            extra_args={"hits": hits})
    assert np.all(hits.to_numpy() == 1), "some iterations never executed"


def check_query_consistency(device: Device, num_teams=2, team_size=64,
                            simd_len=8, tight=True):
    """omp_get_* values agree with the launch geometry on every thread."""

    def body(tc, ivs, view):
        rt = _rt_of(tc)
        yield from tc.device_assert(
            omp_get_num_teams(tc, rt) == num_teams, "num_teams mismatch"
        )
        yield from tc.device_assert(
            omp_get_team_num(tc, rt) == tc.block_id, "team id mismatch"
        )
        yield from tc.device_assert(
            omp_get_num_threads(tc, rt) == team_size // simd_len,
            "num_threads must equal the group count",
        )
        yield from tc.device_assert(
            0 <= omp_get_thread_num(tc, rt) < omp_get_num_threads(tc, rt),
            "thread id out of range",
        )

    _launch(device, body, num_teams, team_size, simd_len, tight)


def check_capture_fidelity(device: Device, num_teams=2, team_size=64,
                           simd_len=8):
    """Workers see exactly the leader's captured pre-computed values.

    Runs non-tight (generic parallel) so captures travel through the
    variable sharing space.
    """

    def pre(tc, ivs, view):
        (i,) = ivs
        yield from tc.compute("alu")
        return {"mark": i * 1000 + 7, "scale": float(i) * 0.5}

    def body(tc, ivs, view):
        i, j = ivs
        yield from tc.device_assert(
            int(view["mark"]) == i * 1000 + 7, "i64 capture corrupted"
        )
        yield from tc.device_assert(
            float(view["scale"]) == float(i) * 0.5, "f64 capture corrupted"
        )

    tree = omp.target(
        omp.teams_distribute_parallel_for(
            OUTER,
            pre=pre,
            captures=[("mark", "i64"), ("scale", "f64")],
            nested=omp.simd(TRIP, body=body, uses=()),
            uses=(),
        )
    )
    omp.launch(device, tree, num_teams=num_teams, team_size=team_size,
               simd_len=simd_len, args={})


def check_implicit_barrier(device: Device, num_teams=1, team_size=64,
                           simd_len=8):
    """Writes from one parallel region are visible after its implicit
    barrier to every thread of the team in the next region."""
    flags = device.from_array("flags", np.zeros(OUTER * TRIP, dtype=np.int64))

    def writer(tc, ivs, view):
        i, j = ivs
        yield from tc.store(view["flags"], i * TRIP + j, 1)

    def checker(tc, ivs, view):
        i, j = ivs
        v = yield from tc.load(view["flags"], ((i + 3) % OUTER) * TRIP + j)
        yield from tc.device_assert(int(v) == 1, "missed preceding region's write")

    for body in (writer, checker):
        tree = omp.target(
            omp.teams_distribute_parallel_for(
                OUTER, nested=omp.simd(TRIP, body=body, uses=("flags",)), uses=(),
            )
        )
        omp.launch(device, tree, num_teams=num_teams, team_size=team_size,
                   simd_len=simd_len, args={"flags": flags})


# --- helpers ---------------------------------------------------------------


def _rt_of(tc):
    """The OpenMP runtime context of this thread's team."""
    return tc.block._omp_rt


def _launch(device, body, num_teams, team_size, simd_len, tight, extra_args=None):
    args = dict(extra_args or {})
    uses = tuple(args)
    if tight:
        loop = omp.loop(
            OUTER, nested=omp.simd(TRIP, body=body, uses=uses), uses=()
        )
    else:
        def pre(tc, ivs, view):
            yield from tc.compute("alu")
            return {"unused": 0}

        loop = omp.loop(
            OUTER,
            pre=pre,
            captures=[("unused", "i64")],
            nested=omp.simd(TRIP, body=body, uses=uses),
            uses=(),
        )
    tree = omp.target(omp.teams_distribute_parallel_for(loop))
    omp.launch(device, tree, num_teams=num_teams, team_size=team_size,
               simd_len=simd_len, args=args)
