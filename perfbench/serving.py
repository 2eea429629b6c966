"""``serve_streams``: an in-process LaunchService driven as a closed loop.

``CLIENTS`` stream clients run as asyncio tasks on one event loop; each
sends its next request only after the previous reply arrived, because
stream launches are ordered and every caller waits for its reply.  There
is no warm pool, journal or socket: the service's single dispatch thread
executes every batch in-process on the serial executor.

Request ``(client, seq)`` picks its kernel and grid from fixed tables, so
any run's first ``FIXED_PER_CLIENT`` requests per client are the same
simulated work; only the input values come from the seed.  A request's
latency runs from its first ``submit`` (backpressure retries included) to
its reply; every reply is checked against the oracle after the phase.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import Device, omp
from repro.exec.engine import SerialExecutor
from repro.serve import LaunchRequest, LaunchService
from repro.serve.catalog import KernelCatalog
from repro.serve.scheduler import Backpressure

from perfbench.common import Fixed, PhaseContext, clock

N = 256
SIMD_COLS = 32
SIMD_ROWS = N // SIMD_COLS
CLIENTS = 32
TENANTS = 4
FIXED_PER_CLIENT = 4
MAX_RETRIES = 20
#: Sequence number of the warm-up requests (a multiple of ``len(MIX)``,
#: far beyond any timed request).
WARM_SEQ = 1 << 20
#: Request kinds by ``(client + seq) % 8``: 3/8 axpy, 2/8 square,
#: 2/8 scale_sum and 1/8 the SIMD kernel, whose 128-thread block shape
#: differs from the others' 64, so grouping splits batches.
MIX = ("axpy", "square", "scale_sum", "axpy", "square", "scale_sum", "axpy", "rowscale")


def _axpy(tc, ivs, view):
    (i,) = ivs
    x = yield from tc.load(view["x"], i)
    y = yield from tc.load(view["y"], i)
    yield from tc.store(view["y"], i, 2.0 * x + y)


def _square(tc, ivs, view):
    (i,) = ivs
    x = yield from tc.load(view["x"], i)
    yield from tc.compute("mul")
    yield from tc.store(view["y"], i, x * x)


def _scale_sum(tc, ivs, view):
    (i,) = ivs
    x = yield from tc.load(view["x"], i)
    yield from tc.store(view["y"], i, 0.5 * x)
    yield from tc.atomic_add(view["acc"], 0, x)


def _rowscale(tc, ivs, view):
    r, j = ivs
    e = r * SIMD_COLS + j
    x = yield from tc.load(view["x"], e)
    yield from tc.compute("fma")
    yield from tc.store(view["y"], e, 3.0 * x + 1.0)


def catalog() -> KernelCatalog:
    cat = KernelCatalog()
    tdpf = omp.teams_distribute_parallel_for
    cat.register("axpy", omp.compile(omp.target(tdpf(N, body=_axpy)),
                                     ("x", "y"), name="axpy"))
    cat.register("square", omp.compile(omp.target(tdpf(N, body=_square)),
                                       ("x", "y"), name="square"))
    cat.register("scale_sum", omp.compile(omp.target(tdpf(N, body=_scale_sum)),
                                          ("acc", "x", "y"), name="scale_sum"))
    simd = omp.simd(omp.loop(SIMD_COLS, body=_rowscale, uses=("x", "y")))
    cat.register("rowscale", omp.compile(
        omp.target(tdpf(omp.loop(SIMD_ROWS, nested=simd, uses=()))),
        ("x", "y"), name="rowscale"))
    return cat


def request(seed: int, client: int, seq: int) -> LaunchRequest:
    kind = MIX[(client + seq) % len(MIX)]
    rng = np.random.default_rng((seed, client, seq))
    x = rng.standard_normal(N)
    args = {"x": x, "y": rng.standard_normal(N) if kind == "axpy" else np.zeros(N)}
    if kind == "scale_sum":
        args["acc"] = np.zeros(1)
    if kind == "rowscale":
        teams, size, simd_len = 2, 128, 8
    else:
        teams, size, simd_len = 1 + (client + 2 * seq) % 4, 64, None
    return LaunchRequest(kernel=kind, args=args, num_teams=teams, team_size=size,
                         simd_len=simd_len, out=sorted(args),
                         tenant=f"tenant-{client % TENANTS}", stream=f"c{client}")


def oracle(req: LaunchRequest) -> Dict[str, np.ndarray]:
    x, y = req.args["x"], req.args["y"]
    if req.kernel == "axpy":
        return {"x": x, "y": 2.0 * x + y}
    if req.kernel == "square":
        return {"x": x, "y": x * x}
    if req.kernel == "scale_sum":
        return {"x": x, "y": 0.5 * x, "acc": np.array([x.sum()])}
    return {"x": x, "y": 3.0 * x + 1.0}


@dataclass
class ServeState:
    loop: asyncio.AbstractEventLoop
    device: Device
    service: LaunchService
    seed: int


def setup(seed: int) -> ServeState:
    loop = asyncio.new_event_loop()
    device = Device(executor=SerialExecutor())
    service = LaunchService(device, catalog(), executor=SerialExecutor())
    state = ServeState(loop, device, service, seed)

    async def warm():
        await service.start()
        for c in range(len(MIX)):  # one request of every kind
            req = request(seed, c, WARM_SEQ)
            out = await service.submit(req)
            out.raise_for_error()
    loop.run_until_complete(warm())
    return state


def close(state: ServeState) -> None:
    state.loop.run_until_complete(state.service.stop())
    state.loop.close()


def run_phase(state: ServeState, ctx: PhaseContext, seconds: float) -> None:
    state.loop.run_until_complete(_drive(state, ctx, seconds))


async def _drive(state: ServeState, ctx: PhaseContext, seconds: float) -> None:
    service = state.service
    stats0 = dict(service.stats)
    submit_times: Dict[str, float] = {}
    replies: List[tuple] = []  # (client, seq, outcome or None)
    fixed_left = [CLIENTS]
    deadline = clock() + seconds

    async def client(c: int) -> None:
        seq = 0
        while seq < FIXED_PER_CLIENT or clock() < deadline:
            req = request(state.seed, c, seq)
            ctx.begin(f"c{c}/s{seq}")
            outcome: Optional[object] = None
            t0 = clock()
            for _ in range(MAX_RETRIES):
                submit_times[f"r{req.rid}"] = clock()
                try:
                    outcome = await service.submit(req)
                    break
                except Backpressure as bp:
                    await asyncio.sleep(bp.retry_after)
                    req = request(state.seed, c, seq)
            if outcome is not None and outcome.error is None:
                ctx.record(t0)
            replies.append((c, seq, outcome))
            seq += 1
            if seq == FIXED_PER_CLIENT:
                fixed_left[0] -= 1
                if fixed_left[0] == 0:
                    ctx.fixed_done()

    tasks = [asyncio.create_task(client(c)) for c in range(CLIENTS)]
    for t in tasks:
        await t
    ctx.close()
    ctx.extra["submit_times"] = submit_times
    ctx.extra["serve_stats"] = {k: v - stats0.get(k, 0) for k, v in service.stats.items()}

    fixed = []
    for c, seq, outcome in replies:
        label = f"c{c}/s{seq}"
        if outcome is None:
            ctx.fail(f"{label}: backpressure retries exhausted")
            continue
        if outcome.error is not None:
            ctx.fail(f"{label}: {outcome.error}")
            continue
        want = oracle(request(state.seed, c, seq))
        if any(not np.allclose(outcome.outputs[k], v, rtol=1e-12, atol=1e-9)
               for k, v in want.items()):
            ctx.fail(f"{label}: output differs from the oracle")
        ctx.lane_steps += int(outcome.counters.total("lane_steps"))
        if seq < FIXED_PER_CLIENT:
            fixed.append((c, seq, Fixed(label, outcome.counters,
                                        outcome.runtime.as_dict())))
    ctx.fixed.extend(f for _, _, f in sorted(fixed, key=lambda t: t[:2]))
