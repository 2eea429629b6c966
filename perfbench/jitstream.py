"""``jit_stream``: raw SIMT kernels launched with ``engine="jit"``.

A pass is a fixed multiset of 16 launches in a seed-shuffled order.  Half
repeat an already-seen kernel, geometry and size on persistent buffers;
the other half run on freshly allocated buffers with a size none of the
kernel's last ``len(window)`` fresh launches used (each kernel walks its
size window in a fixed order, so the mean work per pass stays constant and
every phase starts the walk afresh).  The divergent kernel branches on
loaded data, fails the JIT's divergence guard and runs on the fast engine.

Sizes of the compilable kernels are multiples of the grid stride
(``BLOCKS * THREADS``): a size that leaves the last stride partial makes
the loop exit diverge, and the trace cache, which does not key on the size,
would then replay that deopt for every later launch of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import Device
from repro.exec.engine import SerialExecutor
from repro.gpu.costmodel import nvidia_a100

from perfbench.common import Fixed, PhaseContext, clock

BLOCKS, THREADS = 4, 128
STRIDE = BLOCKS * THREADS
#: Repeated launches per pass: (kernel, n, count).
REPEATS = (("triad", 32768, 4), ("stencil", 32768, 2), ("divergent", 2048, 2))
#: Fresh launches per pass: (kernel, size window, count).  Windows are
#: walked with a step coprime to their length.  The counts put the
#: median launch in the middle of the repeated triads (six launches are
#: faster, six slower), not on the edge between two kinds of launch.
FRESH = (("triad", range(16384, 32768 + 1, STRIDE), 3),
         ("stencil", range(16384, 32768 + 1, STRIDE), 4),
         ("divergent", range(1024, 3072 + 1, THREADS), 1))
WALK_STEP = 7
#: The divergent kernel's control flow follows the signs of its input, so
#: they come from a fixed pattern; the seed draws only the magnitudes.
SIGNS = np.random.default_rng(2023).choice(
    np.array([-1.0, 1.0], dtype=np.float32), size=FRESH[2][1][-1])


def triad(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        v = yield from tc.load(x, i)
        yield from tc.compute("fma", 1)
        yield from tc.store(y, i, v * 2.0 + 1.0)
        i += step


def stencil(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        a = yield from tc.load(x, i)
        b = yield from tc.load(x, i + 1)
        c = yield from tc.load(x, i + 2)
        yield from tc.compute("fma", 4)
        yield from tc.store(y, i, 0.25 * a + 0.5 * b + 0.25 * c)
        i += step


def divergent(tc, x, y, n):
    i = tc.global_tid
    step = tc.block_dim * tc.num_blocks
    while i < n:
        v = yield from tc.load(x, i)
        if v > 0.0:
            yield from tc.compute("fma", 1)
            yield from tc.store(y, i, v * 3.0)
        else:
            yield from tc.store(y, i, -v)
        i += step


KERNELS = {"triad": triad, "stencil": stencil, "divergent": divergent}
HALO = {"triad": 0, "stencil": 2, "divergent": 0}


def oracle(kind: str, x: np.ndarray, n: int) -> np.ndarray:
    if kind == "triad":
        return x[:n] * np.float32(2.0) + np.float32(1.0)
    if kind == "stencil":
        return 0.25 * x[:n] + 0.5 * x[1:n + 1] + 0.25 * x[2:n + 2]
    return np.where(x[:n] > 0.0, x[:n] * 3.0, -x[:n]).astype(np.float32)


@dataclass
class JitState:
    device: Device
    rng: np.random.Generator
    repeat_bufs: Dict[Tuple[str, int], tuple]
    fresh_index: Dict[str, int] = field(default_factory=dict)


def _buffers(device: Device, kind: str, n: int, tag: str):
    x = device.alloc(f"{tag}.x", n + HALO[kind], np.float32)
    y = device.alloc(f"{tag}.y", n, np.float32)
    return x, y


def setup(seed: int) -> JitState:
    device = Device(nvidia_a100(), executor=SerialExecutor())
    state = JitState(device, np.random.default_rng(seed), {})
    for kind, n, _ in REPEATS:
        state.repeat_bufs[(kind, n)] = _buffers(device, kind, n, f"rep.{kind}")
    # Warm-up: one small launch per kernel (imports, lane tables, engines).
    for kind in KERNELS:
        x, y = _buffers(device, kind, 1024, f"warm.{kind}")
        x.fill_from(np.ones(x.size, dtype=np.float32))
        device.launch(KERNELS[kind], BLOCKS, THREADS, args=(x, y, 1024), engine="jit")
        device.free(x)
        device.free(y)
    return state


def _fresh_size(state: JitState, kind: str, window: range) -> int:
    k = state.fresh_index.get(kind, 0)
    state.fresh_index[kind] = k + 1
    return window[k * WALK_STEP % len(window)]


def _pass_plan(state: JitState) -> List[Tuple[str, int, bool]]:
    plan = [(kind, n, False) for kind, n, count in REPEATS for _ in range(count)]
    for kind, window, count in FRESH:
        plan += [(kind, _fresh_size(state, kind, window), True)
                 for _ in range(count)]
    order = state.rng.permutation(len(plan))
    return [plan[i] for i in order]


def _launch(state: JitState, ctx: PhaseContext, kind: str, n: int, x, y,
            fixed, fresh: bool) -> None:
    host = state.rng.standard_normal(x.size).astype(np.float32)
    if kind == "divergent":
        host = np.abs(host) * SIGNS[:x.size]
    x.fill_from(host)
    ctx.begin(f"{kind}/{n}#{ctx.attempted}")
    t0 = clock()
    try:
        kc = state.device.launch(KERNELS[kind], BLOCKS, THREADS,
                                 args=(x, y, n), engine="jit")
    except Exception as err:  # a launch error is a counted failure
        ctx.record_error(t0, f"{kind}/{n}: {type(err).__name__}: {err}")
        return
    ctx.record(t0)
    ctx.lane_steps += int(kc.total("lane_steps"))
    if not np.allclose(y.to_numpy(), oracle(kind, host, n), rtol=1e-6, atol=0.0):
        ctx.fail(f"{kind}/{n}: output differs from the oracle")
    if fixed is not None:
        fixed.append(Fixed(f"{kind}/{n}/{'fresh' if fresh else 'repeat'}", kc, {}))


def run_phase(state: JitState, ctx: PhaseContext, seconds: float) -> None:
    device = state.device
    state.fresh_index.clear()
    deadline = clock() + seconds
    passes = 0
    fixed: List[Fixed] = []
    while passes == 0 or clock() < deadline:
        for kind, n, fresh in _pass_plan(state):
            if fresh:
                x, y = _buffers(device, kind, n, f"fresh.{kind}")
            else:
                x, y = state.repeat_bufs[(kind, n)]
            try:
                _launch(state, ctx, kind, n, x, y,
                        fixed if passes == 0 else None, fresh)
            finally:
                if fresh:
                    device.free(x)
                    device.free(y)
        if passes == 0:
            # Order-independent digest: the pass is a shuffled fixed multiset.
            ctx.fixed.extend(sorted(fixed, key=lambda f: f.label))
            ctx.fixed_done()
        passes += 1
    ctx.close()
    ctx.extra["passes"] = passes
