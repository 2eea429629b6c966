"""The paper's evaluation kernels at small sizes: the ``sanitize`` workload
and the fidelity points the other workloads report.

Every size, geometry, structure seed and reference value lives here, so
editing program configuration cannot move a metric.  ``build_data`` runs
with a fixed structure seed (sparsity pattern, row permutation), then the
benchmark overwrites every floating-point input with values drawn from the
workload seed: the seed changes the data, never the simulated work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import Device
from repro.exec.engine import SerialExecutor
from repro.gpu.costmodel import benchmark_profile
from repro.kernels import ideal, laplace3d, muram_interpol, muram_transpose
from repro.kernels import sparse_matvec, su3

from perfbench import oracles
from perfbench.common import Fixed, PhaseContext, clock

STRUCTURE_SEED = 2023
GROUPS = (2, 4, 8, 16, 32)
FIG10_VARIANTS = ("no_simd", "spmd_simd", "generic_simd")

#: The paper's reported values (ICPP 2023, §6.3 and §6.4): Fig 9 speedup
#: at the best SIMD group size, and Fig 10 speedup relative to "No SIMD".
PAPER_FIG9_MAX = {"sparse_matvec": 3.5, "su3_bench": 1.3, "benchmark_kernel": 2.15}
PAPER_FIG10 = {
    "laplace3d": {"spmd_simd": 1.02, "generic_simd": 0.85},
    "muram_transpose": {"spmd_simd": 1.00, "generic_simd": 0.85},
    "muram_interpol": {"spmd_simd": 1.02, "generic_simd": 0.85},
}

#: Sizes and launch geometry, small enough that the instrumented engine
#: runs two passes in a half-minute phase.  ``base``/``simd`` are
#: ``(num_teams, team_size)``.
SIZES = {
    "sparse_matvec": {"data": {"n_rows": 64, "n_cols": 64, "mean_nnz": 10.0},
                      "base": (4, 32), "simd": (4, 64)},
    "su3_bench": {"data": {"sites": 128}, "base": (4, 64), "simd": (4, 64)},
    "benchmark_kernel": {"data": {"n_rows": 64}, "base": (4, 64), "simd": (4, 64)},
    "fig10": {"nx": 6, "ny": 6, "launch": (4, 64), "simd_len": 32},
}

#: z extent per Fig 10 kernel (the contiguous, SIMD-mapped dimension).
FIG10_NZ = {"laplace3d": 66, "muram_transpose": 64, "muram_interpol": 67}

FIG9_MODULES = {"sparse_matvec": sparse_matvec, "su3_bench": su3,
                "benchmark_kernel": ideal}
FIG10_MODULES = {"laplace3d": laplace3d, "muram_transpose": muram_transpose,
                 "muram_interpol": muram_interpol}

#: Float inputs refilled from the workload seed, and the output buffer.
INPUTS = {
    "sparse_matvec": ("values", "x"),
    "su3_bench": ("a", "b"),
    "benchmark_kernel": ("x",),
    "laplace3d": ("x",),
    "muram_transpose": ("x",),
    "muram_interpol": ("x",),
}
OUTPUT = {"sparse_matvec": "y", "su3_bench": "c"}


@dataclass
class Op:
    """One launch of a pass: ``run(device, data)`` returns a LaunchResult."""

    label: str
    kernel: str
    key: tuple  # (fig, kernel, group-or-variant) for the paper points
    run: Callable


@dataclass
class PaperState:
    device: Device
    data: Dict[str, object]
    expected: Dict[str, Optional[np.ndarray]]
    ops: List[Op]


def _build(device: Device, name: str, rng: np.random.Generator):
    if name in FIG9_MODULES:
        data = FIG9_MODULES[name].build_data(device, seed=STRUCTURE_SEED,
                                             **SIZES[name]["data"])
    else:
        f10 = SIZES["fig10"]
        data = FIG10_MODULES[name].build_data(
            device, nx=f10["nx"], ny=f10["ny"], nz=FIG10_NZ[name],
            seed=STRUCTURE_SEED)
    for attr in INPUTS[name]:
        buf = getattr(data, attr)
        buf.fill_from(rng.standard_normal(buf.size))
    return data


def _ops() -> List[Op]:
    ops: List[Op] = []
    runners = {
        "sparse_matvec": (sparse_matvec.run_two_level, sparse_matvec.run_simd),
        "su3_bench": (su3.run_baseline, su3.run_simd),
        "benchmark_kernel": (ideal.run_baseline, ideal.run_simd),
    }
    for name, (run_base, run_simd) in runners.items():
        bt, bs = SIZES[name]["base"]
        st, ss = SIZES[name]["simd"]
        ops.append(Op(f"{name}/base", name, ("fig9", name, 1),
                      lambda d, x, f=run_base, t=bt, s=bs:
                      f(d, x, num_teams=t, team_size=s)))
        for g in GROUPS:
            ops.append(Op(f"{name}/g{g}", name, ("fig9", name, g),
                          lambda d, x, f=run_simd, g=g, t=st, s=ss:
                          f(d, x, simd_len=g, num_teams=t, team_size=s)))
    f10 = SIZES["fig10"]
    for name, mod in FIG10_MODULES.items():
        for variant in FIG10_VARIANTS:
            ops.append(Op(f"{name}/{variant}", name, ("fig10", name, variant),
                          lambda d, x, m=mod, v=variant, f=f10:
                          m.run(d, x, v, simd_len=f["simd_len"],
                                num_teams=f["launch"][0],
                                team_size=f["launch"][1])))
    return ops


def setup(seed: int) -> PaperState:
    """Device and data for one pass of the paper kernels, plus a warm-up
    launch.  Expected outputs are computed after the timed phase."""
    device = Device(benchmark_profile(), executor=SerialExecutor())
    rng = np.random.default_rng(seed)
    names = list(FIG9_MODULES) + list(FIG10_MODULES)
    data = {name: _build(device, name, rng) for name in names}
    ops = _ops()
    warm = ops[-len(FIG10_MODULES) * len(FIG10_VARIANTS)]  # laplace3d no_simd
    warm.run(device, data[warm.kernel])
    return PaperState(device, data, {name: None for name in names}, ops)


def _output(name: str, data) -> np.ndarray:
    return getattr(data, OUTPUT.get(name, "y")).to_numpy()


def expected(state: PaperState, name: str) -> np.ndarray:
    """NumPy oracle for kernel ``name`` from the device-resident inputs."""
    if state.expected[name] is None:
        state.expected[name] = oracles.paper(name, state.data[name])
    return state.expected[name]


def _another_pass_fits(seconds: float, pass_s: float, done: int) -> bool:
    """Start another whole pass when it is projected to end nearer to
    ``seconds`` than stopping now would, so the phase lasts about
    ``seconds`` whether a pass takes a third of it or a little more."""
    return done == 0 or (done + 0.5) * pass_s <= seconds


def run_phase(state: PaperState, ctx: PhaseContext, seconds: float,
              extra_ops: Optional[Callable] = None,
              check: Optional[Callable] = None) -> Dict[tuple, float]:
    """Whole passes over the op list until ``seconds`` would be exceeded.

    Only the launch calls are timed; outputs are copied between launches
    and checked after the phase, together with ``check(op, result)``
    (a failure message or None).  ``extra_ops(ctx, pass_index)`` runs at
    the end of every pass.  Returns the first pass's cycles keyed by
    paper point.
    """
    points: Dict[tuple, float] = {}
    outputs = []
    passes = 0
    t_phase = clock()
    while _another_pass_fits(seconds, (clock() - t_phase) / max(passes, 1), passes):
        for op in state.ops:
            data = state.data[op.kernel]
            ctx.begin(f"{op.label}#{passes}")
            t0 = clock()
            try:
                res = op.run(state.device, data)
            except Exception as err:  # a launch error is a counted failure
                ctx.record_error(t0, f"{op.label}: {type(err).__name__}: {err}")
                continue
            ctx.record(t0)
            ctx.lane_steps += int(res.counters.total("lane_steps"))
            if passes == 0:
                points[op.key] = res.cycles
                ctx.fixed.append(Fixed(op.label, res.counters, res.runtime.as_dict()))
            outputs.append((op, _output(op.kernel, data), res))
        if extra_ops is not None:
            extra_ops(ctx, passes)
        if passes == 0:
            ctx.fixed_done()
        passes += 1
    ctx.close()
    ctx.extra["passes"] = passes
    for op, out, res in outputs:
        if not oracles.close(out, expected(state, op.kernel)):
            ctx.fail(f"{op.label}: output differs from the oracle")
        problem = check(op, res) if check is not None else None
        if problem is not None:
            ctx.fail(problem)
    return points


def paper_err_pct(points: Dict[tuple, float]) -> float:
    """Mean absolute relative error (%) of the simulated Fig 9 best-group
    speedups and Fig 10 relative speedups against the paper."""
    errs = []
    for name, paper in PAPER_FIG9_MAX.items():
        base = points[("fig9", name, 1)]
        best = max(base / points[("fig9", name, g)] for g in GROUPS)
        errs.append(abs(best - paper) / paper)
    for name, ref in PAPER_FIG10.items():
        base = points[("fig10", name, "no_simd")]
        for variant, paper in ref.items():
            rel = base / points[("fig10", name, variant)]
            errs.append(abs(rel - paper) / paper)
    return 100.0 * sum(errs) / len(errs)


def untimed_paper_err_pct(seed: int) -> float:
    """Paper error of one untimed pass on the fast engine: the
    fidelity figure workloads that run no paper kernels report."""
    ctx = PhaseContext()
    points = run_phase(setup(seed), ctx, 0.0)
    if ctx.failed:
        raise RuntimeError("untimed paper pass failed: " + "; ".join(ctx.failures))
    return paper_err_pct(points)
