"""Generic parameter sweeps used by the ablation benches.

Each sweep returns a list of ``(parameter_value, LaunchResult)`` pairs so
benches can inspect cycles and any counter.  Sweeps build a fresh device
per point — runs never share cache or allocator state.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.gpu.costmodel import CostParams, benchmark_profile
from repro.gpu.device import Device


def sweep(
    values: Sequence,
    run_one: Callable[[Device, object], object],
    params: Optional[CostParams] = None,
) -> List[Tuple[object, object]]:
    """Run ``run_one(device, value)`` for each value on fresh devices."""
    out = []
    for value in values:
        dev = Device(params if params is not None else benchmark_profile())
        out.append((value, run_one(dev, value)))
    return out


def group_size_sweep(
    build_and_run: Callable[[Device, int], object],
    groups: Sequence[int] = (1, 2, 4, 8, 16, 32),
    params: Optional[CostParams] = None,
) -> List[Tuple[int, object]]:
    """Sweep SIMD group sizes (the Fig 9 x-axis)."""
    return sweep(groups, build_and_run, params)
