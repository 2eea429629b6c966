"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import default_executor
from repro.gpu.costmodel import CostParams, amd_mi100, nvidia_a100
from repro.gpu.device import Device


@pytest.fixture
def executor():
    """The launch executor under test, resolved from the environment.

    Defaults to :class:`repro.exec.SerialExecutor`.  CI runs the whole
    suite once per engine × executor cell that ``python -m
    repro.exec.legs`` prints, with ``REPRO_ENGINE``/``REPRO_EXECUTOR`` set
    to the cell; a launch that names its own executor keeps it.
    """
    return default_executor()


@pytest.fixture
def device(executor) -> Device:
    """A fresh NVIDIA-profile device per test."""
    return Device(nvidia_a100(), executor=executor)


@pytest.fixture
def amd_device(executor) -> Device:
    """A fresh AMD-profile device (64-wide wavefronts, no warp sync)."""
    return Device(amd_mi100(), executor=executor)


@pytest.fixture
def small_device(executor) -> Device:
    """A 2-SM device so occupancy/wave effects are visible in tests."""
    return Device(nvidia_a100().with_overrides(num_sms=2), executor=executor)


def run_lanes(device: Device, entry, threads: int = 32, blocks: int = 1, args=()):
    """Launch and return kernel counters (convenience wrapper)."""
    return device.launch(entry, num_blocks=blocks, threads_per_block=threads, args=args)
