"""Vector clocks for the happens-before race detector.

Clocks are plain ``dict`` maps from a *lane key* — ``(block_id, tid)``
packed into one int, which hashes for free where a tuple would be hashed
on every shadow-cell and clock lookup — to an integer epoch.  The sparse
representation matters: a block has up to 1,056 lanes but
synchronization cliques (SIMD groups, warps) are much smaller, and most
lanes only ever accumulate entries for lanes they actually synchronized
with.

The component for a key that is absent is 0, so ``{}`` is the bottom
clock.  Blocks cannot synchronize with one another, which the detector
exploits: clocks of lanes in different blocks only ever join through
per-location atomic clocks (see :mod:`repro.sanitizer.races`).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: A lane's identity across the whole grid: ``block_id << TID_BITS | tid``.
#: Packed keys order like ``(block_id, tid)`` tuples.
LaneKey = int
TID_BITS = 20

Clock = Dict[LaneKey, int]


def lane_of(key: LaneKey) -> Tuple[int, int]:
    """``(block_id, tid)`` of a packed lane key."""
    return key >> TID_BITS, key & ((1 << TID_BITS) - 1)


def fresh_clock(key: LaneKey) -> Clock:
    """Initial clock of a lane: epoch 1 of itself, nothing else."""
    return {key: 1}


def join_into(dst: Clock, src: Clock) -> None:
    """``dst := dst ⊔ src`` (component-wise max), in place."""
    for key, t in src.items():
        if dst.get(key, 0) < t:
            dst[key] = t


def tick(clock: Clock, key: LaneKey) -> None:
    """Advance ``key``'s own component (a release increments the epoch)."""
    clock[key] = clock.get(key, 0) + 1


def epoch_hb(key: LaneKey, t: int, clock: Clock) -> bool:
    """True when epoch ``(key, t)`` happens-before (or is) ``clock``."""
    return t <= clock.get(key, 0)
