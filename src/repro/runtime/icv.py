"""Launch configuration and internal control variables (ICVs).

:class:`LaunchConfig` fixes, for one target-region launch, everything the
device runtime needs to know: league and team geometry, the SIMD group size
(``simd_len``), the execution mode of the ``teams`` and ``parallel`` levels,
and the size of the variable sharing space.  It also encodes the paper's
hardware-mapping rules:

* SIMD groups never span a warp and evenly divide it (§5.1), so ``simd_len``
  must divide ``warp_size``;
* a teams region executing in *generic* mode gets **one additional warp**
  whose first lane is the team main thread (Fig 2), so the block is one warp
  wider than the worker count;
* on devices without warp-level named barriers (the AMD profile, §5.4.1)
  generic-mode SIMD is unavailable: the group size collapses to 1 and simd
  loops run sequentially.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidSimdGroupError, UnsupportedFeatureError
from repro.gpu.costmodel import CostParams

#: Default size of the variable sharing space, in bytes.  The paper grew the
#: pre-existing 1,024-byte space to 2,048 bytes to accommodate SIMD groups
#: (§5.3.1); both values are interesting for the ablation bench.
DEFAULT_SHARING_BYTES = 2048

#: Slots (8-byte pointers) reserved for the team main thread's parallel-region
#: argument staging, kept separate from the per-group SIMD slices.
TEAM_STAGING_SLOTS = 32


class ExecMode(enum.Enum):
    """Execution mode of a ``teams`` or ``parallel`` region.

    ``GENERIC`` is the CPU-centric model: one main thread runs sequential
    code, everyone else idles in a state machine.  ``SPMD`` is the
    GPU-centric model: every thread executes the region.  ``AUTO`` lets the
    SPMDization analysis (:mod:`repro.codegen.spmdization`) decide.
    """

    AUTO = "auto"
    GENERIC = "generic"
    SPMD = "spmd"


@dataclass
class LaunchConfig:
    """Resolved configuration of one target-region launch."""

    num_teams: int
    team_size: int
    simd_len: int = 1
    teams_mode: ExecMode = ExecMode.GENERIC
    parallel_mode: ExecMode = ExecMode.SPMD
    sharing_bytes: int = DEFAULT_SHARING_BYTES
    params: CostParams = field(default_factory=CostParams)
    #: True when the AMD fallback demoted generic-mode SIMD to sequential.
    simd_demoted: bool = False

    def __post_init__(self) -> None:
        ws = self.params.warp_size
        if self.num_teams < 1:
            raise InvalidSimdGroupError("num_teams must be >= 1")
        if self.team_size < 1:
            raise InvalidSimdGroupError("team_size must be >= 1")
        if self.team_size % ws:
            raise InvalidSimdGroupError(
                f"team_size ({self.team_size}) must be a multiple of the warp "
                f"size ({ws}); SIMD groups may not span partial warps"
            )
        if self.simd_len < 1 or ws % self.simd_len:
            raise InvalidSimdGroupError(
                f"simd_len ({self.simd_len}) must evenly divide the warp size "
                f"({ws}) — the paper's groups never span a warp (§5.1)"
            )
        if self.teams_mode is ExecMode.AUTO or self.parallel_mode is ExecMode.AUTO:
            raise UnsupportedFeatureError(
                "LaunchConfig needs resolved modes; run the SPMDization "
                "analysis (repro.codegen.spmdization) before launching"
            )
        if (
            not self.params.supports_warp_sync
            and self.parallel_mode is ExecMode.GENERIC
            and self.simd_len > 1
        ):
            # §5.4.1: no wavefront-level barrier => no generic-mode SIMD.
            # Demote: every thread becomes its own group; simd loops run
            # sequentially on it.
            self.simd_len = 1
            self.simd_demoted = True
        if self.sharing_bytes < 8:
            raise InvalidSimdGroupError("sharing_bytes must hold at least one slot")

    # -- derived geometry ---------------------------------------------------
    @property
    def num_groups(self) -> int:
        """SIMD groups per team (``team_size / simd_len``)."""
        return self.team_size // self.simd_len

    @property
    def groups_per_warp(self) -> int:
        return self.params.warp_size // self.simd_len

    @property
    def block_dim(self) -> int:
        """Hardware threads per block: generic teams adds the main warp."""
        if self.teams_mode is ExecMode.GENERIC:
            return self.team_size + self.params.warp_size
        return self.team_size

    @property
    def main_tid(self) -> Optional[int]:
        """Thread id of the team main thread (generic mode only)."""
        if self.teams_mode is ExecMode.GENERIC:
            return self.team_size  # first lane of the extra warp
        return None

    @property
    def sharing_slots(self) -> int:
        """Total 8-byte slots in the SIMD variable sharing space."""
        return self.sharing_bytes // 8

    @property
    def slots_per_group(self) -> int:
        """Sharing-space slots available to each SIMD group (§5.3.1)."""
        return max(0, self.sharing_slots // self.num_groups)

    def describe(self) -> str:
        return (
            f"{self.num_teams} teams × {self.team_size} threads, "
            f"simd_len={self.simd_len} ({self.num_groups} groups), "
            f"teams={self.teams_mode.value}, parallel={self.parallel_mode.value}, "
            f"block_dim={self.block_dim}, sharing={self.sharing_bytes}B"
        )
