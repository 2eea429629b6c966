"""The variable sharing space (§5.3.1 of the paper).

In generic execution modes, variables the main thread must communicate to
worker threads are staged through a reserved slice of GPU shared memory.
Before this work the single team main thread was the only writer; the paper
grows the space from 1,024 to 2,048 bytes and divides it **evenly among the
SIMD groups** so every SIMD main thread can stage its group's simd-loop
arguments concurrently.  A group whose arguments do not fit its slice falls
back to a freshly allocated *global* buffer, recorded per group in an
``argptr`` array ("each SIMD group will have a pointer which correlates to
where variables are stored"); the allocation is released at the end of the
sharing episode.

All staging/fetch traffic goes through real :class:`~repro.gpu.memory`
buffers, so the shared-vs-global cost difference — and the occupancy cost of
reserving a bigger space — are measured, not assumed.  Ablation A1 sweeps
``sharing_bytes`` to show the fallback trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SharingSpaceError
from repro.gpu.events import Compute
from repro.gpu.memory import GlobalMemory, SharedMemory
from repro.runtime.icv import TEAM_STAGING_SLOTS, LaunchConfig


class SharingSpace:
    """Per-team staging areas for cross-thread variable communication."""

    def __init__(
        self,
        shared: SharedMemory,
        cfg: LaunchConfig,
        gmem: GlobalMemory,
        counters,
    ) -> None:
        self.cfg = cfg
        self.gmem = gmem
        self.counters = counters
        #: Team main thread's staging slots (pre-existing LLVM mechanism).
        self.team_slots = shared.alloc("omp.team_staging", TEAM_STAGING_SLOTS, np.uint64)
        #: The SIMD variable sharing space, divided evenly among groups.
        self.simd_slots = shared.alloc("omp.simd_sharing", cfg.sharing_slots, np.uint64)
        #: Per-group pointer: 0 = args live in the group's shared slice,
        #: otherwise the handle of a global overflow allocation.
        self.argptr = shared.alloc("omp.simd_argptr", cfg.num_groups, np.uint64)
        self._team_overflow = None
        self._group_overflow: Dict[int, object] = {}

    def _notify(self, tc, kind: str, group: int, nslots: int, capacity: int) -> None:
        """Tell an attached sanitizer monitor about a sharing episode."""
        block = getattr(tc, "block", None)
        mon = getattr(block, "monitor", None)
        if mon is not None:
            mon.on_sharing(block, kind, self, group, nslots, capacity,
                           block.counters.rounds)

    def _forced_overflow(self, tc, group: int, kind: str) -> bool:
        """Fault hook: should this staging episode take the overflow path?

        Consults the block's fault plan at the ``sharing.overflow`` site.
        Forcing the fallback is *not* an error — the global-buffer path is
        a legal (slower) execution the campaign proves bit-identical — so
        the injection is recorded as recovered immediately.
        """
        faults = getattr(getattr(tc, "block", None), "faults", None)
        if faults is None:
            return False
        block_id = tc.block.block_id
        spec = faults.fires("sharing.overflow", block=block_id, group=group,
                            kind=kind)
        if spec is None:
            return False
        faults.record(
            "sharing.overflow",
            {"block": block_id, "group": group, "kind": kind},
            recovered=True,
            detail="forced global-memory fallback",
        )
        return True

    # -- SIMD-group staging (paper Fig 4 / __begin_sharing_simd_args) ------
    def stage_simd_args(self, tc, group: int, slots: Sequence[int]):
        """SIMD main thread publishes its group's packed argument slots."""
        n = len(slots)
        per_group = self.cfg.slots_per_group
        self._notify(tc, "stage_simd", group, n, per_group)
        if n <= per_group and (
            n == 0 or not self._forced_overflow(tc, group, "simd")
        ):
            base = group * per_group
            if n:
                yield from tc.store_vec(
                    self.simd_slots, range(base, base + n), [int(s) for s in slots]
                )
            yield from tc.store(self.argptr, group, 0)
        else:
            gbuf = self.gmem.alloc(f"omp.simd_args_overflow.g{group}", n, np.uint64)
            self._group_overflow[group] = gbuf
            self.counters.sharing_fallbacks += 1
            # malloc bookkeeping on device is not free.
            yield Compute("alu", 16)
            yield from tc.store_vec(gbuf, range(n), [int(s) for s in slots])
            yield from tc.store(self.argptr, group, gbuf.handle)

    def fetch_simd_args(self, tc, group: int, nargs: int) -> List[int]:
        """A group thread reads back the staged slots (broadcast access)."""
        self._notify(tc, "fetch_simd", group, nargs, self.cfg.slots_per_group)
        ptr = yield from tc.load(self.argptr, group)
        if int(ptr) == 0:
            base = group * self.cfg.slots_per_group
            if nargs == 0:
                return []
            vals = yield from tc.load_vec(self.simd_slots, range(base, base + nargs))
        else:
            gbuf = self.gmem.lookup(int(ptr))
            vals = yield from tc.load_vec(gbuf, range(nargs))
        return [int(v) for v in vals]

    def end_simd_sharing(self, tc, group: int):
        """Release the group's overflow allocation, if any (end of simd loop)."""
        self._notify(tc, "end_simd", group, 0, self.cfg.slots_per_group)
        gbuf = self._group_overflow.pop(group, None)
        if gbuf is not None:
            self.gmem.free(gbuf)
            yield Compute("alu", 8)
        else:
            yield Compute("alu", 1)

    # -- team-level staging (pre-existing mechanism, kept for parallel) ----
    def stage_team_args(self, tc, slots: Sequence[int]):
        """Team main thread publishes the parallel region's argument slots."""
        n = len(slots)
        self._notify(tc, "stage_team", -1, n, self.team_slots.size)
        if n <= self.team_slots.size:
            if n:
                yield from tc.store_vec(
                    self.team_slots, range(n), [int(s) for s in slots]
                )
            self._team_overflow_active = False
        else:
            if self._team_overflow is not None:
                raise SharingSpaceError("nested team staging without release")
            gbuf = self.gmem.alloc("omp.team_args_overflow", n, np.uint64)
            self._team_overflow = gbuf
            self.counters.sharing_fallbacks += 1
            yield Compute("alu", 16)
            yield from tc.store_vec(gbuf, range(n), [int(s) for s in slots])
            # Publish the overflow handle in slot 0 with a tag in slot 1.
            yield from tc.store_vec(self.team_slots, (0, 1), (gbuf.handle, 1))

    def fetch_team_args(self, tc, nargs: int) -> List[int]:
        """A worker thread reads the parallel region's staged slots."""
        self._notify(tc, "fetch_team", -1, nargs, self.team_slots.size)
        if nargs == 0:
            return []
        if nargs <= self.team_slots.size:
            vals = yield from tc.load_vec(self.team_slots, range(nargs))
        else:
            ptr = yield from tc.load(self.team_slots, 0)
            gbuf = self.gmem.lookup(int(ptr))
            vals = yield from tc.load_vec(gbuf, range(nargs))
        return [int(v) for v in vals]

    def end_team_sharing(self, tc):
        """Release the team overflow allocation at the end of the region."""
        self._notify(tc, "end_team", -1, 0, self.team_slots.size)
        if self._team_overflow is not None:
            self.gmem.free(self._team_overflow)
            self._team_overflow = None
            yield Compute("alu", 8)
        else:
            yield Compute("alu", 1)

    # -- host-side cleanup (error paths) -----------------------------------
    def release_group(self, group: int) -> None:
        """Free a group's overflow allocation without device cost accounting.

        Error-path cleanup: when a simd region raises after staging has
        overflowed to global memory, ``end_simd_sharing`` never runs — the
        runtime calls this from its exception handler so the allocation is
        not leaked.  Idempotent; no scheduler events are emitted because
        the block is already unwinding.
        """
        gbuf = self._group_overflow.pop(group, None)
        if gbuf is not None and self.gmem.is_live(gbuf):
            # Not live: the host-side launch sweep already reclaimed it
            # (this handler can run late, from a GC'd lane generator).
            self.gmem.free(gbuf)


#: Name prefixes of the sharing space's global fallback allocations.
OVERFLOW_PREFIXES = ("omp.simd_args_overflow", "omp.team_args_overflow")


def release_leaked_overflow(gmem: GlobalMemory, mark: int) -> int:
    """Free overflow allocations a failed launch left behind; host-side.

    When a kernel aborts (device assert, out-of-bounds access, deadlock,
    watchdog expiry) the lockstep round loop stops resuming lane
    generators, so a staging thread's in-band release never runs and any
    global overflow allocation from the dying launch would leak.
    ``Device.launch`` calls this on its terminal error path with the
    handle watermark it took at launch entry; returns how many
    allocations were reclaimed.
    """
    leaked = [
        buf for buf in gmem.allocated_since(mark)
        if buf.name.startswith(OVERFLOW_PREFIXES) and buf.space == "global"
    ]
    for buf in leaked:
        gmem.free(buf)
    return len(leaked)
