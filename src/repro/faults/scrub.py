"""ECC-style memory scrubbing and O(dirty-page) launch-state snapshots.

Real GPUs detect in-flight memory corruption with ECC; this module gives
the simulated device the same contract in a form the fault plane can
exercise.  Before a launch (when a fault plan or launch retry is active)
the device captures a :class:`MemorySnapshot` of every live global
buffer: a full data copy plus per-page CRC32 checksums.  The snapshot
then serves three masters:

* **scrub** — after bit-flips are injected (or any time
  :meth:`MemorySnapshot.scrub` is called before execution), pages whose
  checksum no longer matches are detected; repairable faults are healed
  from the copy, unrepairable ones surface as
  :class:`~repro.errors.MemoryFault` carrying injection provenance.
* **rollback** — the launch retry ladder (``retries=`` on
  :meth:`~repro.gpu.device.Device.launch`) restores buffer contents and
  frees kernel-time allocations so a failed attempt leaves no partial
  state.
* **verification** — tests compare post-recovery memory against the
  snapshot-restored fault-free run.

Pages are :data:`~repro.gpu.memory.PAGE_ELEMS` elements — the same
granularity as the buffers' dirty bitmaps, so one page index means the
same element span to the bitmap, the checksum table, and the repair
copy.

Cost model
==========

Construction is one full copy; restore is **O(dirty pages)**, not
O(live bytes):

* A snapshot *clears* every tracked buffer's dirty bitmap, opening a
  tracking window; each buffer's ``snap_epoch`` is recorded so the
  snapshot can later prove the bits still describe its own window.
* ``restore()`` re-copies only pages whose dirty bit is set.  If some
  other snapshot cleared the bitmap in between (epoch mismatch) it
  falls back to a full-buffer copy — correct either way, fast for the
  intended single owner.
* ``restore()`` also *re-arms* the snapshot: memory equals the copy
  again, so it clears the dirty bits and re-records the epochs.  The
  retry ladder takes one snapshot before its first attempt and restores
  that same snapshot after each failed one, O(dirty pages) per attempt.

Corruption *detection* (``dirty_pages``/``scrub``) intentionally stays
a full checksum scan: a bit-flip is modelled as a physical upset the
memory controller cannot see, so detection must not trust any write
tracking (and :meth:`~repro.gpu.memory.Buffer.flip_bit` marking its
page dirty is only for the rollback path, not relied on here).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import MemoryFault
from repro.gpu.memory import PAGE_ELEMS


def _page_checksums(data: np.ndarray) -> List[int]:
    raw = data.view(np.uint8)
    page_bytes = PAGE_ELEMS * data.dtype.itemsize
    return [zlib.crc32(raw[off:off + page_bytes].tobytes())
            for off in range(0, max(raw.nbytes, 1), max(page_bytes, 1))]


class MemorySnapshot:
    """Copy-plus-checksums of all live global buffers at one instant."""

    def __init__(self, gmem) -> None:
        self.gmem = gmem
        self.mark = gmem.mark()
        self._copies: Dict[int, np.ndarray] = {}
        self._checksums: Dict[int, List[int]] = {}
        self._names: Dict[int, str] = {}
        self._epochs: Dict[int, int] = {}
        for buf in gmem.live_buffers():
            if buf.space != "global":
                continue
            handle = buf.handle
            buf.clear_dirty()
            self._copies[handle] = buf.data.copy()
            self._checksums[handle] = _page_checksums(buf.data)
            self._names[handle] = buf.name
            self._epochs[handle] = buf.snap_epoch

    # -- detection ---------------------------------------------------------
    def dirty_pages(self) -> List[Tuple[int, int]]:
        """``(handle, page)`` rows whose checksum no longer matches."""
        dirty = []
        for handle, sums in self._checksums.items():
            try:
                buf = self.gmem.lookup(handle)
            except MemoryFault:
                continue  # freed since the snapshot; nothing to scrub
            now = _page_checksums(buf.data)
            for page, (a, b) in enumerate(zip(sums, now)):
                if a != b:
                    dirty.append((handle, page))
        return dirty

    def scrub(self, plan=None, repair: bool = True) -> int:
        """Detect corrupted pages; repair from the copy or raise.

        Returns the number of dirty pages found.  With ``repair=False``
        (an unrepairable fault spec) the first dirty page raises
        :class:`MemoryFault` with provenance naming the buffer, page,
        and — when ``plan`` is given — the injection seed.
        """
        dirty = self.dirty_pages()
        for handle, page in dirty:
            name = self._names[handle]
            if not repair:
                seed = f", fault seed {plan.seed}" if plan is not None else ""
                raise MemoryFault(
                    f"ECC scrub: uncorrectable corruption in buffer {name!r} "
                    f"page {page}{seed}"
                )
            buf = self.gmem.lookup(handle)
            lo = page * PAGE_ELEMS
            hi = min(lo + PAGE_ELEMS, buf.size)
            buf.data[lo:hi] = self._copies[handle][lo:hi]
        return len(dirty)

    # -- rollback ----------------------------------------------------------
    def restore(self) -> None:
        """Rewind global memory to the snapshot instant.

        Buffer contents are restored from the copies and buffers
        allocated after the snapshot are freed (global) or dropped
        (registered shared/local), so a retried launch starts from the
        same state the failed attempt saw.  Only dirty pages are copied
        back; an epoch mismatch (another snapshot cleared the bits in
        between) downgrades that buffer to a full copy.
        """
        for buf in list(self.gmem.allocated_since(self.mark)):
            if buf.space == "global":
                self.gmem.free(buf)
            else:
                self.gmem.drop(buf)
        for handle, copy in self._copies.items():
            try:
                buf = self.gmem.lookup(handle)
            except MemoryFault:
                continue
            if buf.snap_epoch == self._epochs[handle]:
                for page in buf.dirty_page_indices():
                    lo, hi = buf.page_span(page)
                    buf.data[lo:hi] = copy[lo:hi]
            else:
                buf.data[:] = copy
            # Post-restore the buffer equals this snapshot again: reopen
            # the window so a follow-up restore stays O(dirty).
            buf.clear_dirty()
            self._epochs[handle] = buf.snap_epoch


def inject_bitflips(gmem, plan, spec, coords) -> int:
    """Flip ``spec.flips`` deterministic bits across live global buffers.

    Targets are drawn from :meth:`FaultPlan.rng` keyed by the firing
    coordinates, so a re-run with the same seed corrupts the same cells.
    Returns the number of flips applied (0 when no flippable buffer
    exists).  The caller records the fault with outcome provenance.
    """
    targets = [buf for buf in gmem.live_buffers()
               if buf.space == "global" and buf.size > 0]
    if not targets:
        return 0
    rng = plan.rng(spec.site, **coords)
    targets.sort(key=lambda b: b.handle)
    flips = 0
    for _ in range(max(1, spec.flips)):
        buf = rng.choice(targets)
        idx = rng.randrange(buf.size)
        bit = rng.randrange(buf.itemsize * 8)
        buf.flip_bit(idx, bit)
        flips += 1
    return flips
