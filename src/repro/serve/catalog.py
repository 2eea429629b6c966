"""Kernel catalog: named compiled kernels shared with warm workers.

A persistent forked worker inherits the parent's memory **at spawn
time** and never sees objects created afterwards, so kernels the serve
tier dispatches to a :class:`~repro.serve.lease.PoolLease` must exist
*before* the pool forks.  The catalog is that pre-fork registry: the
server registers every servable kernel by name at boot, the pool's
runner closes over the catalog (inherited copy-on-write into each
worker), and requests then name kernels instead of shipping unpicklable
entry closures.

Registration after a lease has forked its workers still works for
in-process execution paths, but warm workers will not see the new
kernel — :meth:`KernelCatalog.freeze` makes that explicit by rejecting
late registrations once a pool has captured the catalog.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.codegen.program import CompiledKernel
from repro.errors import LaunchError
from repro.runtime.icv import DEFAULT_SHARING_BYTES
from repro.runtime.state import RuntimeCounters

__all__ = ["KernelCatalog"]


class KernelCatalog:
    """Named registry of :class:`~repro.codegen.program.CompiledKernel`.

    Thread-safe; the serve tier reads it from the batcher thread while
    the boot path registers kernels.
    """

    def __init__(self) -> None:
        self._kernels: Dict[str, CompiledKernel] = {}
        self._lock = threading.Lock()
        self._frozen = False

    def register(self, name: str, kernel: CompiledKernel) -> CompiledKernel:
        """Register a compiled kernel under ``name``."""
        if not isinstance(kernel, CompiledKernel):
            raise LaunchError(
                "register() takes a CompiledKernel — compile directive "
                "trees first (omp.compile(tree, arg_names, name=...))"
            )
        with self._lock:
            if self._frozen:
                raise LaunchError(
                    f"catalog is frozen (a warm pool already forked); "
                    f"cannot register {name!r} — warm workers would never "
                    "see it"
                )
            if name in self._kernels:
                raise LaunchError(f"kernel {name!r} already registered")
            self._kernels[name] = kernel
        return kernel

    def freeze(self) -> None:
        """Reject further registrations (called when a pool forks)."""
        with self._lock:
            self._frozen = True

    def get(self, name: str) -> CompiledKernel:
        with self._lock:
            try:
                return self._kernels[name]
            except KeyError:
                raise LaunchError(
                    f"unknown kernel {name!r}; catalog has "
                    f"{sorted(self._kernels)}"
                ) from None

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kernels))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._kernels

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)

    # -- entry construction -------------------------------------------------
    def build_entry(
        self,
        name: str,
        gmem,
        args: Dict[str, object],
        *,
        num_teams: int,
        team_size: int,
        simd_len: Optional[int] = None,
        sharing_bytes: int = DEFAULT_SHARING_BYTES,
        params=None,
    ):
        """Resolve geometry with :meth:`CompiledKernel.launch_config` (as
        :func:`repro.core.api.launch` does) and bind one launch entry.

        Returns ``(entry, cfg, rc)`` — the generator entry, the resolved
        :class:`~repro.runtime.icv.LaunchConfig`, and the fresh
        :class:`~repro.runtime.state.RuntimeCounters` the entry mutates.
        Shared by the in-process batch path and the warm workers so both
        resolve ``simd_len``/modes identically (bit-identity depends on
        it).
        """
        kernel = self.get(name)
        cfg = kernel.launch_config(num_teams, team_size, simd_len,
                                   sharing_bytes=sharing_bytes, params=params)
        rc = RuntimeCounters()
        entry = kernel.make_entry(cfg, gmem, rc, dict(args))
        return entry, cfg, rc
