"""The leg table: every engine × executor cell of the bit-identity contract.

Teams map to blocks, which cannot synchronize (paper §3), so every
executor must return the serial loop's bits on every engine.  The
equivalence suites, the fuzz harness and CI read the legs from here;
``python -m repro.exec.legs`` prints the cells as JSON for CI's matrix.
The serve tier's warm pool (:class:`~repro.serve.lease.PoolLease`) runs
batch plans only, so it has no ``REPRO_EXECUTOR`` spelling and no cell.
``repro.exec`` does not import this module, so no launch pays for it.
"""

from __future__ import annotations

import contextlib
import json

from repro.exec import coerce_executor

#: Round engines, as ``REPRO_ENGINE`` values.
ENGINES = ("fast", "jit")

#: Executors that run any launch, by leg name, as ``REPRO_EXECUTOR``
#: values: the reference loop, the in-process block-sharding engine and
#: the same engine over forked workers.
EXECUTORS = {"serial": "serial", "parallel": "parallel:2", "fork": "fork:2"}

#: Leg name of the batched-only executor.
WARM_POOL = "warm_pool"


def make_executor(name: str):
    """A fresh executor for the leg ``name`` of :data:`EXECUTORS`."""
    return coerce_executor(EXECUTORS[name])


def batch_executor(name: str, catalog, params):
    """A context manager yielding leg ``name``'s executor for batches over
    ``catalog``; the warm pool's closes its workers on exit."""
    if name == WARM_POOL:
        from repro.serve.lease import PoolLease

        return PoolLease(catalog, params, workers=2)
    return contextlib.nullcontext(make_executor(name))


def cells():
    """Every engine × executor cell, as environment values."""
    return [{"engine": engine, "executor": spec}
            for engine in ENGINES for spec in EXECUTORS.values()]


if __name__ == "__main__":
    print(json.dumps(cells()))
