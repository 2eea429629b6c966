"""Bounded chaos-campaign smoke: the full SIGKILL/restart loop, small.

The CI acceptance campaign is 25 cycles (``python -m repro.serve chaos``);
this keeps a two-cycle version inside the normal test run so a regression
in the journal/recovery/verdict machinery fails fast and locally, not
only in the chaos-smoke job.
"""

from __future__ import annotations

import argparse
import asyncio
import os

import numpy as np
import pytest

from repro.serve import RequestJournal
from repro.serve.chaos import DEFAULT_SITES, _free_port, _Server, run_campaign

from serve_helpers import make_args

needs_fork = pytest.mark.skipif(
    not hasattr(__import__("os"), "fork"), reason="requires os.fork")


def _args(**kw):
    base = dict(cycles=2, seed=2023, clients=2, requests=3, pool=0,
                sites=DEFAULT_SITES, budget=120.0, artifacts=None)
    base.update(kw)
    return argparse.Namespace(**base)


@needs_fork
def test_two_cycle_campaign_exactly_once(catalog):
    verdict = asyncio.run(run_campaign(_args()))
    assert verdict["ok"], verdict["problems"]
    assert verdict["boots"] >= 3  # initial boot + one restart per cycle
    assert verdict["acked"] == 2 * 3
    # Every acked request has exactly one durable done record.
    assert verdict["journal_records"] >= verdict["acked"]


def test_sigterm_during_journal_recovery_drains(tmp_path):
    """A restarted server answers health checks while it re-executes its
    journal's unfinished requests; a SIGTERM landing then must drain
    (exit 0), not kill the process with the default action (rc -15)."""
    journal = os.path.join(tmp_path, "serve.wal")
    args = make_args("axpy", np.random.default_rng(7))
    with RequestJournal(journal, fsync=False) as wal:
        for i in range(32):
            wal.append_admit(f"lost-{i}", {
                "kernel": "axpy",
                "args": {k: v.tolist() for k, v in args.items()},
                "num_teams": 2, "team_size": 64, "out": ["x", "y"],
                "tenant": "default",
            })
        wal.commit()
    server = _Server(_free_port(), journal, faults=None, pool=0,
                     log_path=os.path.join(tmp_path, "server.log"))
    server.start()
    try:
        asyncio.run(server.wait_ready())
    finally:
        rc = server.terminate()
    assert rc == 0
