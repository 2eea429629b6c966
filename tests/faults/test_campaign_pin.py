"""The seed-2023 fault campaign, pinned against recorded reports.

``campaign_2023_fixture.json`` is ``python -m repro.faults --seed 2023
--json``; ``campaign_2023_hang_fixture.json`` adds ``--kernels ideal spmv
--no-corpus --hang``.  Each fork leg injects worker crashes (and, with
``--hang``, one worker hang) into the recovery ladder of
:mod:`repro.exec.pool`, so any change to where faults fire or how their
recovery is counted moves a row.  Regenerate only when that is intended::

    PYTHONPATH=src python -m repro.faults --seed 2023 --json \\
        > tests/faults/campaign_2023_fixture.json
"""

import json
import os

import pytest

from repro.exec import fork_available
from repro.faults import campaign

HERE = os.path.dirname(__file__)
PINNED = ("rows", "injected", "recovered", "ok")


def pinned(path):
    with open(os.path.join(HERE, path)) as fh:
        report = json.load(fh)
    return {key: report[key] for key in PINNED}


@pytest.mark.skipif(not fork_available(),
                    reason="the fixtures were recorded with fork legs")
@pytest.mark.parametrize("fixture,kwargs", [
    ("campaign_2023_fixture.json", {}),
    ("campaign_2023_hang_fixture.json",
     {"kernels": ["ideal", "spmv"], "corpus": (), "hang": True}),
], ids=["default", "hang"])
def test_seed_2023_report_is_pinned(fixture, kwargs):
    report = campaign.run_campaign(seed=2023, workers=2, **kwargs)
    got = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert {key: got[key] for key in PINNED} == pinned(fixture)
