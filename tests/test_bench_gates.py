"""The speed-gate comparator, fed synthetic scores: no timing runs here.

``benchmarks/bench_gates.py`` measures each gate of its table and
:func:`compare` checks the scores against the committed baseline; these
tests pin what the comparator lets through and what it refuses.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.append(str(BENCHMARKS))

import bench_gates  # noqa: E402

#: One score per bound kind, named after the table rows that carry it.
FLOOR = ("snapshot_rollback", "snapshot_speedup")
CEILING = ("sanitized_paper", "sanitized_ratio")
BAND = ("streaming", "speedup")
LIMIT_AND_BAND = ("jit_streaming", "jit_speedup")
CEILING_AND_BAND = ("serve_journal", "journal_p99_ratio")


def _row(scores, fields=None):
    return {
        "pairs": 7,
        "scores": {k: {"median": v, "quartiles": [v, v], "runs": [v]}
                   for k, v in scores.items()},
        "fields": fields if fields is not None else {"lane_steps": 100},
    }


def _baseline():
    """A synthetic baseline with a row for every gate of the table."""
    rows = {}
    for name, gate in bench_gates.GATES.items():
        rows[name] = _row({key: 50.0 if bound.higher else 0.5
                           for key, bound in gate.bounds.items()})
    rows["streaming"] = _row({"speedup": 2.0})
    rows["jit_streaming"] = _row({"jit_speedup": 20.0})
    rows["serve_journal"] = _row({"journal_p99_ratio": 1.0})
    return rows


def _compare(measured, baseline=None):
    baseline = _baseline() if baseline is None else baseline
    return bench_gates.compare(measured, baseline, list(bench_gates.GATES))


def _with(row, key, value):
    measured = copy.deepcopy(_baseline())
    measured[row]["scores"][key]["median"] = value
    return measured


def test_scores_meeting_every_bound_pass():
    assert _compare(_baseline()) == []


def test_committed_baseline_covers_every_gate():
    with open(bench_gates.BASELINE_PATH) as fh:
        committed = json.load(fh)["gates"]
    for name, gate in bench_gates.GATES.items():
        assert set(gate.bounds) <= set(committed[name]["scores"]), name


@pytest.mark.parametrize("value,ok", [(5.0, True), (4.99, False)])
def test_floor(value, ok):
    assert (_compare(_with(*FLOOR, value)) == []) == ok


@pytest.mark.parametrize("value,ok", [(2.4, True), (2.41, False)])
def test_ceiling(value, ok):
    assert (_compare(_with(*CEILING, value)) == []) == ok


@pytest.mark.parametrize("value,ok", [(1.5, True), (1.49, False)])
def test_band_below_baseline(value, ok):
    # 25% below the 2.0 baseline median is 1.5.
    assert (_compare(_with(*BAND, value)) == []) == ok


@pytest.mark.parametrize("base,value,ok", [
    (20.0, 15.0, True),   # the band binds: 20 - 25% = 15
    (20.0, 14.9, False),
    (14.0, 12.0, True),   # the limit binds: 14 - 25% < 12
    (14.0, 11.9, False),
])
def test_limit_and_band_take_the_tighter(base, value, ok):
    baseline = _baseline()
    baseline[LIMIT_AND_BAND[0]]["scores"][LIMIT_AND_BAND[1]]["median"] = base
    measured = copy.deepcopy(baseline)
    measured[LIMIT_AND_BAND[0]]["scores"][LIMIT_AND_BAND[1]]["median"] = value
    assert (_compare(measured, baseline) == []) == ok


@pytest.mark.parametrize("base,value,ok", [
    (0.8, 1.04, True),    # the band binds: 0.8 + 30% = 1.04
    (0.8, 1.05, False),
    (1.0, 1.15, True),    # the ceiling binds: 1.0 + 30% > 1.15
    (1.0, 1.16, False),
])
def test_ceiling_and_band_take_the_tighter(base, value, ok):
    baseline = _baseline()
    baseline[CEILING_AND_BAND[0]]["scores"][CEILING_AND_BAND[1]]["median"] = base
    measured = copy.deepcopy(baseline)
    measured[CEILING_AND_BAND[0]]["scores"][CEILING_AND_BAND[1]]["median"] = value
    assert (_compare(measured, baseline) == []) == ok


def test_drifted_field_fails():
    measured = _baseline()
    measured["streaming"]["fields"] = {"lane_steps": 101}
    (msg,) = _compare(measured)
    assert "streaming" in msg and "fields" in msg


def test_missing_workload_fails():
    measured = _baseline()
    del measured["generic_simd"]
    (msg,) = _compare(measured)
    assert "generic_simd" in msg and "missing" in msg


def test_errored_workload_fails():
    measured = _baseline()
    measured["jit_stencil"] = {"error": "AssertionError: speedup is void"}
    (msg,) = _compare(measured)
    assert "jit_stencil" in msg and "void" in msg


def test_missing_baseline_fails():
    baseline = _baseline()
    del baseline["sanitized_paper"]
    (msg,) = _compare(_baseline(), baseline)
    assert "sanitized_paper" in msg and "baseline" in msg


def test_missing_baseline_score_fails_a_band():
    baseline = _baseline()
    baseline["streaming"]["scores"] = {}
    (msg,) = _compare(_baseline(), baseline)
    assert "streaming" in msg and "baseline" in msg
