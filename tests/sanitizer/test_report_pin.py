"""Pinned sanitizer reports, byte for byte.

Every launch of the seeded-bug corpus, of the paper's 27 evaluation
launches at small sizes, and of one known-race kernel is pinned against
``report_fixture.json``: the report's stats in the clear plus a sha256 of
its full ``to_dict()``, sites and line numbers included.  Every kernel
whose source lines reach a report lives under ``src/`` (the race kernel is
compiled from a string with a fixed file name), so editing this file does
not move the pin, while any change to what the monitor records — a
finding, a message, a site, a stat — does.

Regenerate only when a report change is intended, on the serial executor::

    PYTHONPATH=src REPRO_EXECUTOR=serial python tests/sanitizer/test_report_pin.py \\
        > tests/sanitizer/report_fixture.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro import omp, sanitizer
from repro.gpu.costmodel import benchmark_profile
from repro.gpu.device import Device
from repro.kernels import ideal, laplace3d, muram_interpol, muram_transpose
from repro.kernels import sparse_matvec, su3
from repro.sanitizer import SanitizerConfig, corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "report_fixture.json")

# The paper launches of the repository benchmark's ``sanitize`` workload,
# restated: structure seed, sizes and geometry.
STRUCTURE_SEED = 2023
GROUPS = (2, 4, 8, 16, 32)
FIG9 = {
    "sparse_matvec": (sparse_matvec, sparse_matvec.run_two_level,
                      sparse_matvec.run_simd,
                      {"n_rows": 64, "n_cols": 64, "mean_nnz": 10.0},
                      (4, 32), (4, 64)),
    "su3_bench": (su3, su3.run_baseline, su3.run_simd, {"sites": 128},
                  (4, 64), (4, 64)),
    "benchmark_kernel": (ideal, ideal.run_baseline, ideal.run_simd,
                         {"n_rows": 64}, (4, 64), (4, 64)),
}
FIG10 = {"laplace3d": (laplace3d, 66), "muram_transpose": (muram_transpose, 64),
         "muram_interpol": (muram_interpol, 67)}
FIG10_VARIANTS = ("no_simd", "spmd_simd", "generic_simd")
FIG10_GEOMETRY = {"nx": 6, "ny": 6, "num_teams": 4, "team_size": 64,
                  "simd_len": 32}

PAPER_LAUNCHES = (
    [f"{name}/base" for name in FIG9]
    + [f"{name}/g{g}" for name in FIG9 for g in GROUPS]
    + [f"{name}/{v}" for name in FIG10 for v in FIG10_VARIANTS]
)

#: Each of 64 lanes stores ``y[i // 2]``: two lanes per element, unordered.
RACE_N = 64
RACE_SOURCE = '''
def race_body(tc, ivs, view):
    (i,) = ivs
    yield from tc.store(view["y"], i // 2, 1.0)
'''


def _record(report) -> dict:
    full = json.dumps(report.to_dict(), sort_keys=True)
    return {
        "stats": dict(report.stats),
        "sha256": hashlib.sha256(full.encode()).hexdigest(),
    }


def _json_exact(obj):
    return json.loads(json.dumps(obj))


def run_paper(label: str, executor=None):
    name, point = label.split("/")
    device = Device(benchmark_profile(), executor=executor)
    if name in FIG9:
        mod, run_base, run_simd, sizes, base, simd = FIG9[name]
        data = mod.build_data(device, seed=STRUCTURE_SEED, **sizes)
        if point == "base":
            return run_base(device, data, num_teams=base[0], team_size=base[1])
        return run_simd(device, data, simd_len=int(point[1:]),
                        num_teams=simd[0], team_size=simd[1])
    mod, nz = FIG10[name]
    g = FIG10_GEOMETRY
    data = mod.build_data(device, nx=g["nx"], ny=g["ny"], nz=nz,
                          seed=STRUCTURE_SEED)
    return mod.run(device, data, point, simd_len=g["simd_len"],
                   num_teams=g["num_teams"], team_size=g["team_size"])


def run_race(executor=None):
    scope: dict = {}
    exec(compile(RACE_SOURCE, "race_kernel.py", "exec"), scope)
    kernel = omp.compile(
        omp.target(omp.teams_distribute_parallel_for(RACE_N, body=scope["race_body"])),
        ("y",), name="pin.race")
    device = Device(benchmark_profile(), executor=executor)
    y = device.alloc("pin.race.y", RACE_N // 2, np.float64)
    return omp.launch(device, kernel, num_teams=1, team_size=RACE_N,
                      args={"y": y}, check=SanitizerConfig(mode="report"))


def corpus_reports(case_name: str) -> list:
    """Records of every report the corpus case's launches returned."""
    records = []
    launch = Device.launch

    def recording(self, *args, **kwargs):
        kc = launch(self, *args, **kwargs)
        if kc.sanitizer is not None:
            records.append(_record(kc.sanitizer))
        return kc

    Device.launch = recording
    try:
        corpus.by_name(case_name).run()
    finally:
        Device.launch = launch
    return records


def paper_report(label: str, executor=None):
    with sanitizer.session():
        return run_paper(label, executor).sanitizer


def _load_fixture():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("case", [c.name for c in corpus.CASES])
def test_corpus_reports_pinned(case):
    want = _load_fixture()["corpus"][case]
    assert _json_exact(corpus_reports(case)) == want


@pytest.mark.parametrize("label", PAPER_LAUNCHES)
def test_paper_reports_pinned(executor, label):
    report = paper_report(label, executor)
    assert report is not None and report.clean, report.text()
    want = _load_fixture()["paper"][label]
    assert _json_exact(_record(report)) == want


def test_race_report_pinned(executor):
    report = run_race(executor).sanitizer
    assert any(f.category == "data-race" for f in report.findings)
    assert _json_exact(_record(report)) == _load_fixture()["race"]


def record_fixture() -> dict:
    return {
        "corpus": {c.name: corpus_reports(c.name) for c in corpus.CASES},
        "paper": {label: _record(paper_report(label)) for label in PAPER_LAUNCHES},
        "race": _record(run_race().sanitizer),
    }


if __name__ == "__main__":
    json.dump(record_fixture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
