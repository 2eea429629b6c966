"""Differential harness: every kernel must be serial ≡ parallel.

Each case runs once under :class:`~repro.exec.SerialExecutor` (the ground
truth) and once per parallel engine variant, then the *entire observable
outcome* is compared bit-for-bit:

* every live global-memory buffer (plus the ``live_bytes`` accounting),
* the :class:`~repro.gpu.counters.KernelCounters` (geometry, cycles,
  per-block counters, extras) via :meth:`KernelCounters.identical`,
* the OpenMP runtime counters (merged as side-state deltas),
* sanitizer finding sets, for the seeded-bug corpus.

The cases deliberately span the engine's interesting paths: plain
store/load kernels (straight merge), cross-block atomics whose results
feed control flow (read-validation → serial fallback), sanitized
launches (per-block monitor merge and the cross-block-sharing fallback),
and erroring kernels (deterministic cutoff + partial-state landing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.exec import ParallelExecutor, SerialExecutor, coerce_executor, legs
from repro.gpu.device import Device
from repro.kernels import ideal, laplace3d, muram_interpol, muram_transpose
from repro.kernels import sparse_matvec, su3

#: Parallel executors differenced against the serial ground truth: the
#: leg table's (ids are their specs, ``fork2`` for ``fork:2``), plus two
#: shard geometries of the in-process engine — three workers, which split
#: the grids unevenly, and one block per shard.
VARIANTS = [
    *(pytest.param(lambda spec=spec: coerce_executor(spec),
                   id=spec.replace(":", ""))
      for spec in legs.EXECUTORS.values() if spec != "serial"),
    pytest.param(lambda: ParallelExecutor(workers=3, processes=False), id="inproc3"),
    pytest.param(lambda: ParallelExecutor(workers=2, processes=False, shard_size=1),
                 id="inproc2-shard1"),
]


def _spmv_two_level(dev):
    data = sparse_matvec.build_data(dev, n_rows=48, n_cols=48, mean_nnz=4.0)
    res = sparse_matvec.run_two_level(dev, data, num_teams=8, team_size=32)
    assert data.check()
    return res


def _spmv_simd(dev):
    data = sparse_matvec.build_data(dev, n_rows=48, n_cols=48, mean_nnz=4.0)
    res = sparse_matvec.run_simd(dev, data, simd_len=4, num_teams=8, team_size=32)
    assert data.check()
    return res


def _spmv_dynamic(dev):
    # The dynamic schedule claims rows off a shared atomic counter, so
    # blocks branch on cross-block atomic results — the parallel engine
    # must detect the stale reads and fall back to serial re-execution.
    data = sparse_matvec.build_data(dev, n_rows=32, n_cols=32, mean_nnz=4.0)
    res = sparse_matvec.run_simd_dynamic(dev, data, simd_len=4, num_teams=4,
                                         team_size=32)
    assert data.check()
    return res


def _spmv_reduction(dev):
    data = sparse_matvec.build_data(dev, n_rows=32, n_cols=32, mean_nnz=4.0)
    res = sparse_matvec.run_simd_reduction(dev, data, simd_len=4, num_teams=4,
                                           team_size=32)
    assert data.check()
    return res


def _su3(dev):
    data = su3.build_data(dev, sites=32)
    res = su3.run_simd(dev, data, simd_len=8, num_teams=4, team_size=32)
    assert data.check()
    return res


def _ideal(dev):
    data = ideal.build_data(dev, n_rows=32)
    res = ideal.run_simd(dev, data, simd_len=8, num_teams=4, team_size=32)
    assert data.check()
    return res


def _laplace(dev):
    data = laplace3d.build_data(dev, nx=6, ny=6, nz=10)
    res = laplace3d.run(dev, data, "spmd_simd", simd_len=8, num_teams=4,
                        team_size=32)
    assert data.check()
    return res


def _transpose(dev):
    data = muram_transpose.build_data(dev, nx=6, ny=6, nz=8)
    res = muram_transpose.run(dev, data, "generic_simd", simd_len=8,
                              num_teams=4, team_size=32)
    assert data.check()
    return res


def _interpol(dev):
    data = muram_interpol.build_data(dev, nx=6, ny=6, nz=11)
    res = muram_interpol.run(dev, data, "spmd_simd", simd_len=8, num_teams=4,
                             team_size=32)
    assert data.check()
    return res


KERNELS = [
    pytest.param(_spmv_two_level, id="spmv-two-level"),
    pytest.param(_spmv_simd, id="spmv-simd"),
    pytest.param(_spmv_dynamic, id="spmv-dynamic"),
    pytest.param(_spmv_reduction, id="spmv-reduction"),
    pytest.param(_su3, id="su3"),
    pytest.param(_ideal, id="ideal"),
    pytest.param(_laplace, id="laplace3d"),
    pytest.param(_transpose, id="muram-transpose"),
    pytest.param(_interpol, id="muram-interpol"),
]


def _memory_image(dev):
    """Name → array snapshot of every live global buffer, plus accounting."""
    image = {
        buf.name: buf.to_numpy().copy() for buf in dev.gmem.allocated_since(0)
    }
    image["__live_bytes__"] = dev.gmem.live_bytes
    return image


def _assert_same_memory(serial, parallel):
    assert serial.keys() == parallel.keys()
    for name in serial:
        a, b = serial[name], parallel[name]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), f"buffer {name!r} differs"
        else:
            assert a == b, f"{name}: {a} != {b}"


@pytest.mark.parametrize("make_executor", VARIANTS)
@pytest.mark.parametrize("case", KERNELS)
def test_kernel_equivalence(case, make_executor):
    dev_s = Device(executor=SerialExecutor())
    res_s = case(dev_s)
    dev_p = Device(executor=make_executor())
    res_p = case(dev_p)

    _assert_same_memory(_memory_image(dev_s), _memory_image(dev_p))
    assert res_s.counters.identical(res_p.counters)
    assert res_s.cycles == res_p.cycles
    assert res_s.runtime.as_dict() == res_p.runtime.as_dict()


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_corpus_equivalence(make_executor):
    """The 7 seeded-bug cases produce identical finding sets in parallel."""
    from repro.sanitizer.corpus import CASES

    # Corpus case runners accept a worker count, not an executor; exercise
    # the in-process and forked engines through that plumbing instead.
    workers = 2
    for c in CASES:
        got_s = c.run()
        got_p = c.run(workers=workers)
        assert got_s.caught, f"{c.name}: serial run missed the bug"
        assert got_p.caught, f"{c.name}: parallel run missed the bug"
        assert got_s.got == got_p.got, (
            f"{c.name}: finding categories diverged: {got_s.got} != {got_p.got}"
        )


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_sanitized_clean_multiblock_report(make_executor):
    """A clean multi-block kernel: merged per-block reports match serial."""

    def kernel(tc, out):
        yield from tc.store(out, tc.global_tid, float(tc.tid))
        yield from tc.syncwarp()
        v = yield from tc.load(out, tc.global_tid)
        yield from tc.store(out, tc.global_tid, 2.0 * v)

    def run(executor):
        dev = Device(executor=executor)
        out = dev.alloc("out", 128, np.float64)
        kc = dev.launch(kernel, num_blocks=4, threads_per_block=32,
                        args=(out,), sanitize="report")
        return dev.to_numpy(out), kc

    out_s, kc_s = run(SerialExecutor())
    out_p, kc_p = run(make_executor())
    assert np.array_equal(out_s, out_p)
    assert kc_s.identical(kc_p)
    assert kc_s.sanitizer.clean and kc_p.sanitizer.clean
    assert [f.render() for f in kc_s.sanitizer.findings] == [
        f.render() for f in kc_p.sanitizer.findings
    ]
    assert kc_s.sanitizer.stats == kc_p.sanitizer.stats


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_sanitized_report_past_max_findings(make_executor):
    """Per-block races past the launch-wide ``max_findings`` cap, plus
    same-round atomic dependences: the merged report equals the serial
    one field for field."""
    from repro.sanitizer import SanitizerConfig

    def kernel(tc, a, c):
        yield from tc.store(a, 16 * tc.block_id + tc.tid % 16, float(tc.tid))
        yield from tc.atomic_add(c, tc.block_id, 0.5)

    def run(executor):
        dev = Device(executor=executor)
        a = dev.alloc("a", 64, np.float64)
        c = dev.alloc("c", 4, np.float64)
        kc = dev.launch(kernel, num_blocks=4, threads_per_block=64,
                        args=(a, c), sanitize=SanitizerConfig(
                            mode="report", max_findings=6))
        return kc.sanitizer

    rep_s = run(SerialExecutor())
    rep_p = run(make_executor())
    assert len(rep_s.findings) == 6 and rep_s.truncated > 0
    assert rep_s.dependent
    assert rep_p.to_dict() == rep_s.to_dict()
    assert rep_p.truncated == rep_s.truncated
    assert rep_p.dependent == rep_s.dependent


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_sanitized_cross_block_race_equivalence(make_executor):
    """Cross-block races need the launch-wide monitor: the engine must
    fall back so parallel runs report exactly what serial reports."""

    def kernel(tc, a):
        yield from tc.store(a, 0, float(tc.block_id))

    def run(executor):
        dev = Device(executor=executor)
        a = dev.alloc("a", 1, np.float64)
        kc = dev.launch(kernel, num_blocks=2, threads_per_block=1,
                        args=(a,), sanitize="report")
        return dev.to_numpy(a), kc

    a_s, kc_s = run(SerialExecutor())
    a_p, kc_p = run(make_executor())
    assert np.array_equal(a_s, a_p)
    assert kc_s.identical(kc_p)
    assert kc_s.sanitizer.categories() == kc_p.sanitizer.categories()
    assert "data-race" in kc_p.sanitizer.categories()


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_cross_block_atomic_feedback_equivalence(make_executor):
    """Blocks branching on a shared atomic counter (dynamic work claiming)
    exercise read validation: results must still be bit-identical."""

    def kernel(tc, counter, out):
        if tc.tid == 0:
            claimed = yield from tc.atomic_add(counter, 0, 1)
            yield from tc.store(out, int(claimed), float(tc.block_id))

    def run(executor):
        dev = Device(executor=executor)
        counter = dev.alloc("counter", 1, np.int64)
        out = dev.alloc("out", 8, np.float64)
        kc = dev.launch(kernel, num_blocks=8, threads_per_block=32,
                        args=(counter, out))
        return dev.to_numpy(counter), dev.to_numpy(out), kc

    c_s, o_s, kc_s = run(SerialExecutor())
    c_p, o_p, kc_p = run(make_executor())
    assert np.array_equal(c_s, c_p)
    assert np.array_equal(o_s, o_p)
    assert kc_s.identical(kc_p)


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_cross_block_atomic_accumulation_equivalence(make_executor):
    """Pure atomic reductions replay through ``apply_atomic`` exactly."""

    def kernel(tc, x, total):
        i = tc.global_tid
        v = yield from tc.load(x, i)
        yield from tc.atomic_add(total, 0, v)

    def run(executor):
        dev = Device(executor=executor)
        x = dev.from_array("x", np.arange(256, dtype=np.float64))
        total = dev.scalar("total", 0.0)
        kc = dev.launch(kernel, num_blocks=8, threads_per_block=32,
                        args=(x, total))
        return float(dev.to_numpy(total)[0]), kc

    t_s, kc_s = run(SerialExecutor())
    t_p, kc_p = run(make_executor())
    assert t_s == t_p == float(np.arange(256).sum())
    assert kc_s.identical(kc_p)


@pytest.mark.parametrize("dtype, values, flagged", [
    pytest.param(np.float64, [0.0, 1.0, 2.0, 3.0], True, id="distinct"),
    # Blocks storing identical bits commute, so they are no conflict —
    # even where the values compare unequal (NaN) or differ only before
    # the buffer's cast.
    pytest.param(np.float64, [np.nan, np.nan], False, id="nan"),
    pytest.param(np.float32, [1.0, 1.0 + 1e-12], False, id="float32-cast"),
])
def test_cross_block_plain_conflict_flagged(dtype, values, flagged):
    """Unsanitized racy kernel: the merge still commits the serial
    last-writer-wins values, but flags the conflict in ``kc.extra`` —
    the one deliberate observable asymmetry of the parallel engine."""

    def kernel(tc, a):
        if tc.tid == 0:
            yield from tc.store(a, 0, values[tc.block_id])

    def run(executor):
        dev = Device(executor=executor)
        a = dev.alloc("a", 1, dtype)
        kc = dev.launch(kernel, num_blocks=len(values), threads_per_block=32,
                        args=(a,))
        return dev.to_numpy(a), kc

    a_s, kc_s = run(SerialExecutor())
    a_p, kc_p = run(legs.make_executor("parallel"))
    assert a_s.tobytes() == a_p.tobytes()
    # The highest block id wins, as in the serial loop.
    assert a_p.tobytes() == np.array(values[-1:], dtype=dtype).tobytes()
    assert "cross_block_conflicts" not in kc_s.extra
    if flagged:
        assert kc_p.extra["cross_block_conflicts"] == 1.0
    else:
        assert "cross_block_conflicts" not in kc_p.extra


@pytest.mark.parametrize("make_executor", VARIANTS)
def test_error_cutoff_equivalence(make_executor):
    """A faulting block re-raises with exactly the serial partial state:
    blocks below the cutoff land fully, the faulting block's prefix lands,
    blocks above the cutoff leave no trace."""

    def kernel(tc, out):
        if tc.block_id == 2 and tc.tid == 7:
            yield from tc.store(out, 10_000, 1.0)  # out of bounds
        yield from tc.store(out, tc.global_tid, float(tc.global_tid))

    def run(executor):
        dev = Device(executor=executor)
        out = dev.alloc("out", 256, np.float64)
        with pytest.raises(MemoryFault) as exc_info:
            dev.launch(kernel, num_blocks=8, threads_per_block=32,
                       args=(out,), executor=executor)
        return dev.to_numpy(out), str(exc_info.value)

    out_s, msg_s = run(SerialExecutor())
    out_p, msg_p = run(make_executor())
    assert np.array_equal(out_s, out_p)
    assert msg_s == msg_p
