"""NumPy oracles, written independently of the kernels' own references.

Each oracle reads the inputs back from the device buffers the benchmark
filled, so it checks what the kernel was actually given.
"""

from __future__ import annotations

import numpy as np

#: Fig 10 stencil coefficients and interpolation weights (the kernels'
#: definitions, restated here so the oracle does not import them).
LAPLACE_C0, LAPLACE_C1 = 0.4, 0.1
INTERP_WEIGHTS = (-0.0625, 0.5625, 0.5625, -0.0625)
#: Benchmark-kernel layout: 32-element rows, each element in a 4-double record.
IDEAL_INNER, IDEAL_PAD = 32, 4
SU3_LINKS = 4


def close(out: np.ndarray, want: np.ndarray, rtol: float = 1e-9,
          atol: float = 1e-9) -> bool:
    return out.shape == want.shape and bool(np.allclose(out, want, rtol=rtol, atol=atol))


def spmv(row_ptr, col_idx, values, x) -> np.ndarray:
    rows = np.repeat(np.arange(row_ptr.size - 1), np.diff(row_ptr))
    return np.bincount(rows, weights=values * x[col_idx], minlength=row_ptr.size - 1)


def su3(a, b, sites: int) -> np.ndarray:
    a = a.reshape(sites, SU3_LINKS, 3, 3, 2)
    b = b.reshape(sites, 3, 3, 2)
    ac = a[..., 0] + 1j * a[..., 1]
    bc = b[..., 0] + 1j * b[..., 1]
    c = np.matmul(ac, bc[:, None])
    return np.stack([c.real, c.imag], axis=-1).reshape(-1)


def ideal(x, n_rows: int) -> np.ndarray:
    # Rows are visited through a permutation of all rows, so every element
    # e of the output is 2 x[e * PAD]^2 + 1.
    v = x[::IDEAL_PAD][: n_rows * IDEAL_INNER]
    return 2.0 * v * v + 1.0


def laplace(x, nx: int, ny: int, nz: int) -> np.ndarray:
    g = x.reshape(nx, ny, nz)
    out = np.zeros_like(g)
    c = g[1:-1, 1:-1, 1:-1]
    out[1:-1, 1:-1, 1:-1] = LAPLACE_C0 * c + LAPLACE_C1 * (
        g[:-2, 1:-1, 1:-1] + g[2:, 1:-1, 1:-1]
        + g[1:-1, :-2, 1:-1] + g[1:-1, 2:, 1:-1]
        + g[1:-1, 1:-1, :-2] + g[1:-1, 1:-1, 2:]
    )
    return out.reshape(-1)


def transpose(x, nx: int, ny: int, nz: int) -> np.ndarray:
    return x.reshape(nx, ny, nz).transpose(2, 1, 0).reshape(-1)


def interpol(x, nx: int, ny: int, nz: int) -> np.ndarray:
    g = x.reshape(nx, ny, nz)
    nz_out = nz - len(INTERP_WEIGHTS) + 1
    out = sum(w * g[:, :, d:d + nz_out] for d, w in enumerate(INTERP_WEIGHTS))
    return out.reshape(-1)


def paper(name: str, data) -> np.ndarray:
    """Expected output of paper kernel ``name`` for its device data."""
    if name == "sparse_matvec":
        return spmv(data.row_ptr.to_numpy(), data.col_idx.to_numpy(),
                    data.values.to_numpy(), data.x.to_numpy())
    if name == "su3_bench":
        return su3(data.a.to_numpy(), data.b.to_numpy(), data.sites)
    if name == "benchmark_kernel":
        return ideal(data.x.to_numpy(), data.n_rows)
    fn = {"laplace3d": laplace, "muram_transpose": transpose,
          "muram_interpol": interpol}[name]
    return fn(data.x.to_numpy(), data.nx, data.ny, data.nz)
