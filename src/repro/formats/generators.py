"""Deterministic synthetic sparse-matrix generators.

The paper evaluates on 26 SuiteSparse/SNAP matrices (Table IX). Those files
are not redistributable inside this offline reproduction, so
:mod:`repro.formats.suite` regenerates pattern-class-matched stand-ins with
the generators below. Each generator is seeded and pure: the same arguments
always produce the same matrix.

Pattern classes covered (matching what drives pSyncPIM behaviour — nnz
distribution across rows/banks, bandwidth, and row dependency depth):

* ``stencil_2d`` / ``stencil_3d`` — FEM/PDE discretisations
  (parabolic_fem, poisson3Da, offshore, 2cubes_sphere, ...).
* ``banded_fem`` — structural-engineering stiffness matrices with dense
  diagonal blocks (bcsstk32, cant, consph, ct20stif, pwtk, shipsec1, ...).
* ``power_law_graph`` — social/web graphs with heavy-tailed degree
  distributions (amazon0312, email-Enron, wiki-Vote, Stanford, ...).
* ``rmat`` — Kronecker-style graphs with community structure
  (soc-sign-epinions, p2p-Gnutella31, webbase-1M, ...).
* ``uniform_random`` — unstructured sparsity (lhr71, ohne2, xenon2, ...).

Helper transforms build the operands the kernels need: SPD shifts for CG,
and incomplete-factor-shaped unit triangular matrices for SpTRSV.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import FormatError
from .coo import COOMatrix
from .order import group_starts, stable_order


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dedupe(shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray,
            vals: Optional[np.ndarray] = None) -> COOMatrix:
    """Drop duplicate coordinates (keeping the first occurrence)."""
    keys = rows.astype(np.int64) * shape[1] + cols
    order = stable_order(keys)
    first = order[group_starts(keys[order])]
    first.sort()
    if vals is None:
        vals = np.ones(first.size)
    else:
        vals = vals[first]
    return COOMatrix(shape, rows[first], cols[first], vals, check=False)


# ----------------------------------------------------------------------
# PDE / FEM patterns
# ----------------------------------------------------------------------
def stencil_2d(nx: int, ny: Optional[int] = None) -> COOMatrix:
    """5-point Laplacian on an ``nx x ny`` grid — SPD, pentadiagonal.

    The classic model problem behind parabolic_fem-style matrices: four
    off-diagonal -1 couplings and a +4 diagonal.
    """
    ny = nx if ny is None else ny
    if nx <= 0 or ny <= 0:
        raise FormatError("grid dimensions must be positive")
    n = nx * ny
    idx = np.arange(n)
    ix, iy = idx % nx, idx // nx
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0)]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jx, jy = ix + dx, iy + dy
        ok = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
        rows.append(idx[ok])
        cols.append((jy * nx + jx)[ok])
        vals.append(np.full(ok.sum(), -1.0))
    return COOMatrix((n, n), np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), check=False)


def stencil_3d(nx: int, ny: Optional[int] = None,
               nz: Optional[int] = None) -> COOMatrix:
    """7-point Laplacian on an ``nx x ny x nz`` grid — SPD.

    poisson3Da-style: +6 diagonal, six -1 neighbours.
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) <= 0:
        raise FormatError("grid dimensions must be positive")
    n = nx * ny * nz
    idx = np.arange(n)
    ix = idx % nx
    iy = (idx // nx) % ny
    iz = idx // (nx * ny)
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 6.0)]
    for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)):
        jx, jy, jz = ix + dx, iy + dy, iz + dz
        ok = ((jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
              & (jz >= 0) & (jz < nz))
        rows.append(idx[ok])
        cols.append(((jz * ny + jy) * nx + jx)[ok])
        vals.append(np.full(ok.sum(), -1.0))
    return COOMatrix((n, n), np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), check=False)


def banded_fem(n: int, avg_row_nnz: float, bandwidth: Optional[int] = None,
               seed: int = 0) -> COOMatrix:
    """Symmetric banded matrix with clustered off-diagonals.

    Mimics assembled stiffness matrices (bcsstk32, cant, ...): every row has
    a diagonal entry plus ~``avg_row_nnz - 1`` couplings drawn near the
    diagonal, symmetrised. Values are drawn from N(0, 1) off-diagonal with a
    dominant positive diagonal, so the result is symmetric positive definite.
    """
    if n <= 0 or avg_row_nnz < 1:
        raise FormatError("need n > 0 and avg_row_nnz >= 1")
    rng = _rng(seed)
    if bandwidth is None:
        bandwidth = max(2, int(3 * avg_row_nnz))
    lower = _band_lower(n, max(1, int((avg_row_nnz - 1) / 2)), bandwidth,
                        rng)
    off_vals = rng.standard_normal(lower.nnz)
    # Diagonal dominance: row sums of |off-diagonals| plus a positive shift.
    # One bincount over both halves, rows first: it sums each row in the
    # same order as scattering the two halves one after the other.
    abs_sum = np.bincount(np.concatenate([lower.rows, lower.cols]),
                          weights=np.tile(np.abs(off_vals), 2), minlength=n)
    diag = abs_sum + 1.0 + rng.random(n)
    rows = np.concatenate([lower.rows, lower.cols, np.arange(n)])
    cols = np.concatenate([lower.cols, lower.rows, np.arange(n)])
    vals = np.concatenate([off_vals, off_vals, diag])
    return COOMatrix((n, n), rows, cols, vals, check=False)


def _band_lower(n: int, half: int, bandwidth: int,
                rng: np.random.Generator) -> COOMatrix:
    """Strictly-lower couplings of :func:`banded_fem`, deduplicated.

    Each row draws a Poisson(*half*) count (realistic imbalance) of
    offsets in ``[1, bandwidth]`` below the diagonal. A function of its
    own, so the per-draw arrays are freed before the symmetrised matrix
    is built.
    """
    counts = rng.poisson(half, size=n)
    row_idx = np.repeat(np.arange(n), counts)
    col_idx = row_idx - rng.integers(1, bandwidth + 1, size=row_idx.size)
    ok = col_idx >= 0
    return _dedupe((n, n), row_idx[ok], col_idx[ok])


# ----------------------------------------------------------------------
# graph patterns
# ----------------------------------------------------------------------
def power_law_graph(n: int, avg_degree: float, seed: int = 0,
                    exponent: float = 2.1,
                    symmetric: bool = False) -> COOMatrix:
    """Directed graph adjacency with power-law out-degrees.

    Degrees follow a truncated zeta-like distribution with the given
    *exponent*; targets are chosen preferentially toward low indices, which
    reproduces the hub structure of social/web graphs without an O(E) Python
    loop. Edge values are 1.0. Self-loops are removed.
    """
    if n <= 1 or avg_degree <= 0:
        raise FormatError("need n > 1 and positive avg_degree")
    rng = _rng(seed)
    # Pareto-tailed degree sequence scaled to the requested mean.
    raw = (1.0 + rng.pareto(exponent - 1.0, size=n))
    degrees = np.maximum(1, np.round(raw * avg_degree / raw.mean()))
    degrees = np.minimum(degrees, n - 1).astype(np.int64)
    src = np.repeat(np.arange(n), degrees)
    # Preferential targets: squaring a uniform variate biases toward hubs
    # (low indices), yielding a heavy-tailed in-degree distribution too.
    dst = (rng.random(src.size) ** 2 * n).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return _dedupe((n, n), src, dst)


def rmat(n: int, nnz: int, seed: int = 0,
         probs: Tuple[float, float, float, float] = (0.57, 0.19, 0.19, 0.05)
         ) -> COOMatrix:
    """R-MAT (recursive matrix) Kronecker graph generator.

    *n* is rounded up to the next power of two internally and the matrix is
    truncated back, matching the standard Graph500 construction. Duplicate
    edges are dropped, so the returned nnz can be slightly below *nnz*.
    """
    if n <= 1 or nnz <= 0:
        raise FormatError("need n > 1 and nnz > 0")
    a, b, c, d = probs
    if not np.isclose(a + b + c + d, 1.0):
        raise FormatError("R-MAT probabilities must sum to 1")
    rng = _rng(seed)
    levels = int(np.ceil(np.log2(n)))
    rows = np.zeros(nnz, dtype=np.int64)
    cols = np.zeros(nnz, dtype=np.int64)
    for _ in range(levels):
        rows <<= 1
        cols <<= 1
        r = rng.random(nnz)
        right = (r >= a) & (r < a + b)          # quadrant b: col bit set
        lower = (r >= a + b) & (r < a + b + c)  # quadrant c: row bit set
        both = r >= a + b + c                   # quadrant d: both bits
        cols += right | both
        rows += lower | both
    keep = (rows < n) & (cols < n) & (rows != cols)
    return _dedupe((n, n), rows[keep], cols[keep])


def uniform_random(nrows: int, ncols: int, density: float,
                   seed: int = 0, values: str = "normal") -> COOMatrix:
    """Uniformly random sparse matrix of the requested density.

    *values* selects the value distribution: ``"normal"``, ``"uniform"`` (in
    (0, 1]) or ``"ones"``.
    """
    if nrows <= 0 or ncols <= 0:
        raise FormatError("matrix dimensions must be positive")
    if not 0.0 <= density <= 1.0:
        raise FormatError("density must lie in [0, 1]")
    rng = _rng(seed)
    target = int(round(nrows * ncols * density))
    # Oversample to survive dedup, then trim.
    sample = int(target * 1.1) + 16
    rows = rng.integers(0, nrows, size=sample)
    cols = rng.integers(0, ncols, size=sample)
    mat = _dedupe((nrows, ncols), rows, cols)
    if mat.nnz > target:
        mat = COOMatrix((nrows, ncols), mat.rows[:target], mat.cols[:target],
                        mat.vals[:target], check=False)
    if values == "normal":
        vals = rng.standard_normal(mat.nnz)
    elif values == "uniform":
        vals = rng.random(mat.nnz) + np.finfo(float).tiny
    elif values == "ones":
        vals = np.ones(mat.nnz)
    else:
        raise FormatError(f"unknown value distribution {values!r}")
    return COOMatrix(mat.shape, mat.rows, mat.cols, vals, check=False)


# ----------------------------------------------------------------------
# operand transforms
# ----------------------------------------------------------------------
def make_spd(matrix: COOMatrix, shift: float = 1.0) -> COOMatrix:
    """Symmetrise and diagonally dominate *matrix* so it becomes SPD.

    Builds ``(A + A.T)/2`` and then replaces the diagonal with the row sums
    of absolute off-diagonals plus *shift* — a standard construction for
    conjugate-gradient test operators.
    """
    if not matrix.is_square:
        raise FormatError("make_spd requires a square matrix")
    n = matrix.shape[0]
    at = matrix.transpose()
    rows = np.concatenate([matrix.rows, at.rows])
    cols = np.concatenate([matrix.cols, at.cols])
    vals = np.concatenate([matrix.vals, at.vals]) * 0.5
    keys = rows * n + cols
    order = stable_order(keys)
    keys, vals = keys[order], vals[order]
    start = group_starts(keys)
    summed = np.add.reduceat(vals, start)
    uniq = keys[start]
    rows, cols = uniq // n, uniq % n
    off = rows != cols
    rows, cols, summed = rows[off], cols[off], summed[off]
    dom = np.bincount(rows, weights=np.abs(summed), minlength=n)
    idx = np.arange(n)
    return COOMatrix((n, n), np.concatenate([rows, idx]),
                     np.concatenate([cols, idx]),
                     np.concatenate([summed, dom + shift]), check=False)


def unit_lower_from(matrix: COOMatrix, scale: float = 0.9,
                    seed: int = 0) -> COOMatrix:
    """Build a well-conditioned unit lower-triangular matrix shaped like *A*.

    Takes the strictly-lower structure of *matrix*, assigns values scaled so
    each row's off-diagonal magnitude stays below *scale* (keeping the solve
    numerically tame), and sets the diagonal to one. This is the shape an
    ILU(0) factor of *A* would have, which is what pSyncPIM's SpTRSV
    consumes (paper §VI).
    """
    if not matrix.is_square:
        raise FormatError("unit_lower_from requires a square matrix")
    n = matrix.shape[0]
    low = matrix.strictly_lower()
    rng = _rng(seed)
    raw = rng.random(low.nnz) + 0.1
    row_sum = np.bincount(low.rows, weights=raw, minlength=n)
    denom = np.maximum(row_sum[low.rows], 1e-12)
    vals = raw / denom * scale * np.sign(rng.standard_normal(low.nnz))
    idx = np.arange(n)
    return COOMatrix((n, n), np.concatenate([low.rows, idx]),
                     np.concatenate([low.cols, idx]),
                     np.concatenate([vals, np.ones(n)]), check=False)


def unit_upper_from(matrix: COOMatrix, scale: float = 0.9,
                    seed: int = 0) -> COOMatrix:
    """Upper-triangular counterpart of :func:`unit_lower_from`."""
    lower = unit_lower_from(matrix.transpose(), scale=scale, seed=seed)
    return lower.transpose()
