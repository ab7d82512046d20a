"""Dense linear algebra: the signed, rank-flushed thin SVD on LAPACK.

Everything operates on plain 2-D float64 ndarrays. svd and lowrank_svd fix
what LAPACK leaves open: singular vectors follow a deterministic sign
convention and singular values below the numerical rank are flushed to
exactly zero. QR and symmetric eigenvalues need no such fix, so callers use
numpy.linalg.qr and numpy.linalg.eigh directly. LAPACK failures surface as
numpy.linalg.LinAlgError, a ValueError. All functions are pure and safe to
call concurrently.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Singular values below rank_tol * sigma_max count as zero for rank decisions.
DEFAULT_RANK_TOL = 1e-10


class SvdResult(NamedTuple):
    u: np.ndarray                # m x k, orthonormal columns
    singular_values: np.ndarray  # length k, nonincreasing, >= 0
    vt: np.ndarray               # k x n, orthonormal rows


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return `m` as a non-empty 2-D float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _signed(u: np.ndarray, sigma: np.ndarray, vt: np.ndarray) -> SvdResult:
    # Per singular triplet, flip signs so the largest-magnitude entry of the
    # right singular vector is positive (argmax breaks ties at lowest index).
    jmax = np.argmax(np.abs(vt), axis=1)
    flip = vt[np.arange(vt.shape[0]), jmax] < 0.0
    vt[flip] *= -1.0
    u[:, flip] *= -1.0
    return SvdResult(u, sigma, vt)


def _flushed_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # LAPACK's thin SVD of a validated matrix with svd's rank flush, before any sign pass.
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    sigma[sigma <= max(a.shape) * np.finfo(np.float64).eps * sigma[0]] = 0.0
    return u, sigma, vt


def svd(m) -> SvdResult:
    """Thin SVD (LAPACK) with a deterministic sign convention and rank flush.

    Returns u (m x k), singular values (nonincreasing, length k = min(m, n))
    and vt (k x n). In each right singular vector the entry of largest
    magnitude is positive. Singular values at or below
    max(m, n) * eps * sigma_max are flushed to exactly zero; u keeps
    orthonormal columns for them.
    """
    return _signed(*_flushed_svd(as_matrix(m)))


def lowrank_svd(b, a) -> SvdResult:
    """Thin rank-r SVD of the product b @ a without forming it densely.

    With b of shape d_out x r and a of shape r x d_in (r <= both outer
    dimensions), factor b = Q_b R_b and a.T = Q_a R_a, take the r x r SVD of
    R_b @ R_a.T, lift the factors back through Q_b and Q_a, and sign them as
    svd does, once: a sign pass on the core would change nothing.
    """
    b = as_matrix(b, "b")
    a = as_matrix(a, "a")
    if b.shape[1] != a.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: b is {b.shape[0]}x{b.shape[1]}, "
            f"a is {a.shape[0]}x{a.shape[1]}"
        )
    r = b.shape[1]
    if r > b.shape[0] or r > a.shape[1]:
        raise ValueError(
            f"rank {r} exceeds outer dimensions {b.shape[0]}x{a.shape[1]}"
        )
    qb, rb = np.linalg.qr(b)
    qa, ra = np.linalg.qr(a.T)
    core_u, sigma, core_vt = _flushed_svd(rb @ ra.T)
    if not math.isfinite(sigma[0]):  # finite b and a whose product overflows
        raise ValueError("b @ a has non-finite entries")
    return _signed(qb @ core_u, sigma, core_vt @ qa.T)


def condition_number(m, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Ratio of the largest to the smallest non-zero singular value.

    Singular values at or below rank_tol * sigma_max are treated as zero, so
    a numerically rank-1 matrix has condition number 1. Raises for the
    all-zero matrix, whose condition number is undefined.
    """
    if rank_tol <= 0.0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    s = svd(m).singular_values
    if s[0] <= 0.0:
        raise ValueError("condition number is undefined for an all-zero matrix")
    kept = s[s > rank_tol * s[0]]
    return float(kept[0] / kept[-1])


def frobenius(m) -> float:
    """Frobenius norm, rescaled by the largest entry if the squares overflow."""
    a = np.asarray(m, dtype=np.float64)
    with np.errstate(over="ignore"):
        total = float(np.sum(a * a))
    if total == math.inf and np.isfinite(a).all():
        scale = float(np.max(np.abs(a)))
        return scale * math.sqrt(float(np.sum((a / scale) ** 2)))
    return math.sqrt(total)


def _error(work: np.ndarray, expected: np.ndarray, rebuild) -> float:
    # rel_frobenius_error, writing only work, a fresh float64 array holding actual
    # (it ends holding expected squared); squares that overflow are formed anew
    # from rebuild(), which returns actual
    np.subtract(work, expected, out=work)
    with np.errstate(over="ignore"):
        total = float(np.sum(np.multiply(work, work, out=work)))
        diff = frobenius(rebuild() - expected) if total == math.inf else math.sqrt(total)
        total = float(np.sum(np.multiply(expected, expected, out=work)))
    denom = frobenius(expected) if total == math.inf else math.sqrt(total)
    return diff / denom if denom > 0.0 else diff


def rel_frobenius_error(actual, expected) -> float:
    """|actual - expected|_F / |expected|_F (absolute error if expected = 0).
    Writes only its own float64 copy of actual, not either input."""
    return _error(np.array(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64), lambda: actual)


def product_error(b: np.ndarray, a: np.ndarray, expected: np.ndarray) -> float:
    """rel_frobenius_error(b @ a, expected) of float64 matrices, writing only the fresh b @ a."""
    return _error(b @ a, expected, lambda: b @ a)
