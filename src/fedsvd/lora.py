"""LoRA adapter representation, initialization, and reparameterization.

A layer carries a frozen dense weight w0 plus a trainable low-rank pair
(a, b); the effective update is scale * b @ a with scale = alpha / rank.
The reparameterization operators refactor b @ a_prev through its SVD so the
new `a` has orthonormal rows while the product value is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg

# A product whose spectrum is entirely below this threshold (relative to the
# size of b) is treated as zero: keep the previous basis, reset b to zero.
DEGENERATE_SIGMA_TOL = 1e-12


@dataclass(frozen=True)
class LoraLayer:
    """Frozen base weight plus trainable low-rank adapter pair."""

    w0: np.ndarray      # d_out x d_in, never touched by training
    a: np.ndarray       # rank x d_in
    b: np.ndarray       # d_out x rank
    rank: int
    alpha: float

    def __post_init__(self):
        d_out, d_in = self.w0.shape
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.rank > min(d_out, d_in):
            raise ValueError(
                f"rank {self.rank} exceeds min weight dimension "
                f"{min(d_out, d_in)}"
            )
        if self.a.shape != (self.rank, d_in):
            raise ValueError(f"a has shape {self.a.shape}, expected {(self.rank, d_in)}")
        if self.b.shape != (d_out, self.rank):
            raise ValueError(f"b has shape {self.b.shape}, expected {(d_out, self.rank)}")

    @property
    def d_out(self) -> int:
        return self.w0.shape[0]

    @property
    def d_in(self) -> int:
        return self.w0.shape[1]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def with_adapters(self, a: np.ndarray | None = None, b: np.ndarray | None = None) -> "LoraLayer":
        return replace(self, a=self.a if a is None else a, b=self.b if b is None else b)


def init_adapter(d_out: int, d_in: int, r: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Fresh adapter pair: b = 0, a ~ Kaiming uniform on [-sqrt(3/d_in), +sqrt(3/d_in)].

    With b zeroed the initial update b @ a vanishes, so the effective model
    starts exactly at the frozen base weights.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if r > min(d_out, d_in):
        raise ValueError(f"rank {r} exceeds min({d_out}, {d_in})")
    rng = np.random.default_rng(seed)
    bound = np.sqrt(3.0 / d_in)
    a = rng.uniform(-bound, bound, size=(r, d_in))
    b = np.zeros((d_out, r))
    return a, b


def orthonormal_init(d_out: int, d_in: int, r: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Adapter pair with random orthonormal rows for a and b = 0."""
    if r < 1 or r > min(d_out, d_in):
        raise ValueError(f"invalid rank {r} for {d_out}x{d_in}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d_in, r)))
    return np.ascontiguousarray(q.T), np.zeros((d_out, r))


def _refactor(b, a_prev, split) -> tuple[np.ndarray, np.ndarray]:
    # split(u, sigma, vt) of the SVD of b @ a_prev, which lowrank_svd validates;
    # a numerically zero product keeps a_prev and zeroes b
    u, sigma, vt = linalg.lowrank_svd(b, a_prev)
    if float(sigma[0]) <= DEGENERATE_SIGMA_TOL * max(1.0, linalg.frobenius(b)):
        return np.zeros(np.shape(b)), np.asarray(a_prev, dtype=np.float64).copy()
    return split(u, sigma, vt)


def fedsvd_reparam(b, a_prev) -> tuple[np.ndarray, np.ndarray]:
    """Refactor b @ a_prev into (b_hat, a_hat) = (U Sigma, V^T) via its SVD.

    a_hat has orthonormal rows and b_hat @ a_hat recovers b @ a_prev exactly
    (the product has rank at most r, so the rank-r SVD loses nothing). When
    the product is numerically zero the previous basis is kept and b_hat is
    zeroed, matching the round-zero state.
    """
    return _refactor(b, a_prev, lambda u, sigma, vt: (u * sigma[None, :], vt.copy()))


def nonorthonormal_reparam(b, a_prev) -> tuple[np.ndarray, np.ndarray]:
    """Split the SVD as (U sqrt(Sigma), sqrt(Sigma) V^T).

    Recovery of b @ a_prev still holds but the rows of a_hat are generally
    not orthonormal: the row norms carry sqrt of the singular values.
    """
    return _refactor(b, a_prev, lambda u, sigma, vt: (u * np.sqrt(sigma)[None, :], np.sqrt(sigma)[:, None] * vt))


def pissa_init(w0, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor the base weight: adapters take the top-r SVD components.

    Returns (a, b, w0_residual) with a = sqrt(S_r) V_r^T, b = U_r sqrt(S_r)
    and w0_residual built from the trailing components, so that
    w0_residual + b @ a reconstructs w0.
    """
    w0 = linalg.as_matrix(w0, "w0")
    if r < 1 or r > min(w0.shape):
        raise ValueError(f"invalid rank {r} for {w0.shape[0]}x{w0.shape[1]} weight")
    u, s, vt = linalg.svd(w0)
    root = np.sqrt(s[:r])
    a = root[:, None] * vt[:r]
    b = u[:, :r] * root[None, :]
    residual = (u[:, r:] * s[r:][None, :]) @ vt[r:]
    return a, b, residual


def effective_weight(layer: LoraLayer) -> np.ndarray:
    """w0 + (alpha / rank) * b @ a."""
    return layer.w0 + layer.scale * (layer.b @ layer.a)
