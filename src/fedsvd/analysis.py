"""Numerical verification of the Hessian conditioning bounds.

Covers binary-logistic regression in b: the Hessian in b is a @ m @ a.T for
a data-curvature matrix m, so orthonormal rows of `a` make its condition
number depend only on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

BOUND_REL_TOL = 1e-8
# Hessians whose spectrum collapses below this (relative) are not rank-r and
# the condition-number bounds are vacuous for them.
DEGENERATE_EIG_TOL = 1e-10


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


@dataclass(frozen=True)
class HessianReport:
    h: np.ndarray                      # r x r Hessian of the loss in b
    m: np.ndarray                      # d_x x d_x data curvature matrix
    kappa_h: float
    kappa_a: float
    lambda_max_m: float
    lambda_min_m_restricted: float     # smallest eigenvalue of m on rowspace(a)
    bound_general: float               # kappa_a^2 * lambda_max / lambda_min_restricted
    bound_orthonormal: float           # lambda_max / lambda_min_restricted
    sigma_max_a: float
    sigma_min_a: float
    lambda_max_h: float
    lambda_min_h: float
    a_orthonormal: bool


@dataclass(frozen=True)
class ConditioningCheck:
    status: str                        # "pass" | "fail" | "inconclusive"
    margins: dict


def hessian_logreg(a, b, w, features, labels) -> HessianReport:
    """Curvature report for scalar-logit logistic regression in b.

    With logits z_i = (w + b @ a) x_i and binary labels, the Hessian of the
    mean cross-entropy with respect to b is a @ m @ a.T where
    m = mean_i sigmoid(z_i)(1 - sigmoid(z_i)) x_i x_i^T. The restricted
    smallest eigenvalue projects m onto an orthonormal basis of the row
    space of `a` (QR of a.T).
    """
    a = linalg.as_matrix(a, "a")
    b = linalg.as_matrix(b, "b")
    w = linalg.as_matrix(w, "w")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if len(x) == 0:
        raise ValueError("empty dataset")
    if b.shape[0] != 1 or w.shape[0] != 1:
        raise ValueError("scalar-logit setting requires 1-row b and w")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("labels must be binary")

    p = sigmoid(x @ (w + b @ a).T)
    weight = p * (1.0 - p)
    m = (x.T * weight.ravel()) @ x / len(x)
    m = (m + m.T) / 2.0
    h = a @ m @ a.T
    h = (h + h.T) / 2.0

    q, _ = np.linalg.qr(a.T)
    restricted = q.T @ m @ q
    # eigenvalues nonincreasing; each matrix is exactly symmetric
    eig_h = np.linalg.eigh(h)[0][::-1]
    eig_m = np.linalg.eigh(m)[0][::-1]
    eig_restricted = np.linalg.eigh((restricted + restricted.T) / 2.0)[0][::-1]
    s_a = linalg.svd(a).singular_values
    kappa_a = float(s_a[0] / s_a[-1]) if s_a[-1] > 0 else np.inf
    lambda_min_restricted = float(eig_restricted[-1])
    orthonormal = float(np.max(np.abs(a @ a.T - np.eye(a.shape[0])))) <= 1e-10
    bound_general = (
        kappa_a**2 * eig_m[0] / lambda_min_restricted
        if lambda_min_restricted > 0
        else np.inf
    )
    return HessianReport(
        h=h,
        m=m,
        kappa_h=float(eig_h[0] / eig_h[-1]) if eig_h[-1] > 0 else np.inf,
        kappa_a=kappa_a,
        lambda_max_m=float(eig_m[0]),
        lambda_min_m_restricted=lambda_min_restricted,
        bound_general=float(bound_general),
        bound_orthonormal=(
            float(eig_m[0] / lambda_min_restricted) if lambda_min_restricted > 0 else np.inf
        ),
        sigma_max_a=float(s_a[0]),
        sigma_min_a=float(s_a[-1]),
        lambda_max_h=float(eig_h[0]),
        lambda_min_h=float(eig_h[-1]),
        a_orthonormal=orthonormal,
    )


def _rel_margin(lhs: float, rhs: float) -> float:
    # positive when lhs <= rhs, in units relative to the larger magnitude
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return (rhs - lhs) / scale


def conditioning_bounds_check(report: HessianReport) -> ConditioningCheck:
    """Check the Hessian conditioning bounds for one instance.

    (a) lambda_max(h) <= sigma_max(a)^2 lambda_max(m)
    (b) lambda_min(h) >= sigma_min(a)^2 lambda_min(m restricted to rowspace(a))
    (c) kappa(h) <= kappa(a)^2 lambda_max(m) / lambda_min(m restricted)
    (d) with orthonormal rows: kappa(h) <= lambda_max(m) / lambda_min(m restricted)

    Instances whose Hessian is numerically rank-deficient are reported
    inconclusive rather than failed.
    """
    r = report
    if (
        r.lambda_min_h <= DEGENERATE_EIG_TOL * max(r.lambda_max_h, 0.0)
        or r.lambda_min_m_restricted <= 0.0
        or not np.isfinite(r.kappa_a)
    ):
        return ConditioningCheck(status="inconclusive", margins={})

    margins = {
        "a_lambda_max": _rel_margin(r.lambda_max_h, r.sigma_max_a**2 * r.lambda_max_m),
        "b_lambda_min": _rel_margin(
            r.sigma_min_a**2 * r.lambda_min_m_restricted, r.lambda_min_h
        ),
        "c_kappa_general": _rel_margin(r.kappa_h, r.bound_general),
    }
    if r.a_orthonormal:
        margins["d_kappa_orthonormal"] = _rel_margin(r.kappa_h, r.bound_orthonormal)
    status = "pass" if all(v >= -BOUND_REL_TOL for v in margins.values()) else "fail"
    return ConditioningCheck(status=status, margins=margins)

