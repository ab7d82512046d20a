"""The DP-SGD step (clip + noise + step) and Renyi-DP accounting.

Privacy is applied client-side by dp_sgd_step_flat, the one step: each
per-example gradient, given as the rank-one factors of model.grad_factors,
is clipped to a global norm bound C across all of that example's trainable
matrices, the clipped gradients are summed, a single Gaussian draw
N(0, sigma^2 C^2) per parameter is added, and the result is averaged over
the batch. One step of this Poisson-subsampled Gaussian mechanism has a
fixed RDP at each integer order, so `steps` steps spend
`steps * rdp_per_step`, converted to (epsilon, delta) by epsilon_from_rdp.
The binomial coefficients of that RDP are exact integers at integer
orders: their logarithms come from math.comb, once per order list, so the
module needs numpy alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Integer Renyi orders; the low range covers small-sigma/large-q regimes and
# the large tail covers strongly subsampled ones.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (128, 256)

SIGMA_BRACKET = (0.3, 256.0)
SIGMA_SEARCH_TOL = 1e-3


class CalibrationError(RuntimeError):
    """The target epsilon cannot be met inside the sigma search bracket."""


@functools.lru_cache(maxsize=16)
def _binomial_table(orders: tuple):
    """The orders as float64 and the ragged layout of the RDP sum, checked
    and built once per order list (a tuple, a list and an array of the same
    orders share one key). Order i owns the run k = 0..alpha_i of the flat
    arrays k, alpha and log C(alpha, k), which start at starts[i] and hold
    sizes[i] = alpha_i + 1 entries. log C is the log of the exact integer,
    within about half an ulp."""
    alphas = np.array(orders, dtype=np.float64)
    if np.any(alphas <= 1) or np.any(alphas != np.round(alphas)):
        raise ValueError("orders must be integers greater than 1")
    ints = alphas.astype(np.int64).tolist()
    sizes = np.array(ints) + 1
    starts = np.cumsum(sizes) - sizes
    alpha = np.repeat(alphas, sizes)
    k = np.concatenate([np.arange(a + 1.0) for a in ints])
    log_comb = np.array([math.log(math.comb(a, j)) for a in ints for j in range(a + 1)])
    for arr in (alphas, sizes, starts, alpha, k, log_comb):
        arr.flags.writeable = False
    return alphas, sizes, starts, k, alpha, log_comb


def rdp_subsampled_gaussian(q: float, sigma: float, orders=DEFAULT_ORDERS) -> np.ndarray:
    """Per-order RDP of one Poisson-subsampled Gaussian step.

    For q = 1 this is the Gaussian mechanism value alpha / (2 sigma^2). For
    q < 1 it is the exact binomial expansion at integer orders,
        RDP_a = log( sum_k C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)) ) / (a-1),
    evaluated in log space.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive; the RDP of a noiseless step is infinite")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"sampling rate must be in (0, 1], got {q}")
    alphas, sizes, starts, k, alpha, log_comb = _binomial_table(tuple(orders))
    if q == 1.0:
        return alphas / (2.0 * sigma * sigma)
    log_terms = (
        log_comb
        + k * math.log(q)
        + (alpha - k) * math.log1p(-q)
        + k * (k - 1) / (2.0 * sigma * sigma)
    )
    # Per-run logsumexp: the maximal terms leave the sum, which enters
    # through log1p, so small RDP values keep their precision.
    top = np.maximum.reduceat(log_terms, starts)
    is_top = log_terms == np.repeat(top, sizes)
    count = np.add.reduceat(is_top.astype(np.float64), starts)
    shifted = np.where(is_top, -np.inf, log_terms) - np.repeat(top, sizes)
    rest = np.add.reduceat(np.exp(shifted), starts) / count
    return (np.log1p(rest) + np.log(count) + top) / (alphas - 1)


def epsilon_from_rdp(orders, rdp_total, delta: float):
    """Optimal (epsilon, order) for the standard RDP -> (eps, delta) conversion,
    per index of rdp_total's leading axes (its last axis runs over the orders)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    orders = np.asarray(orders, dtype=np.float64)
    eps = np.asarray(rdp_total, dtype=np.float64) + math.log(1.0 / delta) / (orders - 1.0)
    return eps.min(axis=-1), orders[eps.argmin(axis=-1)]


def spent_epsilon(q: float, sigma: float, steps: int, delta: float) -> float:
    """Epsilon after `steps` subsampled-Gaussian steps at (q, sigma)."""
    rdp = steps * rdp_subsampled_gaussian(q, sigma)
    return float(epsilon_from_rdp(DEFAULT_ORDERS, rdp, delta)[0])


def calibrate_sigma(epsilon_target: float, delta: float, q: float, total_steps: int) -> float:
    """Smallest noise multiplier (within SIGMA_SEARCH_TOL) meeting the epsilon target.

    Binary search over sigma in SIGMA_BRACKET; epsilon is strictly decreasing
    in sigma. Returns the bracket's lower edge when even that already
    satisfies the target (effectively no privacy pressure); raises
    CalibrationError when the target is unreachable at the upper edge.
    """
    if not 0.0 < epsilon_target < math.inf:
        raise ValueError(f"epsilon_target must be finite and positive, got {epsilon_target}")
    lo, hi = SIGMA_BRACKET
    if spent_epsilon(q, lo, total_steps, delta) <= epsilon_target:
        return lo
    if spent_epsilon(q, hi, total_steps, delta) > epsilon_target:
        raise CalibrationError(
            f"epsilon target {epsilon_target} unreachable with sigma <= {hi} "
            f"(q={q}, steps={total_steps}, delta={delta})"
        )
    while hi - lo > SIGMA_SEARCH_TOL:
        mid = 0.5 * (lo + hi)
        if spent_epsilon(q, mid, total_steps, delta) <= epsilon_target:
            hi = mid
        else:
            lo = mid
    return hi


def flat_buffer(arrays: dict, count: int) -> tuple[np.ndarray, dict]:
    """count copies of the matrices of `arrays`, flattened and laid end to end
    in sorted key order: a (count, P) array and its (count, *shape) views."""
    keys = sorted(arrays)
    buf = np.empty((count, sum(arrays[k].size for k in keys)))
    buf[:] = np.concatenate([arrays[k].ravel() for k in keys])
    views, end = {}, 0
    for key in keys:
        start, end = end, end + arrays[key].size
        views[key] = buf[:, start:end].reshape(count, *arrays[key].shape)
    return buf, views


def dp_sgd_step_flat(theta, views: dict, grad_factors: dict, clip: float, noise, lr: float, rngs, sizes) -> None:
    """One DP-SGD step of K clients, in place on their flat_buffer (theta, views).

    grad_factors maps each key to (U, V), (K, M, .) each, example n of client
    k having the gradient U[k, n] (x) V[k, n]: its squared norm is |U|^2 |V|^2
    and the clipped sum (f U)^T V, so no per-example tensor is formed
    (Goodfellow 2015, arXiv:1510.01799); f = min(1, clip / ||g||) (inf: no
    clipping) on the first sizes[k] rows, 0 on the padding after them. The
    sums land in a (K, P) total of theta's layout; row k of it gains
    noise[k] (sigma_k C; None: no noise) times one standard-normal block
    from rngs[k] (the values and generator state of one rng.normal per key
    in sorted order); then theta -= lr * total / sizes. An empty batch
    draws no noise and keeps its parameters.
    """
    keys = sorted(views)
    sq_norms = sum(np.vecdot(u, u) * np.vecdot(v, v) for u, v in map(grad_factors.get, keys))
    f = (np.arange(sq_norms.shape[-1]) < sizes[:, None]) / np.maximum(1.0, np.sqrt(sq_norms) / clip)
    total, end = np.empty_like(theta), 0
    for k in keys:
        u, v = grad_factors[k]
        start, end = end, end + u.shape[-1] * v.shape[-1]
        np.matmul((f[..., None] * u).mT, v, out=total[:, start:end].reshape(views[k].shape))
    for row, scale, g, m in zip(total, noise, rngs, sizes):
        if m and scale is not None:
            row += scale * g.standard_normal(len(row))
    theta -= lr * (total / np.maximum(sizes, 1)[:, None])
