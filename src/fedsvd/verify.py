"""Runtime verification suites behind the `verify` subcommand.

Each suite runs randomized trials of one family of invariants and returns
margin rows, plus a violation count. Suites are pure given (trials, seed).
`--output` writes the rows with metrics.write_csv, the formatter of the
metrics CSV: floats by repr, and the header from MarginRow's fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, linalg, lora, metrics, model, privacy


@dataclass(frozen=True)
class MarginRow:
    scope: str
    check: str
    trial: int
    value: float
    bound: float
    margin: float
    status: str  # "ok" | "violation" | "inconclusive"

    def format(self) -> str:
        return metrics.format_row(self)


def _row(scope, check, trial, value, bound, ok) -> MarginRow:
    return MarginRow(
        scope=scope,
        check=check,
        trial=trial,
        value=float(value),
        bound=float(bound),
        margin=float(bound - value),
        status="ok" if ok else "violation",
    )


def verify_linalg(trials: int, seed: int) -> list[MarginRow]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xE1)))
    rows = []
    for t in range(trials):
        r = int(rng.integers(1, 17))
        d_out = int(rng.integers(r, 257))
        d_in = int(rng.integers(r, 257))
        b = rng.standard_normal((d_out, r))
        a_prev = rng.standard_normal((r, d_in))
        b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
        err = linalg.product_error(b_hat, a_hat, b @ a_prev)
        rows.append(_row("linalg", "reparam_recovery", t, err, 1e-10, err <= 1e-10))
        orth = float(np.max(np.abs(a_hat @ a_hat.T - np.eye(r))))
        rows.append(_row("linalg", "reparam_orthonormal", t, orth, 1e-10, orth <= 1e-10))

        m = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(2, 40))))
        res = linalg.svd(m)
        recon = linalg.rel_frobenius_error(
            res.u @ np.diag(res.singular_values) @ res.vt, m
        )
        rows.append(_row("linalg", "svd_reconstruction", t, recon, 1e-9, recon <= 1e-9))
        k = res.vt.shape[0]
        orth_u = float(np.max(np.abs(res.u.T @ res.u - np.eye(k))))
        orth_v = float(np.max(np.abs(res.vt @ res.vt.T - np.eye(k))))
        worst = max(orth_u, orth_v)
        rows.append(_row("linalg", "svd_orthonormal", t, worst, 1e-10, worst <= 1e-10))
    return rows


def verify_conditioning(trials: int, seed: int) -> list[MarginRow]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xE2)))
    rows = []
    for t in range(trials):
        r = int(rng.choice([2, 4, 8]))
        d_x = int(rng.choice([8, 16, 32]))
        orthonormal = bool(rng.integers(0, 2))
        if orthonormal:
            q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
            a = np.ascontiguousarray(q.T)
        else:
            a = rng.standard_normal((r, d_x)) * rng.uniform(0.5, 2.0)
        b = rng.standard_normal((1, r))
        w = rng.standard_normal((1, d_x)) * 0.2
        x = rng.standard_normal((64, d_x))
        y = rng.integers(0, 2, 64)
        report = analysis.hessian_logreg(a, b, w, x, y)
        result = analysis.conditioning_bounds_check(report)
        if result.status == "inconclusive":
            rows.append(
                MarginRow("theorem", "inconclusive", t, 0.0, 0.0, 0.0, "inconclusive")
            )
            continue
        for name, margin in result.margins.items():
            rows.append(
                _row("theorem", name, t, -margin, analysis.BOUND_REL_TOL, margin >= -analysis.BOUND_REL_TOL)
            )
    return rows


def verify_privacy(trials: int, seed: int) -> list[MarginRow]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xE3)))
    rows = []
    orders = np.asarray(privacy.DEFAULT_ORDERS, dtype=np.float64)
    for t in range(trials):
        sigma = float(rng.uniform(0.5, 4.0))
        steps = int(rng.integers(1, 2000))
        # q = 1 closed form: total RDP must equal steps * alpha / (2 sigma^2)
        total = steps * privacy.rdp_subsampled_gaussian(1.0, sigma, privacy.DEFAULT_ORDERS)
        closed = steps * orders / (2.0 * sigma**2)
        err = float(np.max(np.abs(total - closed) / np.maximum(closed, 1e-300)))
        rows.append(_row("privacy", "gaussian_closed_form", t, err, 1e-9, err <= 1e-9))

        q = float(rng.uniform(0.005, 0.5))
        rdp = privacy.rdp_subsampled_gaussian(q, sigma)
        eps_lo = float(privacy.epsilon_from_rdp(orders, steps * rdp, 1e-5)[0])
        eps_hi_sigma = privacy.spent_epsilon(q, sigma * 1.5, steps, 1e-5)
        rows.append(
            _row("privacy", "monotone_sigma", t, eps_hi_sigma, eps_lo, eps_hi_sigma < eps_lo)
        )
        eps_more_steps = float(privacy.epsilon_from_rdp(orders, 2 * steps * rdp, 1e-5)[0])
        rows.append(
            _row("privacy", "monotone_steps", t, eps_lo, eps_more_steps, eps_lo < eps_more_steps)
        )
        eps_more_q = privacy.spent_epsilon(min(1.0, q * 1.5), sigma, steps, 1e-5)
        rows.append(
            _row("privacy", "monotone_q", t, eps_lo, eps_more_q + 1e-15, eps_lo <= eps_more_q + 1e-15)
        )
    return rows


def _central_differences(layer: lora.LoraLayer, name: str, x: np.ndarray, y: int) -> np.ndarray:
    """Central differences (step h = 1e-5) of the cross-entropy at (x, y) of a
    one-layer classifier in every entry of its adapter matrix `name` ("a" or "b").

    All 2n perturbed copies (+h at each entry, then -h at each) run as one
    stacked forward: each slice is bit for bit the forward and loss of its
    own copy alone. Non-finite logits raise ValueError.
    """
    h = 1e-5
    base = getattr(layer, name)
    n = base.size
    stack = np.repeat(base.reshape(1, n), 2 * n, axis=0)
    entry = np.arange(n)
    stack[entry, entry] += h
    stack[n + entry, entry] -= h
    stack = stack.reshape(2 * n, *base.shape)
    a, b = (stack, layer.b) if name == "a" else (layer.a, stack)
    logits = model._forward([layer.w0 + layer.scale * (b @ a)], x[None, None, :])[1][:, 0]
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite entries")
    losses = model._batch_losses(logits, np.full(2 * n, y))
    return ((losses[:n] - losses[n:]) / (2 * h)).reshape(base.shape)


def verify_gradients(trials: int, seed: int) -> list[MarginRow]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xE4)))
    rows = []
    for t in range(trials):
        c = int(rng.integers(2, 5))
        d_x = int(rng.integers(3, 8))
        r = int(rng.integers(1, min(3, c, d_x) + 1))
        layer = lora.LoraLayer(
            w0=rng.standard_normal((c, d_x)) * 0.4,
            a=rng.standard_normal((r, d_x)) * 0.6,
            b=rng.standard_normal((c, r)) * 0.6,
            rank=r,
            alpha=float(r),
        )
        x = rng.standard_normal(d_x)
        y = int(rng.integers(0, c))
        # the gradients training clips: grad_factors, every adapter trainable
        params = model.adapter_params([layer])
        factors = model.grad_factors([layer], params, x[None], np.eye(c)[[y]], params.keys())
        worst = 0.0
        for (_, name), (u, v) in factors.items():
            g = u[0][:, None] * v[0][None, :]
            fd = _central_differences(layer, name, x, y)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(g)), 1e-2)
            worst = np.maximum(worst, np.max(np.abs(g - fd) / denom))
        rows.append(_row("gradients", "finite_difference", t, worst, 1e-6, worst <= 1e-6))

        # b's gradient is outer(u, v), v = a x: |outer(u, v)| = |u| |v| <= |u| sigma_max(a) |x|
        u, v = (f[0] for f in factors[0, "b"])
        lhs, u_norm = float(np.linalg.norm(np.outer(u, v))), float(np.linalg.norm(u))
        err = abs(lhs - u_norm * float(np.linalg.norm(v)))
        rows.append(_row("gradients", "norm_identity", t, err, 1e-10, err <= 1e-10))
        bound = u_norm * float(linalg.svd(layer.a).singular_values[0]) * float(np.linalg.norm(x)) + 1e-10
        rows.append(_row("gradients", "norm_bound", t, lhs, bound, lhs <= bound))
    return rows


_SUITES = {
    "linalg": verify_linalg,
    "theorem": verify_conditioning,
    "privacy": verify_privacy,
    "gradients": verify_gradients,
}
SCOPES = (*_SUITES, "all")


def run_scope(scope: str, trials: int, seed: int) -> list[MarginRow]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {SCOPES}")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    names = list(_SUITES) if scope == "all" else [scope]
    rows: list[MarginRow] = []
    for name in names:
        rows.extend(_SUITES[name](trials, seed))
    return rows


def violations(rows: list[MarginRow]) -> int:
    return sum(1 for r in rows if r.status == "violation")
