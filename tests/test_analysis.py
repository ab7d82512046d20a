import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import b_gradient_norms, expansion_residual

from fedsvd import analysis


def random_instance(rng, r=3, d_x=8, n=40, orthonormal=False):
    if orthonormal:
        q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
        a = np.ascontiguousarray(q.T)
    else:
        a = rng.standard_normal((r, d_x)) * rng.uniform(0.5, 2.0)
    b = rng.standard_normal((1, r))
    w = rng.standard_normal((1, d_x)) * 0.2
    x = rng.standard_normal((n, d_x))
    y = rng.integers(0, 2, n)
    return a, b, w, x, y


def test_hessian_zero_logits_closed_form():
    # z = 0 everywhere -> every sigmoid weight is 1/4.
    rng = np.random.default_rng(0)
    d_x, r, n = 6, 2, 30
    a = rng.standard_normal((r, d_x))
    b = np.zeros((1, r))
    w = np.zeros((1, d_x))
    x = rng.standard_normal((n, d_x))
    y = rng.integers(0, 2, n)
    rep = analysis.hessian_logreg(a, b, w, x, y)
    expected_m = 0.25 * x.T @ x / n
    np.testing.assert_allclose(rep.m, expected_m, atol=1e-12)
    np.testing.assert_allclose(rep.h, a @ expected_m @ a.T, atol=1e-12)


def test_hessian_identity_a_gives_m():
    rng = np.random.default_rng(1)
    d_x = 4
    a = np.eye(d_x)
    b = rng.standard_normal((1, d_x)) * 0.3
    w = rng.standard_normal((1, d_x)) * 0.3
    x = rng.standard_normal((25, d_x))
    y = rng.integers(0, 2, 25)
    rep = analysis.hessian_logreg(a, b, w, x, y)
    np.testing.assert_allclose(rep.h, rep.m, atol=1e-14)


def binary_ce_loss(a, b, w, x, y):
    z = (x @ (w + b @ a).T).ravel()
    p = analysis.sigmoid(z)
    return float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))


def test_hessian_matches_finite_differences():
    # oracle: central second differences of the mean binary cross-entropy in b
    rng = np.random.default_rng(2)
    a, b, w, x, y = random_instance(rng, r=3, d_x=5, n=30)
    rep = analysis.hessian_logreg(a, b, w, x, y)
    h = 1e-4
    r = b.shape[1]
    fd = np.zeros((r, r))
    for i in range(r):
        for j in range(r):
            bpp = b.copy(); bpp[0, i] += h; bpp[0, j] += h
            bpm = b.copy(); bpm[0, i] += h; bpm[0, j] -= h
            bmp = b.copy(); bmp[0, i] -= h; bmp[0, j] += h
            bmm = b.copy(); bmm[0, i] -= h; bmm[0, j] -= h
            fd[i, j] = (
                binary_ce_loss(a, bpp, w, x, y)
                - binary_ce_loss(a, bpm, w, x, y)
                - binary_ce_loss(a, bmp, w, x, y)
                + binary_ce_loss(a, bmm, w, x, y)
            ) / (4 * h * h)
    np.testing.assert_allclose(rep.h, fd, rtol=1e-4, atol=1e-7)


def test_hessian_psd_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, w, x, y = random_instance(rng)
        rep = analysis.hessian_logreg(a, b, w, x, y)
        assert np.max(np.abs(rep.h - rep.h.T)) <= 1e-10
        eig_h = np.linalg.eigvalsh(rep.h)
        eig_m = np.linalg.eigvalsh(rep.m)
        assert np.all(eig_h >= -1e-10)
        assert np.all(eig_m >= -1e-10)


def test_hessian_validation():
    rng = np.random.default_rng(4)
    a, b, w, x, y = random_instance(rng)
    for bad in (2.0, 0.5, np.nan):
        labels = np.where(np.arange(len(y)) % 2, bad, 0.0)
        with pytest.raises(ValueError, match="labels must be binary"):
            analysis.hessian_logreg(a, b, w, x, labels)
    with pytest.raises(ValueError):
        analysis.hessian_logreg(a, b, w, x[:0], y[:0])
    # boolean labels are binary
    assert analysis.hessian_logreg(a, b, w, x, y.astype(bool)).h.tobytes() == (
        analysis.hessian_logreg(a, b, w, x, y).h.tobytes()
    )


def test_verify_never_imports_numpy_ma():
    # np.unique goes through numpy.ma, whose import costs a fresh process
    # about 10 ms and 1 MB; the label check needs only comparisons.
    script = """
import sys
from fedsvd import verify
verify.run_scope("all", 1, 0)
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_conditioning_orthonormal_rows():
    rng = np.random.default_rng(5)
    a, b, w, x, y = random_instance(rng, orthonormal=True)
    rep = analysis.hessian_logreg(a, b, w, x, y)
    assert abs(rep.kappa_a - 1.0) <= 1e-10
    result = analysis.conditioning_bounds_check(rep)
    assert result.status == "pass"
    assert "d_kappa_orthonormal" in result.margins


def test_conditioning_scale_invariance_of_kappa():
    rng = np.random.default_rng(6)
    a, b, w, x, y = random_instance(rng)
    rep1 = analysis.hessian_logreg(a, b, w, x, y)
    # scaling a by 2 scales h by 4 but leaves its condition number unchanged;
    # keep the logits identical by absorbing the scale into b
    rep2 = analysis.hessian_logreg(2.0 * a, b / 2.0, w, x, y)
    assert abs(rep2.kappa_h - rep1.kappa_h) <= 1e-10 * rep1.kappa_h
    np.testing.assert_allclose(rep2.lambda_max_h, 4.0 * rep1.lambda_max_h, rtol=1e-10)


def test_conditioning_holds_across_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        r = int(rng.choice([2, 4, 8]))
        d_x = int(rng.choice([8, 16, 32]))
        a, b, w, x, y = random_instance(rng, r=r, d_x=d_x, n=60)
        rep = analysis.hessian_logreg(a, b, w, x, y)
        result = analysis.conditioning_bounds_check(rep)
        assert result.status in ("pass", "inconclusive")
        if result.status == "pass":
            checked += 1
            assert rep.bound_general >= rep.kappa_h * (1 - 1e-8)
    assert checked > 250  # degeneracy should be rare at these sizes


def test_conditioning_inconclusive_on_degenerate_instance():
    # duplicated rows of a make the Hessian rank deficient
    rng = np.random.default_rng(8)
    base = rng.standard_normal((1, 6))
    a = np.vstack([base, base])
    b = rng.standard_normal((1, 2))
    w = np.zeros((1, 6))
    x = rng.standard_normal((30, 6))
    y = rng.integers(0, 2, 30)
    rep = analysis.hessian_logreg(a, b, w, x, y)
    assert analysis.conditioning_bounds_check(rep).status == "inconclusive"


# --- gradient norm identity, on the gradient in b that DP-SGD clips ---


def test_grad_norm_zero_input():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 6))
    b = rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 6))
    lhs, identity, bound, _ = b_gradient_norms(a, b, w, np.zeros(6), 1)
    assert lhs == 0.0
    assert identity == 0.0
    assert bound == 0.0


def test_grad_norm_identity_and_bound_random():
    rng = np.random.default_rng(10)
    for _ in range(50):
        c = int(rng.integers(3, 6))  # at least r: LoraLayer refuses a rank above the class count
        r, d_x = 3, 7
        a = rng.standard_normal((r, d_x))
        b = rng.standard_normal((c, r))
        w = rng.standard_normal((c, d_x)) * 0.3
        x = rng.standard_normal(d_x)
        y = int(rng.integers(0, c))
        lhs, identity, bound, _ = b_gradient_norms(a, b, w, x, y)
        assert abs(lhs - identity) <= 1e-10 * max(1.0, lhs)
        assert lhs <= bound + 1e-10


def test_grad_norm_orthonormal_equality_on_row_space():
    # x inside the row space of orthonormal a: |a x| = |x|, identity == bound
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    a = np.ascontiguousarray(q.T)
    b = rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 8)) * 0.1
    x = a.T @ rng.standard_normal(3)  # lies in rowspace(a)
    lhs, _, bound, spectral_a = b_gradient_norms(a, b, w, x, 0)
    assert abs(spectral_a - 1.0) <= 1e-10
    assert abs(lhs - bound) <= 1e-10 * max(1.0, bound)


def test_noise_expansion_identity_at_dp_scale():
    # noise drawn at the sigma * C scale used by the private optimizer
    rng = np.random.default_rng(15)
    for _ in range(100):
        b = rng.standard_normal((6, 3))
        a = rng.standard_normal((3, 10))
        sigma_c = 2.0
        xi_b = rng.normal(0.0, sigma_c, b.shape)
        xi_a = rng.normal(0.0, sigma_c, a.shape)
        assert expansion_residual(b, a, xi_b, xi_a) <= 1e-12
