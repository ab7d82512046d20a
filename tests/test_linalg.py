import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsvd import linalg, lora
from helpers import reference_rel_error


def check_svd_invariants(m, res, recon_tol=1e-9):
    u, s, vt = res
    k = min(m.shape)
    assert u.shape == (m.shape[0], k)
    assert vt.shape == (k, m.shape[1])
    assert s.shape == (k,)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0)
    assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-10
    recon = u @ np.diag(s) @ vt
    assert linalg.rel_frobenius_error(recon, m) <= recon_tol


def test_svd_identity():
    res = linalg.svd(np.eye(3))
    np.testing.assert_allclose(res.singular_values, [1.0, 1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(res.u @ res.vt, np.eye(3), atol=1e-12)


def test_svd_diagonal():
    res = linalg.svd(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(res.singular_values, [3.0, 2.0], atol=1e-14)
    check_svd_invariants(np.diag([3.0, 2.0]), res)


def test_svd_random_5x3_against_gram_eigensolver_oracle():
    # Oracle: singular values are square roots of the eigenvalues of M^T M,
    # computed with an independent symmetric eigensolver (LAPACK).
    rng = np.random.default_rng(42)
    m = rng.standard_normal((5, 3))
    res = linalg.svd(m)
    check_svd_invariants(m, res, recon_tol=1e-10)
    gram_eigs = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
    oracle = np.sqrt(np.clip(gram_eigs, 0.0, None))
    np.testing.assert_allclose(res.singular_values, oracle, rtol=1e-10)


@pytest.mark.parametrize("shape", [(1, 1), (2, 7), (7, 2), (6, 6), (17, 5), (4, 19)])
def test_svd_shapes_and_invariants(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    m = rng.standard_normal(shape)
    check_svd_invariants(m, linalg.svd(m), recon_tol=1e-12)


def test_svd_rank_deficient():
    rng = np.random.default_rng(3)
    m = np.outer(rng.standard_normal(6), rng.standard_normal(4))
    res = linalg.svd(m)
    check_svd_invariants(m, res, recon_tol=1e-12)
    assert np.all(res.singular_values[1:] == 0.0)


def test_svd_all_zero():
    res = linalg.svd(np.zeros((4, 3)))
    assert np.all(res.singular_values == 0.0)
    check_svd_invariants(np.zeros((4, 3)), res)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 4))
    r1 = linalg.svd(m)
    r2 = linalg.svd(-(-m))
    assert r1.u.tobytes() == r2.u.tobytes()
    assert r1.vt.tobytes() == r2.vt.tobytes()
    for k in range(r1.vt.shape[0]):
        row = r1.vt[k]
        assert row[int(np.argmax(np.abs(row)))] >= 0.0


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.nan, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        linalg.svd(np.ones(4))


# --- thin QR: numpy.linalg.qr, reduced by default ---


def test_qr_thin_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    for shape in [(5, 5), (9, 3), (4, 1)]:
        m = rng.standard_normal(shape)
        q, r = np.linalg.qr(m)
        assert np.max(np.abs(q.T @ q - np.eye(shape[1]))) <= 1e-12
        np.testing.assert_allclose(q @ r, m, atol=1e-12)
        assert np.allclose(r, np.triu(r))


def test_qr_thin_zero_column():
    m = np.zeros((5, 3))
    m[:, 2] = 1.0
    q, r = np.linalg.qr(m)
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12
    np.testing.assert_allclose(q @ r, m, atol=1e-12)


# --- lowrank_svd ---


def test_lowrank_svd_zero_b():
    res = linalg.lowrank_svd(np.zeros((6, 3)), np.ones((3, 8)))
    assert np.all(res.singular_values == 0.0)


def test_lowrank_svd_unit_outer_product():
    b = np.zeros((5, 1))
    b[0, 0] = 1.0
    a = np.zeros((1, 7))
    a[0, 0] = 1.0
    res = linalg.lowrank_svd(b, a)
    np.testing.assert_allclose(res.singular_values, [1.0], atol=1e-14)
    np.testing.assert_allclose(res.u @ np.diag(res.singular_values) @ res.vt, b @ a, atol=1e-12)


def test_lowrank_svd_matches_dense_oracle():
    # Oracle: dense SVD of the explicitly formed product.
    rng = np.random.default_rng(7)
    b = rng.standard_normal((8, 4))
    a = rng.standard_normal((4, 16))
    res = linalg.lowrank_svd(b, a)
    dense = linalg.svd(b @ a)
    np.testing.assert_allclose(res.singular_values, dense.singular_values[:4], rtol=1e-9)
    recon = res.u @ np.diag(res.singular_values) @ res.vt
    assert linalg.rel_frobenius_error(recon, b @ a) <= 1e-10
    assert np.max(np.abs(res.u.T @ res.u - np.eye(4))) <= 1e-10
    assert np.max(np.abs(res.vt @ res.vt.T - np.eye(4))) <= 1e-10


def test_lowrank_svd_agreement_property():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d_out = int(rng.integers(2, 30))
        d_in = int(rng.integers(2, 30))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        b = rng.standard_normal((d_out, r))
        a = rng.standard_normal((r, d_in))
        res = linalg.lowrank_svd(b, a)
        dense = linalg.svd(b @ a)
        for sv_fast, sv_dense in zip(res.singular_values, dense.singular_values):
            if sv_dense >= 1e-12 * dense.singular_values[0]:
                assert abs(sv_fast - sv_dense) <= 1e-9 * sv_dense


def test_lowrank_svd_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.lowrank_svd(np.ones((4, 3)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        linalg.lowrank_svd(np.ones((2, 3)), np.ones((3, 5)))  # r > d_out


def test_lowrank_svd_refuses_a_product_that_overflows():
    # finite factors whose r x r core overflows: a ValueError, not NaN factors
    b = np.full((4, 2), 1e200)
    b[0, 1] = -3e200
    a = np.full((2, 5), 1e200)
    a[1, 0] = 2e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            linalg.lowrank_svd(b, a)
        with pytest.raises(ValueError):
            lora.fedsvd_reparam(b, a)


# --- spectral norm (the largest singular value of svd) / condition number ---


def test_spectral_norm_identity_and_scaling():
    assert abs(linalg.svd(np.eye(4)).singular_values[0] - 1.0) <= 1e-12
    assert abs(linalg.svd(2.0 * np.eye(4)).singular_values[0] - 2.0) <= 1e-12


def test_spectral_norm_matches_svd_and_scales():
    # oracle: NumPy's matrix 2-norm
    rng = np.random.default_rng(23)
    m = rng.standard_normal((6, 9))
    top = linalg.svd(m).singular_values[0]
    assert abs(np.linalg.norm(m, 2) - top) <= 1e-12 * top
    c = -3.7
    assert abs(linalg.svd(c * m).singular_values[0] - abs(c) * top) <= 1e-12 * abs(c) * top


def test_condition_number_orthonormal_rows():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
    assert abs(linalg.condition_number(q.T) - 1.0) <= 1e-10


def test_condition_number_diagonal():
    assert abs(linalg.condition_number(np.diag([4.0, 1.0])) - 4.0) <= 1e-12


def test_condition_number_rank_one_and_zero():
    assert linalg.condition_number(np.outer(np.ones(3), np.ones(5))) == 1.0
    with pytest.raises(ValueError):
        linalg.condition_number(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        linalg.condition_number(np.eye(3), rank_tol=0.0)


def test_condition_number_kaiming_exceeds_one():
    # Random Kaiming-uniform 8x64 matrices are ill-conditioned with
    # overwhelming probability.
    bound = np.sqrt(3.0 / 64.0)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-bound, bound, size=(8, 64))
        assert linalg.condition_number(a) > 1.0 + 1e-6


def test_condition_number_scale_invariance():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((7, 5))
    k = linalg.condition_number(m)
    for c in [2.0, -0.125, 1e3]:
        assert abs(linalg.condition_number(c * m) - k) <= 1e-10 * k


def test_frobenius_scales_only_when_squares_overflow():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 4))
    assert linalg.frobenius(m) == math.sqrt(float(np.sum(m * m)))  # bit for bit
    for scale in (1e155, 1e160, 1e300):
        assert abs(linalg.frobenius(scale * m) / scale - linalg.frobenius(m)) <= 1e-14 * linalg.frobenius(m)
    assert linalg.frobenius(np.array([[np.inf, 1.0]])) == math.inf
    assert math.isnan(linalg.frobenius(np.array([[np.nan, 1e200]])))


# --- symmetric eigensolver: numpy.linalg.eigh, reversed to nonincreasing ---


def eigh_descending(m):
    w, v = np.linalg.eigh(m)
    return w[::-1], v[:, ::-1]


def test_eig_sym_identity():
    w, v = eigh_descending(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(v @ v.T, np.eye(2), atol=1e-12)


def test_eig_sym_analytic_2x2():
    w, v = eigh_descending(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)


def test_eig_sym_residual_and_order():
    rng = np.random.default_rng(13)
    for n in [1, 2, 5, 16, 32]:
        g = rng.standard_normal((n, n))
        m = (g + g.T) / 2.0
        w, v = eigh_descending(m)
        assert np.all(np.diff(w) <= 1e-12)
        for i in range(n):
            resid = m @ v[:, i] - w[i] * v[:, i]
            assert np.max(np.abs(resid)) <= 1e-8
        # oracle: independent LAPACK eigensolver
        np.testing.assert_allclose(w, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10)


def test_eig_sym_psd_congruence():
    # H = A M A^T is PSD whenever M is PSD; symmetrized as hessian_logreg does.
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.standard_normal((4, 9))
        g = rng.standard_normal((9, 9))
        m = g @ g.T
        h = a @ m @ a.T
        w, _ = eigh_descending((h + h.T) / 2.0)
        assert np.all(w >= -1e-10)


# --- generated inputs ---


@st.composite
def matrices(draw, square=False, tall=False):
    """Dense, rank-deficient (a product of thin factors) or all-zero matrices."""
    rows = draw(st.integers(1, 40))
    if square:
        cols = rows
    else:
        cols = draw(st.integers(1, rows if tall else 40))
    kind = draw(st.sampled_from(["dense", "low_rank", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    if kind == "zero":
        return np.zeros((rows, cols)), 0
    if kind == "low_rank":
        r = draw(st.integers(1, min(rows, cols)))
        return scale * (rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))), r
    return scale * rng.standard_normal((rows, cols)), min(rows, cols)


@settings(max_examples=200, deadline=None)
@given(case=matrices())
def test_svd_invariants_on_generated_matrices(case):
    m, rank_bound = case
    u, s, vt = linalg.svd(m)
    k = min(m.shape)
    assert u.shape == (m.shape[0], k) and s.shape == (k,) and vt.shape == (k, m.shape[1])
    assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
    assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-10
    assert linalg.rel_frobenius_error((u * s) @ vt, m) <= 1e-12
    assert np.all(np.diff(s) <= 0.0) and np.all(s >= 0.0)
    # rank flush: nothing survives in (0, cutoff], and a product of thin
    # factors keeps no more non-zero values than its inner dimension
    cutoff = max(m.shape) * np.finfo(np.float64).eps * s[0]
    assert np.all((s == 0.0) | (s > cutoff))
    assert np.count_nonzero(s) <= rank_bound
    # sign convention: the largest-magnitude entry of each row of vt is positive
    assert np.all(vt[np.arange(k), np.argmax(np.abs(vt), axis=1)] > 0.0)


@settings(max_examples=200, deadline=None)
@given(case=matrices(tall=True))
def test_qr_thin_invariants_on_generated_matrices(case):
    m, _ = case
    q, r = np.linalg.qr(m)
    cols = m.shape[1]
    assert q.shape == m.shape and r.shape == (cols, cols)
    assert np.max(np.abs(q.T @ q - np.eye(cols))) <= 1e-10
    assert linalg.rel_frobenius_error(q @ r, m) <= 1e-12
    assert np.array_equal(r, np.triu(r))


@settings(max_examples=200, deadline=None)
@given(case=matrices(square=True))
def test_eig_sym_matches_lapack_eigvalsh_on_generated_matrices(case):
    g, _ = case
    m = (g + g.T) / 2.0
    w, v = eigh_descending(m)
    n = m.shape[0]
    size = max(1.0, float(np.max(np.abs(m))))
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m)[::-1], rtol=0.0, atol=1e-12 * n * size)
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
    assert np.max(np.abs(m @ v - v * w)) <= 1e-12 * n * size


def test_svd_and_fedsvd_reparam_bitwise_deterministic():
    rng = np.random.default_rng(2024)
    inputs = [rng.standard_normal((32, 32)) for _ in range(4)]
    pairs = [(rng.standard_normal((32, 8)), rng.standard_normal((8, 64))) for _ in range(4)]

    def run_all():
        out = []
        for m in inputs:
            out.extend(x.tobytes() for x in linalg.svd(m))
        for b, a in pairs:
            out.extend(x.tobytes() for x in lora.fedsvd_reparam(b, a))
        return out

    reference = run_all()
    assert run_all() == reference
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: run_all(), range(8)))
    assert all(res == reference for res in results)


# --- relative Frobenius error: one scratch array, inputs never written ---


@st.composite
def recovery_shapes(draw):
    r = draw(st.integers(1, 16))
    return r, draw(st.integers(r, 256)), draw(st.integers(r, 256)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(shape=recovery_shapes(), zero=st.booleans())
@example(shape=(16, 16, 16, 0), zero=False)
@example(shape=(3, 3, 200, 1), zero=True)
@example(shape=(1, 1, 1, 2), zero=True)
def test_product_error_bit_for_bit_the_whole_array_formula(shape, zero):
    # verify's reparam_recovery row: the error of b_hat @ a_hat against
    # b @ a_prev, and against a zero target, where it is the absolute error
    r, d_out, d_in, seed = shape
    rng = np.random.default_rng(seed)
    b, a_prev = rng.standard_normal((d_out, r)), rng.standard_normal((r, d_in))
    b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
    target = np.zeros((d_out, d_in)) if zero else b @ a_prev
    inputs = [x.copy() for x in (b_hat, a_hat, target)]
    err = linalg.product_error(b_hat, a_hat, target)
    assert err == reference_rel_error(b_hat @ a_hat, target)
    assert linalg.rel_frobenius_error(b_hat @ a_hat, target) == err
    assert all(np.array_equal(x, y) for x, y in zip(inputs, (b_hat, a_hat, target)))


def test_rel_frobenius_error_rescales_when_squares_overflow():
    # at 1e160 the squares of the difference and of expected overflow, so
    # both norms are formed anew from the inputs and rescaled
    rng = np.random.default_rng(5)
    actual, expected = rng.standard_normal((6, 9)), rng.standard_normal((6, 9))
    b, a = rng.standard_normal((6, 3)), rng.standard_normal((3, 9))
    plain = linalg.rel_frobenius_error(actual, expected)
    plain_product = linalg.product_error(b, a, expected)
    big = [1e160 * x for x in (actual, expected, b)]
    before = [x.tobytes() for x in big]
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(big[0] * big[0])) and np.isinf(np.sum(big[1] * big[1]))
    assert abs(linalg.rel_frobenius_error(big[0], big[1]) - plain) <= 1e-14 * plain
    assert abs(linalg.product_error(big[2], a, big[1]) - plain_product) <= 1e-14 * plain_product
    assert [x.tobytes() for x in big] == before


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_verify_linalg_does_not_refault_its_product_arrays():
    # The recovery check held up to four (d_out, d_in) arrays at once; glibc
    # returned the heap top to the OS after every trial and the next trial
    # faulted it in again: 4,100-4,400 minor faults for these 40 seeds. With
    # the two product-sized arrays of product_error, 900-1,250; three arrays
    # (product_error copying its product) read about 1,950-2,150.
    script = """
import resource
from fedsvd import verify
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for s in range(40):
    verify.verify_linalg(1, s)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert int(proc.stdout) < 2000
