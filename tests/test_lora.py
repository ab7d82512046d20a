import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsvd import linalg, lora


def test_init_adapter_zero_product():
    a, b = lora.init_adapter(6, 10, 3, seed=0)
    assert np.all(b == 0.0)
    assert np.all(b @ a == 0.0)


def test_init_adapter_bound():
    a, _ = lora.init_adapter(4, 3, 2, seed=1)
    assert np.max(np.abs(a)) <= 1.0  # sqrt(3/3)


def test_init_adapter_variance():
    # Var of U(-sqrt(3/n), sqrt(3/n)) is 1/n; ~1e5 entries drawn through the
    # initializer itself.
    d_in, r = 48, 40
    rng = np.random.default_rng(123)
    samples = [lora.init_adapter(r, d_in, r, seed=rng)[0].ravel() for _ in range(53)]
    draws = np.concatenate(samples)
    assert draws.size >= 10**5
    assert abs(np.var(draws) - 1.0 / d_in) < 0.05 / d_in


def test_init_adapter_deterministic_and_validates():
    a1, b1 = lora.init_adapter(5, 7, 2, seed=99)
    a2, b2 = lora.init_adapter(5, 7, 2, seed=99)
    assert a1.tobytes() == a2.tobytes() and b1.tobytes() == b2.tobytes()
    with pytest.raises(ValueError):
        lora.init_adapter(5, 7, 0, seed=0)
    with pytest.raises(ValueError):
        lora.init_adapter(5, 7, 6, seed=0)


def test_fedsvd_reparam_zero_b_keeps_basis():
    a_prev = np.random.default_rng(0).standard_normal((3, 9))
    b = np.zeros((5, 3))
    b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
    assert np.all(b_hat == 0.0)
    np.testing.assert_array_equal(a_hat, a_prev)


def test_fedsvd_reparam_huge_b_is_not_degenerate():
    # |b|_F is about 1e161: its plain sum of squares overflows, which must not
    # read as a zero product and reset b
    rng = np.random.default_rng(3)
    b = 1e160 * rng.standard_normal((6, 3))
    a_prev, _ = lora.orthonormal_init(6, 9, 3, rng)
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(b * b))
    assert np.isfinite(linalg.frobenius(b))
    b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
    assert linalg.rel_frobenius_error((b_hat @ a_hat) / 1e160, (b / 1e160) @ a_prev) < 1e-12
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(3))) < 1e-10


def test_fedsvd_reparam_idempotent_up_to_sign():
    rng = np.random.default_rng(4)
    q_u, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    q_v, _ = np.linalg.qr(rng.standard_normal((11, 3)))
    sigma = np.array([5.0, 2.0, 0.5])
    b = q_u * sigma[None, :]
    a_prev = q_v.T
    b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
    assert linalg.rel_frobenius_error(b_hat @ a_hat, b @ a_prev) < 1e-12
    assert np.max(np.abs(np.abs(a_hat) - np.abs(a_prev))) < 1e-10


def test_fedsvd_reparam_random_exact_recovery():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((16, 8))
    a_prev = rng.standard_normal((8, 32))
    b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
    assert linalg.rel_frobenius_error(b_hat @ a_hat, b @ a_prev) < 1e-10
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(8))) < 1e-10
    assert abs(linalg.svd(a_hat).singular_values[0] - 1.0) <= 1e-10
    assert abs(linalg.condition_number(a_hat) - 1.0) <= 1e-10


def test_reparam_value_invariance_property():
    rng = np.random.default_rng(21)
    for _ in range(40):
        d_out = int(rng.integers(2, 24))
        d_in = int(rng.integers(2, 24))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        b = rng.standard_normal((d_out, r))
        a_prev = rng.standard_normal((r, d_in))
        b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
        assert linalg.rel_frobenius_error(b_hat @ a_hat, b @ a_prev) < 1e-10
        assert np.max(np.abs(a_hat @ a_hat.T - np.eye(r))) < 1e-10


def test_nonorthonormal_matches_fedsvd_for_unit_spectrum():
    rng = np.random.default_rng(14)
    q_u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    q_v, _ = np.linalg.qr(rng.standard_normal((9, 2)))
    b, a_prev = q_u, q_v.T  # all singular values exactly 1
    b1, a1 = lora.fedsvd_reparam(b, a_prev)
    b2, a2 = lora.nonorthonormal_reparam(b, a_prev)
    np.testing.assert_allclose(b1, b2, atol=1e-12)
    np.testing.assert_allclose(a1, a2, atol=1e-12)


def test_nonorthonormal_rank_one_row_norm():
    u = np.zeros((4, 1))
    u[1, 0] = 1.0
    v = np.zeros((1, 6))
    v[0, 2] = 1.0
    b = 4.0 * u  # sigma_1 = 4
    _, a_hat = lora.nonorthonormal_reparam(b, v)
    assert abs(np.linalg.norm(a_hat[0]) - 2.0) < 1e-12


def test_nonorthonormal_condition_number_sqrt_spectrum():
    rng = np.random.default_rng(30)
    b = rng.standard_normal((10, 4))
    a_prev = rng.standard_normal((4, 12))
    b_hat, a_hat = lora.nonorthonormal_reparam(b, a_prev)
    assert linalg.rel_frobenius_error(b_hat @ a_hat, b @ a_prev) < 1e-10
    s = linalg.lowrank_svd(b, a_prev).singular_values
    expected = np.sqrt(s[0] / s[-1])
    assert abs(linalg.condition_number(a_hat) - expected) <= 1e-8 * expected


def test_pissa_full_capture_when_rank_suffices():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 9))
    a, b, residual = lora.pissa_init(w0, 3)
    assert linalg.frobenius(residual) < 1e-10 * linalg.frobenius(w0)
    assert linalg.rel_frobenius_error(b @ a, w0) < 1e-9


def test_pissa_identity_spectrum_split():
    n, r = 6, 2
    a, b, residual = lora.pissa_init(np.eye(n), r)
    assert abs(linalg.frobenius(b @ a) - np.sqrt(r)) < 1e-10
    assert abs(linalg.frobenius(residual) - np.sqrt(n - r)) < 1e-10


def test_pissa_reconstruction_identity():
    rng = np.random.default_rng(77)
    w0 = rng.standard_normal((12, 20))
    a, b, residual = lora.pissa_init(w0, 4)
    assert linalg.rel_frobenius_error(residual + b @ a, w0) < 1e-9


def test_pissa_identity_holds_over_many_draws():
    rng = np.random.default_rng(55)
    for _ in range(100):
        d_out = int(rng.integers(2, 16))
        d_in = int(rng.integers(2, 16))
        r = int(rng.integers(1, min(d_out, d_in) + 1))
        w0 = rng.standard_normal((d_out, d_in))
        a, b, residual = lora.pissa_init(w0, r)
        assert linalg.rel_frobenius_error(residual + b @ a, w0) < 1e-9


def test_effective_weight():
    rng = np.random.default_rng(6)
    w0 = rng.standard_normal((4, 5))
    a = rng.standard_normal((2, 5))
    b = rng.standard_normal((4, 2))
    layer = lora.LoraLayer(w0=w0, a=a, b=np.zeros((4, 2)), scale=1.0)
    np.testing.assert_array_equal(lora.effective_weight(layer), w0)
    layer = lora.LoraLayer(w0=w0, a=a, b=b, scale=1.0)
    np.testing.assert_allclose(lora.effective_weight(layer), w0 + b @ a, atol=1e-14)


def test_effective_weight_invariant_under_reparam():
    rng = np.random.default_rng(9)
    w0 = rng.standard_normal((6, 10))
    a = rng.standard_normal((3, 10))
    b = rng.standard_normal((6, 3))
    layer = lora.LoraLayer(w0=w0, a=a, b=b, scale=2.0)
    before = lora.effective_weight(layer)
    b_hat, a_hat = lora.fedsvd_reparam(b, a)
    after = lora.effective_weight(layer.with_adapters(a=a_hat, b=b_hat))
    assert linalg.rel_frobenius_error(after, before) < 1e-10


def test_lora_layer_validation():
    w0 = np.zeros((3, 4))
    with pytest.raises(ValueError):
        lora.LoraLayer(w0=w0, a=np.zeros((4, 4)), b=np.zeros((3, 4)), scale=1.0)
    with pytest.raises(ValueError):
        lora.LoraLayer(w0=w0, a=np.zeros((2, 3)), b=np.zeros((3, 2)), scale=1.0)


def test_orthonormal_init():
    a, b = lora.orthonormal_init(5, 9, 3, seed=3)
    assert np.max(np.abs(a @ a.T - np.eye(3))) < 1e-12
    assert np.all(b == 0.0)


@st.composite
def reparam_inputs(draw):
    """(b, a_prev) with b dense, rank-deficient, near-degenerate or zero."""
    r = draw(st.integers(1, 8))
    d_out = draw(st.integers(r, 24))
    d_in = draw(st.integers(r, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a_prev = rng.standard_normal((r, d_in))
    else:
        a_prev, _ = lora.orthonormal_init(d_out, d_in, r, rng)
    kind = draw(st.sampled_from(["dense", "rank_deficient", "repeated", "close", "tiny", "zero"]))
    if kind == "zero":
        return np.zeros((d_out, r)), a_prev
    if kind == "rank_deficient":
        inner = draw(st.integers(1, r))
        return rng.standard_normal((d_out, inner)) @ rng.standard_normal((inner, r)), a_prev
    if kind in ("repeated", "close"):
        # singular values of b equal, or equal up to a relative 1e-12
        q, _ = np.linalg.qr(rng.standard_normal((d_out, r)))
        sigma = np.full(r, 3.0)
        if kind == "close":
            sigma[1:] *= 1.0 - 1e-12 * np.arange(1, r)
        return q * sigma[None, :], a_prev
    scale = 10.0 ** draw(st.integers(-16, -9)) if kind == "tiny" else 1.0
    return scale * rng.standard_normal((d_out, r)), a_prev


@settings(max_examples=200, deadline=None)
@given(case=reparam_inputs(), orthonormal=st.booleans())
def test_reparam_properties_on_generated_inputs(case, orthonormal):
    b, a_prev = case
    op = lora.fedsvd_reparam if orthonormal else lora.nonorthonormal_reparam
    b_hat, a_hat = op(b, a_prev)
    assert b_hat.shape == b.shape and a_hat.shape == a_prev.shape
    target = b @ a_prev
    if not b_hat.any():
        # degenerate branch: previous basis kept, b reset to zero
        assert np.array_equal(a_hat, a_prev)
        sigma_max = np.linalg.norm(target, 2)
        assert sigma_max <= 2 * lora.DEGENERATE_SIGMA_TOL * max(1.0, linalg.frobenius(b))
        return
    assert linalg.rel_frobenius_error(b_hat @ a_hat, target) <= 1e-10
    if orthonormal:
        assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) <= 1e-10
