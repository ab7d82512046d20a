import functools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import lfilter
from scipy.special import logsumexp, ndtr

from fedsvd import config, federation, lora, model, privacy
from helpers import clip_gradient, global_grad_norm, outer_products


def oracle_rdp_subsampled(q, sigma, alpha, prec=256):
    """Extended-precision evaluation of the subsampled-Gaussian RDP sum."""
    with mpmath.workprec(prec):
        q = mpmath.mpf(q)
        sigma = mpmath.mpf(sigma)
        total = mpmath.mpf(0)
        for k in range(alpha + 1):
            total += (
                mpmath.binomial(alpha, k)
                * (1 - q) ** (alpha - k)
                * q**k
                * mpmath.e ** (k * (k - 1) / (2 * sigma**2))
            )
        return float(mpmath.log(total) / (alpha - 1))


@functools.lru_cache(maxsize=None)
def log_comb_row(alpha):
    """log(math.comb(alpha, k)) for k = 0..alpha, one order at a time."""
    return np.array([math.log(math.comb(alpha, k)) for k in range(alpha + 1)])


def loop_rdp_subsampled_gaussian(q, sigma, orders=privacy.DEFAULT_ORDERS):
    """Per-order loop evaluation of the subsampled-Gaussian RDP.

    The former implementation of rdp_subsampled_gaussian, kept as the
    reference for the vectorized one: the same log-space terms, with the
    exact coefficients log(math.comb(alpha, k)), one logsumexp per order.
    """
    alphas = np.asarray(orders, dtype=np.float64)
    if q == 1.0:
        return alphas / (2.0 * sigma * sigma)
    out = np.empty(len(alphas))
    logq = math.log(q)
    log1mq = math.log1p(-q)
    for i, alpha in enumerate(alphas.astype(int).tolist()):
        k = np.arange(alpha + 1)
        log_terms = (
            log_comb_row(alpha)
            + k * logq
            + (alpha - k) * log1mq
            + k * (k - 1) / (2.0 * sigma * sigma)
        )
        out[i] = logsumexp(log_terms) / (alpha - 1)
    return out


ORDER_LISTS = (
    privacy.DEFAULT_ORDERS,
    (7,),
    tuple(range(2, 513)),
    (256, 3, 64, 2, 512, 17, 5),
)


@functools.lru_cache(maxsize=None)
def log_factorial(n):
    with mpmath.workprec(128):
        return mpmath.loggamma(n + 1)


@functools.lru_cache(maxsize=None)
def exact_log_comb_row(alpha):
    """log C(alpha, k), k = 0..alpha, from 128-bit log-gamma values, as the
    float nearest it plus the float nearest the remainder."""
    with mpmath.workprec(128):
        lg = [log_factorial(n) for n in range(alpha + 1)]
        exact = [lg[alpha] - lg[k] - lg[alpha - k] for k in range(alpha + 1)]
        hi = [float(x) for x in exact]
        return np.array(hi), np.array([float(x - h) for x, h in zip(exact, hi)])


def test_binomial_table_within_one_ulp_of_extended_precision():
    # the table holds each order's run k = 0..a in the order given
    for orders in ORDER_LISTS:
        alphas, sizes, starts, k, alpha, log_comb = privacy._binomial_table(orders)
        assert alphas.dtype == np.float64 and alphas.tolist() == list(orders)
        assert sizes.tolist() == [a + 1 for a in orders]
        for a, start in zip(orders, starts.tolist()):
            run = slice(start, start + a + 1)
            assert k[run].tolist() == list(range(a + 1))
            assert np.all(alpha[run] == a)
            hi, lo = exact_log_comb_row(a)
            got = log_comb[run]
            # got - hi is exact (Sterbenz), so this is |got - log C| up to
            # roundoff far below an ulp
            assert np.all(np.abs((got - hi) - lo) <= np.spacing(np.abs(got))), a


def test_rdp_orders_as_tuple_list_or_float_array_share_one_table():
    # cmd_calibrate and verify_privacy pass float64 arrays
    privacy._binomial_table.cache_clear()
    orders = (3, 40, 9, 128)
    forms = (orders, list(orders), np.asarray(orders, dtype=np.float64))
    results = [privacy.rdp_subsampled_gaussian(0.03, 1.3, form) for form in forms]
    assert all(r.tobytes() == results[0].tobytes() for r in results)
    info = privacy._binomial_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize("invalid", [(1,), (2.5,), (0,), (1, 2.5, 0), (3, 40, 1), (3, 2.5)])
def test_rdp_invalid_orders_raise_in_every_form_after_a_valid_call(invalid):
    # the order check runs once per cache key, and an invalid key is never cached
    privacy._binomial_table.cache_clear()
    valid = (3, 40, 9, 128)
    for form in (valid, list(valid), np.asarray(valid, dtype=np.float64)):
        privacy.rdp_subsampled_gaussian(0.03, 1.3, form)
    for form in (invalid, list(invalid), np.asarray(invalid, dtype=np.float64)):
        for q in (0.03, 1.0):
            with pytest.raises(ValueError, match="orders must be integers greater than 1"):
                privacy.rdp_subsampled_gaussian(q, 1.3, form)
    assert privacy._binomial_table.cache_info().currsize == 1


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(0.005, 1.0, exclude_max=True),
    sigma=st.floats(0.3, 4.0),
    orders=st.sampled_from(ORDER_LISTS),
)
def test_rdp_vectorized_matches_per_order_loop(q, sigma, orders):
    got = privacy.rdp_subsampled_gaussian(q, sigma, orders)
    want = loop_rdp_subsampled_gaussian(q, sigma, orders)
    assert got.shape == want.shape == (len(orders),)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(1e-6, 1.0, exclude_max=True),
    sigma=st.floats(*privacy.SIGMA_BRACKET),
    orders=st.sampled_from(ORDER_LISTS),
)
def test_rdp_vectorized_matches_loop_across_calibration_bracket(q, sigma, orders):
    # With small q and large sigma the RDP is a tiny difference of O(alpha q)
    # log terms, so both evaluations carry roundoff on that scale rather than
    # relative to the result; errors are taken against max(1, |RDP|) as in the
    # extended-precision oracle tests.
    got = privacy.rdp_subsampled_gaussian(q, sigma, orders)
    want = loop_rdp_subsampled_gaussian(q, sigma, orders)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# Client shard sizes of configs/headline.ini at seed 0; q = batch_size / n_k.
HEADLINE_SHARDS = (897, 1059, 1655, 1368, 732, 289)


def test_calibrate_sigma_identical_to_per_order_loop(monkeypatch):
    grid = [(6.0, 32 / n, 1000) for n in HEADLINE_SHARDS]
    grid += [(2.0, 0.005, 300), (2.0, 0.3, 300), (10.0, 0.9, 2000), (1.0, 0.05, 50)]
    vectorized = [privacy.calibrate_sigma(eps, 1e-5, q, t) for eps, q, t in grid]
    monkeypatch.setattr(privacy, "rdp_subsampled_gaussian", loop_rdp_subsampled_gaussian)
    looped = [privacy.calibrate_sigma(eps, 1e-5, q, t) for eps, q, t in grid]
    assert vectorized == looped


def test_rdp_gaussian_closed_form():
    rdp = privacy.rdp_subsampled_gaussian(1.0, 1.0, orders=[2])
    assert rdp[0] == 1.0  # alpha / (2 sigma^2) exactly


def test_rdp_q_one_matches_closed_form_all_orders():
    orders = privacy.DEFAULT_ORDERS
    for sigma in [0.5, 1.0, 4.0]:
        rdp = privacy.rdp_subsampled_gaussian(1.0, sigma, orders)
        expected = np.asarray(orders) / (2.0 * sigma**2)
        np.testing.assert_allclose(rdp, expected, rtol=1e-15)


def test_rdp_vanishes_as_q_vanishes():
    # Vanishing sampling rate -> vanishing privacy loss, on the order range
    # where the top binomial term q^a * exp(a(a-1)/2 sigma^2) stays subdominant
    # (a(a-1)/2sigma^2 < a ln(1/q)); beyond it the subsampled-Gaussian RDP
    # genuinely blows up, which the oracle cross-check below confirms.
    rdp = privacy.rdp_subsampled_gaussian(1e-9, 1.0, list(range(2, 33)))
    assert np.all(rdp < 1e-6)
    assert np.all(rdp >= 0.0)
    rdp_all = privacy.rdp_subsampled_gaussian(1e-9, 3.0, privacy.DEFAULT_ORDERS)
    assert np.all(rdp_all < 1e-6)
    # high order, small sigma: dominated by the k = alpha term
    blowup = privacy.rdp_subsampled_gaussian(1e-9, 1.0, [256])[0]
    assert abs(blowup - oracle_rdp_subsampled(1e-9, 1.0, 256, prec=1024)) < 1e-9


def test_rdp_matches_extended_precision_oracle():
    q, sigma = 0.01, 1.0
    orders = list(range(2, 65))
    rdp = privacy.rdp_subsampled_gaussian(q, sigma, orders)
    for i, alpha in enumerate(orders):
        oracle = oracle_rdp_subsampled(q, sigma, alpha)
        assert abs(rdp[i] - oracle) <= 1e-12 * max(1.0, abs(oracle)) + 1e-14


def test_rdp_oracle_agreement_other_regimes():
    for q, sigma in [(0.5, 0.8), (0.064, 1.1), (0.9, 2.0)]:
        for alpha in [2, 7, 32, 128]:
            got = privacy.rdp_subsampled_gaussian(q, sigma, [alpha])[0]
            want = oracle_rdp_subsampled(q, sigma, alpha)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_rdp_sigma_zero_signalled():
    with pytest.raises(ValueError):
        privacy.rdp_subsampled_gaussian(0.5, 0.0, [2])
    with pytest.raises(ValueError):
        privacy.rdp_subsampled_gaussian(0.0, 1.0, [2])
    with pytest.raises(ValueError):
        privacy.rdp_subsampled_gaussian(0.5, 1.0, [1])


def test_epsilon_from_rdp_single_gaussian_step_exhaustive_scan():
    # eps = min_alpha(alpha / 50 + log(1e5) / (alpha - 1)) for q=1, sigma=5.
    orders = range(2, 513)
    eps, best = privacy.epsilon_from_rdp(
        orders, privacy.rdp_subsampled_gaussian(1.0, 5.0, orders), 1e-5
    )
    alphas = np.arange(2, 513, dtype=float)
    scan = alphas / 50.0 + math.log(1e5) / (alphas - 1.0)
    assert abs(eps - scan.min()) < 1e-12
    assert best == alphas[np.argmin(scan)]


def test_epsilon_from_rdp_leading_axes_convert_each_row():
    # a (rounds, clients, orders) stack converts as the one-order-axis calls
    orders = privacy.DEFAULT_ORDERS
    rdp = np.arange(4)[:, None, None] * np.stack(
        [privacy.rdp_subsampled_gaussian(q, s) for q, s in [(0.02, 0.9), (0.1, 1.7), (1.0, 4.0)]]
    )
    eps, best = privacy.epsilon_from_rdp(orders, rdp, 1e-5)
    assert eps.shape == best.shape == (4, 3)
    for r in range(4):
        for k in range(3):
            assert (eps[r, k], best[r, k]) == privacy.epsilon_from_rdp(orders, rdp[r, k], 1e-5)


def test_epsilon_monotone_in_steps():
    e1 = privacy.spent_epsilon(0.05, 1.0, 100, 1e-5)
    e2 = privacy.spent_epsilon(0.05, 1.0, 200, 1e-5)
    assert e2 > e1


def test_epsilon_monotonicity_grids():
    deltas = 1e-5
    sigmas = [0.6, 0.9, 1.4, 2.2, 3.5]
    steps = [50, 150, 400, 1000, 2500]
    qs = [0.005, 0.02, 0.06, 0.2, 0.7]
    # decreasing in sigma
    for t in steps[:2]:
        for q in qs[:3]:
            es = [privacy.spent_epsilon(q, s, t, deltas) for s in sigmas]
            assert all(a > b for a, b in zip(es, es[1:]))
    # increasing in steps
    for q in qs[:3]:
        es = [privacy.spent_epsilon(q, 1.0, t, deltas) for t in steps]
        assert all(a < b for a, b in zip(es, es[1:]))
    # nondecreasing in q
    for t in steps[:3]:
        es = [privacy.spent_epsilon(q, 1.0, t, deltas) for q in qs]
        assert all(a <= b + 1e-15 for a, b in zip(es, es[1:]))


def test_calibrate_sigma_huge_target_returns_bracket_floor():
    assert privacy.calibrate_sigma(1e6, 1e-5, 0.02, 100) == privacy.SIGMA_BRACKET[0]


def test_calibrate_sigma_monotone_in_target():
    s3 = privacy.calibrate_sigma(3.0, 1e-5, 0.02, 1000)
    s6 = privacy.calibrate_sigma(6.0, 1e-5, 0.02, 1000)
    assert s3 >= s6


def test_calibrate_sigma_regression_pin_and_oracle_recheck():
    # Frozen from this implementation's converged search; the spent epsilon
    # is re-derived through the extended-precision RDP oracle.
    sigma = privacy.calibrate_sigma(6.0, 1e-5, 0.02, 1000)
    assert abs(sigma - 0.9184150695800781) < 2e-3
    spent = privacy.spent_epsilon(0.02, sigma, 1000, 1e-5)
    assert 0.99 * 6.0 < spent <= 6.0
    orders = list(privacy.DEFAULT_ORDERS)
    oracle_rdp = np.array([oracle_rdp_subsampled(0.02, sigma, a) for a in orders])
    oracle_eps, _ = privacy.epsilon_from_rdp(orders, 1000 * oracle_rdp, 1e-5)
    assert abs(oracle_eps - spent) < 1e-9


def test_calibrate_sigma_spent_epsilon_in_band():
    for eps_target, q, t in [(6.0, 0.064, 1000), (2.0, 0.02, 500), (10.0, 0.1, 2000)]:
        sigma = privacy.calibrate_sigma(eps_target, 1e-5, q, t)
        spent = privacy.spent_epsilon(q, sigma, t, 1e-5)
        assert 0.99 * eps_target < spent <= eps_target


def test_calibrate_sigma_unreachable_target():
    with pytest.raises(privacy.CalibrationError):
        privacy.calibrate_sigma(1e-4, 1e-5, 1.0, 10**6)


# --- clipping and the DP-SGD step ---
# The step runs on one client's row of a flat_buffer; the oracle is the
# per-example clip_gradient of tests/helpers.py on the outer products.


def test_clip_gradient_under_threshold_unchanged():
    g = np.zeros((2, 2))
    g[0, 0] = 1.0
    out = clip_gradient(g, 2.0)
    np.testing.assert_array_equal(out, g)


def test_clip_gradient_scales_to_bound():
    g = np.full((2, 2), 2.0)  # norm 4
    out = clip_gradient(g, 2.0)
    np.testing.assert_allclose(out, g / 2.0)
    assert abs(global_grad_norm(out) - 2.0) < 1e-12


def test_clip_gradient_zero_and_idempotent():
    assert np.all(clip_gradient(np.zeros((3, 3)), 1.0) == 0.0)
    rng = np.random.default_rng(0)
    g = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 2))}
    once = clip_gradient(g, 0.5)
    twice = clip_gradient(once, 0.5)
    for k in g:
        np.testing.assert_allclose(once[k], twice[k], atol=1e-15)
    assert global_grad_norm(once) <= 0.5 + 1e-12


def test_clip_gradient_global_across_matrices():
    g = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}  # global norm 5
    out = clip_gradient(g, 1.0)
    assert abs(global_grad_norm(out) - 1.0) < 1e-12
    np.testing.assert_allclose(out["a"], [[0.6]])


def test_dp_sgd_step_degenerate_equals_vanilla_sgd():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 4))
    u, v = rng.standard_normal((8, 3)), rng.standard_normal((8, 4))
    expected = w - 0.5 * outer_products({"w": (u, v)})["w"].mean(axis=0)
    # no noise and a bound no example reaches, then clipping disabled outright
    for clip in (1e12, np.inf):
        theta, views = privacy.flat_buffer({"w": w}, 1)
        privacy.dp_sgd_step_flat(
            theta, views, {"w": (u[None], v[None])}, clip, [None],
            0.5, [np.random.default_rng(0)], np.array([8]),
        )
        np.testing.assert_allclose(views["w"][0], expected, atol=1e-12)


def test_dp_sgd_step_noise_scale_monte_carlo():
    # all gradients zero: the update is pure noise with std sigma * C / m.
    m, sigma, clip = 4, 1.0, 2.0
    theta, views = privacy.flat_buffer({"w": np.zeros((250, 400))}, 1)  # 1e5 coordinates
    factors = {"w": (np.zeros((1, m, 250)), np.zeros((1, m, 400)))}
    privacy.dp_sgd_step_flat(
        theta, views, factors, clip, [sigma * clip],
        1.0, [np.random.default_rng(42)], np.array([m]),
    )
    draws = -views["w"].ravel()  # lr = 1
    expected_std = sigma * clip / m
    assert abs(draws.std() - expected_std) / expected_std < 0.02
    assert abs(draws.mean()) < 3 * expected_std / np.sqrt(draws.size)


def test_dp_sgd_step_single_clipped_example():
    # gradient [[4, 0], [0, 0]]: norm 4 = 2C for C = 2
    factors = {"w": (np.array([[[4.0, 0.0]]]), np.array([[[1.0, 0.0]]]))}
    theta, views = privacy.flat_buffer({"w": np.zeros((2, 2))}, 1)
    privacy.dp_sgd_step_flat(
        theta, views, factors, 2.0, [None],
        0.1, [np.random.default_rng(0)], np.array([1]),
    )
    expected = np.zeros((2, 2))
    expected[0, 0] = -0.1 * 2.0  # -lr * clipped gradient (direction * C)
    np.testing.assert_allclose(views["w"][0], expected, atol=1e-14)


def test_dp_sgd_step_only_touches_trainable():
    # factors of a key outside the buffer (a frozen matrix) are ignored:
    # they are not stepped and draw no noise
    rng = np.random.default_rng(2)
    b = rng.standard_normal((2, 2))
    ones = np.ones((1, 3, 2))
    theta, views = privacy.flat_buffer({"b": b}, 1)
    step_rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    privacy.dp_sgd_step_flat(
        theta, views, {"a": (ones, ones), "b": (ones, ones)},
        2.0, [2.0], 0.5, [step_rng], np.array([3]),  # sigma 1 at C = 2
    )
    assert theta.shape == (1, b.size)
    assert not np.array_equal(views["b"][0], b)
    twin.standard_normal(b.size)  # the one noise block, for b alone
    assert step_rng.random() == twin.random()


def test_dp_sgd_step_clipped_sum_matches_per_example_clipping():
    # The vectorized batch path must agree exactly with clipping each
    # example's gradient dict separately and summing.
    rng = np.random.default_rng(3)
    m = 6
    factors = {
        "a": (rng.standard_normal((m, 2)) * 3, rng.standard_normal((m, 3))),
        "b": (rng.standard_normal((m, 4)) * 3, rng.standard_normal((m, 1))),
    }
    grads = outer_products(factors)
    theta, views = privacy.flat_buffer({"a": np.zeros((2, 3)), "b": np.zeros((4, 1))}, 1)
    privacy.dp_sgd_step_flat(
        theta, views, {k: (u[None], v[None]) for k, (u, v) in factors.items()},
        1.5, [None], 1.0, [rng], np.array([m]),
    )
    manual = {k: np.zeros(g.shape[1:]) for k, g in grads.items()}
    for i in range(m):
        clipped = clip_gradient({k: grads[k][i] for k in grads}, 1.5)
        for k in manual:
            manual[k] += clipped[k]
    for k in manual:
        np.testing.assert_allclose(views[k][0], -manual[k] / m, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    layers=st.sampled_from([1, 2]),
    rank=st.integers(1, 4),
    trains_a=st.booleans(),
    batch=st.integers(1, 6),
    clip_scale=st.sampled_from([1e-3, 0.5, 1e6]),  # all clipped, mixed, none clipped
    zero_example=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_clipped_sum_matches_per_example_clipping(
    layers, rank, trains_a, batch, clip_scale, zero_example, seed
):
    rng = np.random.default_rng(seed)
    d, classes = 6, 4
    dims = [d] if layers == 1 else [d, 5]
    clf = model.build_classifier(model.random_dense_weights(dims, classes, rng), rank, 4.0, rng, classes)
    # non-zero b, so the gradients of a do not vanish
    clf = model.Classifier([layer.with_adapters(b=rng.standard_normal(layer.b.shape)) for layer in clf.layers])
    x = rng.standard_normal((batch, d))
    if zero_example:
        x[0] = 0.0  # every adapter gradient of this example is zero
    y = rng.integers(0, classes, batch)
    params = model.adapter_params(clf.layers)
    trainable = {key for key in params if trains_a or key[1] == "b"}
    factors = model.grad_factors(clf.layers, params, x, np.eye(classes)[y], trainable)
    assert set(factors) == set(trainable)
    grads = outer_products(factors)
    examples = [{k: grads[k][n] for k in trainable} for n in range(batch)]
    norms = [global_grad_norm(g) for g in examples]
    if zero_example:
        assert norms[0] == 0.0
    clip = clip_scale * max(norms) if max(norms) > 0.0 else 1.0
    want = {k: sum(clip_gradient(g, clip)[k] for g in examples) for k in trainable}

    theta, views = privacy.flat_buffer({k: np.zeros_like(params[k]) for k in trainable}, 1)
    privacy.dp_sgd_step_flat(
        theta, views, {k: (u[None], v[None]) for k, (u, v) in factors.items()},
        clip, [None], 1.0, [np.random.default_rng(0)], np.array([batch]),
    )
    for k in trainable:
        got = -batch * views[k][0]
        assert np.linalg.norm(got - want[k]) <= 1e-12 * np.linalg.norm(want[k])



class _FixedNormal:
    """A generator stand-in whose one standard_normal draw is `values`."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, size):
        assert size == self.values.size
        return self.values.ravel().copy()


def test_dp_sgd_step_commutes_with_a_rotation_of_b():
    # (b R^T, R a) carries the weight of (b, a), its per-example gradients in
    # b are those of (b, a) times R^T and keep their norms, so one clipped
    # step with noise z R^T is the step with noise z, rotated: plain DP-SGD
    # cannot see a refactorization that turns a inside its span
    rng = np.random.default_rng(11)
    c, d, r, m = 4, 6, 3, 8
    w0, a, b = rng.standard_normal((c, d)), rng.standard_normal((r, d)), rng.standard_normal((c, r))
    rot = np.linalg.qr(rng.standard_normal((r, r)))[0]
    x, targets = rng.standard_normal((1, m, d)), np.eye(c)[rng.integers(0, c, (1, m))]
    z = rng.standard_normal((c, r))

    def step(a, b, noise, clip):
        layer = lora.LoraLayer(w0=w0, a=a, b=b, scale=1.0)
        theta, views = privacy.flat_buffer({(0, "b"): b}, 1)
        factors = model.grad_factors([layer], {(0, "a"): a, **views}, x, targets, [(0, "b")])
        u, v = factors[0, "b"]
        norms = np.sqrt(np.vecdot(u, u) * np.vecdot(v, v))[0]
        privacy.dp_sgd_step_flat(theta, views, factors, clip, [0.7], 0.3, [_FixedNormal(noise)], np.array([m]))
        return views[0, "b"][0], norms

    _, norms = step(a, b, z, np.inf)
    clip = float(np.median(norms))  # about half the examples are clipped
    plain, _ = step(a, b, z, clip)
    turned, turned_norms = step(rot @ a, b @ rot.T, z @ rot.T, clip)
    np.testing.assert_allclose(turned_norms, norms, rtol=1e-12)
    assert np.any(norms > clip) and np.any(norms < clip)
    assert np.linalg.norm(turned - plain @ rot.T) <= 1e-12 * np.linalg.norm(plain)


# --- an independent accountant: the privacy loss distribution (PLD) ---


def _step_loss(q, sigma, x):
    """One step's privacy loss log((1 - q) + q exp((2x - 1) / 2 sigma^2)) at x:
    the subsampled Gaussian (1 - q) N(0, sigma^2) + q N(1, sigma^2) against
    N(0, sigma^2), increasing in x."""
    return np.logaddexp(math.log1p(-q) if q < 1 else -np.inf, math.log(q) + (2 * x - 1) / (2 * sigma * sigma))


def _step_loss_cdf(q, sigma, remove, ell):
    """P(L <= ell) for one step's loss L in one adjacency direction. Remove:
    X from the subsampled Gaussian and L = loss(X); add: X from N(0, sigma^2)
    and L = -loss(X). The loss inverts in closed form."""
    m = ell if remove else -ell
    inner = np.expm1(m) + q  # exp(m) - (1 - q), positive where m is a loss value
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(inner > 0, sigma * sigma * (np.log(inner) - math.log(q)) + 0.5, -np.inf)
    if remove:
        return (1 - q) * ndtr(x / sigma) + q * ndtr((x - 1) / sigma)
    return ndtr(-x / sigma)


def _epsilon_of_pld(losses, pmf, delta, width):
    """Smallest eps >= 0 with excess(eps) = sum over losses l > eps of
    p_l (1 - e^(eps - l)) <= delta, for losses on a grid of step `width`.
    The excess falls as eps grows. At a grid loss l_k it is the mass above
    l_k less c_k = sum over i > k of p_i e^-(i - k) width, and c_k = e^-width
    (p_(k+1) + c_(k+1)) is one linear filter over the reversed masses. On
    [l_(k-1), l_k] the excess is a - e^eps b, a and b the sums of p_i and
    p_i e^-l_i over i >= k, so eps solves in closed form."""
    if delta <= 0:
        return math.inf
    decay = math.exp(-width)
    above = np.cumsum(pmf[::-1])[::-1] - pmf
    damped = lfilter([0.0, decay], [1.0, -decay], pmf[::-1])[::-1]
    met = (losses >= 0) & (above - damped <= delta)
    k = int(np.argmax(met))  # the first grid loss >= 0 where the excess is met
    if k == 0 or losses[k - 1] < 0:
        return 0.0  # met at eps = 0 already
    tail, top = pmf[k:], losses[k]
    return math.log(np.sum(tail) - delta) + top - math.log(np.sum(tail * np.exp(top - losses[k:])))


def pld_epsilon(q, sigma, steps, deltas, width, tails=9.5):
    """{delta: (lower, upper)} bounds on the epsilon of `steps` Poisson-
    subsampled Gaussian steps at (q, sigma), sensitivity 1, under add/remove
    adjacency (Koskela, Jalko and Honkela 2020, arXiv:1906.03049; Gopi, Lee
    and Wutschitz 2021, arXiv:2106.02848). One step's loss distribution is
    discretized to a grid of width `width`, over x within `tails` deviations
    of the means, and composed by FFT. Rounding each loss down gives the
    lower bound, with the mass below the grid dropped; rounding it up gives
    the upper one, with the mass above the grid at +inf. Each bound is the
    larger of the two directions."""
    bounds = {delta: [0.0, 0.0] for delta in deltas}
    for remove in (True, False):
        ends = _step_loss(q, sigma, np.array([-tails * sigma, 1 + tails * sigma])) * (1 if remove else -1)
        first, last = math.floor(ends.min() / width), math.ceil(ends.max() / width)
        cdf = _step_loss_cdf(q, sigma, remove, np.arange(first, last + 1) * width)
        size = steps * (last - first) + 1
        losses = (steps * first + np.arange(size)) * width
        for side, pmf, above in (
            (0, np.concatenate([np.diff(cdf), [1 - cdf[-1]]]), 0.0),
            (1, np.concatenate([[cdf[0]], np.diff(cdf)]), 1 - cdf[-1]),
        ):
            fast = next_fast_len(size, real=True)
            composed = np.fft.irfft(np.fft.rfft(pmf, fast) ** steps, fast)[:size]
            at_inf = -math.expm1(steps * math.log1p(-above))  # some step's loss above the grid
            for delta in deltas:
                bounds[delta][side] = max(bounds[delta][side], _epsilon_of_pld(losses, composed, delta - at_inf, width))
    return {delta: tuple(pair) for delta, pair in bounds.items()}


def analytic_gaussian_epsilon(sigma, steps, delta):
    """The exact epsilon of `steps` Gaussian steps of noise sigma at
    sensitivity 1 (Balle and Wang 2018, arXiv:1805.06530, Thm 8), by
    bisection to the last float."""
    mu = math.sqrt(steps) / sigma
    lo, hi = 0.0, 100.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if ndtr(mu / 2 - mid / mu) - math.exp(mid) * ndtr(-mu / 2 - mid / mu) > delta:
            lo = mid
        else:
            hi = mid
    return hi


def tight_conversion_epsilon(q, sigma, steps, delta):
    """Epsilon by the tighter RDP conversion of Balle et al. 2020
    (arXiv:1905.09982, Thm 21): RDP_a + log((a - 1) / a) - (log delta +
    log a) / (a - 1), minimized over the default orders."""
    orders = np.asarray(privacy.DEFAULT_ORDERS, dtype=np.float64)
    rdp = steps * privacy.rdp_subsampled_gaussian(q, sigma)
    return float(np.min(rdp + np.log((orders - 1) / orders) - (math.log(delta) + np.log(orders)) / (orders - 1)))


HEADLINE = Path(__file__).resolve().parent.parent / "configs" / "headline.ini"


def test_pld_bracket_holds_the_exact_epsilon_and_lies_below_the_rdp_epsilon():
    # q = 1 is the Gaussian mechanism: the bracket holds its exact epsilon
    [(low, high)] = pld_epsilon(1.0, 4.0, 50, [1e-5], 1e-3).values()
    exact = analytic_gaussian_epsilon(4.0, 50, 1e-5)
    assert low <= exact <= high and abs(exact - 8.596) < 1e-3
    # the reference point (q = 0.0357, 100 steps, width 1e-3)
    [(low, high)] = pld_epsilon(0.0357, 1.2666, 100, [1e-5], 1e-3).values()
    assert (round(low, 3), round(high, 3)) == (1.503, 1.603)
    assert round(privacy.spent_epsilon(0.0357, 1.2666, 100, 1e-5), 3) == 2.194
    # every RDP epsilon, by today's conversion and by the tighter one, is at
    # least the true epsilon's lower bound; the rates are the six clients'
    # of the headline seed 0, and q = 1
    cfg = config.load(HEADLINE)
    rates = [federation.sampling_rate(cfg, table) for table in federation.shards(cfg, 0)[0]]
    assert len(rates) == 6
    for q in [*rates, 1.0]:
        for sigma, steps in ((0.8, 10), (1.2666, 10), (1.2666, 100), (3.0, 100)):
            for delta, (low, high) in pld_epsilon(q, sigma, steps, [1e-5, 1e-3], 4e-3).items():
                assert low <= high
                rdp = privacy.spent_epsilon(q, sigma, steps, delta)
                assert min(rdp, tight_conversion_epsilon(q, sigma, steps, delta)) >= low, (q, sigma, steps, delta)
