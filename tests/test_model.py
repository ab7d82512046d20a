import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsvd import lora, model, verify
from fedsvd.data import Dataset
from fedsvd.lora import LoraLayer
from helpers import forward, loss, outer_products, reference_fit


def make_model(rng, d_x=5, c=3, r=2, layers=1, hidden=4, zero_b=False):
    dims = [d_x] if layers == 1 else [d_x, hidden]
    sizes = dims + [c]
    lls = []
    for i in range(len(sizes) - 1):
        d_in, d_out = sizes[i], sizes[i + 1]
        rr = min(r, d_in, d_out)
        a = rng.standard_normal((rr, d_in)) * 0.5
        b = np.zeros((d_out, rr)) if zero_b else rng.standard_normal((d_out, rr)) * 0.5
        w0 = rng.standard_normal((d_out, d_in)) * 0.5
        lls.append(LoraLayer(w0=w0, a=a, b=b, rank=rr, alpha=float(rr)))
    return model.Classifier(layers=lls, class_count=c)


def flatten_params(m):
    out = {}
    for idx, layer in enumerate(m.layers):
        out[(idx, "a")] = layer.a
        out[(idx, "b")] = layer.b
    return out


def model_with_param(m, key, value):
    idx, name = key
    layers = list(m.layers)
    layers[idx] = layers[idx].with_adapters(**{name: value})
    return model.Classifier(layers=layers, class_count=m.class_count)


def example_grads(m, x, y):
    """grad_factors' gradients of one example (x, y) as (1, *shape) arrays,
    keyed by the adapter matrices, all of them trained."""
    params = model.adapter_params(m.layers)
    targets = np.eye(m.class_count)[[y]]
    factors = model.grad_factors(m.layers, params, x[None], targets, set(params))
    return outer_products(factors)


def fd_gradient(m, key, x, y, h=1e-5):
    # central finite differences, one loss evaluation pair per entry
    base = flatten_params(m)[key]
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            plus[i, j] += h
            minus = base.copy()
            minus[i, j] -= h
            lp = loss(forward(model_with_param(m, key, plus), x), y)
            lm = loss(forward(model_with_param(m, key, minus), x), y)
            grad[i, j] = (lp - lm) / (2 * h)
    return grad


def test_forward_zero_adapters_equals_backbone():
    rng = np.random.default_rng(0)
    m = make_model(rng, zero_b=True)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(forward(m, x), m.layers[0].w0 @ x, atol=1e-14)


def test_forward_identity_adapter():
    # W0 = 0 and scale * b @ a = I reproduces the input.
    n = 4
    w0 = np.zeros((n, n))
    a = np.eye(n)
    b = np.eye(n)
    layer = LoraLayer(w0=w0, a=a, b=b, rank=n, alpha=float(n))
    m = model.Classifier(layers=[layer], class_count=n)
    x = np.random.default_rng(1).standard_normal(n)
    np.testing.assert_allclose(forward(m, x), x, atol=1e-14)


def test_forward_matches_direct_product():
    rng = np.random.default_rng(2)
    m = make_model(rng)
    x = rng.standard_normal(5)
    w_eff = lora.effective_weight(m.layers[0])
    np.testing.assert_allclose(forward(m, x), w_eff @ x, atol=1e-13)


def test_forward_two_layer_matches_oracle():
    rng = np.random.default_rng(3)
    m = make_model(rng, layers=2)
    x = rng.standard_normal(5)
    w1 = lora.effective_weight(m.layers[0])
    w2 = lora.effective_weight(m.layers[1])
    np.testing.assert_allclose(forward(m, x), w2 @ np.tanh(w1 @ x), atol=1e-13)


def test_forward_dimension_mismatch():
    m = make_model(np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(m, np.zeros(7))


def test_loss_uniform_logits():
    for c in [2, 3, 10]:
        assert abs(loss(np.zeros(c), 0) - np.log(c)) < 1e-12


def test_loss_saturated():
    assert loss(np.array([20.0, -20.0]), 0) < 1e-8


def test_loss_binary_equals_sigmoid_form():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.standard_normal(2) * 3
        y = int(rng.integers(0, 2))
        margin = z[1] - z[0]
        sig = 1.0 / (1.0 + np.exp(-margin))
        expected = -(y * np.log(sig) + (1 - y) * np.log(1.0 - sig))
        assert abs(loss(z, y) - expected) < 1e-12


def test_loss_stability_large_logits():
    assert np.isfinite(loss(np.array([1e4, -1e4, 0.0]), 1))


def test_per_sample_grads_zero_loss_limit():
    rng = np.random.default_rng(6)
    m = make_model(rng)
    # huge margin toward the correct class
    layers = [m.layers[0].with_adapters(b=np.zeros_like(m.layers[0].b))]
    w0 = np.zeros((3, 5))
    w0[1] = 100.0
    layers[0] = LoraLayer(w0=w0, a=m.layers[0].a, b=m.layers[0].b, rank=2, alpha=2.0)
    m2 = model.Classifier(layers=layers, class_count=3)
    x = np.abs(rng.standard_normal(5)) + 0.5
    grads = example_grads(m2, x, 1)
    for g in grads.values():
        assert np.linalg.norm(g) < 1e-8


def test_per_sample_grads_closed_form_b():
    # With b = 0 and one linear layer: dl/dB = s * (softmax(z) - onehot) (A x)^T.
    rng = np.random.default_rng(7)
    m = make_model(rng, zero_b=True)
    layer = m.layers[0]
    x = rng.standard_normal(5)
    y = 2
    z = forward(m, x)
    delta = model.softmax(z)
    delta[y] -= 1.0
    expected = layer.scale * np.outer(delta, layer.a @ x)
    grads = example_grads(m, x, y)
    np.testing.assert_allclose(grads[(0, "b")][0], expected, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2])
def test_per_sample_grads_match_finite_differences(layers):
    rng = np.random.default_rng(100 + layers)
    for trial in range(10):
        m = make_model(rng, d_x=4, c=3, r=2, layers=layers, hidden=3)
        x = rng.standard_normal(4)
        y = int(rng.integers(0, 3))
        grads = example_grads(m, x, y)
        for key in grads:
            fd = fd_gradient(m, key, x, y)
            np.testing.assert_allclose(grads[key][0], fd, rtol=1e-6, atol=1e-8)


def test_tanh_backward_never_writes_into_what_it_yields():
    # grad_factors returns a layer's input itself as a's V factor, so a
    # slope formed in place on it would corrupt the gradients of a (fedavg)
    rng = np.random.default_rng(21)
    k, m, d, c = 2, 7, 5, 3
    layers = make_model(rng, d_x=d, c=c, r=2, layers=2, hidden=4).layers
    params = {
        (i, n): np.stack([getattr(l, n) + 0.1 * rng.standard_normal(getattr(l, n).shape) for _ in range(k)])
        for i, l in enumerate(layers) for n in "ab"
    }
    x = rng.standard_normal((k, m, d))
    targets = np.eye(c)[rng.integers(0, c, (k, m))]
    x_before = x.copy()
    got = model.grad_factors(layers, params, x, targets, set(params))
    # oracle: the whole-array expression of the slope
    w = [l.w0 + l.scale * (params[i, "b"] @ params[i, "a"]) for i, l in enumerate(layers)]
    h = np.tanh(x @ w[0].mT)
    delta1 = model.softmax(h @ w[1].mT) - targets
    delta0 = (delta1 @ w[1]) * (1.0 - h * h)
    s0, s1 = layers[0].scale, layers[1].scale
    want = {
        (1, "b"): (s1 * delta1, h @ params[1, "a"].mT),
        (1, "a"): (s1 * (delta1 @ params[1, "b"]), h),
        (0, "b"): (s0 * delta0, x @ params[0, "a"].mT),
        (0, "a"): (s0 * (delta0 @ params[0, "b"]), x),
    }
    assert got.keys() == want.keys()
    for key, pair in want.items():
        assert [f.tobytes() for f in got[key]] == [f.tobytes() for f in pair], key
    assert x.tobytes() == x_before.tobytes()
    # after the whole walk, the forward's inputs and the yielded deltas are as made
    inputs, logits = model._forward(w, x)
    before = [a.copy() for a in inputs]
    walked = list(model._backward(w, inputs, logits, targets))
    assert [idx for idx, _, _ in walked] == [1, 0]
    assert all(h_in is inputs[idx] for idx, _, h_in in walked)
    assert [a.tobytes() for a in inputs] == [a.tobytes() for a in before]
    assert [dl.tobytes() for _, dl, _ in walked] == [delta1.tobytes(), delta0.tobytes()]
    # the same with a workspace, on a stack of two equally wide hidden
    # layers: each yielded pair is the fresh-array walk's until the walk
    # resumes; then the tanh slope 1 - h*h lands in the yielded hidden
    # input's own array, never in x, and the deltas stay as made
    ws = [rng.standard_normal(shape) for shape in ((4, d), (4, 4), (c, 4))]
    want_inputs, want_logits = model._forward(ws, x)
    want = [(idx, dl.copy(), h.copy()) for idx, dl, h in model._backward(ws, want_inputs, want_logits, targets)]
    work = {}
    for _ in range(2):  # a second walk reuses the first one's arrays
        inputs, logits = model._forward(ws, x, work)
        assert logits.tobytes() == want_logits.tobytes()
        walked = []
        for (idx, dl, h_in), (_, want_dl, want_h) in zip(model._backward(ws, inputs, logits, targets, work), want):
            assert h_in is inputs[idx]
            assert (dl.tobytes(), h_in.tobytes()) == (want_dl.tobytes(), want_h.tobytes()), idx
            walked.append((idx, dl, h_in))
        assert [idx for idx, _, _ in walked] == [2, 1, 0]
        assert inputs[0] is x and x.tobytes() == x_before.tobytes()
        for (idx, dl, h_in), (_, want_dl, want_h) in zip(walked, want):
            assert dl.tobytes() == want_dl.tobytes(), idx
            if idx > 0:
                assert h_in.tobytes() == (1.0 - want_h * want_h).tobytes(), idx
    # 3 layer outputs, the softmax's 2 arrays and 2 deltas: reused, never shared
    assert len({id(a) for a in work.values()}) == len(work) == 7
    assert x.tobytes() == x_before.tobytes()


@settings(max_examples=150, deadline=None)
@given(c=st.integers(2, 7), d_x=st.integers(1, 8), data=st.data())
def test_verify_central_differences_equal_the_scalar_loop_bit_for_bit(c, d_x, data):
    # verify's stacked forward over all perturbed copies against one scalar
    # forward and loss per perturbed entry
    r = data.draw(st.integers(1, min(c, d_x)), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([0.05, 0.6, 4.0]), label="scale")
    layer = LoraLayer(
        w0=rng.standard_normal((c, d_x)) * scale,
        a=rng.standard_normal((r, d_x)) * scale,
        b=rng.standard_normal((c, r)) * scale,
        rank=r,
        alpha=float(data.draw(st.integers(1, 8), label="alpha")),
    )
    m = model.Classifier(layers=[layer], class_count=c)
    x = rng.standard_normal(d_x)
    y = data.draw(st.integers(0, c - 1), label="y")
    for name in "ab":
        got = verify._central_differences(layer, name, x, y)
        want = fd_gradient(m, (0, name), x, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_verify_central_differences_reject_non_finite_logits(bad):
    # a NaN difference must not pass as a small error
    rng = np.random.default_rng(11)
    m = make_model(rng, d_x=4, c=3, r=2)
    layer = m.layers[0]
    layer = LoraLayer(w0=layer.w0.copy(), a=layer.a, b=layer.b, rank=2, alpha=2.0)
    layer.w0[1, 2] = bad
    x = rng.standard_normal(4)
    for name in "ab":
        with pytest.raises(ValueError, match="logits contain non-finite entries"):
            verify._central_differences(layer, name, x, 0)
        with pytest.raises(ValueError, match="logits contain non-finite entries"):
            fd_gradient(model.Classifier([layer], 3), (0, name), x, 0)


def test_gradient_norm_identity_orthonormal_a():
    # ||dl/dB||_F = ||dl/dz|| * ||A x|| and <= ||dl/dz|| * ||x|| for orthonormal A.
    rng = np.random.default_rng(9)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        a = q.T
        b = rng.standard_normal((4, 3))
        w0 = rng.standard_normal((4, 8))
        layer = LoraLayer(w0=w0, a=a, b=b, rank=3, alpha=3.0)
        m = model.Classifier(layers=[layer], class_count=4)
        x = rng.standard_normal(8)
        y = int(rng.integers(0, 4))
        z = forward(m, x)
        delta = model.softmax(z)
        delta[y] -= 1.0
        g = example_grads(m, x, y)[(0, "b")][0]
        lhs = np.linalg.norm(g)
        rhs = np.linalg.norm(delta) * np.linalg.norm(a @ x)
        assert abs(lhs - rhs) <= 1e-10
        assert lhs <= np.linalg.norm(delta) * np.linalg.norm(x) + 1e-10


def test_evaluate_constant_predictor():
    w0 = np.zeros((2, 3))
    w0[1] = 5.0  # always predicts class 1
    layer = LoraLayer(w0=w0, a=np.zeros((1, 3)), b=np.zeros((2, 1)), rank=1, alpha=1.0)
    m = model.Classifier(layers=[layer], class_count=2)
    xs = np.abs(np.random.default_rng(1).standard_normal((20, 3))) + 0.1
    acc, _ = model.evaluate(m, Dataset(xs, np.ones(len(xs)), 2))
    assert acc == 1.0


def test_evaluate_random_labels_near_chance():
    rng = np.random.default_rng(10)
    layer = LoraLayer(
        w0=rng.standard_normal((2, 6)),
        a=np.zeros((1, 6)),
        b=np.zeros((2, 1)),
        rank=1,
        alpha=1.0,
    )
    m = model.Classifier(layers=[layer], class_count=2)
    n = 10**4
    xs = rng.standard_normal((n, 6))
    ys = rng.integers(0, 2, n)
    acc, _ = model.evaluate(m, Dataset(xs, ys, 2))
    assert abs(acc - 0.5) < 0.02


def test_evaluate_uniform_predictor_loss():
    layer = LoraLayer(
        w0=np.zeros((3, 4)), a=np.zeros((1, 4)), b=np.zeros((3, 1)), rank=1, alpha=1.0
    )
    m = model.Classifier(layers=[layer], class_count=3)
    rng = np.random.default_rng(11)
    xs, ys = zip(*[(rng.standard_normal(4), int(rng.integers(0, 3))) for _ in range(50)])
    _, mean_loss = model.evaluate(m, Dataset(np.array(xs), ys, 3))
    assert abs(mean_loss - np.log(3)) < 1e-12


def test_evaluate_empty_rejected():
    m = make_model(np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.evaluate(m, Dataset(np.zeros((0, 5)), [], 3))


def test_fit_dense_weights_learns_separable_problem():
    rng = np.random.default_rng(12)
    means = np.array([[3.0, 0.0], [-3.0, 0.0]])
    y = rng.integers(0, 2, 400)
    x = means[y] + rng.standard_normal((400, 2))
    weights = model.fit_dense_weights(x, y, [2], 2, steps=200, lr=0.1, seed=0)
    layer = LoraLayer(
        w0=weights[0], a=np.zeros((1, 2)), b=np.zeros((2, 1)), rank=1, alpha=1.0
    )
    m = model.Classifier(layers=[layer], class_count=2)
    acc, _ = model.evaluate(m, Dataset(x, y, 2))
    assert acc > 0.95


@pytest.mark.parametrize("dims", [[16], [16, 3], [16, 32]])
def test_fit_dense_weights_pinned_to_whole_array_reference(dims):
    # the fit's reused work arrays give the weights of a fit that makes
    # every array afresh each step, bit for bit
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 16))
    y = rng.integers(0, 3, 300)
    got = model.fit_dense_weights(x, y, dims, 3, steps=25, lr=0.1, seed=7)
    want = reference_fit(x, y, dims, 3, steps=25, lr=0.1, seed=7)
    assert [w.tobytes() for w in got] == [w.tobytes() for w in want]


def test_fit_dense_weights_rejects_an_empty_split():
    with pytest.raises(ValueError, match="empty training split"):
        model.fit_dense_weights(np.zeros((0, 4)), np.zeros(0, dtype=int), [4], 3)


def test_hidden_32_fit_holds_two_work_arrays_per_hidden_layer():
    # The fit's working set beside x: the hidden layer's (6000, 32) array,
    # which the tanh slope reuses, the delta sent back through it, and the
    # small softmax arrays (3.62 MiB traced). A separate slope array made
    # it 5.09 MiB. Every work array is made on the first step.
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((6000, 64)), rng.integers(0, 3, 6000)
    tracemalloc.start()
    try:
        model.fit_dense_weights(x, y, [64, 32], 3, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.3 * 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_hidden_32_fit_does_not_refault_its_work_arrays():
    # Three fresh (6000, 32) arrays per step were returned to the OS after
    # every step in a new process and faulted in again on the next: 38,048
    # minor faults for this fit. Reused, the arrays fault in once (1,352).
    script = """
import resource
from fedsvd import model
import numpy as np
rng = np.random.default_rng(0)
x, y = rng.standard_normal((6000, 64)), rng.integers(0, 3, 6000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model.fit_dense_weights(x, y, [64, 32], 3, steps=50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert int(proc.stdout) < 5000


def test_build_classifier_clamps_rank():
    weights = [np.zeros((3, 64))]
    m = model.build_classifier(weights, rank=8, alpha=8.0, seed=0, class_count=3)
    assert m.layers[0].rank == 3
    assert abs(m.layers[0].scale - 1.0) < 1e-15  # alpha/rank ratio preserved


# --- reductions over the class axis ---


def axis_softmax(z):
    """softmax with NumPy's per-row reductions, as model.softmax once read."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def axis_losses(logits, y):
    """_batch_losses with NumPy's per-row reductions."""
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return lse - logits[np.arange(len(y)), y]


def class_inputs(rng, shape):
    """Logits with ties, spread-out values and entries of +-1e300."""
    z = rng.standard_normal(shape) * 20.0
    z[rng.random(shape) < 0.2] = 1.0  # ties, also between a row's maxima
    z[rng.random(shape) < 0.1] = 1e300
    z[rng.random(shape) < 0.1] = -1e300
    return z


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("classes", range(2, 8))
def test_class_reductions_bitwise_equal_below_8_classes(classes):
    rng = np.random.default_rng(classes)
    for shape in [(300, classes), (3, 40, classes), (classes,)]:
        for _ in range(20):
            z = class_inputs(rng, shape)
            got = model.softmax(z)
            assert same_bits(got, axis_softmax(z)), shape
            assert np.isfinite(got).all()
    for _ in range(20):
        z = class_inputs(rng, (300, classes))
        y = rng.integers(0, classes, 300)
        got = model._batch_losses(z, y)
        assert same_bits(got, axis_losses(z, y))
        assert np.isfinite(got).all()


@pytest.mark.parametrize("classes", [8, 9, 12, 32])
def test_class_reductions_close_from_8_classes(classes):
    # NumPy sums 8 or more terms pairwise, the columns add left to right
    rng = np.random.default_rng(classes)
    for shape in [(300, classes), (3, 40, classes), (classes,)]:
        z = rng.standard_normal(shape) * 5.0
        want = axis_softmax(z)
        assert (np.abs(model.softmax(z) - want) <= 1e-15 * want).all(), shape
    z = rng.standard_normal((300, classes)) * 5.0
    y = rng.integers(0, classes, 300)
    want = axis_losses(z, y)
    lse = want + z[np.arange(len(y)), y]  # the rounding sits in the log-sum-exp
    assert (np.abs(model._batch_losses(z, y) - want) <= 1e-15 * np.maximum(1.0, np.abs(lse))).all()


@pytest.mark.parametrize("classes", [2, 3, 5, 9])
def test_evaluate_predicts_the_argmax_ties_to_the_lowest_class(classes):
    # logits = x exactly: identity backbone, zero adapters
    layer = LoraLayer(
        w0=np.eye(classes), a=np.zeros((1, classes)), b=np.zeros((classes, 1)), rank=1, alpha=1.0
    )
    m = model.Classifier(layers=[layer], class_count=classes)
    rng = np.random.default_rng(classes)
    x = np.where(rng.random((500, classes)) < 0.1, 1e300, rng.integers(-2, 3, (500, classes)))
    assert np.array_equal(model.forward_batch(m, x), x)
    argmax = np.argmax(x, axis=1)
    # accuracy 1 against argmax and 0 against any other class: every prediction is the argmax
    assert model.evaluate(m, Dataset(x, argmax, classes))[0] == 1.0
    assert model.evaluate(m, Dataset(x, (argmax + 1) % classes, classes))[0] == 0.0
