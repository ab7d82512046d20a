"""LoRA-adapted multinomial logistic classifier with exact per-sample gradients.

The default architecture is a single linear layer (logits = W_eff @ x); an
optional two-layer variant inserts a tanh hidden layer. Only the adapter
pairs (a, b) are trainable; base weights stay frozen. Per-sample gradients
are analytic: grad_factors gives each example's gradient of every trainable
adapter matrix as a rank-one outer product, which DP-SGD clips per example
without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lora
from .lora import LoraLayer, effective_weight

# Gradient dictionaries are keyed by (layer_index, matrix_name).
GradKey = tuple[int, str]


@dataclass
class Classifier:
    layers: list[LoraLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("classifier needs at least one layer")
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.d_in != prev.d_out:
                raise ValueError(
                    f"layer dimensions do not compose: {prev.d_out} -> {nxt.d_in}"
                )

    @property
    def feature_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def class_count(self) -> int:
        return self.layers[-1].d_out


def adapter_params(layers: list[LoraLayer]) -> dict[GradKey, np.ndarray]:
    """The adapter matrices of `layers`, keyed by (layer, "a"|"b")."""
    return {(idx, name): getattr(layer, name) for idx, layer in enumerate(layers) for name in "ab"}


def _buf(work: dict | None, key, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray | None:
    """work[key], made on first use shaped like a @ b (a without b); None without a workspace."""
    if work is not None and key not in work:
        work[key] = np.empty(a.shape if b is None else a.shape[:-1] + b.shape[-1:])
    return None if work is None else work[key]


def _forward(weights: list[np.ndarray], x: np.ndarray, work: dict | None = None) -> tuple[list[np.ndarray], np.ndarray]:
    """Tanh stack over dense weights: (the input of every layer, the logits).
    (K, d_out, d_in) weights and (K, n, d_in) inputs run K stacks at once.
    With a workspace (see _buf) the outputs go to its arrays, one per layer."""
    inputs = [x]
    for idx, wt in enumerate([w.mT for w in weights]):
        z = np.matmul(inputs[-1], wt, out=_buf(work, ("z", idx), inputs[-1], wt))
        inputs.append(np.tanh(z, out=z) if idx < len(weights) - 1 else z)
    return inputs[:-1], inputs[-1]


def forward_batch(model: Classifier, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of row-vector inputs (n x d_in -> n x c)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ValueError(
            f"batch has shape {x.shape}, expected (n, {model.feature_dim})"
        )
    return _forward([effective_weight(layer) for layer in model.layers], x)[1]


def _shifted_exp(z: np.ndarray, work: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(exp(z - max over the last axis), that max), both over the reversed
    axes (z.T): a copy with the classes first (in `work`, see _buf), so a reduction
    over them is one call over whole rows, left to right, not a loop per example."""
    zt = z.T.copy() if work is None else np.positive(z.T, out=_buf(work, "exp", z.T))  # positive copies exactly
    m = np.maximum.reduce(zt)
    zt -= m
    return np.exp(zt, out=zt), m


def softmax(logits: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Softmax over the last axis, with max subtraction. Its sum adds the
    classes left to right (_shifted_exp): NumPy's per-row sum bit for bit
    below 8 classes; from 8 on NumPy sums pairwise, and rounding may differ.
    With a workspace (see _buf) it is written into its arrays."""
    z = np.asarray(logits, dtype=np.float64)
    e, _ = _shifted_exp(z, work)
    e /= np.add.reduce(e)
    return e.T.copy() if work is None else np.positive(e.T, out=_buf(work, "softmax", z))


def _batch_losses(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    e, m = _shifted_exp(logits)
    return m + np.log(np.add.reduce(e)) - logits[np.arange(len(y)), y]


def _backward(weights: list[np.ndarray], inputs: list[np.ndarray], logits: np.ndarray, targets: np.ndarray, work=None):
    """Walk the tanh stack of _forward backwards, last layer first.

    Yields (idx, delta, h_in): the per-example cross-entropy gradient at
    layer idx's output and that layer's input. Keep weights unchanged until
    the walk ends: the next delta is formed from them after each yield.
    targets are one-hot rows of the shape of logits (leading axes broadcast
    as in _forward); a zero row gives that example softmax as its delta.
    Without a workspace nothing yielded is written to. With one (see _buf)
    each delta has its own array until the next walk, and each yielded h_in
    stays as made only until the walk resumes: the tanh slope overwrites it.
    """
    delta = softmax(logits, work)  # d loss / d logits, per sample
    delta -= targets
    for idx in range(len(weights) - 1, -1, -1):
        h_in = inputs[idx]
        yield idx, delta, h_in
        if idx > 0:  # back through tanh; with a workspace h_in is one of its arrays here, never x
            slope = np.multiply(h_in, h_in, out=None if work is None else h_in)
            delta = np.matmul(delta, weights[idx], out=_buf(work, ("delta", idx), h_in))
            delta *= np.subtract(1.0, slope, out=slope)


def grad_factors(
    layers: list[LoraLayer], params: dict, x: np.ndarray, targets: np.ndarray, trainable
) -> dict[GradKey, tuple[np.ndarray, np.ndarray]]:
    """Rank-one factors of the per-example cross-entropy adapter gradients.

    One forward/backward pass. `layers` give w0 and the scale s, `params`
    the current adapters (see adapter_params). For each trainable key,
    example n's gradient is the outer product U[n] (x) V[n]: for b, U = s delta
    and V = h a^T; for a, U = s delta b and V = h, with h the layer input and
    delta the loss gradient at the layer output.
    targets are the one-hot labels, (n, c). With (K, ...) adapters (a frozen
    a may stay 2-D), (K, M, d) inputs and (K, M, c) targets, the factors are
    (K, M, .), one slice per client.
    """
    weights = [effective_weight(layer, params[idx, "a"], params[idx, "b"]) for idx, layer in enumerate(layers)]
    inputs, logits = _forward(weights, x)
    factors = {}
    for idx, delta, h_in in _backward(weights, inputs, logits, targets):
        s = layers[idx].scale
        if (idx, "b") in trainable:
            factors[(idx, "b")] = (s * delta, h_in @ params[(idx, "a")].mT)
        if (idx, "a") in trainable:
            factors[(idx, "a")] = (s * (delta @ params[(idx, "b")]), h_in)
    return factors


def evaluate(model: Classifier, data) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) on `data`, anything with `features`
    (n x d) and `labels` (n) such as a data.Dataset; argmax ties go to the
    lowest class."""
    x, y = data.features, data.labels
    if len(x) == 0:
        raise ValueError("empty dataset")
    logits = forward_batch(model, x)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
    return accuracy, float(np.mean(_batch_losses(logits, y)))


def fit_dense_weights(
    x: np.ndarray,
    y: np.ndarray,
    dims: list[int],
    class_count: int,
    steps: int = 200,
    lr: float = 0.1,
    seed=0,
) -> list[np.ndarray]:
    """Full-batch gradient descent on dense weights (no adapters, no privacy).

    `dims` lists the layer input sizes, e.g. [d_x] for a linear model or
    [d_x, hidden] for one tanh hidden layer; the final output is class_count
    wide. Used to produce the frozen backbone weights.
    """
    if len(x) == 0:
        raise ValueError("empty training split: the backbone fit needs at least one example")
    weights = random_dense_weights(dims, class_count, seed)
    n, targets, work = len(x), np.eye(class_count)[y], {}
    for _ in range(steps):  # every step reuses the arrays in work
        inputs, logits = _forward(weights, x, work)
        walk = _backward(weights, inputs, logits, targets, work)
        grads = [(idx, delta.T @ h_in / n) for idx, delta, h_in in walk]  # each before the walk overwrites h_in
        for idx, grad in grads:
            weights[idx] = weights[idx] - lr * grad
    return weights


def random_dense_weights(dims: list[int], class_count: int, seed=0) -> list[np.ndarray]:
    """Random frozen backbone, for runs without a pre-training phase."""
    rng = np.random.default_rng(seed)
    sizes = dims + [class_count]
    return [
        rng.standard_normal((sizes[i + 1], sizes[i])) / np.sqrt(sizes[i])
        for i in range(len(sizes) - 1)
    ]


def build_classifier(
    base_weights: list[np.ndarray],
    rank: int,
    alpha: float,
    seed,
    class_count: int,
) -> Classifier:
    """Attach fresh adapters (Kaiming a, zero b) to frozen base weights.

    The requested rank is clamped per layer to min(d_out, d_in); narrow
    output layers therefore carry a smaller effective rank r, at the scale
    of the requested one: alpha * r / rank / r. The last layer must emit
    class_count logits.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for w0 in base_weights:
        r = min(rank, min(w0.shape))
        a, b = lora.init_adapter(w0.shape[0], w0.shape[1], r, rng)
        layers.append(LoraLayer(w0=w0, a=a, b=b, scale=alpha * r / rank / r))
    classifier = Classifier(layers)
    if classifier.class_count != class_count:
        raise ValueError(f"final layer emits {classifier.class_count} logits for {class_count} classes")
    return classifier
