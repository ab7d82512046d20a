"""Shared test fixtures: small, fast run configurations and their INI
writer, a CSV writer for dataset files, one client's local training, the
dense data references that the streamed shard build is checked against,
the independent per-example clipping oracle that the DP-SGD step is
checked against, the norms of one example's gradient in b that the
gradient-norm identity relates, the residual of the four-term expansion
of a noisy adapter product, the whole-array backbone fit that the
fit's reused work arrays are checked against, the whole-array relative
Frobenius error that the in-place error is checked against, and the scalar
forward and loss of one example that finite-difference gradient checks
perturb one entry at a time."""

import csv
import io
import math

import numpy as np

from fedsvd import config, data, federation, linalg, model
from fedsvd.config import RunConfig
from fedsvd.data import Dataset
from fedsvd.lora import LoraLayer


def small_config(**kw):
    base = dict(
        strategy="fedsvd",
        svd_period=1,
        clients=3,
        participants=2,
        rounds=3,
        local_steps=2,
        learning_rate=0.3,
        batch_size=16,
        classes=3,
        feature_dim=8,
        train_size=240,
        margin=3.0,
        rank=4,
        lora_alpha=4.0,
        pretrain_steps=50,
        epsilon=None,
        seeds=(0,),
        record_timing=False,
    )
    base.update(kw)
    return RunConfig(**base)


def format_value(key, value) -> str:
    """A RunConfig value as config.parse reads it back."""
    if value is None:
        return ""
    if key == "seeds":
        return ",".join(str(s) for s in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(cfg) -> str:
    """`cfg` as an INI manifest, every key in its section: config.parse
    round-trips it."""
    out = io.StringIO()
    for section, keys in config._SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {format_value(key, getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def save_csv(ds, path) -> None:
    """Write a Dataset as a file data.load_csv reads, with full float64 text
    precision (repr round-trips)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(ds.feature_dim)] + ["label"])
        for x, y in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


def gen_synthetic(class_count, feature_dim, size, margin, seed):
    """(pretrain, finetune, eval) Datasets of the synthetic task, each split
    drawn whole by data.synthetic_split's chunked draw."""
    return tuple(
        data.split_dataset(
            *data.synthetic_split(split, class_count, feature_dim, size, margin, seed), class_count, feature_dim
        )
        for split in range(3)
    )


def subset(ds, indices):
    """The rows of `ds` at `indices`, as new arrays."""
    return Dataset(ds.features[indices], ds.labels[indices], ds.class_count)


def partition_dirichlet(ds, spec):
    """`ds` split across clients by data.partition_cells, one gather per cell:
    the dense partition of a whole split."""
    return [subset(ds, cell) for cell in data.partition_cells(ds.labels, ds.class_count, spec)]


def shard_table(ds):
    """A shard as its [features | one-hot labels] rows (see ClientHandle)."""
    return np.concatenate([ds.features, np.eye(ds.class_count)[ds.labels]], axis=1)


def solo_train(client, layers, trains_a, lr, rng, steps, clip):
    """federation.train_clients on the one client: row 0 of every trained
    matrix, keyed like model.adapter_params (a frozen a is the layer's own)."""
    out = federation.train_clients([client], layers, trains_a, lr, [rng], steps, clip)
    return {key: m[0] if trains_a or key[1] == "b" else m for key, m in out.items()}


def stack_rows(rows, trains_a):
    """Per-client adapter dicts (as solo_train returns them) stacked on a
    client axis in list order: the (K, ...) dict that aggregate takes."""
    return {
        key: np.stack([r[key] for r in rows]) if trains_a or key[1] == "b" else m
        for key, m in rows[0].items()
    }


def outer_products(factors):
    """Per-example gradients from model.grad_factors: key -> (n, *shape),
    example n's gradient being U[n] (x) V[n]."""
    return {k: u[:, :, None] * v[:, None, :] for k, (u, v) in factors.items()}


def global_grad_norm(grad) -> float:
    """Frobenius norm over the concatenation of one example's gradient matrices."""
    if isinstance(grad, dict):
        return math.sqrt(sum(float(np.sum(g * g)) for g in grad.values()))
    g = np.asarray(grad, dtype=np.float64)
    return math.sqrt(float(np.sum(g * g)))


def clip_gradient(grad, clip_norm: float):
    """Rescale one example's gradient to norm at most clip_norm.

    Applies g * min(1, C / ||g||) where ||g|| is the global norm across all
    matrices of the example; gradients already inside the ball are returned
    unchanged (same scaling semantics as g / max(1, ||g|| / C)).
    """
    if clip_norm <= 0.0:
        raise ValueError(f"clip_norm must be positive, got {clip_norm}")
    norm = global_grad_norm(grad)
    factor = 1.0 if norm <= clip_norm else clip_norm / norm
    if isinstance(grad, dict):
        return {k: factor * g for k, g in grad.items()}
    return factor * np.asarray(grad, dtype=np.float64)


def b_gradient_norms(a, b, w, x, y: int) -> tuple[float, float, float, float]:
    """(|g|, |u| |v|, |u| sigma_max(a) |x|, sigma_max(a)) for the gradient
    g = outer(u, v) in b that model.grad_factors gives DP-SGD for one example
    (x, y) of the one-layer classifier w + b a (scale 1: alpha = rank)."""
    layer = LoraLayer(w0=w, a=a, b=b, rank=a.shape[0], alpha=float(a.shape[0]))
    targets = np.eye(w.shape[0])[[y]]
    factors = model.grad_factors([layer], model.adapter_params([layer]), x[None], targets, {(0, "b")})
    u, v = (f[0] for f in factors[0, "b"])
    u_norm, spectral_a = float(np.linalg.norm(u)), float(linalg.svd(a).singular_values[0])
    return (
        float(np.linalg.norm(np.outer(u, v))), u_norm * float(np.linalg.norm(v)),
        u_norm * spectral_a * float(np.linalg.norm(x)), spectral_a,
    )


def expansion_residual(b, a, xi_b, xi_a) -> float:
    """max |(b + xi_b)(a + xi_a) - (b a + xi_b a + b xi_a + xi_b xi_a)|, the
    four products added left to right."""
    terms = b @ a + xi_b @ a + b @ xi_a + xi_b @ xi_a
    return float(np.max(np.abs((b + xi_b) @ (a + xi_a) - terms)))


def reference_fit(x, y, dims, class_count, steps, lr, seed):
    """model.fit_dense_weights with every array made afresh each step: the
    whole-array tanh forward, softmax delta and backward written out."""
    weights = model.random_dense_weights(dims, class_count, seed)
    n, targets = len(x), np.eye(class_count)[y]
    for _ in range(steps):
        inputs = [x]
        for w in weights[:-1]:
            inputs.append(np.tanh(inputs[-1] @ w.T))
        delta = model.softmax(inputs[-1] @ weights[-1].T) - targets
        grads = []
        for idx in range(len(weights) - 1, -1, -1):
            grads.append((idx, delta.T @ inputs[idx] / n))
            if idx > 0:
                delta = (delta @ weights[idx]) * (1.0 - inputs[idx] * inputs[idx])
        weights = [w - lr * g for w, (_, g) in zip(weights, reversed(grads))]
    return weights


def reference_rel_error(actual, expected) -> float:
    """sqrt(sum((actual - expected)**2)) / sqrt(sum(expected**2)), each square
    formed in a new array (the absolute error if expected is zero), with no
    overflow rescale."""
    d = actual - expected
    diff = math.sqrt(float(np.sum(d * d)))
    denom = math.sqrt(float(np.sum(expected * expected)))
    return diff / denom if denom > 0.0 else diff


def forward(m, x) -> np.ndarray:
    """Logits of model.Classifier m for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    return model.forward_batch(m, x[None, :])[0]


def loss(logits, y: int) -> float:
    """Cross-entropy -log softmax(logits)[y], computed with max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("logits contain non-finite entries")
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[y])
