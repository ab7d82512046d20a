"""Shared test fixtures: small, fast run configurations, one client's local
training, the independent per-example clipping oracle that the DP-SGD step
is checked against, and the scalar forward and loss of one example that
finite-difference gradient checks perturb one entry at a time."""

import math

import numpy as np

from fedsvd import federation, model
from fedsvd.config import RunConfig


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
