"""Federated round protocol: sampling, local DP-SGD training, aggregation.

Each round the server broadcasts its adapter state to a sampled subset of
clients, clients run local DP-SGD steps on their private shards, and the
server averages the returned matrices weighted by shard sizes. The strategy's
entry in STRATEGIES selects what is trained, how the adapters start and how
the aggregate is post-processed (periodic SVD refactorization, base-weight
absorption, residual correction, ...).

Clients are independent: every client derives its own RNG stream from
(master_seed, round, client_id), so results do not depend on the order in
which clients train.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import data as data_mod
from . import lora, model, privacy
from .config import RunConfig
from .lora import LoraLayer
from .metrics import MetricsRow
from .model import Classifier

# RNG stream namespaces (mixed into SeedSequence entropy tuples)
_TAG_BACKBONE = 0xB0
_TAG_INIT = 0xB1
_TAG_SAMPLE = 0xB2
_TAG_CLIENT = 0xB3
_TAG_FLORA = 0xB4
_TAG_SPLIT = 0xB5


class DivergenceError(ArithmeticError):
    """Training left a non-finite model state; the message names where."""


def stream(master_seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for (master_seed, *tags)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), *map(int, tags))))


def _orthonormal_start(layer: LoraLayer, rng: np.random.Generator) -> LoraLayer:
    a, b = lora.orthonormal_init(layer.d_out, layer.d_in, layer.rank, rng)
    return layer.with_adapters(a=a, b=b)


def _pissa_start(layer: LoraLayer, rng: np.random.Generator) -> LoraLayer:
    a, b, residual = lora.pissa_init(layer.w0, layer.rank)
    # keep residual + scale * b @ a equal to the original base weight
    return replace(layer, w0=residual, a=a, b=b / layer.scale)


def _average_b(layer: LoraLayer, weighted: list, server: ServerState, idx: int) -> LoraLayer:
    return layer.with_adapters(b=sum(w * b for w, _, b in weighted))


def _average_ab(layer: LoraLayer, weighted: list, server: ServerState, idx: int) -> LoraLayer:
    return layer.with_adapters(
        a=sum(w * a for w, a, _ in weighted), b=sum(w * b for w, _, b in weighted)
    )


def _fold_restart(layer: LoraLayer, weighted: list, server: ServerState, idx: int) -> LoraLayer:
    """FLoRA: absorb the mean product into w0 and restart the adapters."""
    w0 = layer.w0 + layer.scale * sum(w * (b @ a) for w, a, b in weighted)
    rng = stream(server.master_seed, _TAG_FLORA, server.round_index, idx)
    a_new, b_new = lora.init_adapter(layer.d_out, layer.d_in, layer.rank, rng)
    return replace(layer, w0=w0, a=a_new, b=b_new)


def _fold_residual(layer: LoraLayer, weighted: list, server: ServerState, idx: int) -> LoraLayer:
    """FedEx-LoRA: average a and b, absorb what their product misses into w0."""
    avg = _average_ab(layer, weighted, server, idx)
    residual = sum(w * (b @ a) for w, a, b in weighted) - avg.b @ avg.a
    return replace(avg, w0=layer.w0 + layer.scale * residual)


@dataclass(frozen=True)
class Rule:
    """Everything that sets one strategy apart from the others.

    trains_a: clients train a as well as b (otherwise a is frozen).
    init: round-zero adapter initialization (layer, rng) -> layer, applied
        after the default Kaiming a / zero b start; None keeps that start.
    merge: (layer, [(w_k, a_k, b_k)] in client order, server, layer index)
        -> the merged layer; its weighted sums keep that client order.
    reparam: (b, a) -> (b_hat, a_hat) refactorization of the merged
        product, run after rounds r with (r + 1) % period == 0.
    ships_w0: the server broadcasts the refreshed base weights too.
    """

    trains_a: bool = False
    init: Callable[[LoraLayer, np.random.Generator], LoraLayer] | None = None
    merge: Callable[[LoraLayer, list, ServerState, int], LoraLayer] = _average_b
    reparam: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    ships_w0: bool = False


STRATEGIES: dict[str, Rule] = {
    "fedavg": Rule(trains_a=True, merge=_average_ab),
    "ffa_lora": Rule(),
    "fedsvd": Rule(reparam=lora.fedsvd_reparam),
    "fedsvd_nonortho": Rule(reparam=lora.nonorthonormal_reparam),
    "ffa_orthonormal": Rule(init=_orthonormal_start),
    "ffa_pissa": Rule(init=_pissa_start),
    "flora": Rule(trains_a=True, merge=_fold_restart, ships_w0=True),
    "fedex_lora": Rule(trains_a=True, merge=_fold_residual, ships_w0=True),
}


@dataclass(frozen=True)
class Strategy:
    kind: str
    period: int = 1

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    @property
    def rule(self) -> Rule:
        return STRATEGIES[self.kind]

    @property
    def trains_a(self) -> bool:
        return self.rule.trains_a

    @property
    def label(self) -> str:
        if self.rule.reparam is not None:
            return f"{self.kind}_p{self.period}"
        return self.kind


@dataclass
class ClientHandle:
    client_id: int
    dataset: data_mod.Dataset
    local_steps: int
    privacy_cfg: privacy.PrivacyConfig | None
    accountant: privacy.RdpAccountant | None
    sample_rate: float


@dataclass
class ServerState:
    layers: list[LoraLayer]
    round_index: int
    strategy: Strategy
    master_seed: int
    class_count: int

    def classifier(self) -> Classifier:
        return Classifier(layers=list(self.layers), class_count=self.class_count)


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    n: int
    adapters: dict  # layer index -> (a, b)


def sample_clients(total: int, count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample of client ids without replacement, returned sorted."""
    if not (1 <= count <= total):
        raise ValueError(f"cannot sample {count} of {total} clients")
    return sorted(int(i) for i in rng.choice(total, size=count, replace=False))


def broadcast_layers(server: ServerState) -> list[LoraLayer]:
    """Fresh per-client copy of the global layers with freeze flags applied."""
    a_frozen = not server.strategy.trains_a
    return [
        replace(
            layer,
            w0=layer.w0.copy(),
            a=layer.a.copy(),
            b=layer.b.copy(),
            a_frozen=a_frozen,
        )
        for layer in server.layers
    ]


def local_train(
    client: ClientHandle,
    layers: list[LoraLayer],
    lr: float,
    rng: np.random.Generator,
) -> ClientUpdate:
    """Run the client's local steps of (DP-)SGD from the broadcast snapshot.

    Each step Poisson-samples a batch at the client's sample rate and applies
    one dp_sgd_step_factored to the factored per-example adapter gradients.
    An empty Poisson draw skips the update but still consumes an accountant
    step. Frozen matrices are returned byte-identical.
    """
    trainable = model.trainable_params(Classifier(layers=list(layers), class_count=layers[-1].d_out))
    params = model.adapter_params(layers)
    feats, labels = client.dataset.features, client.dataset.labels
    n = len(feats)
    q = client.sample_rate
    for _step in range(client.local_steps):
        if client.accountant is not None:
            client.accountant.advance(1)
        mask = rng.random(n) < q
        if not mask.any():
            continue
        factors = model.grad_factors(layers, params, feats[mask], labels[mask], trainable)
        params = privacy.dp_sgd_step_factored(
            params, factors, trainable, client.privacy_cfg, lr, rng
        )
    return ClientUpdate(
        client_id=client.client_id,
        n=n,
        adapters={idx: (params[(idx, "a")], params[(idx, "b")]) for idx in range(len(layers))},
    )


def aggregate(updates: list[ClientUpdate], server: ServerState) -> ServerState:
    """Weighted aggregation of client updates plus strategy post-processing.

    Weights are n_k / m over the participating clients and must sum to one.
    FedSVD variants refactor the aggregated product every `period` rounds;
    FLoRA and FedEx-LoRA fold product information into the base weights.
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    total = sum(u.n for u in updates)
    weights = {u.client_id: u.n / total for u in updates}
    if abs(sum(weights.values()) - 1.0) > 1e-12:
        raise ValueError("aggregation weights do not sum to 1")
    updates = sorted(updates, key=lambda u: u.client_id)

    rule = server.strategy.rule
    reparam_now = rule.reparam is not None and (server.round_index + 1) % server.strategy.period == 0
    new_layers: list[LoraLayer] = []
    for idx, layer in enumerate(server.layers):
        for u in updates:
            a_k, b_k = u.adapters[idx]
            if a_k.shape != layer.a.shape or b_k.shape != layer.b.shape:
                raise ValueError(
                    f"client {u.client_id} returned mismatched shapes for layer {idx}"
                )
        weighted = [(weights[u.client_id], *u.adapters[idx]) for u in updates]
        layer = rule.merge(layer, weighted, server, idx)
        if reparam_now:
            b_hat, a_hat = rule.reparam(layer.b, layer.a)
            layer = layer.with_adapters(a=a_hat, b=b_hat)
        new_layers.append(layer)
    return replace(server, layers=new_layers, round_index=server.round_index + 1)


def comm_params_per_round(strategy: Strategy, layers: list[LoraLayer], participants: int, transmit_a: bool) -> tuple[int, int]:
    """(uploaded, downloaded) parameter counts for one round.

    Uploads count what participants send back; downloads what the server
    ships per participant. FedSVD defaults to the decentralized-SVD mode in
    which only b travels and clients recompute the refactorization locally.
    """
    rule = strategy.rule
    a_sz = sum(l.a.size for l in layers)
    b_sz = sum(l.b.size for l in layers)
    w_sz = sum(l.w0.size for l in layers)
    up = b_sz + a_sz * rule.trains_a
    down = up + w_sz * rule.ships_w0 + a_sz * (rule.reparam is not None and transmit_a)
    return up * participants, down * participants


@lru_cache(maxsize=None)
def _calibrated_sigma(epsilon: float, delta: float, q: float, steps: int) -> float:
    return privacy.calibrate_sigma(epsilon, delta, q, steps)


# Fitted backbones, keyed by everything the fit reads (see _backbone).
_BACKBONES: dict[tuple, list[np.ndarray]] = {}


def _backbone(cfg: RunConfig, pretrain: data_mod.Dataset, dims: list[int], class_count: int, seed: int) -> list[np.ndarray]:
    """The pre-trained backbone of (data, seed), fitted once per process.

    The key holds a sha256 digest of the pretrain split rather than the
    config fields that made it, so a rewritten CSV source is refitted. The
    cached weights are read-only and shared by every strategy of the seed.
    """
    digest = hashlib.sha256(np.ascontiguousarray(pretrain.features))
    digest.update(np.ascontiguousarray(pretrain.labels))
    key = (seed, tuple(dims), class_count, cfg.pretrain_steps, cfg.pretrain_lr, digest.hexdigest())
    if key not in _BACKBONES:
        weights = model.fit_dense_weights(
            pretrain.features,
            pretrain.labels,
            dims,
            class_count,
            steps=cfg.pretrain_steps,
            lr=cfg.pretrain_lr,
            seed=stream(seed, _TAG_BACKBONE),
        )
        for w in weights:
            w.flags.writeable = False
        _BACKBONES[key] = weights
    return list(_BACKBONES[key])


def _split_csv_dataset(full: data_mod.Dataset, seed: int):
    # csv sources carry one table; deterministically split it
    # 1/4 pretrain, 1/2 finetune, 1/4 eval.
    perm = stream(seed, _TAG_SPLIT).permutation(len(full))
    n_pre = len(full) // 4
    n_fine = len(full) // 2
    pre = full.subset(perm[:n_pre])
    fine = full.subset(perm[n_pre : n_pre + n_fine])
    heldout = full.subset(perm[n_pre + n_fine :])
    return pre, fine, heldout


def _build_datasets(cfg: RunConfig, seed: int):
    if cfg.source == "synthetic":
        return data_mod.gen_synthetic(
            cfg.classes, cfg.feature_dim, cfg.train_size, cfg.margin, seed=seed
        )
    return _split_csv_dataset(data_mod.load_csv(cfg.csv_path), seed)


def init_server(cfg: RunConfig, strategy: Strategy, base_weights: list[np.ndarray], class_count: int, seed: int) -> ServerState:
    """Round-zero server state: strategy-specific adapter initialization."""
    rng = stream(seed, _TAG_INIT)
    clf = model.build_classifier(
        base_weights, cfg.rank, cfg.lora_alpha, rng, class_count,
        a_frozen=not strategy.trains_a,
    )
    layers = clf.layers
    if strategy.rule.init is not None:
        layers = [strategy.rule.init(layer, rng) for layer in layers]
    return ServerState(
        layers=layers,
        round_index=0,
        strategy=strategy,
        master_seed=seed,
        class_count=class_count,
    )


def _check_finite(strategy: Strategy, rnd: int, where: str, layers: list[tuple]) -> None:
    """Raise DivergenceError unless every matrix has a finite squared norm.

    `layers` holds one (a, b, w0) triple per layer; a None is not checked.
    The squared norm also overflows when the entries are finite but the
    norm exceeds about 1e154, which fedsvd's degeneracy test would read as
    a zero product and answer by resetting b.
    """
    for idx, mats in enumerate(layers):
        for name, m in zip(("a", "b", "w0"), mats):
            if m is not None and not math.isfinite(np.vdot(m, m)):
                raise DivergenceError(
                    f"{strategy.label} diverged in round {rnd} ({where}): "
                    f"layer {idx} {name} has a non-finite norm"
                )


def _budget_epsilon(clients: list[ClientHandle], rounds_done: int, delta: float) -> float | None:
    """Worst-case spent epsilon after `rounds_done` rounds.

    Every client is accounted for the full per-round schedule (as if sampled
    into every round), which upper-bounds the actual spend of any
    participation pattern; the reported value is the max over clients.
    """
    private = [c for c in clients if c.privacy_cfg is not None]
    if not private:
        return None
    worst = 0.0
    for c in private:
        steps = rounds_done * c.local_steps
        if steps == 0:
            continue
        rdp = steps * c.accountant.rdp_per_step
        eps, _ = privacy.epsilon_from_rdp(c.accountant.orders, rdp, delta)
        worst = max(worst, eps)
    return worst


def build_clients(cfg: RunConfig, parts: list[data_mod.Dataset]) -> list[ClientHandle]:
    total_steps = max(1, cfg.rounds * cfg.local_steps)
    clients = []
    for k, part in enumerate(parts):
        q = min(1.0, cfg.batch_size / len(part))
        pcfg = None
        acct = None
        if cfg.private:
            if cfg.noise_multiplier is not None:
                sigma = cfg.noise_multiplier
            else:
                try:
                    sigma = _calibrated_sigma(cfg.epsilon, cfg.delta, q, total_steps)
                except privacy.CalibrationError as exc:
                    raise privacy.CalibrationError(
                        f"client {k} (shard of {len(part)} examples, q={q}): {exc}"
                    ) from exc
            pcfg = privacy.PrivacyConfig(
                delta=cfg.delta,
                clip_norm=cfg.clip_norm,
                sigma=sigma,
                sample_rate=q,
                total_steps=total_steps,
                epsilon_target=cfg.epsilon,
            )
            acct = privacy.RdpAccountant.for_mechanism(q, sigma)
        clients.append(
            ClientHandle(
                client_id=k,
                dataset=part,
                local_steps=cfg.local_steps,
                privacy_cfg=pcfg,
                accountant=acct,
                sample_rate=q,
            )
        )
    return clients


def run_experiment(
    cfg: RunConfig,
    seed: int,
    threads: int = 1,
    record_timing: bool = True,
) -> list[MetricsRow]:
    """Execute one seeded federated run and return its per-round metrics.

    Row 0 evaluates the untouched global model; row i >= 1 evaluates the
    state after round i's aggregation. Deterministic in (cfg, seed).
    Clients train one after another; `threads` is accepted for
    compatibility and has no effect.

    The pre-trained backbone depends on the data and the seed, not on the
    strategy: a process fits each seed's backbone once and reuses it
    across strategies (see _backbone). A client update or an aggregate
    with a non-finite adapter (or shipped w0) raises DivergenceError
    naming the strategy, the round, the client or "aggregate" and the
    layer.
    """
    cfg.validate()
    strategy = Strategy(cfg.strategy, cfg.svd_period)
    run_id = cfg.run_id()

    pretrain, finetune, heldout = _build_datasets(cfg, seed)
    class_count = finetune.class_count
    parts = data_mod.partition_dirichlet(
        finetune,
        data_mod.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=cfg.clients, seed=seed),
    )
    dims = [finetune.feature_dim] if cfg.layers == 1 else [finetune.feature_dim, cfg.hidden_dim]
    if cfg.pretrain_backbone:
        base = _backbone(cfg, pretrain, dims, class_count, seed)
    else:
        base = model.random_dense_weights(dims, class_count, stream(seed, _TAG_BACKBONE))

    server = init_server(cfg, strategy, base, class_count, seed)
    clients = build_clients(cfg, parts)

    rows: list[MetricsRow] = []

    def emit(round_idx: int, uploaded: int, downloaded: int, t0: float) -> None:
        acc, mean_loss = model.evaluate(server.classifier(), heldout)
        wall = int((time.perf_counter() - t0) * 1000) if record_timing else 0
        rows.append(
            MetricsRow(
                run_id=run_id,
                seed=seed,
                strategy=strategy.label,
                round=round_idx,
                eval_accuracy=acc,
                eval_loss=mean_loss,
                epsilon_spent=_budget_epsilon(clients, round_idx, cfg.delta),
                uploaded_params=uploaded,
                downloaded_params=downloaded,
                wall_ms=wall,
            )
        )

    t0 = time.perf_counter()
    emit(0, 0, 0, t0)

    for rnd in range(cfg.rounds):
        t0 = time.perf_counter()
        sampled = sample_clients(
            cfg.clients, cfg.participants, stream(seed, _TAG_SAMPLE, rnd)
        )
        updates = []
        for cid in sampled:
            update = local_train(
                clients[cid],
                broadcast_layers(server),
                lr=cfg.learning_rate,
                rng=stream(seed, _TAG_CLIENT, rnd, cid),
            )
            _check_finite(
                strategy, rnd + 1, f"client {cid}",
                [(a, b, None) for a, b in update.adapters.values()],
            )
            updates.append(update)
        server = aggregate(updates, server)
        _check_finite(
            strategy, rnd + 1, "aggregate",
            [(l.a, l.b, l.w0 if strategy.rule.ships_w0 else None) for l in server.layers],
        )
        up, down = comm_params_per_round(
            strategy, server.layers, len(sampled), cfg.transmit_a
        )
        emit(rnd + 1, up, down, t0)
    return rows
