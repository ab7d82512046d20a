"""Federated round protocol: sampling, local DP-SGD training, aggregation.

Each round the server broadcasts its adapter state to a sampled subset of
clients, clients run local DP-SGD steps on their private shards, and the
server averages the returned matrices weighted by shard sizes. Strategy tags
select what is trained and how the aggregate is post-processed (periodic SVD
refactorization, base-weight absorption, residual correction, ...).

Clients are independent: every client derives its own RNG stream from
(master_seed, round, client_id), so results do not depend on the execution
schedule or the number of worker threads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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

_B_ONLY_KINDS = frozenset(
    {"ffa_lora", "ffa_orthonormal", "ffa_pissa", "fedsvd", "fedsvd_nonortho"}
)


def stream(master_seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for (master_seed, *tags)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), *map(int, tags))))


@dataclass(frozen=True)
class Strategy:
    kind: str
    period: int = 1

    def __post_init__(self):
        from .config import STRATEGY_CHOICES

        if self.kind not in STRATEGY_CHOICES:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    @property
    def trains_a(self) -> bool:
        return self.kind not in _B_ONLY_KINDS

    @property
    def reparam_kind(self) -> lora.ReparamKind:
        if self.kind == "fedsvd":
            return lora.ReparamKind.FEDSVD
        if self.kind == "fedsvd_nonortho":
            return lora.ReparamKind.NON_ORTHONORMAL
        if self.kind == "ffa_pissa":
            return lora.ReparamKind.PISSA
        return lora.ReparamKind.NONE

    @property
    def uses_reparam(self) -> bool:
        return self.reparam_kind in (
            lora.ReparamKind.FEDSVD,
            lora.ReparamKind.NON_ORTHONORMAL,
        )

    @property
    def label(self) -> str:
        if self.uses_reparam:
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

    @property
    def n(self) -> int:
        return len(self.dataset)


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

    strategy = server.strategy
    kind = strategy.kind
    finished_round = server.round_index
    new_layers: list[LoraLayer] = []
    for idx, layer in enumerate(server.layers):
        for u in updates:
            a_k, b_k = u.adapters[idx]
            if a_k.shape != layer.a.shape or b_k.shape != layer.b.shape:
                raise ValueError(
                    f"client {u.client_id} returned mismatched shapes for layer {idx}"
                )
        b_avg = sum(weights[u.client_id] * u.adapters[idx][1] for u in updates)
        if kind == "fedavg":
            a_avg = sum(weights[u.client_id] * u.adapters[idx][0] for u in updates)
            new_layers.append(layer.with_adapters(a=a_avg, b=b_avg))
        elif kind in ("ffa_lora", "ffa_orthonormal", "ffa_pissa"):
            new_layers.append(layer.with_adapters(b=b_avg))
        elif kind in ("fedsvd", "fedsvd_nonortho"):
            if (finished_round + 1) % strategy.period == 0:
                reparam = (
                    lora.fedsvd_reparam
                    if strategy.reparam_kind is lora.ReparamKind.FEDSVD
                    else lora.nonorthonormal_reparam
                )
                b_hat, a_hat = reparam(b_avg, layer.a)
                new_layers.append(layer.with_adapters(a=a_hat, b=b_hat))
            else:
                new_layers.append(layer.with_adapters(b=b_avg))
        elif kind == "flora":
            product = sum(
                weights[u.client_id] * (u.adapters[idx][1] @ u.adapters[idx][0])
                for u in updates
            )
            w0 = layer.w0 + layer.scale * product
            a_new, b_new = lora.init_adapter(
                layer.d_out,
                layer.d_in,
                layer.rank,
                stream(server.master_seed, _TAG_FLORA, finished_round, idx),
            )
            new_layers.append(replace(layer, w0=w0, a=a_new, b=b_new))
        elif kind == "fedex_lora":
            a_avg = sum(weights[u.client_id] * u.adapters[idx][0] for u in updates)
            product = sum(
                weights[u.client_id] * (u.adapters[idx][1] @ u.adapters[idx][0])
                for u in updates
            )
            residual = product - b_avg @ a_avg
            w0 = layer.w0 + layer.scale * residual
            new_layers.append(replace(layer, w0=w0, a=a_avg, b=b_avg))
        else:  # pragma: no cover - Strategy validates kinds
            raise ValueError(f"unknown strategy {kind!r}")
    return replace(server, layers=new_layers, round_index=finished_round + 1)


def comm_params_per_round(strategy: Strategy, layers: list[LoraLayer], participants: int, transmit_a: bool) -> tuple[int, int]:
    """(uploaded, downloaded) parameter counts for one round.

    Uploads count what participants send back; downloads what the server
    ships per participant. FedSVD defaults to the decentralized-SVD mode in
    which only b travels and clients recompute the refactorization locally.
    """
    a_sz = sum(l.a.size for l in layers)
    b_sz = sum(l.b.size for l in layers)
    w_sz = sum(l.w0.size for l in layers)
    kind = strategy.kind
    if kind == "fedavg":
        up, down = a_sz + b_sz, a_sz + b_sz
    elif kind in ("ffa_lora", "ffa_orthonormal", "ffa_pissa"):
        up, down = b_sz, b_sz
    elif kind in ("fedsvd", "fedsvd_nonortho"):
        up = b_sz
        down = b_sz + (a_sz if transmit_a else 0)
    else:  # flora / fedex_lora ship refreshed base weights too
        up = a_sz + b_sz
        down = a_sz + b_sz + w_sz
    return up * participants, down * participants


@lru_cache(maxsize=None)
def _calibrated_sigma(epsilon: float, delta: float, q: float, steps: int) -> float:
    return privacy.calibrate_sigma(epsilon, delta, q, steps)


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
    if strategy.kind == "ffa_orthonormal":
        layers = []
        for layer in clf.layers:
            a, b = lora.orthonormal_init(layer.d_out, layer.d_in, layer.rank, rng)
            layers.append(layer.with_adapters(a=a, b=b))
    elif strategy.kind == "ffa_pissa":
        layers = []
        for layer in clf.layers:
            a, b, residual = lora.pissa_init(layer.w0, layer.rank)
            # keep residual + scale * b @ a equal to the original base weight
            layers.append(replace(layer, w0=residual, a=a, b=b / layer.scale))
    return ServerState(
        layers=layers,
        round_index=0,
        strategy=strategy,
        master_seed=seed,
        class_count=class_count,
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
    state after round i's aggregation. Deterministic in (cfg, seed)
    regardless of the number of worker threads.
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
        base = model.fit_dense_weights(
            pretrain.features,
            pretrain.labels,
            dims,
            class_count,
            steps=cfg.pretrain_steps,
            lr=cfg.pretrain_lr,
            seed=stream(seed, _TAG_BACKBONE),
        )
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

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for rnd in range(cfg.rounds):
            t0 = time.perf_counter()
            sampled = sample_clients(
                cfg.clients, cfg.participants, stream(seed, _TAG_SAMPLE, rnd)
            )

            def train_one(cid: int) -> ClientUpdate:
                return local_train(
                    clients[cid],
                    broadcast_layers(server),
                    lr=cfg.learning_rate,
                    rng=stream(seed, _TAG_CLIENT, rnd, cid),
                )

            if pool is None:
                updates = [train_one(cid) for cid in sampled]
            else:
                updates = list(pool.map(train_one, sampled))
            server = aggregate(updates, server)
            up, down = comm_params_per_round(
                strategy, server.layers, len(sampled), cfg.transmit_a
            )
            emit(rnd + 1, up, down, t0)
    finally:
        if pool is not None:
            pool.shutdown()
    return rows
