"""Federated round protocol: sampling, local DP-SGD training, aggregation.

Each round the server broadcasts its adapter state to a sampled subset of
clients, clients run local DP-SGD steps on their private shards, and the
server averages the returned matrices weighted by shard sizes. The strategy's
entry in STRATEGIES selects what is trained, how the adapters start and how
the aggregate is post-processed (periodic SVD refactorization, base-weight
absorption, residual correction, ...).

The sampled clients of a round train together on a stacked client axis
(train_clients), each on its own RNG stream from (master_seed, round,
client_id), so results do not depend, beyond rounding, on how clients are
grouped or ordered. The (K, ...) adapters it returns go straight to
aggregate, whose weighted sums add the clients one by one in sampled
(sorted) order.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain

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


def _weighted(w: list[float], stacked) -> np.ndarray:
    """sum_k w_k m_k over the client axis, added in client order."""
    return sum(w_k * m_k for w_k, m_k in zip(w, stacked))


def _average(layer: LoraLayer, w: list[float], a, b, server: ServerState, idx: int) -> LoraLayer:
    """Average what the clients trained: b, and a when the strategy trains it."""
    return layer.with_adapters(a=_weighted(w, a) if server.strategy.trains_a else None, b=_weighted(w, b))


def _fold_restart(layer: LoraLayer, w: list[float], a, b, server: ServerState, idx: int) -> LoraLayer:
    """FLoRA: absorb the mean product into w0 and restart the adapters."""
    w0 = layer.w0 + layer.scale * _weighted(w, b @ a)
    rng = stream(server.master_seed, _TAG_FLORA, server.round_index, idx)
    a_new, b_new = lora.init_adapter(layer.d_out, layer.d_in, layer.rank, rng)
    return replace(layer, w0=w0, a=a_new, b=b_new)


def _fold_residual(layer: LoraLayer, w: list[float], a, b, server: ServerState, idx: int) -> LoraLayer:
    """FedEx-LoRA: average a and b, absorb what their product misses into w0."""
    avg = _average(layer, w, a, b, server, idx)
    residual = _weighted(w, b @ a) - avg.b @ avg.a
    return replace(avg, w0=layer.w0 + layer.scale * residual)


@dataclass(frozen=True)
class Rule:
    """Everything that sets one strategy apart from the others.

    trains_a: clients train a as well as b (otherwise a is frozen).
    init: round-zero adapter initialization (layer, rng) -> layer, applied
        after the default Kaiming a / zero b start; None keeps that start.
    merge: (layer, weights, a, b, server, layer index) -> the merged layer.
        a and b are train_clients' (K, ...) stacks, row k holding client k
        with weight n_k / sum n (a frozen a is the layer's own array); every
        weighted sum adds the clients one by one in that order. The default
        averages what the clients trained.
    reparam: (b, a) -> (b_hat, a_hat) refactorization of the merged
        product, run after rounds r with (r + 1) % period == 0.
    ships_w0: the server broadcasts the refreshed base weights too.
    """

    trains_a: bool = False
    init: Callable[[LoraLayer, np.random.Generator], LoraLayer] | None = None
    merge: Callable[[LoraLayer, list, np.ndarray, np.ndarray, ServerState, int], LoraLayer] = _average
    reparam: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    ships_w0: bool = False


STRATEGIES: dict[str, Rule] = {
    "fedavg": Rule(trains_a=True),
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


@dataclass(frozen=True)
class ClientHandle:
    """One client: its shard as a table of [features | one-hot labels] rows,
    (n_k, d + classes), so that a step gathers a batch's inputs and targets
    in one take (the memoized one, one copy per seed: see _inputs), and n_k is
    its row count; its Poisson rate q and noise multiplier sigma (None: no
    privacy). With privacy, `steps` steps spend steps times the RDP of one,
    privacy.rdp_subsampled_gaussian(q, sigma). The run sets clip and steps."""

    table: np.ndarray
    sample_rate: float
    sigma: float | None


@dataclass
class ServerState:
    layers: list[LoraLayer]
    round_index: int
    strategy: Strategy
    master_seed: int

    def classifier(self) -> Classifier:
        return Classifier(list(self.layers))


def sample_clients(total: int, count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample of client ids without replacement, returned sorted."""
    if not (1 <= count <= total):
        raise ValueError(f"cannot sample {count} of {total} clients")
    return sorted(int(i) for i in rng.choice(total, size=count, replace=False))


def train_clients(
    clients: list[ClientHandle], layers: list[LoraLayer], trains_a: bool, lr: float,
    rngs: list[np.random.Generator], steps: int, clip: float,
) -> dict[model.GradKey, np.ndarray]:
    """Run `steps` local steps of (DP-)SGD per client from the same broadcast
    layers, each example's gradient clipped to `clip` (inf: no clipping) and
    client k's noise scaled by sigma_k * clip.

    Returns the adapters keyed like model.adapter_params: each trained
    matrix is (K, ...), row k holding clients[k]; a frozen a (trains_a
    false) is the layer's own array. `layers` are read, never written.
    All K clients' trainable adapters live in one privacy.flat_buffer; each
    step runs one grad_factors and one dp_sgd_step_flat for all of them, on
    Poisson batches gathered from each client's table into one zero-padded
    (K, M, d + classes) block, whose column views are the inputs and the
    one-hot targets. Client k draws its batch, then its noise, from rngs[k]
    alone: its row equals its result trained alone up to rounding. An empty
    draw leaves the client's row unchanged and draws no noise (see
    dp_sgd_step_flat), even when no client drew; the privacy spend counts it
    all the same (see _epsilon_column).
    """
    count, d_in, width = len(clients), layers[0].d_in, layers[0].d_in + layers[-1].d_out
    adapters = model.adapter_params(layers)
    trainable = [key for key in adapters if trains_a or key[1] == "b"]
    theta, views = privacy.flat_buffer({key: adapters[key] for key in trainable}, count)
    params = {**adapters, **views}
    noise = [c.sigma * clip if c.sigma else None for c in clients]
    shards = [(c.table, c.sample_rate) for c in clients]
    for _ in range(steps):
        picks = [(rng.random(len(table)) < q).nonzero()[0] for (table, q), rng in zip(shards, rngs)]
        sizes = [len(p) for p in picks]
        block = np.zeros((count, max(sizes), width))
        for k, ((table, _), p) in enumerate(zip(shards, picks)):
            # p indexes the table's own rows, so "clip" clips nothing; "raise" would buffer out
            table.take(p, axis=0, out=block[k, : len(p)], mode="clip")
        factors = model.grad_factors(layers, params, block[..., :d_in], block[..., d_in:], trainable)
        privacy.dp_sgd_step_flat(theta, views, factors, clip, noise, lr, rngs, np.array(sizes))
    return params


def aggregate(sizes: list[int], adapters: dict, server: ServerState) -> ServerState:
    """Weighted aggregation of train_clients' adapters plus strategy post-processing.

    sizes[k] is the shard size n_k of the client in row k; the weights are
    n_k / sum n and must sum to one. FedSVD variants refactor the
    aggregated product every `period` rounds; FLoRA and FedEx-LoRA fold
    product information into the base weights.
    """
    if not sizes:
        raise ValueError("no client updates to aggregate")
    total = sum(sizes)
    weights = [n / total for n in sizes]
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError("aggregation weights do not sum to 1")

    rule = server.strategy.rule
    reparam_now = rule.reparam is not None and (server.round_index + 1) % server.strategy.period == 0
    new_layers: list[LoraLayer] = []
    for idx, layer in enumerate(server.layers):
        layer = rule.merge(layer, weights, adapters[idx, "a"], adapters[idx, "b"], server, idx)
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


@lru_cache(maxsize=None)
def _schedule(seed: int, clients: int, participants: int, rounds: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sample_clients(clients, participants, stream(seed, _TAG_SAMPLE, rnd))) for rnd in range(rounds))


def schedule(cfg: RunConfig, seed: int) -> tuple[tuple[int, ...], ...]:
    """The sorted ids of the clients sampled in each round, drawn once per
    process: a function of (seed, clients, participants, rounds) alone."""
    return _schedule(seed, cfg.clients, cfg.participants, cfg.rounds)


def _source(cfg: RunConfig, seed: int) -> tuple[tuple, data_mod.Dataset | None, int, int]:
    """(key, table, classes, feature_dim) of the data of (cfg, seed). The key
    holds everything shards reads: the synthetic settings or a sha256 of the
    parsed CSV table (so a rewritten file reads as new data), the seed,
    dirichlet_alpha and clients. The table is the parsed one (None: synthetic)."""
    tail = (seed, cfg.dirichlet_alpha, cfg.clients)
    if cfg.source != "csv":
        return ("synthetic", cfg.classes, cfg.feature_dim, cfg.train_size, cfg.margin, *tail), None, cfg.classes, cfg.feature_dim
    full = data_mod.load_csv(cfg.csv_path)
    digest = hashlib.sha256(np.ascontiguousarray(full.features))
    digest.update(np.ascontiguousarray(full.labels))
    return ("csv", digest.hexdigest(), *tail), full, full.class_count, full.feature_dim


def _split(cfg: RunConfig, full: data_mod.Dataset | None, seed: int, split: int):
    """Split `split` (0 pretrain, 1 finetune, 2 held-out) of (cfg, seed) as
    (labels, rows), like data.synthetic_split: the synthetic split, or the
    1/4, 1/2, 1/4 split of the parsed CSV table `full`."""
    if full is None:
        return data_mod.synthetic_split(split, cfg.classes, cfg.feature_dim, cfg.train_size, cfg.margin, seed)
    perm = stream(seed, _TAG_SPLIT).permutation(len(full))
    idx = np.split(perm, [len(full) // 4, len(full) // 4 + len(full) // 2])[split]
    return full.labels[idx], [(0, full.features[idx])]


def shards(cfg: RunConfig, seed: int, source: tuple | None = None) -> tuple[list[np.ndarray], data_mod.Dataset]:
    """(tables, heldout) of (cfg, seed), built anew on every call: the
    clients' Dirichlet partition of the finetune split, one [features |
    one-hot labels] table per client (see data.shard_tables), and the
    held-out split. `source` is _source(cfg, seed), parsed here when None.
    The finetune split's labels are partitioned first, then its features
    drawn straight into the tables, so the split is never whole."""
    _, full, classes, dim = source or _source(cfg, seed)
    labels, rows = _split(cfg, full, seed, 1)
    cells = data_mod.partition_cells(labels, classes, data_mod.PartitionSpec(cfg.dirichlet_alpha, cfg.clients, seed))
    tables = data_mod.shard_tables(labels, rows, cells, classes, dim)
    return tables, data_mod.split_dataset(*_split(cfg, full, seed, 2), classes, dim)


# The last run inputs built, keyed by everything the build reads (see _inputs).
_INPUTS: dict[tuple, tuple] = {}


def _inputs(cfg: RunConfig, seed: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], data_mod.Dataset]:
    """(base weights, tables, heldout) of (cfg, seed), built once per key.

    The key holds what the build reads: the source key (see _source), the
    layer dims, pretrain_backbone, pretrain_steps and pretrain_lr. Only the
    last build is kept, and it goes before the next one is drawn: the
    strategies of a seed share one build, and a run over many seeds holds
    one. The backbone is fitted (or drawn) first, and its pretrain split is
    gone before the shards are built. Every array held is read-only.
    """
    source = _source(cfg, seed)
    data_key, full, classes, dim = source
    dims = [dim] if cfg.layers == 1 else [dim, cfg.hidden_dim]
    key = (data_key, tuple(dims), cfg.pretrain_backbone, cfg.pretrain_steps, cfg.pretrain_lr)
    if key not in _INPUTS:
        _INPUTS.clear()
        rng = stream(seed, _TAG_BACKBONE)
        if cfg.pretrain_backbone:
            pretrain = data_mod.split_dataset(*_split(cfg, full, seed, 0), classes, dim)
            base = model.fit_dense_weights(
                pretrain.features, pretrain.labels, dims, classes,
                steps=cfg.pretrain_steps, lr=cfg.pretrain_lr, seed=rng,
            )
            del pretrain
        else:
            base = model.random_dense_weights(dims, classes, rng)
        tables, heldout = shards(cfg, seed, source)
        for arr in (*base, *tables, heldout.features, heldout.labels):
            arr.flags.writeable = False
        _INPUTS[key] = (tuple(base), tuple(tables), heldout)
    return _INPUTS[key]


def init_server(cfg: RunConfig, strategy: Strategy, base_weights: list[np.ndarray], seed: int) -> ServerState:
    """Round-zero server state: strategy-specific adapter initialization."""
    rng = stream(seed, _TAG_INIT)
    layers = model.build_classifier(base_weights, cfg.rank, cfg.lora_alpha, rng, len(base_weights[-1])).layers
    if strategy.rule.init is not None:
        layers = [strategy.rule.init(layer, rng) for layer in layers]
    return ServerState(layers=layers, round_index=0, strategy=strategy, master_seed=seed)


def _check_finite(strategy: Strategy, rnd: int, where: str, layers: list[tuple]) -> None:
    """Raise DivergenceError unless every matrix has a finite squared norm.

    `layers` holds one (a, b, w0) triple per layer; a None is not checked.
    The squared norm also overflows when the entries are finite but the
    norm exceeds about 1e154; such a state counts as diverged too.
    """
    for idx, mats in enumerate(layers):
        for name, m in zip(("a", "b", "w0"), mats):
            if m is not None and not math.isfinite(np.vdot(m, m)):
                raise DivergenceError(
                    f"{strategy.label} diverged in round {rnd} ({where}): "
                    f"layer {idx} {name} has a non-finite norm"
                )


def _epsilon_column(clients: list[ClientHandle], steps: int, rounds: int, delta: float) -> list[float | None]:
    """Worst-case spent epsilon after each of rounds 0..rounds of `steps`
    local steps.

    Every client is accounted for the full per-round schedule (as if sampled
    into every round), which upper-bounds the actual spend of any
    participation pattern. The value is the max over clients of
    privacy.epsilon_from_rdp, converted for all rounds at once.
    """
    rdps = [privacy.rdp_subsampled_gaussian(c.sample_rate, c.sigma) for c in clients if c.sigma is not None]
    if not rdps:
        return [None] * (rounds + 1)
    done = np.arange(rounds + 1)[:, None]
    eps = [privacy.epsilon_from_rdp(privacy.DEFAULT_ORDERS, done * steps * rdp, delta)[0] for rdp in rdps]
    return [0.0, *np.max(eps, axis=0)[1:].tolist()]


def sampling_rate(cfg: RunConfig, table: np.ndarray) -> float:
    """Poisson sampling rate q = batch_size / n_k of a client's shard table
    (n_k is its length), at most 1."""
    return min(1.0, cfg.batch_size / len(table))


def build_clients(cfg: RunConfig, tables: Sequence[np.ndarray]) -> list[ClientHandle]:
    total_steps = max(1, cfg.rounds * cfg.local_steps)
    clients = []
    for k, table in enumerate(tables):
        q = sampling_rate(cfg, table)
        sigma = None
        if cfg.private:
            if cfg.noise_multiplier is not None:
                sigma = cfg.noise_multiplier
            else:
                try:
                    sigma = _calibrated_sigma(cfg.epsilon, cfg.delta, q, total_steps)
                except privacy.CalibrationError as exc:
                    raise privacy.CalibrationError(
                        f"client {k} (shard of {len(table)} examples, q={q}): {exc}"
                    ) from exc
        clients.append(ClientHandle(table=table, sample_rate=q, sigma=sigma))
    return clients


def start(cfg: RunConfig, seed: int) -> tuple[ServerState, list[ClientHandle], data_mod.Dataset]:
    """(server, clients, heldout) of a seeded run before its first round,
    on the seed's memoized backbone, shard tables and held-out split (see
    _inputs), which every strategy of the seed shares."""
    cfg.validate()
    base, tables, heldout = _inputs(cfg, seed)
    server = init_server(cfg, Strategy(cfg.strategy, cfg.svd_period), list(base), seed)
    return server, build_clients(cfg, tables), heldout


def rounds(cfg: RunConfig, server: ServerState, clients: list[ClientHandle]):
    """Step the run from `server` to round cfg.rounds, one round per request.

    Yields (sampled, adapters, server) per round: the sorted ids of the
    sampled clients (the round's row of schedule), their (K, ...) adapters
    from train_clients (trained from the state yielded before, or from the
    given one) and the aggregated state. A client update or an aggregate
    with a non-finite adapter (or shipped w0) raises DivergenceError naming
    the strategy, the round, the client or "aggregate" and the layer.
    """
    strategy, seed = server.strategy, server.master_seed
    clip = cfg.clip_norm if cfg.private else np.inf
    plan = schedule(cfg, seed)
    for rnd in range(server.round_index, cfg.rounds):
        sampled = plan[rnd]
        batch = [clients[cid] for cid in sampled]
        adapters = train_clients(
            batch, server.layers, strategy.trains_a, cfg.learning_rate,
            [stream(seed, _TAG_CLIENT, rnd, cid) for cid in sampled], cfg.local_steps, clip,
        )
        for k, cid in enumerate(sampled):  # sorted, so the first diverged client is named
            _check_finite(strategy, rnd + 1, f"client {cid}", [  # a frozen a was checked with the aggregate
                (adapters[idx, "a"][k] if strategy.trains_a else None, adapters[idx, "b"][k], None)
                for idx in range(len(server.layers))
            ])
        server = aggregate([len(c.table) for c in batch], adapters, server)
        _check_finite(
            strategy, rnd + 1, "aggregate",
            [(l.a, l.b, l.w0 if strategy.rule.ships_w0 else None) for l in server.layers],
        )
        yield sampled, adapters, server


def run_experiment(cfg: RunConfig, seed: int, record_timing: bool = True) -> list[MetricsRow]:
    """Execute one seeded federated run and return its per-round metrics.

    Row 0 evaluates the untouched global model; row i >= 1 evaluates the
    state after round i's aggregation, and its wall_ms times the round
    and the evaluation. Deterministic in (cfg, seed).
    """
    server, clients, heldout = start(cfg, seed)
    # adapter shapes never change within a run (FLoRA restarts at the same ones)
    up, down = comm_params_per_round(server.strategy, server.layers, cfg.participants, cfg.transmit_a)
    epsilons = _epsilon_column(clients, cfg.local_steps, cfg.rounds, cfg.delta)
    run_id = cfg.run_id()
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    for state in chain([server], (after for _, _, after in rounds(cfg, server, clients))):
        acc, mean_loss = model.evaluate(state.classifier(), heldout)
        r = state.round_index
        rows.append(MetricsRow(
            run_id=run_id, seed=seed, strategy=state.strategy.label, round=r,
            eval_accuracy=acc, eval_loss=mean_loss, epsilon_spent=epsilons[r],
            uploaded_params=up if r else 0, downloaded_params=down if r else 0,
            wall_ms=int((time.perf_counter() - t0) * 1000) if record_timing else 0,
        ))
        t0 = time.perf_counter()
    return rows
