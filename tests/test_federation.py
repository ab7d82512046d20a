import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import (
    clip_gradient, gen_synthetic, outer_products, partition_dirichlet, save_csv, shard_table, small_config,
    solo_train, stack_rows, subset,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsvd import cli, config, data, federation, linalg, lora, model, privacy
from fedsvd.data import Dataset
from fedsvd.federation import ClientHandle, ServerState, Strategy


# The clip norm of the runs that train make_client's private clients.
CLIP = 2.0


def make_client(n=40, seed=0, private=False, q=0.5, d=6):
    rng = np.random.default_rng(seed)
    ds = data.Dataset(
        features=rng.standard_normal((n, d)),
        labels=rng.permutation(np.arange(n) % 3),
        class_count=3,
    )
    return ClientHandle(table=shard_table(ds), sample_rate=q, sigma=1.0 if private else None)


def make_layers(seed=0, d=6, c=3, r=2):
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((c, d)) * 0.3
    a, b = lora.init_adapter(c, d, r, rng)
    return [lora.LoraLayer(w0=w0, a=a, b=b, scale=1.0)]


def test_sample_clients_all_when_full():
    assert federation.sample_clients(5, 5, np.random.default_rng(0)) == [0, 1, 2, 3, 4]


def test_sample_clients_size_and_determinism():
    ids = federation.sample_clients(6, 3, np.random.default_rng(7))
    assert len(ids) == len(set(ids)) == 3
    assert ids == federation.sample_clients(6, 3, np.random.default_rng(7))
    with pytest.raises(ValueError):
        federation.sample_clients(4, 5, np.random.default_rng(0))


def test_sample_clients_hypergeometric_marginal():
    # each of 6 clients appears with frequency 1/2 when 3 are drawn
    rng = np.random.default_rng(1)
    hits = np.zeros(6)
    draws = 10**5
    for _ in range(draws):
        for cid in federation.sample_clients(6, 3, rng):
            hits[cid] += 1
    np.testing.assert_allclose(hits / draws, 0.5, atol=0.01)


def test_local_train_zero_steps_changes_nothing():
    client = make_client(private=True)
    layers = make_layers()
    before = [(l.a.tobytes(), l.b.tobytes()) for l in layers]
    update = solo_train(client, layers, False, lr=0.5, rng=np.random.default_rng(0), steps=0, clip=CLIP)
    a, b = update[0, "a"], update[0, "b"]
    assert a.tobytes() == before[0][0]
    assert b.tobytes() == before[0][1]


def test_local_train_empty_draws_leave_adapters_unchanged():
    client = make_client(private=True, q=1e-12)  # batches will be empty
    update = solo_train(client, make_layers(), False, lr=0.5, rng=np.random.default_rng(0), steps=5, clip=CLIP)
    assert update[0, "b"].tobytes() == make_layers()[0].b.tobytes()


def client_state(client):
    return (
        client.sample_rate, client.sigma, client.table.tobytes(), client.table.shape,
    )


def test_local_train_leaves_client_unchanged():
    client = make_client(private=True, q=0.3)
    before = client_state(client)
    solo_train(client, make_layers(), True, lr=0.5, rng=np.random.default_rng(1), steps=6, clip=CLIP)
    assert client_state(client) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        client.sigma = 7.0


@pytest.mark.parametrize("privacy_kw", [{"epsilon": 6.0}, {"noise_multiplier": 1.3}])
def test_epsilon_spent_is_worst_client_schedule_every_round(privacy_kw):
    cfg = small_config(strategy="fedsvd", rounds=3, **privacy_kw)
    rows = federation.run_experiment(cfg, 0, record_timing=False)
    tables, _ = federation.shards(cfg, 0)
    qs = [min(1.0, cfg.batch_size / len(table)) for table in tables]
    if cfg.epsilon is None:
        sigmas = [cfg.noise_multiplier] * len(qs)
    else:
        sigmas = [
            privacy.calibrate_sigma(cfg.epsilon, cfg.delta, q, cfg.rounds * cfg.local_steps)
            for q in qs
        ]
    assert rows[0].epsilon_spent == 0.0
    for r, row in enumerate(rows[1:], start=1):
        steps = r * cfg.local_steps
        assert row.epsilon_spent == max(
            privacy.spent_epsilon(q, sigma, steps, cfg.delta) for q, sigma in zip(qs, sigmas)
        )
    if cfg.epsilon is not None:
        assert 0.99 * cfg.epsilon < rows[-1].epsilon_spent <= cfg.epsilon


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("privacy_kw", [{"epsilon": 6.0}, {"noise_multiplier": 1.3}, {}])
def test_epsilon_column_equals_per_round_accounting(privacy_kw, seed):
    cfg = small_config(local_steps=3, rounds=37, **privacy_kw)
    tables, _ = federation.shards(cfg, seed)
    clients = federation.build_clients(cfg, tables)
    column = federation._epsilon_column(clients, cfg.local_steps, cfg.rounds, cfg.delta)
    if not privacy_kw:
        assert column == [None] * (cfg.rounds + 1)
        return
    assert len(column) == cfg.rounds + 1 and column[0] == 0.0
    for r in range(1, cfg.rounds + 1):
        assert column[r] == max(
            privacy.epsilon_from_rdp(
                privacy.DEFAULT_ORDERS,
                r * cfg.local_steps * privacy.rdp_subsampled_gaussian(c.sample_rate, c.sigma), cfg.delta,
            )[0]
            for c in clients
        )


def test_local_train_frozen_a_returned_byte_identical():
    client = make_client(private=True)
    layers = make_layers()
    a_before = layers[0].a.tobytes()
    update = solo_train(client, layers, False, lr=0.5, rng=np.random.default_rng(3), steps=4, clip=CLIP)
    a_after, b_after = update[0, "a"], update[0, "b"]
    assert a_after.tobytes() == a_before
    assert b_after.tobytes() != layers[0].b.tobytes()  # b did train


def test_local_train_loss_nonincreasing_convex_case():
    # sigma = 0, full batches, fixed A: logistic loss in b is convex, and
    # small-lr gradient steps cannot increase it.
    rng = np.random.default_rng(5)
    means = np.array([[3.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    labels = rng.permutation(np.arange(90) % 3)
    ds = data.Dataset(
        features=means[labels] + 0.3 * rng.standard_normal((90, 3)),
        labels=labels,
        class_count=3,
    )
    client = ClientHandle(table=shard_table(ds), sample_rate=1.0, sigma=None)
    layers = make_layers(seed=1, d=3, c=3, r=2)
    losses = []
    current = layers
    for step in range(10):
        clf = model.Classifier(layers=list(current))
        losses.append(model.evaluate(clf, ds)[1])
        update = solo_train(
            client, current, False, lr=0.05, rng=np.random.default_rng(100 + step), steps=1, clip=np.inf
        )
        current = [current[0].with_adapters(a=update[0, "a"], b=update[0, "b"])]
    assert all(l1 <= l0 + 1e-12 for l0, l1 in zip(losses, losses[1:]))


def trainable_keys(layers, trains_a):
    """The adapter keys a strategy trains: every b, and every a if trains_a."""
    return {key for key in model.adapter_params(layers) if trains_a or key[1] == "b"}


def reference_local_train(client, layers, trains_a, lr, rng, steps, clip):
    """One client's `steps` local steps composed from the per-example oracle.

    grad_factors outer products -> clip each example to `clip` -> sum -> one
    noise draw of std sigma * clip per trainable key in sorted order (none at
    sigma 0 or without privacy) -> divide by the realized batch size.
    Returns the final layers and the number of empty Poisson draws.
    """
    clf = model.Classifier(list(layers))
    trainable = trainable_keys(layers, trains_a)
    noise = 0.0 if client.sigma is None else client.sigma * clip
    table, d = client.table, layers[0].d_in  # [features | one-hot labels] rows
    empty = 0
    for _ in range(steps):
        mask = rng.random(len(table)) < client.sample_rate
        if not mask.any():
            empty += 1
            continue
        batch = table[mask]
        params = model.adapter_params(clf.layers)
        grads = outer_products(model.grad_factors(clf.layers, params, batch[:, :d], batch[:, d:], trainable))
        m = int(mask.sum())
        total = {k: 0.0 for k in trainable}
        for n in range(m):
            clipped = clip_gradient({k: grads[k][n] for k in trainable}, clip)
            for k in trainable:
                total[k] = total[k] + clipped[k]
        new_layers = list(clf.layers)
        for idx, name in sorted(trainable):
            noisy = total[(idx, name)]
            if noise > 0.0:
                noisy = noisy + rng.normal(0.0, noise, size=noisy.shape)
            old = getattr(new_layers[idx], name)
            new_layers[idx] = new_layers[idx].with_adapters(**{name: old - lr * (noisy / m)})
        clf = model.Classifier(new_layers)
    return clf.layers, empty


@pytest.mark.parametrize("trains_a", [False, True])
def test_local_train_pinned_to_per_example_reference(trains_a):
    client = make_client(n=8, seed=2, private=True, q=0.2)  # sigma = 1
    rng = np.random.default_rng(4)
    clf = model.build_classifier(model.random_dense_weights([6, 4], 3, rng), 2, 2.0, rng, 3)
    layers = [l.with_adapters(b=0.5 * rng.standard_normal(l.b.shape)) for l in clf.layers]

    ref_rng = np.random.default_rng(9)
    want, empty = reference_local_train(client, layers, trains_a, 0.5, ref_rng, 6, CLIP)
    assert 0 < empty < 6  # the run covers empty and non-empty draws

    run_rng = np.random.default_rng(9)
    got = solo_train(client, layers, trains_a, lr=0.5, rng=run_rng, steps=6, clip=CLIP)
    # both consumed the same stream: no noise was drawn for the empty draws
    assert run_rng.random() == ref_rng.random()
    for idx, layer in enumerate(want):
        a, b = got[idx, "a"], got[idx, "b"]
        assert np.linalg.norm(b - layer.b) <= 1e-12 * np.linalg.norm(layer.b)
        assert np.linalg.norm(a - layer.a) <= 1e-12 * np.linalg.norm(layer.a)
        if not trains_a:
            assert a.tobytes() == layers[idx].a.tobytes()
        else:
            assert not np.array_equal(a, layers[idx].a)


def server_for(kind, seed=0, period=1, **layer_kw):
    layers = make_layers(seed=seed, **layer_kw)
    return ServerState(
        layers=layers,
        round_index=0,
        strategy=Strategy(kind, period),
        master_seed=seed,
    )


def update_from(server, scale_a=1.0, scale_b=1.0, seed=0):
    """One client's perturbed copy of the server adapters, keyed like
    model.adapter_params."""
    rng = np.random.default_rng(seed)
    adapters = {}
    for idx, layer in enumerate(server.layers):
        adapters[idx, "a"] = scale_a * (layer.a + 0.1 * rng.standard_normal(layer.a.shape))
        adapters[idx, "b"] = scale_b * (layer.b + 0.1 * rng.standard_normal(layer.b.shape))
    return adapters


def test_aggregate_single_client_fedavg_adopts_exactly():
    server = server_for("fedavg")
    upd = update_from(server, seed=1)
    out = federation.aggregate([10], stack_rows([upd], True), server)
    np.testing.assert_array_equal(out.layers[0].a, upd[0, "a"])
    np.testing.assert_array_equal(out.layers[0].b, upd[0, "b"])
    assert out.round_index == 1


def test_aggregate_two_equal_clients_arithmetic_mean():
    server = server_for("fedavg")
    u1 = update_from(server, seed=1)
    u2 = update_from(server, seed=2)
    out = federation.aggregate([10, 10], stack_rows([u1, u2], True), server)
    np.testing.assert_allclose(out.layers[0].a, (u1[0, "a"] + u2[0, "a"]) / 2, atol=1e-15)


def test_aggregate_weighted_by_sizes():
    server = server_for("ffa_lora")
    u1 = update_from(server, seed=1)
    u2 = update_from(server, seed=2)
    out = federation.aggregate([30, 10], stack_rows([u1, u2], True), server)
    np.testing.assert_allclose(out.layers[0].b, 0.75 * u1[0, "b"] + 0.25 * u2[0, "b"], atol=1e-15)
    np.testing.assert_array_equal(out.layers[0].a, server.layers[0].a)  # A untouched


def test_aggregate_fedex_identical_clients_leaves_w0():
    server = server_for("fedex_lora")
    u1 = update_from(server, seed=3)
    out = federation.aggregate([10, 10], stack_rows([u1, u1], True), server)
    np.testing.assert_allclose(out.layers[0].w0, server.layers[0].w0, atol=1e-12)


def test_aggregate_fedex_residual_absorbed():
    server = server_for("fedex_lora")
    u1 = update_from(server, seed=4)
    u2 = update_from(server, seed=5)
    out = federation.aggregate([10, 10], stack_rows([u1, u2], True), server)
    mean_product = 0.5 * (u1[0, "b"] @ u1[0, "a"] + u2[0, "b"] @ u2[0, "a"])
    b_avg = 0.5 * (u1[0, "b"] + u2[0, "b"])
    a_avg = 0.5 * (u1[0, "a"] + u2[0, "a"])
    expected = server.layers[0].w0 + server.layers[0].scale * (mean_product - b_avg @ a_avg)
    np.testing.assert_allclose(out.layers[0].w0, expected, atol=1e-13)


def test_aggregate_fedsvd_preserves_effective_weight():
    server = server_for("fedsvd")
    u1 = update_from(server, seed=6)
    u2 = update_from(server, seed=7)
    b_avg = (25 * u1[0, "b"] + 15 * u2[0, "b"]) / 40
    out = federation.aggregate([25, 15], stack_rows([u1, u2], True), server)
    w_before = server.layers[0].w0 + server.layers[0].scale * (b_avg @ server.layers[0].a)
    w_after = lora.effective_weight(out.layers[0])
    assert linalg.rel_frobenius_error(w_after, w_before) < 1e-10
    # reparameterized basis is orthonormal
    a_hat = out.layers[0].a
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


def test_aggregate_fedsvd_respects_period():
    server = server_for("fedsvd", period=2)
    u = update_from(server, seed=8)
    out1 = federation.aggregate([10], stack_rows([u], True), server)  # round 1: 1 % 2 != 0, no reparam
    np.testing.assert_array_equal(out1.layers[0].a, server.layers[0].a)
    out2 = federation.aggregate([10], stack_rows([update_from(out1, seed=9)], True), out1)
    # round 2: reparameterized now
    a_hat = out2.layers[0].a
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


def test_aggregate_flora_absorbs_and_reinitializes():
    server = server_for("flora")
    u1 = update_from(server, seed=10)
    u2 = update_from(server, seed=11)
    out = federation.aggregate([10, 30], stack_rows([u1, u2], True), server)
    mean_product = 0.25 * (u1[0, "b"] @ u1[0, "a"]) + 0.75 * (u2[0, "b"] @ u2[0, "a"])
    expected_w0 = server.layers[0].w0 + server.layers[0].scale * mean_product
    np.testing.assert_allclose(out.layers[0].w0, expected_w0, atol=1e-13)
    assert np.all(out.layers[0].b == 0.0)
    assert not np.array_equal(out.layers[0].a, server.layers[0].a)


def test_aggregate_shape_mismatch_rejected():
    server = server_for("fedavg")
    bad = {(0, "a"): np.zeros((1, 3, 6)), (0, "b"): np.zeros((1, 3, 3))}
    with pytest.raises(ValueError):
        federation.aggregate([5], bad, server)


def oracle_aggregate(sizes, rows, server):
    """aggregate's layers from per-client (w, a, b) lists, each weighted sum
    added in client order: the formulation the stacked hand-off replaced."""
    total = sum(sizes)
    strategy, rule = server.strategy, server.strategy.rule
    reparam_now = rule.reparam is not None and (server.round_index + 1) % strategy.period == 0
    out = []
    for idx, layer in enumerate(server.layers):
        weighted = [(n / total, r[idx, "a"], r[idx, "b"]) for n, r in zip(sizes, rows)]
        a_avg = sum(w * a for w, a, _ in weighted)
        b_avg = sum(w * b for w, _, b in weighted)
        product = sum(w * (b @ a) for w, a, b in weighted)
        if strategy.kind == "flora":
            rng = federation.stream(server.master_seed, federation._TAG_FLORA, server.round_index, idx)
            a_new, b_new = lora.init_adapter(layer.d_out, layer.d_in, layer.rank, rng)
            layer = dataclasses.replace(layer, w0=layer.w0 + layer.scale * product, a=a_new, b=b_new)
        elif strategy.kind == "fedex_lora":
            residual = product - b_avg @ a_avg
            layer = dataclasses.replace(layer, w0=layer.w0 + layer.scale * residual, a=a_avg, b=b_avg)
        elif strategy.kind == "fedavg":
            layer = layer.with_adapters(a=a_avg, b=b_avg)
        else:
            layer = layer.with_adapters(b=b_avg)
        if reparam_now:
            b_hat, a_hat = rule.reparam(layer.b, layer.a)
            layer = layer.with_adapters(a=a_hat, b=b_hat)
        out.append(layer)
    return out


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(federation.STRATEGIES)),
    period=st.integers(1, 3),
    round_index=st.integers(0, 3),
    sizes=st.lists(st.integers(1, 2000), min_size=1, max_size=12),
    layers=st.sampled_from([1, 2]),
    d=st.integers(1, 5),
    hidden=st.integers(1, 4),
    rank=st.integers(1, 3),
    classes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # 1x1 adapters: hidden_dim = rank = 1, with twelve clients
    kind="fedavg", period=1, round_index=0, sizes=list(range(1, 13)), layers=2, d=3, hidden=1,
    rank=1, classes=3, seed=0,
)
@example(
    kind="fedsvd", period=1, round_index=0, sizes=list(range(100, 1300, 100)), layers=2, d=1, hidden=1,
    rank=1, classes=2, seed=1,
)
def test_aggregate_equals_per_client_oracle(kind, period, round_index, sizes, layers, d, hidden, rank, classes, seed):
    rng = np.random.default_rng(seed)
    dims = [d] if layers == 1 else [d, hidden]
    clf = model.build_classifier(model.random_dense_weights(dims, classes, rng), rank, 2.0, rng, classes)
    start = [l.with_adapters(b=rng.standard_normal(l.b.shape)) for l in clf.layers]
    server = ServerState(start, round_index, Strategy(kind, period), seed)
    trains_a = server.strategy.trains_a
    trained = trainable_keys(start, trains_a)
    rows = [
        {key: rng.standard_normal(m.shape) if key in trained else m for key, m in model.adapter_params(start).items()}
        for _ in sizes
    ]
    want = oracle_aggregate(sizes, rows, server)
    stacked = stack_rows(rows, trains_a)
    # also the layout train_clients returns: (K, ...) views into one flat buffer
    _, views = privacy.flat_buffer({key: stacked[key][0] for key in trained}, len(sizes))
    for key, view in views.items():
        view[:] = stacked[key]
    for adapters in (stacked, {**stacked, **views}):
        out = federation.aggregate(sizes, adapters, server)
        assert out.round_index == round_index + 1
        for got, ref in zip(out.layers, want):
            for name in ("a", "b", "w0"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (kind, name)


def test_train_clients_leaves_layers_untouched():
    # K = 3 clients train from shared layers, which they must neither write
    # nor alias: each trained row is the client's own memory
    clients = [make_client(n=30, seed=s, private=True, q=0.5) for s in range(3)]
    for trains_a in (False, True):
        rng = np.random.default_rng(13)
        layers = [l.with_adapters(b=rng.standard_normal(l.b.shape)) for l in make_layers()]
        before = [(l.w0.tobytes(), l.a.tobytes(), l.b.tobytes()) for l in layers]
        rngs = [np.random.default_rng([13, k]) for k in range(3)]
        out = federation.train_clients(clients, layers, trains_a, 0.5, rngs, 3, CLIP)
        assert [(l.w0.tobytes(), l.a.tobytes(), l.b.tobytes()) for l in layers] == before
        trained = trainable_keys(layers, trains_a)
        for key in trained:
            assert out[key].shape == (3, *getattr(layers[key[0]], key[1]).shape)
            for layer in layers:
                for m in (layer.w0, layer.a, layer.b):
                    assert not np.shares_memory(out[key], m), (trains_a, key)
            assert not np.array_equal(out[key][0], out[key][1])  # each client its own row
        if not trains_a:
            assert out[0, "a"] is layers[0].a


def test_server_client_reparam_bit_agreement():
    # decentralized-SVD mode: server and clients run the same deterministic
    # refactorization on the same inputs and must agree bit-for-bit
    rng = np.random.default_rng(12)
    b_agg = rng.standard_normal((6, 3))
    a_prev = rng.standard_normal((3, 9))
    server_b, server_a = lora.fedsvd_reparam(b_agg, a_prev)
    client_b, client_a = lora.fedsvd_reparam(b_agg.copy(), a_prev.copy())
    assert server_b.tobytes() == client_b.tobytes()
    assert server_a.tobytes() == client_a.tobytes()


def test_comm_params_mirror_strategy_costs():
    layers = make_layers()
    a_sz = layers[0].a.size
    b_sz = layers[0].b.size
    w_sz = layers[0].w0.size
    up, down = federation.comm_params_per_round(Strategy("fedavg"), layers, 3, False)
    assert (up, down) == (3 * (a_sz + b_sz), 3 * (a_sz + b_sz))
    up, down = federation.comm_params_per_round(Strategy("fedsvd"), layers, 3, False)
    assert (up, down) == (3 * b_sz, 3 * b_sz)
    up, down = federation.comm_params_per_round(Strategy("fedsvd"), layers, 3, True)
    assert down == 3 * (a_sz + b_sz)
    up, down = federation.comm_params_per_round(Strategy("flora"), layers, 3, False)
    assert down == 3 * (a_sz + b_sz + w_sz)
    # every strategy, both basis-transmission modes: a = 12, b = 6, w0 = 18
    # parameters per layer, 3 participants
    expected = {
        "fedavg": ((54, 54), (54, 54)),
        "ffa_lora": ((18, 18), (18, 18)),
        "fedsvd": ((18, 18), (18, 54)),
        "fedsvd_nonortho": ((18, 18), (18, 54)),
        "ffa_orthonormal": ((18, 18), (18, 18)),
        "ffa_pissa": ((18, 18), (18, 18)),
        "flora": ((54, 108), (54, 108)),
        "fedex_lora": ((54, 108), (54, 108)),
    }
    for kind, (plain, with_a) in expected.items():
        assert federation.comm_params_per_round(Strategy(kind), layers, 3, False) == plain, kind
        assert federation.comm_params_per_round(Strategy(kind), layers, 3, True) == with_a, kind


def test_run_experiment_zero_rounds_round0_only():
    cfg = small_config(rounds=0)
    rows = federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(rows) == 1
    assert rows[0].round == 0
    assert rows[0].epsilon_spent is None  # non-private


def test_run_experiment_round0_is_frozen_backbone():
    # with zero-initialized b the round-0 model equals the backbone, for the
    # pissa split it equals residual + scale * b a = original w0 as well
    for kind in ("fedsvd", "ffa_pissa"):
        cfg = small_config(strategy=kind, rounds=0)
        rows = federation.run_experiment(cfg, seed=1, record_timing=False)
        cfg2 = small_config(strategy="ffa_lora", rounds=0)
        rows2 = federation.run_experiment(cfg2, seed=1, record_timing=False)
        assert abs(rows[0].eval_accuracy - rows2[0].eval_accuracy) < 1e-12
        assert abs(rows[0].eval_loss - rows2[0].eval_loss) < 1e-9


def test_run_experiment_row_count_and_monotone_epsilon():
    cfg = small_config(rounds=4, epsilon=6.0)
    rows = federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(rows) == 5
    assert [r.round for r in rows] == list(range(5))
    eps = [r.epsilon_spent for r in rows]
    assert eps[0] == 0.0
    assert all(a < b for a, b in zip(eps, eps[1:]))
    assert all(r.uploaded_params > 0 for r in rows[1:])
    assert all(r.wall_ms == 0 for r in rows)  # record_timing=False: no clock in the rows


def test_run_experiment_determinism_and_thread_independence():
    cfg = small_config(rounds=3, epsilon=4.0)
    one, four = dataclasses.replace(cfg, threads=1), dataclasses.replace(cfg, threads=4)
    rows1 = federation.run_experiment(one, seed=3, record_timing=False)
    rows2 = federation.run_experiment(four, seed=3, record_timing=False)
    assert rows1 == rows2
    rows3 = federation.run_experiment(one, seed=4, record_timing=False)
    assert rows1 != rows3


def test_run_experiment_fedsvd_period_value_invariance_round1():
    # sigma = 0, one client, one local step: after round 1 the reparameterized
    # and non-reparameterized variants carry the same effective weight
    common = dict(
        clients=1, participants=1, rounds=1, local_steps=1, epsilon=None,
        train_size=120,
    )
    cfg_p1 = small_config(svd_period=1, **common)
    cfg_off = small_config(svd_period=2, **common)  # 1 % 2 != 0: no reparam in round 1

    def final_weight(cfg):
        server, clients, _ = federation.start(cfg, 5)
        _, _, server = next(federation.rounds(cfg, server, clients))
        return lora.effective_weight(server.layers[0])

    w1 = final_weight(cfg_p1)
    w2 = final_weight(cfg_off)
    assert linalg.rel_frobenius_error(w1, w2) < 1e-10


def test_fedsvd_value_invariance_every_round_and_layer():
    # at each round the refactorized state must carry the same effective
    # weight as plain b-averaging would, and the new basis is orthonormal
    cfg = small_config(strategy="fedsvd", rounds=6, epsilon=4.0, feature_dim=10)
    before, clients, _ = federation.start(cfg, 7)
    for sampled, adapters, server in federation.rounds(cfg, before, clients):
        sizes = [len(clients[cid].table) for cid in sampled]
        plain = federation.aggregate(sizes, adapters, dataclasses.replace(before, strategy=Strategy("ffa_lora")))
        before = server
        for reparam_layer, plain_layer in zip(server.layers, plain.layers):
            err = linalg.rel_frobenius_error(
                lora.effective_weight(reparam_layer), lora.effective_weight(plain_layer)
            )
            assert err < 1e-10
            a_hat = reparam_layer.a
            assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    strategy=st.sampled_from(["fedsvd", "fedsvd_nonortho"]),
    layers=st.sampled_from([1, 2]),
    rank=st.integers(1, 4),
    svd_period=st.integers(1, 3),
    private=st.booleans(),
    seed=st.integers(0, 3),
)
def test_reparam_keeps_every_a_in_the_span_of_its_round_zero_rows(strategy, layers, rank, svd_period, private, seed):
    # b_avg @ a_prev has its rows in span(a_prev), and lowrank_svd lifts the
    # new rows through a basis of a_prev's rows: a refactorization only turns
    # a inside span(a_0), and fedsvd's orthonormal rows never lose its rank
    cfg = small_config(
        strategy=strategy, layers=layers, hidden_dim=5, rank=rank, svd_period=svd_period,
        rounds=4, epsilon=6.0 if private else None,
    )
    server, clients, _ = federation.start(cfg, seed)
    firsts = [layer.a for layer in server.layers]
    bases = [np.linalg.svd(a0)[2][:np.linalg.matrix_rank(a0)] for a0 in firsts]
    for _, _, server in federation.rounds(cfg, server, clients):
        for a, a0, basis in zip([layer.a for layer in server.layers], firsts, bases):
            outside = a - (a @ basis.T) @ basis
            assert np.all(np.linalg.norm(outside, axis=1) <= 1e-12 * np.maximum(1.0, np.linalg.norm(a, axis=1)))
            if strategy == "fedsvd":
                assert np.linalg.matrix_rank(a) == np.linalg.matrix_rank(a0)



@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("svd_period", [1, 2, 3])
def test_fedsvd_from_an_orthonormal_start_equals_ffa_frozen_there(layers, svd_period):
    # a refactorization of orthonormal rows turns a inside span(a_0) and b by
    # the inverse turn; without noise plain SGD on b cannot see it, so fedsvd
    # started from ffa_orthonormal's round-zero state follows that frozen start
    cfg = small_config(
        strategy="ffa_orthonormal", svd_period=svd_period, layers=layers, hidden_dim=5, rounds=4,
    )
    frozen, clients, _ = federation.start(cfg, 1)
    refactored = dataclasses.replace(frozen, strategy=Strategy("fedsvd", svd_period))
    turned = False
    for (_, _, ffa), (_, _, svd) in zip(
        federation.rounds(cfg, frozen, clients), federation.rounds(cfg, refactored, clients)
    ):
        for ffa_layer, svd_layer in zip(ffa.layers, svd.layers):
            err = linalg.rel_frobenius_error(lora.effective_weight(svd_layer), lora.effective_weight(ffa_layer))
            assert err <= 1e-12
            turned |= not np.allclose(svd_layer.a, ffa_layer.a)
    assert turned  # the refactorization ran and moved a

def test_run_experiment_ffa_broadcast_a_never_changes():
    cfg = small_config(strategy="ffa_lora", rounds=3, epsilon=5.0)
    server, clients, _ = federation.start(cfg, 2)
    a0 = server.layers[0].a.tobytes()
    for _, adapters, server in federation.rounds(cfg, server, clients):
        assert adapters[0, "a"].tobytes() == a0  # A returned untouched
        assert server.layers[0].a.tobytes() == a0


@st.composite
def run_configs(draw):
    """small_config over every strategy, svd_period 1-3, 1-2 layers, rank 1-4,
    2-5 clients with 1..clients participants, and privacy by epsilon, by
    noise_multiplier or not at all."""
    clients = draw(st.integers(2, 5))
    return small_config(
        strategy=draw(st.sampled_from(tuple(federation.STRATEGIES))),
        svd_period=draw(st.integers(1, 3)),
        layers=draw(st.sampled_from([1, 2])),
        hidden_dim=5,
        rank=draw(st.integers(1, 4)),
        clients=clients,
        participants=draw(st.integers(1, clients)),
        **draw(st.sampled_from([{}, {"epsilon": 6.0}, {"noise_multiplier": 1.0}])),
    )


def replaying_clipped_rows(norms):
    """privacy.dp_sgd_step_flat that first replays every real row n < sizes[k]
    alone through the real step: each as a client of its own, from a zero
    flat_buffer, with that row's factors, no noise, lr 1 and a batch of 1, so
    the result is minus its clipped gradient, whose norm goes to `norms`.
    An unclipped step (clip inf) is not replayed."""
    real = privacy.dp_sgd_step_flat

    def step(theta, views, factors, clip, noise, lr, rngs, sizes):
        u = next(iter(factors.values()))[0]  # (K, M, .): client k's first sizes[k] rows are real
        rows = np.arange(u.shape[1]) < sizes[:, None]
        if np.isfinite(clip) and rows.any():
            count = int(rows.sum())
            zero, zero_views = privacy.flat_buffer({key: np.zeros(v.shape[1:]) for key, v in views.items()}, count)
            alone = {key: (u[rows][:, None], v[rows][:, None]) for key, (u, v) in factors.items()}
            real(zero, zero_views, alone, clip, [None] * count, 1.0, [None] * count, np.ones(count, dtype=int))
            norms.extend(np.linalg.norm(zero, axis=1) / clip)
        real(theta, views, factors, clip, noise, lr, rngs, sizes)

    return step


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs(), seed=st.integers(0, 3))
def test_run_invariants_hold_every_round_of_generated_configs(cfg, seed):
    # each round against the weighted means formed here from the sampled
    # clients' shard sizes, not by calling aggregate; every clipped
    # per-example gradient against the clip norm
    server, clients, _ = federation.start(cfg, seed)
    kind, rule = server.strategy.kind, server.strategy.rule
    firsts = sent = [layer.a.tobytes() for layer in server.layers]
    clipped = []
    with mock.patch.object(privacy, "dp_sgd_step_flat", replaying_clipped_rows(clipped)):
        history = list(federation.rounds(cfg, server, clients))
    worst = max(clipped, default=0.0)
    assert worst <= 1.0 + 1e-12, f"a clipped gradient's norm is {worst!r} times the clip norm"
    for sampled, adapters, after in history:
        sizes = [len(clients[cid].table) for cid in sampled]
        weights = [n / sum(sizes) for n in sizes]
        for idx, (old, new) in enumerate(zip(server.layers, after.layers)):
            a, b = adapters[idx, "a"], adapters[idx, "b"]
            got = lora.effective_weight(new)
            if rule.reparam is not None:  # the refactorization keeps the plain b average's value
                want = old.w0 + old.scale * (sum(w * b_k for w, b_k in zip(weights, b)) @ old.a)
                assert linalg.rel_frobenius_error(got, want) <= 1e-10
            if kind == "fedsvd" and after.round_index >= cfg.svd_period:  # refactorized at least once
                assert np.max(np.abs(new.a @ new.a.T - np.eye(new.rank))) <= 1e-10
            if not rule.trains_a:  # clients return the broadcast a untouched
                assert a.tobytes() == sent[idx]
            if kind.startswith("ffa"):
                assert new.a.tobytes() == firsts[idx]
            if kind in ("flora", "fedex_lora"):  # w0 absorbs s times the mean product
                want = old.w0 + old.scale * sum(w * (b_k @ a_k) for w, a_k, b_k in zip(weights, a, b))
                assert linalg.rel_frobenius_error(got, want) <= 1e-10
        server, sent = after, [layer.a.tobytes() for layer in after.layers]
    eps = federation._epsilon_column(clients, cfg.local_steps, cfg.rounds, cfg.delta)
    if cfg.private:  # the epsilon column never falls, nor passes a calibrated target
        assert all(x <= y for x, y in zip(eps, eps[1:]))
        assert cfg.epsilon is None or eps[-1] <= cfg.epsilon
    if cfg.epsilon is not None and privacy.SIGMA_BRACKET[0] not in [c.sigma for c in clients]:
        assert eps[-1] > 0.99 * cfg.epsilon  # a client at the bracket's edge spends less


class TwoStreams:
    """A client's generator as train_clients reads it: `random` (the Poisson
    masks) from one generator, `standard_normal` (the noise) from another,
    so the batches are the same at every noise scale."""

    def __init__(self, masks, noise):
        self.random, self.standard_normal = masks.random, noise.standard_normal


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noise_grows_linearly_in_sigma_only_when_a_is_frozen(seed):
    # round 1 of the headline at epsilon 1, replayed on the run's own batches
    # at noise scales 2 sigma, 4 sigma and none. The noise is the Frobenius
    # norm over the layers of W_s - W_clean for the effective weights, which
    # refactorization preserves; it grows as sigma^e, e = 1 when only b
    # trains and up to 2 when the product of two noisy factors enters.
    # Seeds 0-4 read e in 0.98-1.11 (fedsvd) and 1.74-2.06 (fedavg).
    for kind, linear in [("fedsvd", True), ("fedavg", False)]:
        cfg = config.load(HEADLINE, [f"strategy={kind}", "epsilon=1", "record_timing=false"])
        server, clients, _ = federation.start(cfg, seed)
        sampled = federation.schedule(cfg, seed)[0]
        sizes = [len(clients[cid].table) for cid in sampled]

        def effective_weights(scale):
            batch = [
                dataclasses.replace(clients[cid], sigma=None if scale is None else scale * clients[cid].sigma)
                for cid in sampled
            ]
            rngs = [
                TwoStreams(federation.stream(seed, federation._TAG_CLIENT, 0, cid), federation.stream(seed, 0xEE, 0, cid))
                for cid in sampled
            ]
            adapters = federation.train_clients(
                batch, server.layers, server.strategy.trains_a, cfg.learning_rate, rngs, cfg.local_steps, cfg.clip_norm,
            )
            return [lora.effective_weight(layer) for layer in federation.aggregate(sizes, adapters, server).layers]

        clean = effective_weights(None)
        noise = [math.sqrt(sum(np.sum((w - c) ** 2) for w, c in zip(effective_weights(s), clean))) for s in (2, 4)]
        exponent = math.log2(noise[1] / noise[0])
        message = f"{kind} seed {seed}: noise grows as sigma^{exponent:.3f}"
        assert exponent <= 1.3 if linear else exponent >= 1.5, message


def test_strategy_validation_and_labels():
    with pytest.raises(ValueError):
        Strategy("bogus")
    with pytest.raises(ValueError):
        Strategy("fedsvd", period=0)
    assert Strategy("fedsvd", 5).label == "fedsvd_p5"
    assert Strategy("fedavg").label == "fedavg"
    assert not Strategy("fedsvd").trains_a
    assert Strategy("flora").trains_a


def test_every_strategy_entry_flags_labels_and_round_zero_state():
    # (trains_a, label at period 3) for each of the eight strategies; the
    # round-zero server state must leave every effective weight at w0, and
    # local training from it must train a exactly when trains_a
    expected = {
        "fedavg": (True, "fedavg"),
        "ffa_lora": (False, "ffa_lora"),
        "fedsvd": (False, "fedsvd_p3"),
        "fedsvd_nonortho": (False, "fedsvd_nonortho_p3"),
        "ffa_orthonormal": (False, "ffa_orthonormal"),
        "ffa_pissa": (False, "ffa_pissa"),
        "flora": (True, "flora"),
        "fedex_lora": (True, "fedex_lora"),
    }
    base = model.random_dense_weights([8, 5], 3, 0)
    client = make_client(n=30, q=1.0, d=8)
    for kind, (trains_a, label) in expected.items():
        strategy = Strategy(kind, 3)
        assert strategy.trains_a is trains_a, kind
        assert strategy.label == label, kind
        server = federation.init_server(small_config(strategy=kind), strategy, base, seed=4)
        out = solo_train(client, server.layers, strategy.trains_a, 0.5, np.random.default_rng(0), 2, np.inf)
        for idx, (layer, w0) in enumerate(zip(server.layers, base)):
            if trains_a:
                assert not np.array_equal(out[idx, "a"], layer.a), kind
            else:
                assert out[idx, "a"] is layer.a, kind
            assert linalg.rel_frobenius_error(lora.effective_weight(layer), w0) <= 1e-12, kind


# --- the per-process memo of a seed's run inputs ---


@pytest.fixture(autouse=True)
def empty_inputs_memo():
    federation._INPUTS.clear()
    yield
    federation._INPUTS.clear()


@pytest.fixture
def count_fits(monkeypatch):
    """Wrap model.fit_dense_weights; returns the list of its calls' dims."""
    calls = []
    real = model.fit_dense_weights

    def counting(x, y, dims, *args, **kwargs):
        calls.append(list(dims))
        return real(x, y, dims, *args, **kwargs)

    monkeypatch.setattr(model, "fit_dense_weights", counting)
    return calls


def test_memoized_backbone_rows_equal_a_direct_fit(monkeypatch):
    cfg = small_config(strategy="fedsvd", rounds=2, epsilon=4.0, layers=2, hidden_dim=5)
    cold = federation.run_experiment(cfg, seed=3, record_timing=False)
    warm = federation.run_experiment(cfg, seed=3, record_timing=False)

    def direct(cfg, seed):  # the fit of seed 3, the run's, on the whole pretrain split
        pretrain = gen_synthetic(cfg.classes, cfg.feature_dim, cfg.train_size, cfg.margin, 3)[0]
        weights = model.fit_dense_weights(
            pretrain.features, pretrain.labels, [cfg.feature_dim, cfg.hidden_dim], cfg.classes,
            steps=cfg.pretrain_steps, lr=cfg.pretrain_lr, seed=federation.stream(3, federation._TAG_BACKBONE),
        )
        return (weights, *federation.shards(cfg, seed))

    monkeypatch.setattr(federation, "_inputs", direct)
    fresh = federation.run_experiment(cfg, seed=3, record_timing=False)
    assert cold == warm == fresh


def test_backbone_fitted_once_per_seed_across_strategies(count_fits):
    for kind in ("fedsvd", "ffa_lora", "fedavg"):
        federation.run_experiment(small_config(strategy=kind, rounds=1), seed=0, record_timing=False)
    assert len(count_fits) == 1
    # settings the build does not read share its fit
    federation.run_experiment(small_config(rounds=2, svd_period=2, epsilon=3.0), seed=0, record_timing=False)
    federation._inputs(small_config(), 0)
    assert len(count_fits) == 1
    # each field the build reads refits: the seed, the partition's
    # dirichlet_alpha and clients, pretrain_steps, pretrain_lr and hidden_dim
    federation._inputs(small_config(), 1)
    assert len(count_fits) == 2
    for alpha, clients in ((0.9, 3), (0.1, 3), (0.5, 4)):
        federation.run_experiment(
            small_config(rounds=1, dirichlet_alpha=alpha, clients=clients), seed=0, record_timing=False
        )
    assert len(count_fits) == 5
    federation.run_experiment(small_config(rounds=1, pretrain_steps=30), seed=0, record_timing=False)
    assert len(count_fits) == 6
    federation.run_experiment(small_config(rounds=1, pretrain_lr=0.2), seed=0, record_timing=False)
    assert len(count_fits) == 7
    federation.run_experiment(small_config(rounds=1, layers=2, hidden_dim=4), seed=0, record_timing=False)
    federation.run_experiment(small_config(rounds=1, layers=2, hidden_dim=5), seed=0, record_timing=False)
    assert count_fits[-2:] == [[8, 4], [8, 5]]


def test_cached_backbone_is_read_only():
    for cfg in (small_config(), small_config(pretrain_backbone=False)):
        weights = federation._inputs(cfg, 0)[0]
        again = federation._inputs(cfg, 0)[0]
        assert all(w is v for w, v in zip(weights, again, strict=True))
        with pytest.raises(ValueError):
            weights[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            weights[0] += 1.0


def test_memo_holds_one_build_and_shards_fit_nothing(count_fits, count_builds, monkeypatch, capsys):
    cfg = small_config(rounds=1)
    for seed in range(5):
        federation.run_experiment(cfg, seed, record_timing=False)
    assert len(federation._INPUTS) == 1 and len(count_fits) == 5
    federation.run_experiment(cfg, 4, record_timing=False)
    assert len(count_fits) == 5
    federation.run_experiment(cfg, 0, record_timing=False)  # seed 0's backbone was dropped
    assert len(count_fits) == 6
    # a seed-outer sweep fits each seed's backbone and builds its shards once
    del count_fits[:], count_builds[:]
    for seed in (1, 2):
        for kind, period in (("fedsvd", 1), ("fedsvd", 2), ("fedsvd", 5), ("fedsvd", 10), ("ffa_lora", 1), ("fedavg", 1)):
            federation.run_experiment(small_config(rounds=1, strategy=kind, svd_period=period), seed, record_timing=False)
    assert len(count_fits) == 2 and count_builds.count("cells") == 2
    # shards and partition-stats build anew, fit no backbone, calibrate no
    # noise and leave the memo alone
    federation._INPUTS.clear()
    del count_fits[:]
    monkeypatch.setattr(privacy, "calibrate_sigma", mock.Mock(side_effect=AssertionError("calibrated")))
    first, again = federation.shards(cfg, 0), federation.shards(cfg, 0)
    assert first[1] is not again[1] and all(a is not b for a, b in zip(first[0], again[0], strict=True))
    assert cli.main(["partition-stats", str(HEADLINE)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("seed 0, alpha 0.5, 6 clients")
    assert count_fits == [] and federation._INPUTS == {}


def test_csv_source_without_a_pretrain_row_is_named(tmp_path, count_fits):
    # 3 rows split 0/1/2 (1/4, 1/2, 1/4, rounded down): the fit is refused
    # before its first step, not run on 0/0 into NaN weights
    path = tmp_path / "tiny.csv"
    save_csv(Dataset(np.arange(24.0).reshape(3, 8), np.arange(3), 3), path)
    cfg = small_config(source="csv", csv_path=str(path), epsilon=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty training split"):
            federation.start(cfg, 0)
    assert count_fits == [[8]]


@pytest.fixture
def count_parses(monkeypatch):
    """Wrap data.load_csv; returns the list of its calls' paths."""
    calls = []
    real = data.load_csv
    monkeypatch.setattr(data, "load_csv", lambda path: calls.append(path) or real(path))
    return calls


def test_rewritten_csv_source_is_refitted(tmp_path, count_fits, count_parses):
    path = tmp_path / "table.csv"
    cfg = small_config(source="csv", csv_path=str(path), rounds=1)
    first, _, _ = gen_synthetic(3, 8, 240, 3.0, seed=0)
    save_csv(first, path)
    rows1 = federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(count_parses) == 1  # one parse serves the backbone and the data
    federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(count_fits) == 1 and len(count_parses) == 2
    second, _, _ = gen_synthetic(3, 8, 240, 3.0, seed=1)
    save_csv(second, path)
    rows2 = federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(count_fits) == 2 and len(count_parses) == 3
    assert rows1 != rows2


@pytest.fixture
def count_builds(monkeypatch):
    """Wrap data.synthetic_split and data.partition_cells; returns the list
    of their calls, as "split <index>" and "cells"."""
    calls = []
    real_split, real_cells = data.synthetic_split, data.partition_cells

    def split(index, *args, **kwargs):
        calls.append(f"split {index}")
        return real_split(index, *args, **kwargs)

    def cells(*args, **kwargs):
        calls.append("cells")
        return real_cells(*args, **kwargs)

    monkeypatch.setattr(data, "synthetic_split", split)
    monkeypatch.setattr(data, "partition_cells", cells)
    return calls


# One data build: the finetune split's labels, their cells, the held-out split.
BUILD = ["split 1", "cells", "split 2"]


def test_datasets_built_once_per_key(count_builds):
    cfg = small_config()
    _, tables, heldout = federation._inputs(cfg, seed=0)
    # settings the build does not read share one build, and its objects
    for other in (
        cfg, small_config(strategy="fedavg"), small_config(rounds=7), small_config(epsilon=2.0),
        small_config(learning_rate=0.1), small_config(rank=2),
    ):
        again = federation._inputs(other, seed=0)
        assert again[2] is heldout
        assert all(a is b for a, b in zip(again[1], tables, strict=True))
    assert count_builds == ["split 0", *BUILD]
    # each field the build reads builds anew
    for field, value in [
        ("classes", 4), ("feature_dim", 9), ("train_size", 300), ("margin", 2.0),
        ("dirichlet_alpha", 0.9), ("clients", 4), ("pretrain_steps", 9), ("pretrain_lr", 0.2),
    ]:
        del count_builds[:]
        other = federation._inputs(small_config(**{field: value}), seed=0)
        assert count_builds == ["split 0", *BUILD], field
        assert other[2] is not heldout, field
    del count_builds[:]
    federation._inputs(small_config(pretrain_backbone=False), seed=0)
    assert count_builds == BUILD
    del count_builds[:]
    federation._inputs(cfg, seed=1)
    assert count_builds == ["split 0", *BUILD]


def test_cached_datasets_are_read_only():
    base, tables, heldout = federation._inputs(small_config(), seed=0)
    [held] = federation._INPUTS.values()
    assert all(x is y for x, y in zip(held, (base, tables, heldout), strict=True))
    for arr in (*base, *tables, heldout.features, heldout.labels):
        with pytest.raises(ValueError):
            arr[0] = 1
    # the returned client list is the caller's own
    federation.start(small_config(), seed=0)[1].pop()
    assert len(federation.start(small_config(), seed=0)[1]) == 3


def test_datasets_memo_keeps_the_last_build_alone(count_builds, monkeypatch):
    held = []  # builds in the memo while the next one is drawn
    counting = data.synthetic_split
    monkeypatch.setattr(data, "synthetic_split", lambda *a, **k: held.append(len(federation._INPUTS)) or counting(*a, **k))
    cfg = small_config()
    first = federation._inputs(cfg, seed=0)
    federation._inputs(cfg, seed=1)
    assert len(federation._INPUTS) == 1
    del count_builds[:]
    assert federation._inputs(cfg, seed=1)[2] is federation._inputs(cfg, seed=1)[2]
    assert count_builds == []
    assert federation._inputs(cfg, seed=0)[2] is not first[2]  # seed 0 was dropped
    assert count_builds == ["split 0", *BUILD]
    assert held == [0] * 9  # the old build goes before the new one is drawn


HEADLINE = Path(__file__).resolve().parent.parent / "configs" / "headline.ini"


def cold_start(cfg, seed):
    """start(cfg, seed) on an empty inputs memo, traced, after a first start
    filled the process-wide caches (sigma, RDP tables): its result, and the
    traced bytes (held, peak) when it returned."""
    federation.start(cfg, seed)
    federation._INPUTS.clear()
    tracemalloc.start()
    try:
        started = federation.start(cfg, seed)
        return started, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_start_holds_each_shard_once():
    cfg = config.load(HEADLINE, ["record_timing=false"])
    (_, clients, heldout), (held, _) = cold_start(cfg, seed=0)
    base, tables, memo_heldout = federation._inputs(cfg, 0)
    assert memo_heldout is heldout
    # the memo holds the backbone, the tables and the held-out split, and
    # no per-shard Dataset beside them
    kept = [*base, *tables, heldout.features, heldout.labels]
    assert held <= sum(a.nbytes for a in kept) + 2**18
    assert all(type(t) is np.ndarray for t in tables)
    # each client is the memo's table, on every start of the seed
    again = federation.start(cfg, seed=0)[1]
    for handles in (clients, again):
        assert all(c.table is t for c, t in zip(handles, tables, strict=True))
    for c in clients:
        assert c.sample_rate == min(1.0, cfg.batch_size / len(c.table))
        assert c.table.shape[1] == heldout.feature_dim + heldout.class_count
    for arr in kept:
        assert not arr.flags.writeable


def test_cold_start_never_holds_the_pretrain_split_with_the_shards():
    # the traced peak of a start on a first seed, and on a second one that
    # replaces the first one's build
    cfg = config.load(HEADLINE, ["record_timing=false"])
    pretrain = cfg.train_size * (cfg.feature_dim + 1) * 8  # float64 features, int64 labels
    for seed in (0, 1):
        federation.start(cfg, seed)  # fills the process-wide caches (sigma, RDP tables)
    federation._INPUTS.clear()
    tracemalloc.start()
    try:
        for seed in (0, 1):
            tracemalloc.reset_peak()
            tables = sum(c.table.nbytes for c in federation.start(cfg, seed)[1])
            assert tracemalloc.get_traced_memory()[1] < pretrain + tables, seed
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("pretrain_backbone", [True, False])
def test_only_a_backbone_fit_draws_the_pretrain_split(count_builds, pretrain_backbone):
    cfg = small_config(pretrain_backbone=pretrain_backbone, rounds=1)
    federation.run_experiment(cfg, seed=0, record_timing=False)
    assert count_builds.count("split 0") == pretrain_backbone
    del count_builds[:]
    federation.run_experiment(dataclasses.replace(cfg, strategy="fedavg"), seed=0, record_timing=False)
    assert count_builds == []  # the memo hits


def assert_streamed_build_is_dense(cfg, seed, splits):
    """A cold federation.start(cfg, seed) against `splits`, the dense
    (pretrain, finetune, held-out) Datasets: its shard tables equal those of
    the dense partition of the finetune split, its held-out split and the
    split its backbone fit reads equal theirs, bit for bit."""
    federation._INPUTS.clear()
    fits, real = [], model.fit_dense_weights
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "fit_dense_weights", lambda x, y, *a, **k: fits.append((x, y)) or real(x, y, *a, **k))
        _, clients, heldout = federation.start(cfg, seed)
    pre, fine, eval_ = splits
    spec = data.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=cfg.clients, seed=seed)
    dense = [shard_table(part) for part in partition_dirichlet(fine, spec)]
    assert [c.table.tobytes() for c in clients] == [t.tobytes() for t in dense]
    assert heldout.features.tobytes() == eval_.features.tobytes()
    assert np.array_equal(heldout.labels, eval_.labels)
    [(x, y)] = fits
    assert x.tobytes() == pre.features.tobytes() and np.array_equal(y, pre.labels)


@settings(max_examples=30, deadline=None)
@given(
    classes=st.integers(2, 5),
    clients=st.integers(1, 8),
    train_size=st.sampled_from([
        data.CHUNK_ROWS - 1, data.CHUNK_ROWS, data.CHUNK_ROWS + 1, 3 * data.CHUNK_ROWS + 7, 4 * data.CHUNK_ROWS,
    ]),
    seed=st.integers(0, 2**16),
)
def test_streamed_build_equals_the_dense_reference(classes, clients, train_size, seed):
    cfg = small_config(
        classes=classes, clients=clients, participants=1, feature_dim=classes + 2, train_size=train_size, pretrain_steps=1,
    )
    assert_streamed_build_is_dense(cfg, seed, gen_synthetic(classes, cfg.feature_dim, train_size, cfg.margin, seed))


@pytest.mark.parametrize("seed", [0, 5])
def test_streamed_csv_build_equals_the_dense_reference(tmp_path, seed):
    path = tmp_path / "table.csv"
    save_csv(gen_synthetic(3, 5, 2 * data.CHUNK_ROWS + 3, 3.0, seed=seed)[1], path)
    full = data.load_csv(path)
    # the 1/4, 1/2, 1/4 split of the parsed table, each split gathered whole
    perm = federation.stream(seed, federation._TAG_SPLIT).permutation(len(full))
    cuts = [len(full) // 4, len(full) // 4 + len(full) // 2]
    splits = [subset(full, rows) for rows in np.split(perm, cuts)]
    cfg = small_config(source="csv", csv_path=str(path), clients=4, pretrain_steps=1)
    assert_streamed_build_is_dense(cfg, seed, splits)


def test_csv_datasets_keyed_on_the_parsed_table(tmp_path, count_builds):
    path = tmp_path / "table.csv"
    cfg = small_config(source="csv", csv_path=str(path))
    table, _, _ = gen_synthetic(3, 8, 240, 3.0, seed=0)
    save_csv(table, path)
    heldout = federation._inputs(cfg, seed=0)[2]
    save_csv(table, path)  # the same table again
    assert federation._inputs(cfg, seed=0)[2] is heldout
    save_csv(gen_synthetic(3, 8, 240, 3.0, seed=1)[0], path)
    assert federation._inputs(cfg, seed=0)[2] is not heldout
    assert count_builds.count("cells") == 2


@pytest.mark.parametrize(
    "clients, participants, rounds, seed", [(3, 2, 3, 0), (6, 3, 100, 4), (9, 9, 5, 1), (1, 1, 2, 7), (8, 1, 40, 3)]
)
def test_schedule_is_the_per_round_sample_clients_draws(clients, participants, rounds, seed):
    cfg = small_config(clients=clients, participants=participants, rounds=rounds)
    drawn = tuple(
        tuple(federation.sample_clients(clients, participants, federation.stream(seed, federation._TAG_SAMPLE, rnd)))
        for rnd in range(rounds)
    )
    assert federation.schedule(cfg, seed) == drawn
    assert federation.schedule(small_config(clients=clients, participants=participants, rounds=rounds, epsilon=2.0), seed) is federation.schedule(cfg, seed)
    if rounds <= 5:  # the run samples what the schedule says
        server, handles, _ = federation.start(cfg, seed)
        assert tuple(sampled for sampled, _, _ in federation.rounds(cfg, server, handles)) == drawn


# --- divergence is reported by name ---


@pytest.mark.parametrize("kind, label", [("fedsvd", "fedsvd_p1"), ("fedavg", "fedavg")])
def test_divergence_names_strategy_round_client_and_layer(kind, label):
    # lr = 1e300: fedavg's adapters turn nan; fedsvd's b stays finite entry by
    # entry but its norm overflows, which used to reset b to zero every round
    cfg = small_config(strategy=kind, learning_rate=1e300, epsilon=6.0)
    with np.errstate(all="ignore"), pytest.raises(federation.DivergenceError) as info:
        federation.run_experiment(cfg, seed=0, record_timing=False)
    assert re.fullmatch(
        rf"{label} diverged in round 1 \(client \d\): layer 0 [ab] has a non-finite norm",
        str(info.value),
    )


def test_divergence_in_the_aggregate_names_it(monkeypatch):
    real = federation.aggregate

    def overflowing(sizes, adapters, server):
        out = real(sizes, adapters, server)
        layer = out.layers[-1]
        w0 = layer.w0.copy()
        w0[0, 0] = np.inf
        return dataclasses.replace(
            out, layers=[*out.layers[:-1], dataclasses.replace(layer, w0=w0)]
        )

    monkeypatch.setattr(federation, "aggregate", overflowing)
    cfg = small_config(strategy="flora", layers=2, hidden_dim=4)  # flora ships w0
    with pytest.raises(
        federation.DivergenceError,
        match=r"^flora diverged in round 1 \(aggregate\): layer 1 w0 has a non-finite norm$",
    ):
        federation.run_experiment(cfg, seed=0, record_timing=False)


# --- the stacked client axis ---


# The clip norm of the private runs on the stacked client axis.
STACK_CLIP = 1.5


def stack_client(n, q, sigma, seed, d=5, scale=1.0, classes=3):
    """A client with an n-example shard; sigma None trains without privacy."""
    rng = np.random.default_rng(seed)
    ds = data.Dataset(
        features=scale * rng.standard_normal((n, d)), labels=rng.integers(0, classes, n),
        class_count=classes,
    )
    return ClientHandle(table=shard_table(ds), sample_rate=q, sigma=sigma)


def stack_layers(layers, rank, seed, d=5, classes=3):
    rng = np.random.default_rng(seed)
    dims = [d] if layers == 1 else [d, 4]
    clf = model.build_classifier(model.random_dense_weights(dims, classes, rng), rank, 2.0, rng, classes)
    # non-zero b, so the gradients of a do not vanish
    return [l.with_adapters(b=0.5 * rng.standard_normal(l.b.shape)) for l in clf.layers]


def close(got, want, rel=1e-12):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def assert_stacked_equals_solo(clients, layers, trains_a, seed, steps, clip, lr=0.4, exact=False):
    """train_clients against one solo_train per client, on equal streams.

    Returns the stacked adapters. Every trained matrix holds one row per
    client, row k is within 1e-12 relative of client k's own call
    (byte-identical if `exact`), every generator ends in the same state,
    and a frozen a is the broadcast array itself.
    """
    stacked_rngs = [np.random.default_rng([seed, k]) for k in range(len(clients))]
    solo_rngs = [np.random.default_rng([seed, k]) for k in range(len(clients))]
    got = federation.train_clients(clients, layers, trains_a, lr, stacked_rngs, steps, clip)
    assert all(got[key].shape[0] == len(clients) for key in trainable_keys(layers, trains_a))
    for k, (client, s_rng, o_rng) in enumerate(zip(clients, stacked_rngs, solo_rngs)):
        want = solo_train(client, layers, trains_a, lr, o_rng, steps, clip)
        assert s_rng.random() == o_rng.random()
        for key, ref in want.items():
            mat = got[key][k] if trains_a or key[1] == "b" else got[key]
            assert mat.tobytes() == ref.tobytes() if exact else close(mat, ref)
        if not trains_a:
            assert all(got[idx, "a"] is layer.a for idx, layer in enumerate(layers))
    return got


@settings(max_examples=60, deadline=None)
@given(
    shards=st.lists(
        st.tuples(
            st.integers(1, 80),  # shard size
            st.sampled_from([1e-12, 0.05, 0.3, 1.0]),  # sample rate; 1e-12 draws nothing
            st.sampled_from([0.0, 0.7, 2.5]),  # sigma, if the run is private
        ),
        min_size=1,
        max_size=4,
    ),
    steps=st.integers(0, 4),  # local steps
    private=st.booleans(),
    layers=st.sampled_from([1, 2]),
    rank=st.integers(1, 3),
    trains_a=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_clients_stacked_equals_solo(shards, steps, private, layers, rank, trains_a, seed):
    clients = [
        stack_client(n, q, sigma if private else None, seed + k)
        for k, (n, q, sigma) in enumerate(shards)
    ]
    clip = STACK_CLIP if private else np.inf
    assert_stacked_equals_solo(clients, stack_layers(layers, rank, seed), trains_a, seed, steps, clip)


@settings(max_examples=40, deadline=None)
@given(
    shards=st.lists(
        st.tuples(
            st.integers(1, 30),  # shard size
            st.sampled_from([1e-12, 0.1, 0.4, 1.0]),  # sample rate; 1e-12 draws nothing
            st.sampled_from([0.0, 0.8, 2.5]),  # sigma, if the run is private
        ),
        min_size=1,
        max_size=4,
    ),
    steps=st.integers(0, 3),  # local steps
    private=st.booleans(),
    classes=st.integers(2, 9),
    layers=st.sampled_from([1, 2]),
    rank=st.integers(1, 3),
    trains_a=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # empty draws: client 1 never draws, client 0 draws nothing now and then
    shards=[(6, 0.1, 0.8), (20, 1e-12, 2.5), (9, 1.0, 0.0)], steps=3, private=True,
    classes=4, layers=2, rank=2, trains_a=True, seed=3,
)
def test_train_clients_pinned_to_per_example_reference(shards, steps, private, classes, layers, rank, trains_a, seed):
    clients = [
        stack_client(n, q, sigma if private else None, seed + k, classes=classes)
        for k, (n, q, sigma) in enumerate(shards)
    ]
    clip = STACK_CLIP if private else np.inf
    start = stack_layers(layers, rank, seed, classes=classes)
    rngs = [np.random.default_rng([seed, k]) for k in range(len(clients))]
    got = federation.train_clients(clients, start, trains_a, 0.4, rngs, steps, clip)
    for k, (client, rng) in enumerate(zip(clients, rngs)):
        ref_rng = np.random.default_rng([seed, k])
        want, _ = reference_local_train(client, start, trains_a, 0.4, ref_rng, steps, clip)
        assert rng.random() == ref_rng.random()  # the same draws, the same noise
        for idx, layer in enumerate(want):
            a = got[idx, "a"][k] if trains_a else got[idx, "a"]
            b = got[idx, "b"][k]
            assert close(b, layer.b) and close(a, layer.a)


def test_train_clients_reference_example_has_empty_draws():
    # the @example above covers both kinds of empty draw
    clients = [stack_client(6, 0.1, 0.8, 3, classes=4), stack_client(20, 1e-12, 2.5, 4, classes=4)]
    start = stack_layers(2, 2, 3, classes=4)
    empties = [
        reference_local_train(c, start, True, 0.4, np.random.default_rng([3, k]), 3, STACK_CLIP)[1]
        for k, c in enumerate(clients)
    ]
    assert 0 < empties[0] < 3 and empties[1] == 3


@pytest.mark.parametrize("trains_a", [False, True])
def test_train_clients_ragged_and_empty_batches(trains_a):
    # One step's largest batch is 200 rows next to one of 3 and a client that
    # never draws: padding and skipped steps leave each client's result its own.
    clients = [
        stack_client(200, 1.0, 1.1, 1),
        stack_client(3, 1.0, 0.4, 2),
        stack_client(50, 1e-12, 1.1, 3),
        stack_client(60, 0.1, 0.9, 4),
    ]
    layers = stack_layers(2, 3, 5)
    got = assert_stacked_equals_solo(clients, layers, trains_a, 6, 3, STACK_CLIP)
    for idx, layer in enumerate(layers):
        assert got[idx, "b"][2].tobytes() == layer.b.tobytes()  # client 2 never drew
        assert got[idx, "b"][1].tobytes() != layer.b.tobytes()
    # no client draws, private or not: every step runs on an empty (K, 0, .)
    # block, changes nothing and draws no noise
    idle = [stack_client(40, 1e-12, 1.1, 7), stack_client(40, 1e-12, None, 8)]
    got = assert_stacked_equals_solo(idle, layers, trains_a, 9, 3, STACK_CLIP, exact=True)
    for key in trainable_keys(layers, trains_a):
        for row in got[key]:
            assert row.tobytes() == getattr(layers[key[0]], key[1]).tobytes(), key


@pytest.mark.parametrize("trains_a", [False, True])
def test_train_clients_all_live_noise_byte_identical_to_solo(trains_a):
    # equal shards at q = 1: no padding, and every client is private and
    # draws its noise every step, into its row of the round's noise block
    clients = [stack_client(30, 1.0, sigma, 20 + k) for k, sigma in enumerate([0.7, 2.5, 1.1])]
    assert_stacked_equals_solo(clients, stack_layers(2, 2, 21), trains_a, 22, 3, STACK_CLIP, exact=True)


@pytest.mark.parametrize("trains_a", [False, True])
def test_train_clients_idle_row_untouched_beside_live_ones(trains_a):
    # client 1 never draws; client 2 clips but adds no noise (sigma 0).
    # The idle row adds nothing, not a zero times a stale noise row: its
    # -0.0 entries stay -0.0, and its generator drew the masks alone.
    clients = [
        stack_client(30, 1.0, 0.9, 30),
        stack_client(30, 1e-12, 1.3, 31),
        stack_client(30, 1.0, 0.0, 32),
    ]
    layers = [l.with_adapters(a=l.a.copy(), b=l.b.copy()) for l in stack_layers(2, 2, 33)]
    for layer in layers:
        layer.a[0, 0] = layer.b[0, 0] = -0.0
    got = assert_stacked_equals_solo(clients, layers, trains_a, 34, 3, STACK_CLIP, exact=True)
    for key in trainable_keys(layers, trains_a):
        assert got[key][1].tobytes() == getattr(layers[key[0]], key[1]).tobytes(), key
        assert np.signbit(got[key][1][0, 0]), key
    rng, twin = np.random.default_rng([34, 1]), np.random.default_rng([34, 1])
    federation.train_clients(clients[:2], layers, trains_a, 0.4, [np.random.default_rng([34, 0]), rng], 3, STACK_CLIP)
    for _ in range(3):
        twin.random(30)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("q, exact", [(1.0, True), (0.3, False)])
def test_train_clients_diverged_client_leaves_the_others_alone(q, exact):
    # without privacy, client 1's features near 1e300 overflow its unclipped
    # state; the other clients' updates match their solo runs. With full
    # batches of equal shards the stack has no padding, and they are
    # byte-identical (with padding, BLAS may round a row differently at
    # another row count).
    clients = [
        stack_client(40, q, None, 7),
        stack_client(40, q, None, 8, scale=1e300),
        stack_client(40, q, None, 9),
    ]
    layers = stack_layers(1, 2, 10)  # a tanh layer would saturate instead
    rngs = [np.random.default_rng([11, k]) for k in range(len(clients))]
    with np.errstate(all="ignore"):
        got = federation.train_clients(clients, layers, True, 0.4, rngs, 4, np.inf)
        a, b = got[0, "a"][1], got[0, "b"][1]
        assert not (np.isfinite(np.vdot(a, a)) and np.isfinite(np.vdot(b, b)))
        for k in (0, 2):
            want = solo_train(clients[k], layers, True, 0.4, np.random.default_rng([11, k]), 4, np.inf)
            for key, ref in want.items():
                mat = got[key][k]
                assert np.isfinite(mat).all()
                assert mat.tobytes() == ref.tobytes() if exact else close(mat, ref)


@pytest.mark.parametrize("kind", ["ffa_lora", "fedavg"])
def test_client_checks_cover_only_the_trained_matrices(monkeypatch, kind):
    # a frozen a is the server's own, checked after the aggregate that made it
    seen = []
    real = federation._check_finite

    def recording(strategy, rnd, where, layers):
        seen.append((where, [mats[0] is None for mats in layers]))
        return real(strategy, rnd, where, layers)

    monkeypatch.setattr(federation, "_check_finite", recording)
    federation.run_experiment(small_config(strategy=kind, rounds=2, layers=2, hidden_dim=4), 0)
    frozen = [skipped for where, skipped in seen if where.startswith("client")]
    assert len(frozen) == 2 * 2  # two rounds of two participants
    assert frozen == [[kind == "ffa_lora"] * 2] * 4
    assert all(skipped == [False, False] for where, skipped in seen if where == "aggregate")


def test_run_experiment_names_the_first_diverged_client_in_sorted_order(monkeypatch):
    cfg = small_config(strategy="fedavg", clients=4, participants=3, rounds=2)
    sampled = federation.sample_clients(4, 3, federation.stream(0, federation._TAG_SAMPLE, 0))
    real = federation.build_clients

    def blow_up_all_but_the_first(cfg, tables):
        clients = real(cfg, tables)
        for cid in sampled[1:]:
            table = clients[cid].table.copy()
            table[:, : cfg.feature_dim] *= 1e300
            clients[cid] = dataclasses.replace(clients[cid], table=table)
        return clients

    monkeypatch.setattr(federation, "build_clients", blow_up_all_but_the_first)
    with np.errstate(all="ignore"), pytest.raises(federation.DivergenceError) as info:
        federation.run_experiment(cfg, seed=0, record_timing=False)
    assert re.fullmatch(
        rf"fedavg diverged in round 1 \(client {sampled[1]}\): layer 0 [ab] has a non-finite norm",
        str(info.value),
    )


def worst_epsilon(clients, steps, rounds_done, delta):
    """The largest spent_epsilon over the private clients' full schedules of
    `steps` local steps a round."""
    private = [c for c in clients if c.sigma is not None]
    if not private:
        return None
    if rounds_done == 0:
        return 0.0
    return max(
        privacy.spent_epsilon(c.sample_rate, c.sigma, rounds_done * steps, delta)
        for c in private
    )


def serial_reference(cfg, seed):
    """run_experiment's rows from one solo_train per sampled client, in turn:
    (eval_accuracy, eval_loss, epsilon_spent, uploaded, downloaded) per round."""
    server, clients, heldout = federation.start(cfg, seed)
    strategy, steps = server.strategy, cfg.local_steps
    clip = cfg.clip_norm if cfg.private else np.inf
    rows = [(*model.evaluate(server.classifier(), heldout), worst_epsilon(clients, steps, 0, cfg.delta), 0, 0)]
    for rnd in range(cfg.rounds):
        sampled = federation.sample_clients(
            cfg.clients, cfg.participants, federation.stream(seed, federation._TAG_SAMPLE, rnd)
        )
        updates = [
            solo_train(
                clients[cid], server.layers, strategy.trains_a,
                lr=cfg.learning_rate, rng=federation.stream(seed, federation._TAG_CLIENT, rnd, cid),
                steps=steps, clip=clip,
            )
            for cid in sampled
        ]
        sizes = [len(clients[cid].table) for cid in sampled]
        server = federation.aggregate(sizes, stack_rows(updates, strategy.trains_a), server)
        comm = federation.comm_params_per_round(strategy, server.layers, len(sampled), cfg.transmit_a)
        rows.append((
            *model.evaluate(server.classifier(), heldout),
            worst_epsilon(clients, steps, rnd + 1, cfg.delta), *comm,
        ))
    return rows


def test_run_experiment_pinned_to_serial_reference():
    # all eight strategies in one test, so the memo fits the backbone once
    path = Path(__file__).resolve().parent.parent / "configs" / "headline.ini"
    for kind in sorted(federation.STRATEGIES):
        cfg = config.load(path, [f"strategy={kind}", "rounds=4", "record_timing=false"])
        got = federation.run_experiment(cfg, 0, record_timing=False)
        want = serial_reference(cfg, 0)
        assert len(got) == len(want) == 5, kind
        for row, (acc, loss, eps, up, down) in zip(got, want):
            assert (row.eval_accuracy, row.epsilon_spent, row.uploaded_params, row.downloaded_params) == (
                acc, eps, up, down
            ), kind
            assert abs(row.eval_loss - loss) <= 1e-12 * abs(loss), kind
