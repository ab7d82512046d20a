import dataclasses
import re

import numpy as np
import pytest
from helpers import small_config

from fedsvd import data, federation, linalg, lora, model, privacy
from fedsvd.federation import ClientHandle, ServerState, Strategy


def make_client(n=40, seed=0, tau=2, private=False, q=0.5):
    rng = np.random.default_rng(seed)
    ds = data.Dataset(
        features=rng.standard_normal((n, 6)),
        labels=rng.permutation(np.arange(n) % 3),
        class_count=3,
    )
    pcfg = None
    acct = None
    if private:
        pcfg = privacy.PrivacyConfig(
            delta=1e-5, clip_norm=2.0, sigma=1.0, sample_rate=q, total_steps=max(1, tau)
        )
        acct = privacy.RdpAccountant.for_mechanism(q, 1.0)
    return ClientHandle(
        client_id=0, dataset=ds, local_steps=tau, privacy_cfg=pcfg,
        accountant=acct, sample_rate=q,
    )


def make_layers(seed=0, d=6, c=3, r=2, a_frozen=False):
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((c, d)) * 0.3
    a, b = lora.init_adapter(c, d, r, rng)
    return [lora.LoraLayer(w0=w0, a=a, b=b, rank=r, alpha=float(r), a_frozen=a_frozen)]


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
    client = make_client(tau=0, private=True)
    layers = make_layers(a_frozen=True)
    before = [(l.a.tobytes(), l.b.tobytes()) for l in layers]
    update = federation.local_train(client, layers, lr=0.5, rng=np.random.default_rng(0))
    assert client.accountant.steps_accumulated == 0
    a, b = update.adapters[0]
    assert a.tobytes() == before[0][0]
    assert b.tobytes() == before[0][1]


def test_local_train_advances_accountant_even_on_empty_draws():
    client = make_client(tau=5, private=True, q=1e-12)  # batches will be empty
    update = federation.local_train(
        client, make_layers(a_frozen=True), lr=0.5, rng=np.random.default_rng(0)
    )
    assert client.accountant.steps_accumulated == 5
    a, b = update.adapters[0]
    assert b.tobytes() == make_layers(a_frozen=True)[0].b.tobytes()


def test_local_train_frozen_a_returned_byte_identical():
    client = make_client(tau=4, private=True)
    layers = make_layers(a_frozen=True)
    a_before = layers[0].a.tobytes()
    update = federation.local_train(client, layers, lr=0.5, rng=np.random.default_rng(3))
    a_after, b_after = update.adapters[0]
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
    client = ClientHandle(
        client_id=0, dataset=ds, local_steps=1, privacy_cfg=None,
        accountant=None, sample_rate=1.0,
    )
    layers = make_layers(seed=1, d=3, c=3, r=2, a_frozen=True)
    losses = []
    current = layers
    for step in range(10):
        clf = model.Classifier(layers=list(current), class_count=3)
        losses.append(model.evaluate(clf, ds)[1])
        update = federation.local_train(
            client, current, lr=0.05, rng=np.random.default_rng(100 + step)
        )
        a, b = update.adapters[0]
        current = [current[0].with_adapters(a=a, b=b)]
    assert all(l1 <= l0 + 1e-12 for l0, l1 in zip(losses, losses[1:]))


def reference_local_train(client, layers, lr, rng):
    """local_train composed from the per-example oracle.

    per_sample_grads -> clip each example -> sum -> one noise draw per
    trainable key in sorted order -> divide by the realized batch size.
    Returns the final layers and the number of empty Poisson draws.
    """
    clf = model.Classifier(list(layers), layers[-1].d_out)
    trainable = model.trainable_params(clf)
    cfg = client.privacy_cfg
    ds = client.dataset
    empty = 0
    for _ in range(client.local_steps):
        mask = rng.random(len(ds)) < client.sample_rate
        if not mask.any():
            empty += 1
            continue
        grads = model.per_sample_grads(clf, ds.subset(np.flatnonzero(mask)), trainable)
        m = int(mask.sum())
        total = {k: 0.0 for k in trainable}
        for n in range(m):
            clipped = privacy.clip_gradient({k: grads[k][n] for k in trainable}, cfg.clip_norm)
            for k in trainable:
                total[k] = total[k] + clipped[k]
        new_layers = list(clf.layers)
        for idx, name in sorted(trainable):
            noisy = total[(idx, name)] + rng.normal(
                0.0, cfg.sigma * cfg.clip_norm, size=total[(idx, name)].shape
            )
            old = getattr(new_layers[idx], name)
            new_layers[idx] = new_layers[idx].with_adapters(**{name: old - lr * (noisy / m)})
        clf = model.Classifier(new_layers, clf.class_count)
    return clf.layers, empty


@pytest.mark.parametrize("a_frozen", [False, True])
def test_local_train_pinned_to_per_example_reference(a_frozen):
    client = make_client(n=8, seed=2, tau=6, private=True, q=0.2)  # sigma = 1
    rng = np.random.default_rng(4)
    clf = model.build_classifier(
        model.random_dense_weights([6, 4], 3, rng), 2, 2.0, rng, 3, a_frozen=a_frozen
    )
    layers = [l.with_adapters(b=0.5 * rng.standard_normal(l.b.shape)) for l in clf.layers]

    ref_rng = np.random.default_rng(9)
    want, empty = reference_local_train(client, layers, 0.5, ref_rng)
    assert 0 < empty < client.local_steps  # the run covers empty and non-empty draws

    run_rng = np.random.default_rng(9)
    got = federation.local_train(client, layers, lr=0.5, rng=run_rng)
    # the accountant advances on every draw, empty ones included
    assert client.accountant.steps_accumulated == client.local_steps
    # both consumed the same stream: no noise was drawn for the empty draws
    assert run_rng.random() == ref_rng.random()
    for idx, layer in enumerate(want):
        a, b = got.adapters[idx]
        assert np.linalg.norm(b - layer.b) <= 1e-12 * np.linalg.norm(layer.b)
        assert np.linalg.norm(a - layer.a) <= 1e-12 * np.linalg.norm(layer.a)
        if a_frozen:
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
        class_count=layers[-1].d_out,
    )


def update_from(server, client_id, n, scale_a=1.0, scale_b=1.0, seed=0):
    rng = np.random.default_rng(seed)
    adapters = {}
    for idx, layer in enumerate(server.layers):
        adapters[idx] = (
            scale_a * (layer.a + 0.1 * rng.standard_normal(layer.a.shape)),
            scale_b * (layer.b + 0.1 * rng.standard_normal(layer.b.shape)),
        )
    return federation.ClientUpdate(client_id=client_id, n=n, adapters=adapters)


def test_aggregate_single_client_fedavg_adopts_exactly():
    server = server_for("fedavg")
    upd = update_from(server, 0, 10, seed=1)
    out = federation.aggregate([upd], server)
    np.testing.assert_array_equal(out.layers[0].a, upd.adapters[0][0])
    np.testing.assert_array_equal(out.layers[0].b, upd.adapters[0][1])
    assert out.round_index == 1


def test_aggregate_two_equal_clients_arithmetic_mean():
    server = server_for("fedavg")
    u1 = update_from(server, 0, 10, seed=1)
    u2 = update_from(server, 1, 10, seed=2)
    out = federation.aggregate([u1, u2], server)
    np.testing.assert_allclose(
        out.layers[0].a, (u1.adapters[0][0] + u2.adapters[0][0]) / 2, atol=1e-15
    )


def test_aggregate_weighted_by_sizes():
    server = server_for("ffa_lora")
    u1 = update_from(server, 0, 30, seed=1)
    u2 = update_from(server, 1, 10, seed=2)
    out = federation.aggregate([u1, u2], server)
    np.testing.assert_allclose(
        out.layers[0].b,
        0.75 * u1.adapters[0][1] + 0.25 * u2.adapters[0][1],
        atol=1e-15,
    )
    np.testing.assert_array_equal(out.layers[0].a, server.layers[0].a)  # A untouched


def test_aggregate_fedex_identical_clients_leaves_w0():
    server = server_for("fedex_lora")
    u1 = update_from(server, 0, 10, seed=3)
    u2 = federation.ClientUpdate(client_id=1, n=10, adapters=u1.adapters)
    out = federation.aggregate([u1, u2], server)
    np.testing.assert_allclose(out.layers[0].w0, server.layers[0].w0, atol=1e-12)


def test_aggregate_fedex_residual_absorbed():
    server = server_for("fedex_lora")
    u1 = update_from(server, 0, 10, seed=4)
    u2 = update_from(server, 1, 10, seed=5)
    out = federation.aggregate([u1, u2], server)
    mean_product = 0.5 * (
        u1.adapters[0][1] @ u1.adapters[0][0] + u2.adapters[0][1] @ u2.adapters[0][0]
    )
    b_avg = 0.5 * (u1.adapters[0][1] + u2.adapters[0][1])
    a_avg = 0.5 * (u1.adapters[0][0] + u2.adapters[0][0])
    expected = server.layers[0].w0 + server.layers[0].scale * (mean_product - b_avg @ a_avg)
    np.testing.assert_allclose(out.layers[0].w0, expected, atol=1e-13)


def test_aggregate_fedsvd_preserves_effective_weight():
    server = server_for("fedsvd")
    u1 = update_from(server, 0, 25, seed=6)
    u2 = update_from(server, 1, 15, seed=7)
    b_avg = (25 * u1.adapters[0][1] + 15 * u2.adapters[0][1]) / 40
    out = federation.aggregate([u1, u2], server)
    w_before = server.layers[0].w0 + server.layers[0].scale * (b_avg @ server.layers[0].a)
    w_after = lora.effective_weight(out.layers[0])
    assert linalg.rel_frobenius_error(w_after, w_before) < 1e-10
    # reparameterized basis is orthonormal
    a_hat = out.layers[0].a
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


def test_aggregate_fedsvd_respects_period():
    server = server_for("fedsvd", period=2)
    u = update_from(server, 0, 10, seed=8)
    out1 = federation.aggregate([u], server)  # round 1: 1 % 2 != 0, no reparam
    np.testing.assert_array_equal(out1.layers[0].a, server.layers[0].a)
    out2 = federation.aggregate([update_from(out1, 0, 10, seed=9)], out1)
    # round 2: reparameterized now
    a_hat = out2.layers[0].a
    assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


def test_aggregate_flora_absorbs_and_reinitializes():
    server = server_for("flora")
    u1 = update_from(server, 0, 10, seed=10)
    u2 = update_from(server, 1, 30, seed=11)
    out = federation.aggregate([u1, u2], server)
    mean_product = 0.25 * (u1.adapters[0][1] @ u1.adapters[0][0]) + 0.75 * (
        u2.adapters[0][1] @ u2.adapters[0][0]
    )
    expected_w0 = server.layers[0].w0 + server.layers[0].scale * mean_product
    np.testing.assert_allclose(out.layers[0].w0, expected_w0, atol=1e-13)
    assert np.all(out.layers[0].b == 0.0)
    assert not np.array_equal(out.layers[0].a, server.layers[0].a)


def test_aggregate_shape_mismatch_rejected():
    server = server_for("fedavg")
    bad = federation.ClientUpdate(
        client_id=0, n=5, adapters={0: (np.zeros((3, 6)), np.zeros((3, 3)))}
    )
    with pytest.raises(ValueError):
        federation.aggregate([bad], server)


def test_broadcast_consistency_and_isolation():
    server = server_for("fedsvd")
    c1 = federation.broadcast_layers(server)
    c2 = federation.broadcast_layers(server)
    assert c1[0].a.tobytes() == c2[0].a.tobytes()
    assert c1[0].a_frozen and c2[0].a_frozen
    c1[0].a[0, 0] += 1.0  # mutating one client's copy must not leak
    assert c2[0].a.tobytes() == server.layers[0].a.tobytes()


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


def test_run_experiment_determinism_and_thread_independence():
    cfg = small_config(rounds=3, epsilon=4.0)
    rows1 = federation.run_experiment(cfg, seed=3, threads=1, record_timing=False)
    rows2 = federation.run_experiment(cfg, seed=3, threads=4, record_timing=False)
    assert rows1 == rows2
    rows3 = federation.run_experiment(cfg, seed=4, threads=1, record_timing=False)
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
        strategy = Strategy(cfg.strategy, cfg.svd_period)
        pre, fine, heldout = federation._build_datasets(cfg, seed=5)
        parts = data.partition_dirichlet(
            fine, data.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=1, seed=5)
        )
        base = model.fit_dense_weights(
            pre.features, pre.labels, [fine.feature_dim], fine.class_count,
            steps=50, lr=0.1, seed=federation.stream(5, 0xB0),
        )
        server = federation.init_server(cfg, strategy, base, fine.class_count, seed=5)
        clients = federation.build_clients(cfg, parts)
        update = federation.local_train(
            clients[0], federation.broadcast_layers(server),
            lr=cfg.learning_rate, rng=federation.stream(5, 0xB3, 0, 0),
        )
        server = federation.aggregate([update], server)
        return lora.effective_weight(server.layers[0])

    w1 = final_weight(cfg_p1)
    w2 = final_weight(cfg_off)
    assert linalg.rel_frobenius_error(w1, w2) < 1e-10


def test_fedsvd_value_invariance_every_round_and_layer():
    # at each round the refactorized state must carry the same effective
    # weight as plain b-averaging would, and the new basis is orthonormal
    import dataclasses

    cfg = small_config(strategy="fedsvd", rounds=6, epsilon=4.0, feature_dim=10)
    strategy = Strategy("fedsvd", 1)
    pre, fine, _ = federation._build_datasets(cfg, seed=7)
    parts = data.partition_dirichlet(
        fine, data.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=cfg.clients, seed=7)
    )
    base = model.fit_dense_weights(
        pre.features, pre.labels, [fine.feature_dim], fine.class_count,
        steps=40, lr=0.1, seed=federation.stream(7, 0xB0),
    )
    server = federation.init_server(cfg, strategy, base, fine.class_count, seed=7)
    clients = federation.build_clients(cfg, parts)
    for rnd in range(cfg.rounds):
        sampled = federation.sample_clients(
            cfg.clients, cfg.participants, federation.stream(7, 0xB2, rnd)
        )
        updates = [
            federation.local_train(
                clients[cid], federation.broadcast_layers(server),
                lr=cfg.learning_rate, rng=federation.stream(7, 0xB3, rnd, cid),
            )
            for cid in sampled
        ]
        plain_server = dataclasses.replace(server, strategy=Strategy("ffa_lora"))
        plain = federation.aggregate(updates, plain_server)
        server = federation.aggregate(updates, server)
        for reparam_layer, plain_layer in zip(server.layers, plain.layers):
            err = linalg.rel_frobenius_error(
                lora.effective_weight(reparam_layer), lora.effective_weight(plain_layer)
            )
            assert err < 1e-10
            a_hat = reparam_layer.a
            assert np.max(np.abs(a_hat @ a_hat.T - np.eye(a_hat.shape[0]))) < 1e-10


def test_run_experiment_ffa_broadcast_a_never_changes():
    cfg = small_config(strategy="ffa_lora", rounds=3, epsilon=5.0)
    strategy = Strategy(cfg.strategy, cfg.svd_period)
    pre, fine, heldout = federation._build_datasets(cfg, seed=2)
    parts = data.partition_dirichlet(
        fine, data.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=cfg.clients, seed=2)
    )
    base = model.random_dense_weights([fine.feature_dim], fine.class_count, 0)
    server = federation.init_server(cfg, strategy, base, fine.class_count, seed=2)
    a0 = server.layers[0].a.tobytes()
    clients = federation.build_clients(cfg, parts)
    for rnd in range(cfg.rounds):
        sampled = federation.sample_clients(
            cfg.clients, cfg.participants, federation.stream(2, 0xB2, rnd)
        )
        updates = [
            federation.local_train(
                clients[cid], federation.broadcast_layers(server),
                lr=cfg.learning_rate, rng=federation.stream(2, 0xB3, rnd, cid),
            )
            for cid in sampled
        ]
        for u in updates:
            assert u.adapters[0][0].tobytes() == a0  # A returned untouched
        server = federation.aggregate(updates, server)
        assert server.layers[0].a.tobytes() == a0


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
    # round-zero server state must leave every effective weight at w0
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
    for kind, (trains_a, label) in expected.items():
        strategy = Strategy(kind, 3)
        assert strategy.trains_a is trains_a, kind
        assert strategy.label == label, kind
        server = federation.init_server(small_config(strategy=kind), strategy, base, 3, seed=4)
        for layer, w0 in zip(server.layers, base):
            assert layer.a_frozen is not trains_a, kind
            assert linalg.rel_frobenius_error(lora.effective_weight(layer), w0) <= 1e-12, kind


# --- the per-process backbone memo ---


@pytest.fixture(autouse=True)
def empty_backbone_memo():
    federation._BACKBONES.clear()
    yield
    federation._BACKBONES.clear()


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

    def direct(cfg, pretrain, dims, class_count, seed):
        return model.fit_dense_weights(
            pretrain.features, pretrain.labels, dims, class_count,
            steps=cfg.pretrain_steps, lr=cfg.pretrain_lr, seed=federation.stream(seed, 0xB0),
        )

    monkeypatch.setattr(federation, "_backbone", direct)
    fresh = federation.run_experiment(cfg, seed=3, record_timing=False)
    assert cold == warm == fresh


def test_backbone_fitted_once_per_seed_across_strategies(count_fits):
    for kind in ("fedsvd", "ffa_lora", "fedavg"):
        federation.run_experiment(small_config(strategy=kind, rounds=1), seed=0, record_timing=False)
    assert len(count_fits) == 1
    # settings the fit does not read share it
    federation.run_experiment(small_config(rounds=2, svd_period=2, epsilon=3.0), seed=0, record_timing=False)
    assert len(count_fits) == 1
    # each field the fit reads refits: the seed (here on the same data),
    # pretrain_steps, pretrain_lr and hidden_dim
    cfg = small_config()
    pre, fine, _ = federation._build_datasets(cfg, seed=0)
    federation._backbone(cfg, pre, [fine.feature_dim], fine.class_count, seed=0)
    assert len(count_fits) == 1
    federation._backbone(cfg, pre, [fine.feature_dim], fine.class_count, seed=1)
    assert len(count_fits) == 2
    federation.run_experiment(small_config(rounds=1, pretrain_steps=30), seed=0, record_timing=False)
    assert len(count_fits) == 3
    federation.run_experiment(small_config(rounds=1, pretrain_lr=0.2), seed=0, record_timing=False)
    assert len(count_fits) == 4
    federation.run_experiment(small_config(rounds=1, layers=2, hidden_dim=4), seed=0, record_timing=False)
    federation.run_experiment(small_config(rounds=1, layers=2, hidden_dim=5), seed=0, record_timing=False)
    assert count_fits[-2:] == [[8, 4], [8, 5]]


def test_cached_backbone_is_read_only():
    cfg = small_config()
    pre, fine, _ = federation._build_datasets(cfg, seed=0)
    weights = federation._backbone(cfg, pre, [fine.feature_dim], fine.class_count, seed=0)
    again = federation._backbone(cfg, pre, [fine.feature_dim], fine.class_count, seed=0)
    assert all(w is v for w, v in zip(weights, again))
    with pytest.raises(ValueError):
        weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        weights[0] += 1.0


def test_rewritten_csv_source_is_refitted(tmp_path, count_fits):
    path = tmp_path / "table.csv"
    cfg = small_config(source="csv", csv_path=str(path), rounds=1)
    first, _, _ = data.gen_synthetic(3, 8, 240, 3.0, seed=0)
    data.save_csv(first, path)
    rows1 = federation.run_experiment(cfg, seed=0, record_timing=False)
    federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(count_fits) == 1
    second, _, _ = data.gen_synthetic(3, 8, 240, 3.0, seed=1)
    data.save_csv(second, path)
    rows2 = federation.run_experiment(cfg, seed=0, record_timing=False)
    assert len(count_fits) == 2
    assert rows1 != rows2


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

    def overflowing(updates, server):
        out = real(updates, server)
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
