"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and the pinned final numbers of the headline runs that the criteria read.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The comparative-run criterion executes 30 federated
experiments and dominates the runtime (about a minute).
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import b_gradient_norms, expansion_residual, forward, loss

from fedsvd import analysis, federation, linalg, lora, metrics, model, privacy
from fedsvd.config import RunConfig


@contextmanager
def criterion(number: int, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title} ({time.perf_counter() - t0:.1f}s)")


def headline_config(strategy: str, period: int = 1, **kw) -> RunConfig:
    base = dict(
        strategy=strategy,
        svd_period=period,
        clients=6,
        participants=3,
        rounds=100,
        local_steps=10,
        learning_rate=0.5,
        batch_size=32,
        classes=3,
        feature_dim=64,
        train_size=6000,
        margin=3.0,
        dirichlet_alpha=0.5,
        rank=8,
        lora_alpha=8.0,
        layers=2,
        hidden_dim=3,
        epsilon=6.0,
        delta=1e-5,
        clip_norm=2.0,
        seeds=(0, 1, 2, 3, 4),
        record_timing=False,
    )
    base.update(kw)
    return RunConfig(**base)


def test_criterion_1_reparameterization_exactness():
    with criterion(1, "reparameterization exactness over 500 random triples"):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        for _ in range(500):
            r = int(rng.integers(1, 17))
            d_out = int(rng.integers(r, 257))
            d_in = int(rng.integers(r, 257))
            b = rng.standard_normal((d_out, r))
            a_prev = rng.standard_normal((r, d_in))
            b_hat, a_hat = lora.fedsvd_reparam(b, a_prev)
            err = linalg.rel_frobenius_error(b_hat @ a_hat, b @ a_prev)
            assert err <= 1e-10, f"recovery error {err:.3e} at ({d_out},{d_in},{r})"
            orth = float(np.max(np.abs(a_hat @ a_hat.T - np.eye(r))))
            assert orth <= 1e-10, f"orthonormality defect {orth:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"


def test_criterion_2_theorem_suite():
    with criterion(2, "Hessian conditioning bounds on 1000 instances"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        passed = inconclusive = 0
        for _ in range(1000):
            r = int(rng.choice([2, 4, 8]))
            d_x = int(rng.choice([8, 16, 32]))
            if rng.integers(0, 2):
                q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
                a = np.ascontiguousarray(q.T)
            else:
                a = rng.standard_normal((r, d_x)) * rng.uniform(0.5, 2.0)
            b = rng.standard_normal((1, r))
            w = rng.standard_normal((1, d_x)) * 0.2
            x = rng.standard_normal((64, d_x))
            y = rng.integers(0, 2, 64)
            result = analysis.conditioning_bounds_check(analysis.hessian_logreg(a, b, w, x, y))
            assert result.status != "fail", f"margins {result.margins}"
            if result.status == "pass":
                passed += 1
            else:
                inconclusive += 1
        assert passed >= 900, f"only {passed} conclusive passes"

        # orthonormal basis after reparameterization has unit condition number
        for seed in range(50):
            g = np.random.default_rng(seed)
            b = g.standard_normal((16, 8))
            a_prev = g.standard_normal((8, 64))
            _, a_hat = lora.fedsvd_reparam(b, a_prev)
            assert abs(linalg.condition_number(a_hat) - 1.0) <= 1e-10

        # random Kaiming matrices are never perfectly conditioned
        bound = np.sqrt(3.0 / 64.0)
        for seed in range(100):
            a = np.random.default_rng(seed).uniform(-bound, bound, (8, 64))
            assert linalg.condition_number(a) > 1.0 + 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
        print(f"  ({passed} pass, {inconclusive} inconclusive/degenerate)")


def test_criterion_3_gradient_correctness():
    with criterion(3, "finite-difference gradients and the norm identity"):
        rng = np.random.default_rng(1003)
        h = 1e-5
        for trial in range(20):
            c = int(rng.integers(2, 5))
            d_x = int(rng.integers(3, 7))
            r = int(rng.integers(1, min(3, c, d_x) + 1))
            n_layers = 1 if trial % 2 == 0 else 2
            dims = [d_x] if n_layers == 1 else [d_x, max(r, 3)]
            sizes = dims + [c]
            layers = []
            for i in range(len(sizes) - 1):
                rr = min(r, sizes[i], sizes[i + 1])
                layers.append(
                    lora.LoraLayer(
                        w0=rng.standard_normal((sizes[i + 1], sizes[i])) * 0.4,
                        a=rng.standard_normal((rr, sizes[i])) * 0.6,
                        b=rng.standard_normal((sizes[i + 1], rr)) * 0.6,
                        scale=1.0,
                    )
                )
            x = rng.standard_normal(d_x)
            y = int(rng.integers(0, c))
            # the per-example gradients training clips, every adapter trainable
            params = model.adapter_params(layers)
            factors = model.grad_factors(layers, params, x[None], np.eye(c)[[y]], params.keys())
            for (li, name), (u, v) in factors.items():
                g = u[0][:, None] * v[0][None, :]
                base = params[(li, name)]
                for i in range(base.shape[0]):
                    for j in range(base.shape[1]):
                        plus, minus = base.copy(), base.copy()
                        plus[i, j] += h
                        minus[i, j] -= h
                        new_layers = list(layers)
                        new_layers[li] = layers[li].with_adapters(**{name: plus})
                        lp = loss(forward(model.Classifier(new_layers), x), y)
                        new_layers[li] = layers[li].with_adapters(**{name: minus})
                        lm = loss(forward(model.Classifier(new_layers), x), y)
                        fd = (lp - lm) / (2 * h)
                        ref = max(abs(fd), abs(g[i, j]), 1e-2)
                        assert abs(g[i, j] - fd) <= 1e-6 * ref

        # norm identity and orthonormal bound on every probe example
        for _ in range(100):
            c, r, d_x = 3, 3, 9
            q, _ = np.linalg.qr(rng.standard_normal((d_x, r)))
            a_orth = np.ascontiguousarray(q.T)
            b = rng.standard_normal((c, r))
            w = rng.standard_normal((c, d_x)) * 0.3
            x = rng.standard_normal(d_x)
            y = int(rng.integers(0, c))
            lhs, identity, bound, spectral_a = b_gradient_norms(a_orth, b, w, x, y)
            assert abs(lhs - identity) <= 1e-10
            assert lhs <= bound + 1e-10
            assert abs(spectral_a - 1.0) <= 1e-10


def test_criterion_4_noise_expansion_identity():
    with criterion(4, "post-update noise product expansion"):
        rng = np.random.default_rng(1004)
        sigma_c = 2.0  # paper-default sigma * clip scale
        for trial in range(100):
            d_out = int(rng.integers(2, 24))
            d_in = int(rng.integers(2, 24))
            r = int(rng.integers(1, min(d_out, d_in) + 1))
            b = rng.standard_normal((d_out, r))
            a = rng.standard_normal((r, d_in))
            scale = sigma_c if trial % 2 == 0 else float(rng.uniform(0.01, 3.0))
            xi_b = rng.normal(0.0, scale, b.shape)
            xi_a = rng.normal(0.0, scale, a.shape)
            assert expansion_residual(b, a, xi_b, xi_a) <= 1e-12


def test_criterion_5_accountant():
    with criterion(5, "accountant closed form, monotonicity, calibration band"):
        orders = np.asarray(privacy.DEFAULT_ORDERS, dtype=np.float64)
        for sigma in [0.7, 1.0, 2.5]:
            for steps in [1, 100, 1000]:
                total = steps * privacy.rdp_subsampled_gaussian(1.0, sigma, privacy.DEFAULT_ORDERS)
                closed = steps * orders / (2.0 * sigma**2)
                assert np.max(np.abs(total - closed) / closed) <= 1e-9

        sigmas = [0.5, 0.8, 1.2, 2.0, 3.5]
        steps_grid = [50, 200, 600, 1500, 3000]
        qs = [0.004, 0.016, 0.05, 0.15, 0.5]
        delta = 1e-5
        eps = {
            (s, t, q): privacy.spent_epsilon(q, s, t, delta)
            for s in sigmas
            for t in steps_grid
            for q in qs
        }
        for t in steps_grid:
            for q in qs:
                col = [eps[(s, t, q)] for s in sigmas]
                assert all(a > b for a, b in zip(col, col[1:])), "not decreasing in sigma"
        for s in sigmas:
            for q in qs:
                col = [eps[(s, t, q)] for t in steps_grid]
                assert all(a < b for a, b in zip(col, col[1:])), "not increasing in steps"
        for s in sigmas:
            for t in steps_grid:
                col = [eps[(s, t, q)] for q in qs]
                assert all(a <= b + 1e-12 for a, b in zip(col, col[1:])), "decreasing in q"

        for target, q, t in [(6.0, 0.064, 1000), (3.0, 0.02, 1000), (1.0, 0.05, 500)]:
            sigma = privacy.calibrate_sigma(target, delta, q, t)
            spent = privacy.spent_epsilon(q, sigma, t, delta)
            assert 0.99 * target < spent <= target, f"spent {spent} for target {target}"


@pytest.fixture(scope="module")
def comparative_results():
    """All criterion-6 runs: strategy label -> list of per-seed final
    accuracies; "_final_rows" holds each label's per-seed final MetricsRow."""
    t0 = time.perf_counter()
    configs = {
        "fedsvd_p1": headline_config("fedsvd", 1),
        "fedsvd_p2": headline_config("fedsvd", 2),
        "fedsvd_p5": headline_config("fedsvd", 5),
        "fedsvd_p10": headline_config("fedsvd", 10),
        "ffa_lora": headline_config("ffa_lora"),
        "fedavg": headline_config("fedavg"),
    }
    rows = {label: [] for label in configs}
    for seed in configs["fedsvd_p1"].seeds:  # seeds outermost: a seed's strategies share one memoized build
        for label, cfg in configs.items():
            rows[label].append(federation.run_experiment(cfg, seed, record_timing=False)[-1])
    finals = {label: [row.eval_accuracy for row in label_rows] for label, label_rows in rows.items()}
    finals["_final_rows"] = rows
    finals["_elapsed"] = time.perf_counter() - t0
    return finals


def test_criterion_6_desk_scale_comparative_run(comparative_results):
    with criterion(6, "desk-scale comparative orderings over 5 seeds"):
        finals = comparative_results
        mean = {k: float(np.mean(v)) for k, v in finals.items() if not k.startswith("_")}
        print(
            "  means: "
            + ", ".join(f"{k}={v:.4f}" for k, v in sorted(mean.items()))
        )
        # (i) periodic SVD refactorization beats the frozen-basis baseline
        assert mean["fedsvd_p1"] >= mean["ffa_lora"], (
            f"fedsvd {mean['fedsvd_p1']:.4f} < ffa_lora {mean['ffa_lora']:.4f}"
        )
        # (ii) and beats joint (a, b) training under DP
        assert mean["fedsvd_p1"] >= mean["fedavg"], (
            f"fedsvd {mean['fedsvd_p1']:.4f} < fedavg {mean['fedavg']:.4f}"
        )
        # (iii) insensitive to the refactorization period
        period_means = [mean[f"fedsvd_p{p}"] for p in (1, 2, 5, 10)]
        spread = max(period_means) - min(period_means)
        assert spread <= 0.03, f"period spread {spread:.4f} exceeds 3 points"
        assert finals["_elapsed"] < 300.0, f"runtime {finals['_elapsed']:.0f}s exceeds 5 minutes"


# Final correct counts (of the 1,500 held-out examples) of the criterion-6
# runs at seeds 0-4, and the final epsilon of each seed, which every
# strategy of the seed shares.
PINNED_COUNTS = {
    "fedsvd_p1": (1301, 1299, 1299, 1309, 1312),
    "fedsvd_p2": (1291, 1299, 1301, 1308, 1306),
    "fedsvd_p5": (1298, 1298, 1291, 1310, 1310),
    "fedsvd_p10": (1292, 1298, 1293, 1307, 1318),
    "ffa_lora": (1296, 1299, 1239, 1319, 1163),
    "fedavg": (1251, 1249, 1261, 1272, 1290),
}
PINNED_EPSILONS = (5.999488882824663, 5.999752320593575, 5.998104643580483, 5.999580783724332, 5.999740892233899)
# (correct count, final held-out loss) of a 10-round headline run at seed
# 0 of each remaining strategy; each ends at epsilon 5.996809950701527.
PINNED_SHORT_RUNS = {
    "flora": (1284, 0.3764108552899555),
    "fedex_lora": (1296, 0.39622844457507606),
    "fedsvd_nonortho": (1286, 0.435844358399437),
    "ffa_orthonormal": (1312, 0.348758840552578),
    "ffa_pissa": (1310, 0.34139686548063763),
}


def _check_pin(label, seed, what, old, new, rel=None):
    same = new == old if rel is None else abs(new - old) <= rel * abs(old)
    assert same, f"{label} seed {seed}: {what} was {old!r}, now {new!r}"


# A count moves only when a prediction flips. A change to the numbers on
# purpose copies the old and new values that a failure names into CHANGES.md.
def test_pinned_numbers_of_the_criterion_6_runs(comparative_results):
    for label, rows in comparative_results["_final_rows"].items():
        for seed, (row, count, eps) in enumerate(zip(rows, PINNED_COUNTS[label], PINNED_EPSILONS)):
            _check_pin(label, seed, "correct count", count, round(row.eval_accuracy * 1500))
            _check_pin(label, seed, "final epsilon", eps, row.epsilon_spent, rel=1e-12)


@pytest.mark.parametrize("kind", sorted(PINNED_SHORT_RUNS))
def test_pinned_numbers_of_a_short_headline_run(kind):
    count, final_loss = PINNED_SHORT_RUNS[kind]
    row = federation.run_experiment(headline_config(kind, rounds=10), 0, record_timing=False)[-1]
    _check_pin(kind, 0, "10-round correct count", count, round(row.eval_accuracy * 1500))
    _check_pin(kind, 0, "10-round loss", final_loss, row.eval_loss, rel=1e-12)
    _check_pin(kind, 0, "10-round epsilon", 5.996809950701527, row.epsilon_spent, rel=1e-12)


def head_coverage(layer) -> float:
    """||w0 Q Q^T||_F / ||w0||_F of a round-zero layer: the share of its
    base weight inside span(a), Q an orthonormal basis of a's rows. w0 is
    the effective weight, which is the backbone's at round zero for every
    strategy (ffa_pissa's residual plus its product)."""
    w0, q = lora.effective_weight(layer), np.linalg.qr(layer.a.T)[0]
    return float(np.linalg.norm(w0 @ q @ q.T) / np.linalg.norm(w0))


# At layers=1 the final accuracies over seeds 0-4 were fedsvd 0.160-0.195,
# fedavg 0.820-0.839 and ffa_pissa 0.867-0.883: a gap of at least 0.62 at
# every seed, against a per-strategy range of at most 0.035.
WIDE_HEAD_MARGIN = 0.5


def test_b_only_training_loses_when_the_head_is_wider_than_its_rank():
    # the headline's 3x64 head at rank 3: a b-only strategy moves it only
    # inside span(a_0), which misses most of the backbone's rows; criterion
    # 6's orderings hold only on the square 3x3 head of layers=2
    for seed in range(5):
        final, coverage = {}, {}
        for kind in ("fedsvd", "fedavg", "ffa_pissa"):
            cfg = headline_config(kind, layers=1)
            server, clients, heldout = federation.start(cfg, seed)
            coverage[kind] = head_coverage(server.layers[-1])
            for *_, server in federation.rounds(cfg, server, clients):
                pass
            final[kind] = model.evaluate(server.classifier(), heldout)[0]
        report = ", ".join(f"{k} accuracy {final[k]:.4f} head coverage {coverage[k]:.3f}" for k in final)
        for rival in ("fedavg", "ffa_pissa"):
            assert final["fedsvd"] < final[rival] - WIDE_HEAD_MARGIN, f"seed {seed}: {report}"


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical metrics across reruns and thread counts"):
        cfg = headline_config("fedsvd", rounds=5, seeds=(0, 1), record_timing=False)
        runs = {"a.csv": 1, "b.csv": 1, "c.csv": 4}
        rows = {name: [] for name in runs}
        for seed in cfg.seeds:  # seeds outermost: one memoized build per seed
            for name, threads in runs.items():
                run_cfg = dataclasses.replace(cfg, threads=threads)
                rows[name].extend(federation.run_experiment(run_cfg, seed, record_timing=False))
        paths = []
        for name, run_rows in rows.items():
            path = tmp_path / name
            metrics.write_csv(path, run_rows)
            paths.append(path)
        base = paths[0].read_bytes()
        assert paths[1].read_bytes() == base, "rerun differs"
        assert paths[2].read_bytes() == base, "thread count changed the output"


def test_criterion_8_freezing_and_dp_plumbing():
    with criterion(8, "frozen bases, reported epsilon, decentralized reparam"):
        # (a) broadcast bases return byte-identical from local training
        for kind in ("ffa_lora", "fedsvd"):
            cfg = headline_config(kind, rounds=3, seeds=(0,))
            server, clients, _ = federation.start(cfg, 0)
            broadcast_a = [layer.a.tobytes() for layer in server.layers]
            for _, adapters, server in federation.rounds(cfg, server, clients):
                for li, a_sent in enumerate(broadcast_a):
                    assert adapters[li, "a"].tobytes() == a_sent, "client modified a frozen basis"
                broadcast_a = [layer.a.tobytes() for layer in server.layers]

        # (b) reported epsilon equals the calibrated target within 1%
        cfg = headline_config("fedsvd", rounds=10, seeds=(0,))
        rows = federation.run_experiment(cfg, 0, record_timing=False)
        final_eps = rows[-1].epsilon_spent
        assert final_eps is not None
        assert 0.99 * cfg.epsilon < final_eps <= cfg.epsilon, f"reported epsilon {final_eps}"

        # (c) no-transmission mode: server and client reparameterizations agree
        # bit-for-bit on the same broadcast inputs
        rng = np.random.default_rng(1008)
        for _ in range(20):
            b_agg = rng.standard_normal((12, 4))
            a_prev = rng.standard_normal((4, 20))
            sb, sa = lora.fedsvd_reparam(b_agg, a_prev)
            cb, ca = lora.fedsvd_reparam(b_agg.copy(), a_prev.copy())
            assert sb.tobytes() == cb.tobytes()
            assert sa.tobytes() == ca.tobytes()
