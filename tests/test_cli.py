import os
import re
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import dump_config, format_value, gen_synthetic, save_csv
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedsvd import cli, config, data, federation, metrics, model, privacy, verify
from fedsvd.config import ConfigError, RunConfig


SMALL_INI = """
[federation]
strategy = fedsvd
svd_period = 1
clients = 3
participants = 2
rounds = 1
local_steps = 2
learning_rate = 0.3
batch_size = 16

[model]
rank = 4
lora_alpha = 4.0
pretrain_steps = 40

[data]
classes = 3
feature_dim = 8
train_size = 240
margin = 3.0

[privacy]
epsilon =

[output]
seeds = 0,1
record_timing = false
"""


def write_cfg(tmp_path, text=SMALL_INI):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_config_round_trip():
    cfg = config.parse(SMALL_INI)
    cfg.validate()
    dumped = dump_config(cfg)
    again = config.parse(dumped)
    assert cfg == again


def test_config_defaults_match_headline_settings():
    cfg = RunConfig()
    assert cfg.learning_rate == 0.5
    assert cfg.clip_norm == 2.0
    assert cfg.delta == 1e-5
    assert cfg.rank == 8 and cfg.lora_alpha == 8.0
    assert cfg.rounds == 100 and cfg.local_steps == 10
    assert cfg.clients == 6 and cfg.participants == 3
    assert cfg.dirichlet_alpha == 0.5


def test_config_validation_names_fields():
    cfg = config.parse(SMALL_INI)
    cfg.participants = 9
    with pytest.raises(ConfigError, match="participants"):
        cfg.validate()
    cfg = config.parse(SMALL_INI)
    cfg.delta = 0.0
    with pytest.raises(ConfigError, match="delta"):
        cfg.validate()
    cfg = config.parse(SMALL_INI)
    cfg.clip_norm = 0.0
    with pytest.raises(ConfigError, match="clip_norm must be positive"):
        cfg.validate()
    cfg = config.parse(SMALL_INI)
    cfg.noise_multiplier = -1.0
    with pytest.raises(ConfigError, match="noise_multiplier must be >= 0"):
        cfg.validate()


def test_config_overrides():
    cfg = config.parse(SMALL_INI)
    config.apply_overrides(cfg, ["rounds=5", "privacy.epsilon=6.0", "strategy=fedavg"])
    assert cfg.rounds == 5
    assert cfg.epsilon == 6.0
    assert cfg.strategy == "fedavg"
    with pytest.raises(ConfigError):
        config.apply_overrides(cfg, ["nonsense=1"])
    with pytest.raises(ConfigError):
        config.apply_overrides(cfg, ["model.rounds=1"])  # wrong section


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config.parse("[federation]\nwibble = 2\n")
    with pytest.raises(ConfigError):
        config.parse("[wibble]\nstrategy = fedavg\n")


def test_run_id_ignores_execution_knobs():
    a = config.parse(SMALL_INI)
    b = config.parse(SMALL_INI)
    b.metrics_path = "elsewhere.csv"
    b.threads = 4
    assert a.run_id() == b.run_id()
    b.rounds = 99
    assert a.run_id() != b.run_id()


def test_cmd_run_writes_expected_rows(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = cli.main(["--output", str(out), "run", cfg_path])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == metrics.CSV_HEADER
    # 2 seeds x (round 0 + round 1)
    assert len(lines) == 1 + 2 * 2
    captured = capsys.readouterr().out
    assert "fedsvd_p1: final-round accuracy 0.0583 +/- 0.3177 (95% CI over 2 seeds)\n" in captured


def test_t_quantile_matches_scipy():
    for df in range(1, 301):
        assert cli._t_quantile_975(df) == pytest.approx(stats.t.ppf(0.975, df), rel=1e-12, abs=0.0)


def test_cli_commands_never_import_scipy(tmp_path):
    # SciPy is a test-only dependency: neither the import of fedsvd.cli nor
    # verify, calibrate or a private 2-round run may load any scipy module.
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    script = f"""
import sys
from fedsvd import cli
codes = [
    cli.main(["verify", "--scope", "privacy", "--trials", "2"]),
    cli.main(["calibrate", "--epsilon", "6", "--delta", "1e-5", "--q", "0.02", "--steps", "200"]),
    cli.main(["--output", {str(out)!r}, "run", {cfg_path!r}, "rounds=2", "epsilon=6"]),
]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
    last = out.read_text().splitlines()[-1].split(",")
    assert last[3] == "2" and 0.0 < float(last[6]) <= 6.0  # round 2 spent epsilon


def test_cmd_run_deterministic_bytes(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    assert cli.main(["--output", str(out1), "run", cfg_path]) == 0
    assert cli.main(["--output", str(out2), "run", cfg_path]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cmd_run_config_error_exit_code(tmp_path):
    cfg_path = write_cfg(tmp_path)
    rc = cli.main(["run", cfg_path, "participants=9"])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "override, message",
    [
        ("clip_norm=0", "clip_norm must be positive"),
        ("noise_multiplier=-1", "noise_multiplier must be >= 0"),
        # gradient ascent on the pretrain split, which used to run and exit 0
        ("pretrain_lr=-1000", "pretrain_lr must be positive, got -1000.0"),
        ("pretrain_lr=0", "pretrain_lr must be positive, got 0.0"),
        # seed 0 twice: its rows twice and a "CI over 2 seeds" of one run
        ("seeds=0,0", "seeds must not repeat, got 0,0"),
        ("seeds=3,1,3", "seeds must not repeat, got 3,1,3"),
        # zero rounds and zero pretrain steps run, so "positive" misstated the bound
        ("rounds=-1", "rounds must be >= 0, got -1"),
        ("pretrain_steps=-1", "pretrain_steps must be >= 0, got -1"),
    ],
)
def test_cmd_run_rejects_a_bad_mechanism(tmp_path, capsys, override, message):
    cfg = config.apply_overrides(config.parse(SMALL_INI), [override])
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.validate()
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    assert cli.main(["--output", str(out), "run", cfg_path, override]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["0.5", "0"])
def test_cmd_run_rejects_epsilon_with_noise_multiplier(tmp_path, capsys, sigma):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = cli.main(["--output", str(out), "run", cfg_path, "epsilon=6.0", f"noise_multiplier={sigma}"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "epsilon" in err and "noise_multiplier" in err
    assert "sigma must be positive" not in err
    assert not out.exists()


def test_cmd_run_names_an_empty_pretrain_split(tmp_path, capsys, monkeypatch):
    # a 3-row CSV leaves the backbone fit no row: the configuration-error
    # exit code, with the fit's message rather than the partition's
    monkeypatch.chdir(tmp_path)
    save_csv(data.Dataset(np.arange(24.0).reshape(3, 8), np.arange(3), 3), "tiny.csv")
    out = tmp_path / "metrics.csv"
    rc = cli.main(["--output", str(out), "run", write_cfg(tmp_path), "source=csv", "csv_path=tiny.csv"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "empty training split" in err and "every class needs" not in err
    assert not out.exists()


def test_cmd_run_unreachable_epsilon_names_client(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = cli.main(["--output", str(out), "run", cfg_path, "epsilon=0.001"])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unreachable with sigma <= 256" in err
    assert re.search(r"client 0 \(shard of \d+ examples, q=0\.\d+\)", err)
    assert not out.exists()


def test_cmd_run_missing_config(tmp_path):
    rc = cli.main(["run", str(tmp_path / "nope.ini")])
    assert rc == cli.EXIT_CONFIG


def test_cmd_verify_scopes(tmp_path):
    out = tmp_path / "margins.csv"
    rc = cli.main(["--seed", "1", "--output", str(out), "verify", "--scope", "gradients", "--trials", "5"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scope,check,trial,value,bound,margin,status"
    assert lines[1:] == [r.format() for r in verify.run_scope("gradients", 5, 1)]


def test_run_scope_numbers_the_trials_of_each_check_and_keeps_its_margins():
    trials = 6
    rows = verify.run_scope("all", trials, 3)
    seen: dict[tuple[str, str], list[int]] = {}
    for r in rows:
        seen.setdefault((r.scope, r.check), []).append(r.trial)
        if r.status != "inconclusive":
            assert r.margin == r.bound - r.value, r
    for (scope, check), numbers in seen.items():
        # the theorem suite skips degenerate trials, and its orthonormal-only
        # check the trials with a general a
        if scope == "theorem":
            assert numbers == sorted(set(numbers)) and set(numbers) <= set(range(trials)), check
        else:
            assert numbers == list(range(trials)), check
    for scope in verify.SCOPES[:-1]:
        assert {t for (s, _), numbers in seen.items() if s == scope for t in numbers} == set(range(trials))


def test_verify_gradients_checks_the_training_gradient(monkeypatch):
    # verify differentiates through grad_factors, the path training runs:
    # a 1e-3 relative error in the U factor of b must show
    assert verify.violations(verify.run_scope("gradients", 5, 0)) == 0
    exact = model.grad_factors

    def skewed(*args, **kwargs):
        factors = exact(*args, **kwargs)
        return {k: ((1 + 1e-3) * u if k[1] == "b" else u, v) for k, (u, v) in factors.items()}

    monkeypatch.setattr(model, "grad_factors", skewed)
    rows = verify.run_scope("gradients", 5, 0)
    assert [r.status for r in rows if r.check == "finite_difference"] == ["violation"] * 5


def test_cmd_verify_zero_trials_vacuous(capsys):
    rc = cli.main(["verify", "--trials", "0"])
    assert rc == 0
    assert "vacuous" in capsys.readouterr().out


def test_cmd_calibrate(capsys):
    rc = cli.main([
        "calibrate", "--epsilon", "6", "--delta", "1e-5", "--q", "0.02", "--steps", "200",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "spent epsilon" in out


# `calibrate --epsilon 6 --delta 1e-5 --q 0.02 --steps 200`, pinned byte for byte
CALIBRATE_GOLDEN = """\
sigma = 0.732110
spent epsilon = 5.979292 (target 6.0), best order = 4
order,epsilon
2,11.949297
3,6.609907
4,5.979292
5,23.271543
6,184.407496
7,395.278537
8,600.069968
9,800.387896
10,997.663905
11,1192.801155
12,1386.381448
13,1578.793783
14,1770.307653
15,1961.115579
16,2151.358750
17,2341.143057
18,2530.549475
19,2719.640987
20,2908.467315
21,3097.068235
22,3285.475950
23,3473.716804
24,3661.812564
25,3849.781365
26,4037.638442
27,4225.396688
28,4413.067082
29,4600.659038
30,4788.180670
31,4975.639011
32,5163.040185
33,5350.389551
34,5537.691820
35,5724.951148
36,5912.171214
37,6099.355291
38,6286.506296
39,6473.626842
40,6660.719269
41,6847.785689
42,7034.828003
43,7221.847933
44,7408.847042
45,7595.826748
46,7782.788345
47,7969.733015
48,8156.661837
49,8343.575802
50,8530.475820
51,8717.362728
52,8904.237297
53,9091.100238
54,9277.952210
55,9464.793822
56,9651.625640
57,9838.448188
58,10025.261953
59,10212.067391
60,10398.864924
61,10585.654948
62,10772.437832
63,10959.213922
64,11145.983541
128,23092.774422
256,46977.070366
"""


def test_cmd_calibrate_stdout_pinned(capsys):
    rc = cli.main([
        "calibrate", "--epsilon", "6", "--delta", "1e-5", "--q", "0.02", "--steps", "200",
    ])
    assert rc == 0
    assert capsys.readouterr().out == CALIBRATE_GOLDEN


def test_cmd_calibrate_monotone_in_epsilon(capsys):
    def sigma_for(eps):
        cli.main(["calibrate", "--epsilon", str(eps), "--delta", "1e-5", "--q", "0.05", "--steps", "1000"])
        out = capsys.readouterr().out
        return float(out.split("sigma = ")[1].split("\n")[0])

    assert sigma_for(3.0) > sigma_for(6.0)


def test_cmd_calibrate_rejects_bad_delta():
    rc = cli.main(["calibrate", "--epsilon", "6", "--delta", "0", "--q", "0.02", "--steps", "100"])
    assert rc == cli.EXIT_CONFIG


def test_config_rejects_paths_with_outer_whitespace():
    # configparser strips values, so such a path would not survive dump -> parse
    for key in ("csv_path", "metrics_path"):
        for path in (" x.csv", "x.csv ", "\tx.csv", "x.csv\n"):
            cfg = config.parse(SMALL_INI)
            setattr(cfg, key, path)
            with pytest.raises(ConfigError, match=key):
                cfg.validate()
        cfg = config.parse(SMALL_INI)
        setattr(cfg, key, "my runs/x.csv")  # interior whitespace is kept
        cfg.validate()
        assert getattr(config.parse(dump_config(cfg)), key) == "my runs/x.csv"


def test_cmd_run_rejects_output_with_outer_whitespace(tmp_path, capsys, monkeypatch):
    cfg_path = write_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["--output", " x.csv", "run", cfg_path])
    assert rc == cli.EXIT_CONFIG
    assert "metrics_path" in capsys.readouterr().err
    assert not (tmp_path / " x.csv").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cmd_calibrate_rejects_nonpositive_steps(capsys, steps):
    rc = cli.main(["calibrate", "--epsilon", "6", "--delta", "1e-5", "--q", "0.02", "--steps", steps])
    assert rc == cli.EXIT_CONFIG
    assert "steps must be >= 1" in capsys.readouterr().err


SMALL_PARTITION = """seed 0, alpha 0.5, 3 clients, 240 examples, 3 classes
client,n,q,class_0,class_1,class_2
0,104,0.1538,35,32,37
1,58,0.2759,10,29,19
2,78,0.2051,35,19,24
"""


def test_cmd_partition_stats(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_csv(gen_synthetic(3, 4, 120, 3.0, seed=0)[1], "table.csv")
    for overrides, expected in [
        ([], SMALL_PARTITION),
        # unreachable (see test_cmd_run_unreachable_epsilon_names_client): the
        # command calibrates no sigma and fits no backbone
        (["epsilon=0.001"], SMALL_PARTITION),
        (["source=csv", "csv_path=table.csv"], """seed 0, alpha 0.5, 3 clients, 60 examples, 3 classes
client,n,q,class_0,class_1,class_2
0,25,0.6400,9,7,9
1,15,1.0000,3,7,5
2,20,0.8000,9,5,6
"""),
    ]:
        assert cli.main(["partition-stats", write_cfg(tmp_path), *overrides]) == cli.EXIT_OK
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [
    "learning_rate", "lora_alpha", "pretrain_lr", "margin", "dirichlet_alpha",
    "delta", "clip_norm", "epsilon", "noise_multiplier",
])
def test_non_finite_config_float_named(tmp_path, capsys, key, value):
    cfg = config.parse(SMALL_INI)
    setattr(cfg, key, float(value))
    with pytest.raises(ConfigError, match=f"{key} must be finite, got {float(value)}"):
        cfg.validate()
    assert cli.main(["run", write_cfg(tmp_path), f"{key}={value}"]) == cli.EXIT_CONFIG
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_cmd_calibrate_rejects_non_finite_epsilon(capsys, epsilon):
    with pytest.raises(ValueError, match="finite and positive"):
        privacy.calibrate_sigma(float(epsilon), 1e-5, 0.02, 100)
    rc = cli.main(["calibrate", "--epsilon", epsilon, "--delta", "1e-5", "--q", "0.02", "--steps", "100"])
    assert rc == cli.EXIT_CONFIG
    assert f"epsilon_target must be finite and positive, got {epsilon}" in capsys.readouterr().err


def test_metrics_header_stable():
    assert metrics.CSV_HEADER == (
        "run_id,seed,strategy,round,eval_accuracy,eval_loss,"
        "epsilon_spent,uploaded_params,downloaded_params,wall_ms"
    )


@pytest.mark.parametrize("row, header, line", [
    (
        metrics.MetricsRow("3f2a", 0, "fedsvd_p1", 2, 0.875, 0.3125, None, 40, 48, 7),
        metrics.CSV_HEADER,
        "3f2a,0,fedsvd_p1,2,0.875,0.3125,,40,48,7",
    ),
    (  # numpy scalars, as the run computes them: never "np.float64(...)"
        metrics.MetricsRow(
            "3f2a", np.int64(1), "fedavg", np.int64(3), np.float64(0.1), np.float64(2.5),
            np.float64(1e-3), np.int64(657), np.int64(657), np.int64(0),
        ),
        metrics.CSV_HEADER,
        "3f2a,1,fedavg,3,0.1,2.5,0.001,657,657,0",
    ),
    (
        verify.MarginRow("linalg", "reparam_recovery", 4, np.float64(2.5e-11), 1e-10, 7.5e-11, "ok"),
        "scope,check,trial,value,bound,margin,status",
        "linalg,reparam_recovery,4,2.5e-11,1e-10,7.5e-11,ok",
    ),
    (
        verify.MarginRow("theorem", "inconclusive", 0, 0.0, 0.0, 0.0, "inconclusive"),
        "scope,check,trial,value,bound,margin,status",
        "theorem,inconclusive,0,0.0,0.0,0.0,inconclusive",
    ),
])
def test_one_row_format_for_metrics_and_margins(tmp_path, row, header, line):
    # both CSVs: the header is the record's fields, floats by repr, None empty
    assert metrics.format_row(row) == line
    if isinstance(row, verify.MarginRow):
        assert row.format() == line
    path = tmp_path / "rows.csv"
    metrics.write_csv(path, [row])
    metrics.write_csv(path, [row, row], append=True)
    assert path.read_bytes() == f"{header}\n{line}\n{line}\n{line}\n".encode()


@pytest.mark.parametrize("strategy, label", [("fedsvd", "fedsvd_p1"), ("fedavg", "fedavg")])
def test_cmd_run_divergence_exit_code(tmp_path, capsys, strategy, label):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    with np.errstate(all="ignore"):
        rc = cli.main([
            "--output", str(out), "run", cfg_path,
            f"strategy={strategy}", "layers=1", "learning_rate=1e300", "rounds=3",
        ])
    assert rc == cli.EXIT_DIVERGED == 3
    err = capsys.readouterr().err
    assert re.search(rf"error: {label} diverged in round 1 \(client \d\): layer 0 [ab]", err)
    assert not out.exists()  # seed 0 diverged: no finished seed to keep


def test_cmd_run_divergence_keeps_finished_seeds(tmp_path, monkeypatch):
    real = federation.run_experiment

    def diverge_on_seed_1(cfg, seed, **kw):
        if seed == 1:
            raise federation.DivergenceError("fedsvd_p1 diverged in round 1 (aggregate): layer 0 b")
        return real(cfg, seed, **kw)

    monkeypatch.setattr(federation, "run_experiment", diverge_on_seed_1)
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "metrics.csv"
    assert cli.main(["--output", str(out), "run", cfg_path]) == cli.EXIT_DIVERGED
    lines = out.read_text().strip().split("\n")
    assert lines[0] == metrics.CSV_HEADER
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "0"]  # seed 0, rounds 0 and 1


_PATHS = st.text(
    alphabet=string.ascii_letters + string.digits + "/._-%;# ", min_size=1, max_size=20
).filter(lambda p: p == p.strip())  # outer whitespace is a config error
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    clients = draw(st.integers(1, 50))
    epsilon = draw(st.none() | _POSITIVE)
    source = draw(st.sampled_from(["synthetic", "csv"]))
    cfg = RunConfig(
        strategy=draw(st.sampled_from(tuple(federation.STRATEGIES))),
        svd_period=draw(st.integers(1, 100)),
        clients=clients,
        participants=draw(st.integers(1, clients)),
        rounds=draw(st.integers(0, 1000)),
        local_steps=draw(st.integers(1, 100)),
        learning_rate=draw(_POSITIVE),
        batch_size=draw(st.integers(1, 512)),
        transmit_a=draw(st.booleans()),
        layers=draw(st.sampled_from([1, 2])),
        hidden_dim=draw(st.integers(1, 256)),
        rank=draw(st.integers(1, 64)),
        lora_alpha=draw(_POSITIVE),
        pretrain_backbone=draw(st.booleans()),
        pretrain_steps=draw(st.integers(0, 1000)),
        pretrain_lr=draw(_POSITIVE),
        source=source,
        classes=draw(st.integers(2, 20)),
        feature_dim=draw(st.integers(1, 256)),
        train_size=draw(st.integers(1, 10**6)),
        margin=draw(st.floats(0.0, 100.0)),
        dirichlet_alpha=draw(_POSITIVE),
        csv_path=draw(_PATHS) if source == "csv" else draw(st.just("") | _PATHS),
        epsilon=epsilon,
        delta=draw(st.floats(1e-12, 0.999)),
        clip_norm=draw(_POSITIVE),
        noise_multiplier=None if epsilon is not None else draw(st.none() | st.floats(0.0, 100.0)),
        metrics_path=draw(_PATHS),
        seeds=tuple(draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=6, unique=True))),
        threads=draw(st.integers(1, 16)),
        record_timing=draw(st.booleans()),
    )
    cfg.validate()
    return cfg


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_dump_parse_and_overrides_round_trip_generated_configs(cfg):
    assert config.parse(dump_config(cfg)) == cfg
    overrides = [f"{key}={format_value(key, getattr(cfg, key))}" for key in config._KEY_SECTION]
    assert config.apply_overrides(RunConfig(), overrides) == cfg


def test_cmd_run_csv_independent_of_blas_thread_variables(tmp_path):
    # fedsvd pins one BLAS thread unless the user sets a count. Without the
    # pin, this config's CSV differed between the default thread count of a
    # 2-core machine and 1 thread, from round 2 on.
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    root = Path(__file__).resolve().parent.parent
    csvs = []
    for pinned in (False, True):
        env = {k: v for k, v in os.environ.items() if k not in variables}
        env.update(dict.fromkeys(variables if pinned else (), "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / f"pinned_{pinned}.csv"
        subprocess.run(
            [sys.executable, "-m", "fedsvd.cli", "--seed", "0", "--output", str(out), "run",
             str(root / "configs" / "headline.ini"), "rounds=2", "pretrain_steps=20",
             "local_steps=1", "record_timing=false"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("argv", [
    ["calibrate", "--epsilon", "6", "--delta", "1e-5", "--q", "0.0357", "--steps", "1000"],
    ["verify", "--scope", "linalg", "--trials", "2"],
    ["partition-stats", str(Path(__file__).resolve().parent.parent / "configs" / "headline.ini")],
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # `fedsvd calibrate ... | head -c 10`, with the reader gone before the
    # first write: exit status 0, not 1 (the invariant-violation code) or
    # 120 (a failed flush at exit), and nothing on stderr. A buffered stdout
    # fails on its flush, an unbuffered one on the first print.
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fedsvd.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, b"")


@pytest.mark.parametrize("case", ["run_output", "config", "csv_path", "verify_output"])
def test_path_errors_exit_as_configuration_errors(tmp_path, capsys, monkeypatch, case):
    # a directory where a file is read or written: an OSError, named on
    # stderr with exit code 2, no traceback
    monkeypatch.chdir(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "run_output": ["--output", str(folder), "run", write_cfg(tmp_path)],
        "config": ["run", str(folder)],
        "csv_path": ["run", write_cfg(tmp_path), "source=csv", f"csv_path={folder}"],
        "verify_output": ["--output", str(folder), "verify", "--scope", "linalg", "--trials", "1"],
    }[case]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err and "Traceback" not in err
