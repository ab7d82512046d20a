import re

import pytest

from fedsvd import cli, config, metrics
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
    dumped = config.dump(cfg)
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
    assert "95% CI" in captured


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
    assert len(lines) > 5


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


def test_cmd_calibrate_monotone_in_epsilon(capsys):
    def sigma_for(eps):
        cli.main(["calibrate", "--epsilon", str(eps), "--delta", "1e-5", "--q", "0.05", "--steps", "1000"])
        out = capsys.readouterr().out
        return float(out.split("sigma = ")[1].split("\n")[0])

    assert sigma_for(3.0) > sigma_for(6.0)


def test_cmd_calibrate_rejects_bad_delta():
    rc = cli.main(["calibrate", "--epsilon", "6", "--delta", "0", "--q", "0.02", "--steps", "100"])
    assert rc == cli.EXIT_CONFIG


def test_cmd_partition_stats(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    rc = cli.main(["partition-stats", cfg_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "client,n,q" in out
    assert len(out.strip().split("\n")) == 2 + 3  # header lines + 3 clients


def test_metrics_header_stable():
    assert metrics.CSV_HEADER == (
        "run_id,seed,strategy,round,eval_accuracy,eval_loss,"
        "epsilon_spent,uploaded_params,downloaded_params,wall_ms"
    )
