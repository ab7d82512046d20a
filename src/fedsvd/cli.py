"""Command-line interface: run / verify / calibrate / partition-stats.

Exit codes: 0 success, 1 invariant violation, 2 configuration error,
3 training diverged (a non-finite model state; the rows of the seeds that
finished before it stay in the metrics CSV).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as config_mod
from . import data as data_mod
from . import federation, metrics, privacy, verify
from .config import ConfigError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _confidence_interval(values: list[float]) -> tuple[float, float]:
    """(mean, 95% t-interval half width); width 0 for a single value."""
    from scipy import stats

    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    sem = arr.std(ddof=1) / np.sqrt(len(arr))
    half = float(stats.t.ppf(0.975, len(arr) - 1) * sem)
    return mean, half


def _load_config(args) -> config_mod.RunConfig:
    cfg = config_mod.load(args.config, args.overrides)
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    if args.threads is not None:
        cfg.threads = args.threads
    if args.output is not None:
        cfg.metrics_path = args.output
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    all_rows = []
    for i, seed in enumerate(cfg.seeds):
        rows = federation.run_experiment(
            cfg, seed, threads=cfg.threads, record_timing=cfg.record_timing
        )
        metrics.write_csv(cfg.metrics_path, rows, append=i > 0)
        all_rows.append(rows)
        print(
            f"seed {seed}: final accuracy {rows[-1].eval_accuracy:.4f}, "
            f"loss {rows[-1].eval_loss:.4f}"
            + (
                f", epsilon {rows[-1].epsilon_spent:.3f}"
                if rows[-1].epsilon_spent is not None
                else ""
            )
        )
    finals = [rows[-1].eval_accuracy for rows in all_rows]
    mean, half = _confidence_interval(finals)
    print(
        f"{all_rows[0][0].strategy}: final-round accuracy {mean:.4f} "
        f"+/- {half:.4f} (95% CI over {len(finals)} seeds)"
    )
    print(f"metrics written to {cfg.metrics_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials == 0:
        print("warning: trials = 0, nothing verified (vacuous pass)")
        return EXIT_OK
    rows = verify.run_scope(args.scope, args.trials, args.seed or 0)
    if args.output:
        verify.write_margins_csv(args.output, rows)
        print(f"margins written to {args.output}")
    bad = verify.violations(rows)
    by_check: dict[str, int] = {}
    for row in rows:
        by_check.setdefault(f"{row.scope}/{row.check}", 0)
        if row.status == "violation":
            by_check[f"{row.scope}/{row.check}"] += 1
    for name in sorted(by_check):
        status = "FAIL" if by_check[name] else "ok"
        print(f"{status:4s} {name} ({by_check[name]} violations)")
    inconclusive = sum(1 for r in rows if r.status == "inconclusive")
    if inconclusive:
        print(f"note: {inconclusive} inconclusive (degenerate) trials skipped")
    print(f"{len(rows)} checks, {bad} violations")
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_calibrate(args) -> int:
    sigma = privacy.calibrate_sigma(args.epsilon, args.delta, args.q, args.steps)
    acct = privacy.RdpAccountant.for_mechanism(args.q, sigma)
    acct.advance(args.steps)
    eps, best = privacy.rdp_to_epsilon(acct, args.delta)
    print(f"sigma = {sigma:.6f}")
    print(f"spent epsilon = {eps:.6f} (target {args.epsilon}), best order = {best:g}")
    print("order,epsilon")
    total = acct.total_rdp()
    for order, rdp in zip(acct.orders, total):
        print(f"{order:g},{rdp + np.log(1.0 / args.delta) / (order - 1.0):.6f}")
    return EXIT_OK


def cmd_partition_stats(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    _, finetune, _ = federation._build_datasets(cfg, seed)
    parts = data_mod.partition_dirichlet(
        finetune,
        data_mod.PartitionSpec(alpha=cfg.dirichlet_alpha, clients=cfg.clients, seed=seed),
    )
    print(f"seed {seed}, alpha {cfg.dirichlet_alpha}, {cfg.clients} clients, "
          f"{len(finetune)} examples, {finetune.class_count} classes")
    print("client,n,q," + ",".join(f"class_{c}" for c in range(finetune.class_count)))
    for k, part in enumerate(parts):
        hist = np.bincount(part.labels, minlength=finetune.class_count)
        q = min(1.0, cfg.batch_size / len(part))
        print(f"{k},{len(part)},{q:.4f}," + ",".join(str(int(h)) for h in hist))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsvd",
        description="Desk-scale federated LoRA fine-tuning simulator with DP-SGD",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    parser.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    parser.add_argument("--output", type=str, default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a federated experiment from a config file")
    p_run.add_argument("config", help="INI config path")
    p_run.add_argument("overrides", nargs="*", help="key=value overrides")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run randomized invariant suites")
    p_verify.add_argument("--scope", choices=verify.SCOPES, default="all")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)

    p_cal = sub.add_parser("calibrate", help="calibrate the DP noise multiplier")
    p_cal.add_argument("--epsilon", type=float, required=True)
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--q", type=float, required=True, help="Poisson sampling rate")
    p_cal.add_argument("--steps", type=int, required=True, help="total local steps")
    p_cal.set_defaults(func=cmd_calibrate)

    p_stats = sub.add_parser("partition-stats", help="show the client partition of a config")
    p_stats.add_argument("config", help="INI config path")
    p_stats.add_argument("overrides", nargs="*", help="key=value overrides")
    p_stats.set_defaults(func=cmd_partition_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except federation.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, FileNotFoundError, privacy.CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
