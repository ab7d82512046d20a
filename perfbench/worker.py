"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py once per repetition, so every repetition pays the import
and the process-wide caches (``federation._calibrated_sigma``) start empty,
as they do for every ``fedsvd run``. Prints one JSON object on its last
stdout line:

    setup_s       interpreter start (the parent's spawn time) to first operation
    wall_s        first operation start to last operation end, checks included
    op_s          seconds per operation
    peak_rss_mb   peak resident memory of this process
    failures      one message per failed output check or raised operation
    failed_ops    operations with at least one failure
    digests       sha256 of each operation's formatted output rows
    ref_s         seconds of the fixed reference work, timed about 16 times
                  per repetition between operations (machine speed, see run.py)
    layers        (--trace only) per-function spans and derived counts

Inputs depend only on (--workload, --seed): training workloads run
experiment seed `seed`; verify_all runs seeds seed*150 .. seed*150+149.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("headline_sweep", "wide_adapter", "verify_all")
# The six criterion-6 labels, strategies looped inside one seed.
HEADLINE_STRATEGIES = (("fedsvd", 1), ("fedsvd", 2), ("fedsvd", 5), ("fedsvd", 10),
                       ("ffa_lora", 1), ("fedavg", 1))
WIDE_STRATEGIES = (("fedsvd", 1), ("fedavg", 1), ("fedex_lora", 1))
# Headline data and federation settings, wider adapters, fixed noise: no calibration.
WIDE_OVERRIDES = ("hidden_dim=32", "rank=8", "batch_size=128", "epsilon=", "noise_multiplier=1.0")
TINY_OVERRIDES = ("rounds=3", "pretrain_steps=20")
VERIFY_OPS = 150
TINY_VERIFY_OPS = 3
# Lowest final accuracy seen over seeds 0-6 was 0.78 (headline) and 0.59
# (wide fedsvd); chance is 1/3.
ACCURACY_FLOOR = {"headline_sweep": 0.6, "wide_adapter": 0.45}
REF_SAMPLES = 16
REF_MATRIX_SEED = 20250518
MODULES = ("federation", "model", "privacy", "lora", "linalg", "data", "verify", "analysis")


@dataclasses.dataclass
class Op:
    run: object     # () -> output
    check: object   # output -> list of failure messages
    digest: object  # output -> str


def sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def training_ops(workload: str, seed: int, tiny: bool) -> list[Op]:
    from fedsvd import config, federation, metrics, model

    strategies = HEADLINE_STRATEGIES if workload == "headline_sweep" else WIDE_STRATEGIES
    extra = WIDE_OVERRIDES if workload == "wide_adapter" else ()
    floor = 0.0 if tiny else ACCURACY_FLOOR[workload]
    ops = []
    for kind, period in strategies:
        overrides = [f"strategy={kind}", f"svd_period={period}", "record_timing=false",
                     *extra, *(TINY_OVERRIDES if tiny else ())]
        cfg = config.load(ROOT / "configs" / "headline.ini", overrides)
        dims = [cfg.feature_dim] if cfg.layers == 1 else [cfg.feature_dim, cfg.hidden_dim]
        shapes = model.build_classifier(
            model.random_dense_weights(dims, cfg.classes, 0), cfg.rank, cfg.lora_alpha, 0, cfg.classes
        ).layers
        comm = federation.comm_params_per_round(
            federation.Strategy(cfg.strategy, cfg.svd_period), shapes, cfg.participants, cfg.transmit_a
        )
        ops.append(Op(
            run=lambda cfg=cfg: federation.run_experiment(cfg, seed, record_timing=False),
            check=lambda rows, cfg=cfg, comm=comm: check_training(rows, cfg, comm, floor),
            digest=lambda rows: sha(metrics.format_row(r) for r in rows),
        ))
    return ops


def check_training(rows, cfg, comm, floor) -> list[str]:
    label = f"{cfg.strategy}_p{cfg.svd_period}"
    problems = []
    if len(rows) != cfg.rounds + 1:
        problems.append(f"{label}: {len(rows)} rows, expected {cfg.rounds + 1}")
    if not all(math.isfinite(r.eval_loss) for r in rows):
        problems.append(f"{label}: non-finite eval_loss")
    if rows and rows[-1].eval_accuracy < floor:
        problems.append(f"{label}: final accuracy {rows[-1].eval_accuracy} below {floor}")
    if cfg.epsilon is not None and rows:
        eps = rows[-1].epsilon_spent
        if eps is None or not 0.99 * cfg.epsilon < eps <= cfg.epsilon:
            problems.append(f"{label}: final epsilon {eps} outside (0.99, 1] x {cfg.epsilon}")
    for r in rows:
        want = (0, 0) if r.round == 0 else comm
        if (r.uploaded_params, r.downloaded_params) != want:
            problems.append(f"{label}: round {r.round} moved "
                            f"{(r.uploaded_params, r.downloaded_params)}, expected {want}")
            break
    return problems


def verify_ops(seed: int, tiny: bool) -> list[Op]:
    from fedsvd import verify

    count = TINY_VERIFY_OPS if tiny else VERIFY_OPS

    def check(rows):
        bad = verify.violations(rows)
        return [f"{bad} verify violations"] if bad or not rows else []

    return [
        Op(
            run=lambda s=s: verify.run_scope("all", 1, s),
            check=check,
            digest=lambda rows: sha(r.format() for r in rows),
        )
        for s in range(seed * VERIFY_OPS, seed * VERIFY_OPS + count)
    ]


def reference(matrix) -> float:
    """Seconds for fixed work that no fedsvd change can alter.

    It mixes what fedsvd spends its time on: interpreted loops, small NumPy
    operations and a LAPACK call. run.py scales the timings by it.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(50000):
        total += i * i
    h = matrix
    for _ in range(500):
        h = np.tanh(h @ matrix) * 0.5
    for _ in range(5):
        np.linalg.svd(matrix)
    return time.perf_counter() - t0


def tamper(output):
    """A wrong output: training loses its last row, verify gains a violation."""
    if output and hasattr(output[0], "eval_accuracy"):
        return output[:-1]
    return [dataclasses.replace(output[0], status="violation"), *output[1:]]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(recorder, outputs) -> dict:
    """Per-function calls / busy_s / self_s plus the derived counts."""
    out = {}
    for name, row in recorder.summary().items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    attempted = recorder.counters.get("federation.local_train.attempted_steps", 0)
    taken = recorder.child_calls("federation.local_train", "model.per_sample_grads")
    out["model.per_sample_grads.examples"] = recorder.counters.get("model.per_sample_grads.examples", 0)
    out["federation.local_train.step_yield"] = taken / attempted if attempted else 0.0
    # One experiment seed per training repetition, so calls per seed = calls.
    out["model.fit_dense_weights.calls_per_seed"] = out.get("model.fit_dense_weights.calls", 0)
    rows = [r for rows in outputs if rows and hasattr(rows[0], "uploaded_params")
            for r in rows if r.round > 0]
    for key in ("uploaded_params", "downloaded_params"):
        out[f"federation.{key}_per_round"] = (
            sum(getattr(r, key) for r in rows) / len(rows) if rows else 0.0
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args(argv)

    import fedsvd  # noqa: F401  (the import is part of set-up)

    if args.workload == "verify_all":
        ops = verify_ops(args.seed, args.tiny)
    else:
        ops = training_ops(args.workload, args.seed, args.tiny)

    recorder = None
    if args.trace and not args.setup_only:
        import importlib

        import tracer

        recorder = tracer.SpanRecorder()
        counts = {
            "model.per_sample_grads": (
                "model.per_sample_grads.examples",
                lambda a, kw: len(_features(a[1] if len(a) > 1 else kw["batch"])),
            ),
            "federation.local_train": (
                "federation.local_train.attempted_steps",
                lambda a, kw: (a[0] if a else kw["client"]).local_steps,
            ),
        }
        tracer.instrument(
            recorder, [importlib.import_module(f"fedsvd.{m}") for m in MODULES], counts
        )

    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": environment()}))
        return 0

    import numpy as np

    matrix = np.random.default_rng(REF_MATRIX_SEED).standard_normal((32, 32)) / 8.0
    stride = max(1, len(ops) // REF_SAMPLES)
    per_point = max(1, round(REF_SAMPLES / len(ops)))
    op_s, ref_s, failures, failed_ops, digests, outputs = [], [], [], 0, [], []
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        if i % stride == 0:
            ref_s.extend(reference(matrix) for _ in range(per_point))
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            op_s.append(time.perf_counter() - t0)
            failures.append(f"op {i} raised {type(exc).__name__}: {exc}")
            failed_ops += 1
            digests.append(None)
            continue
        op_s.append(time.perf_counter() - t0)
        if args.inject_failure and i == 0:
            output = tamper(output)
        problems = op.check(output)
        failures.extend(problems)
        failed_ops += bool(problems)
        digests.append(op.digest(output))
        outputs.append(output)
    wall_s = time.perf_counter() - t_start - sum(ref_s)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "failed_ops": failed_ops,
        "digests": digests,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, outputs)
    print(json.dumps(result))
    return 0


def _features(batch):
    return batch.features if hasattr(batch, "features") else batch


if __name__ == "__main__":
    sys.exit(main())
