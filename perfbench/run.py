"""fedsvd benchmark: end-to-end timings, or per-module spans with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload headline_sweep --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    headline_sweep  configs/headline.ini, the six criterion-6 labels per seed
    wide_adapter    headline data, hidden_dim 32, rank 8, batch 128, fixed sigma;
                    fedsvd, fedavg and fedex_lora per seed
    verify_all      verify.run_scope("all", 1, s) for 150 consecutive seeds s

Every repetition runs in a fresh interpreter (worker.py), one after another
(a closed loop with one client), with the BLAS thread count fixed at 1.
All repetitions of a run do the same operations on the same inputs, made
from --seed. A new repetition starts only while the slowest one so far
still fits in --seconds; at least one always runs. One set-up-only
interpreter runs first and is discarded, so byte-code compilation is not
timed.

On a shared 2-core virtual machine (Xeon, 2.1 GHz) the same work was seen
to slow by up to 2x, in CPU time as well as wall time: for seconds at a
time, and by 10-20% for minutes. Two measures keep the figures steady:

- Each operation's time is its best over the run's repetitions, which
  share inputs; a slow burst rarely covers one operation in all of them.
- Every repetition also times fixed reference work (worker.reference)
  about 16 times, spread between its operations. Its best time per slot
  over the repetitions, median over slots, gives the run's machine speed.
  Operation times are scaled by REF_NOMINAL_S over that median, so they
  read as seconds on a machine as fast as the one the baseline was
  recorded on. No fedsvd change can move the reference; the unscaled
  figures are printed before the result. setup_s is not scaled: process
  start and imports did not slow with the reference.

--trace 0 reports:

    setup_s      interpreter start to first timed operation (import, configs,
                 inputs); median over the repetitions and extra set-up-only
                 interpreters, at least five samples
    wall_s       one repetition's operations: the sum of their best times
    op_s_p50     median over operations of their best times
    op_s_p90     90th percentile of the same (inclusive interpolation)
    peak_rss_mb  peak resident memory of a repetition's process, median

--trace 1 runs one repetition twice, untraced and then with every public
function of the fedsvd modules wrapped (tracer.py), checks that both give
byte-identical metric rows, and reports per-function calls / busy_s /
self_s (unscaled), derived counts and trace.overhead: traced over untraced
wall_s, each first divided by its own repetition's median reference time.
Counts repeat exactly for a given --seed.

Failures (an operation that raised or failed an output check) are counted
in the result's `failed` out of `attempted`. The last stdout line is the
JSON result; lines before it give sample counts, the environment and, when
tracing, the full per-function table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline_sweep", "wide_adapter", "verify_all")
SETUP_SAMPLES = 5
# Best time of worker.reference on the machine baseline.json was recorded on.
REF_NOMINAL_S = 0.007
DEADLINE_S = 170.0
BLAS_THREADS = "1"


def per_layer_names() -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


class Runner:
    def __init__(self, workload: str, tiny: bool, inject_failure: bool):
        self.workload = workload
        self.tiny = tiny
        self.inject_failure = inject_failure
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.update(
            OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0",
        )

    def spawn(self, seed: int, *flags: str) -> tuple[dict, float]:
        """Run one worker to completion; returns (its JSON result, seconds taken)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed)]
        cmd += [*flags, *(["--tiny"] if self.tiny else [])]
        if self.inject_failure and "--setup-only" not in flags:
            cmd.append("--inject-failure")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("out of time before a repetition could start")
        t0 = time.monotonic()
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(t0)], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=remaining,
        )
        took = time.monotonic() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), took


def measure(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    warm, _ = runner.spawn(seed, "--setup-only")
    reps, took = [], []
    loop_start = time.monotonic()
    while True:
        rep, t = runner.spawn(seed)
        reps.append(rep)
        took.append(t)
        if time.monotonic() - loop_start + max(took) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(seed, "--setup-only")[0]["setup_s"])
    best = [min(times) for times in zip(*(r["op_s"] for r in reps))]
    ref = statistics.median(min(times) for times in zip(*(r["ref_s"] for r in reps)))
    scale = REF_NOMINAL_S / ref
    raw = {
        "wall_s": sum(best),
        "op_s_p50": statistics.median(best),
        "op_s_p90": statistics.quantiles(best, n=10, method="inclusive")[8] if len(best) > 1 else best[0],
    }
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update((name, (value * scale, "s")) for name, value in raw.items())
    metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reps), "MB")
    notes = [
        f"env: {json.dumps(warm['env'])}",
        f"samples: {len(reps)} repetitions of {len(best)} operations, {len(setups)} set-ups",
        "repetition wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in reps),
        f"reference {ref:.6f} s, scale {scale:.4f}; unscaled: "
        + ", ".join(f"{name} {value:.6f}" for name, value in raw.items()),
    ]
    result = {
        "attempted": len(reps) * len(best),
        "failed": sum(r["failed_ops"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]],
        "metrics": metrics,
    }
    return result, notes


def measure_traced(runner: Runner, seed: int) -> tuple[dict, list[str]]:
    warm, _ = runner.spawn(seed, "--setup-only")
    plain, _ = runner.spawn(seed)
    traced, _ = runner.spawn(seed, "--trace")
    failures = plain["failures"] + traced["failures"]
    mismatched = sum(a != b for a, b in zip(plain["digests"], traced["digests"]))
    if mismatched:
        failures.append(f"{mismatched} operations' rows differ between traced and untraced runs")
    layers = dict(traced["layers"])
    layers["trace.overhead"] = (traced["wall_s"] / statistics.median(traced["ref_s"])) / (
        plain["wall_s"] / statistics.median(plain["ref_s"]))
    metrics = {name: (layers.get(name, 0), unit) for name, unit in per_layer_names()}
    notes = [f"env: {json.dumps(warm['env'])}", "per-function spans (calls, busy_s, self_s):"]
    for name in sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".busy_s")},
                       key=lambda n: -layers[f"{n}.busy_s"]):
        notes.append(f"  {name:40s} {layers[name + '.calls']:>9d} "
                     f"{layers[name + '.busy_s']:10.4f} {layers[name + '.self_s']:10.4f}")
    notes.append(f"untraced wall_s {plain['wall_s']:.4f}, traced wall_s {traced['wall_s']:.4f}")
    result = {
        "attempted": len(plain["op_s"]) + len(traced["op_s"]),
        "failed": plain["failed_ops"] + traced["failed_ops"] + mismatched,
        "failures": failures,
        "metrics": metrics,
    }
    return result, notes


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "fedsvd").glob("*.py"))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unavailable"
    return ref


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for selftest.py")
    ap.add_argument("--inject-failure", action="store_true",
                    help="tamper with the first output of each repetition, for selftest.py")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    for needed in ("src/fedsvd/__init__.py", "configs/headline.ini", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a fedsvd checkout",
                  file=sys.stderr)
            return 2

    runner = Runner(args.workload, args.tiny, args.inject_failure)
    try:
        if args.trace:
            result, notes = measure_traced(runner, args.seed)
        else:
            result, notes = measure(runner, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    notes.append(f"env: nproc {os.cpu_count()}, git {git_sha()}, src lines {src_lines()}")
    for note in notes:
        print(note)
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"failed_share: {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.4f}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
