"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs run.py with tiny inputs, untraced and traced, and
checks that the result line names every metric of BENCHMARK.json with its
unit and reports no failures. It then tampers with one output per
repetition and checks that the failure is counted. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in expected.items():
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            got = result["metrics"]
            for metric in wanted:
                entry = got.get(metric["name"])
                if entry is None or entry.get("unit") != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {metric['name']} -> {entry}")
            if extra := set(got) - {m["name"] for m in wanted}:
                problems.append(f"{workload} trace {trace}: unlisted metrics {sorted(extra)}")
        tampered = run(workload, 0, "--inject-failure")
        if tampered["correct"] or tampered["failed"] < 1:
            problems.append(f"{workload}: tampered output not counted as failed")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
