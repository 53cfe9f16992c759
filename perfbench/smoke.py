"""Smoke test for the benchmark: every workload at a tiny size, both modes.

Run from the root of a dairypv checkout:

    python3 perfbench/smoke.py

Checks that each run exits 0, reports correct outputs and prints every
metric BENCHMARK.json names for its mode. Takes about half a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: missing {sorted(expected[trace] - set(result['metrics']))}"
                                f", extra {sorted(set(result['metrics']) - expected[trace])}")
            print(f"ok   {label}: {result['attempted']} ops")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
