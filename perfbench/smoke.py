#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both modes, tiny size.

Run from anywhere:

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line is the JSON result, that it
names every metric BENCHMARK.json lists for its mode with the listed unit
and a value other than 0, and that no operation failed and every check
passed.  Exits 1 on the first problem.  Each run measures for one second
over its first four inputs; the whole test takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in spec["workloads"]:
        for trace, metrics in wanted.items():
            argv = [*spec["command"], "--workload", workload["name"], "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--fixed", "4"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = result["metrics"]
            problems = [
                f"{m['name']} missing or not in {m['unit']}"
                for m in metrics
                if got.get(m["name"], {}).get("unit") != m["unit"]
            ]
            problems += [f"unlisted metric {name}" for name in
                         set(got) - {m["name"] for m in metrics}]
            problems += [f"{name} is 0" for name, v in got.items() if v["value"] == 0]
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"failed {result['failed']} of {result['attempted']}, "
                                f"correct={result['correct']}")
            if problems:
                print(f"FAIL {label}: " + "; ".join(problems) + f"\n{proc.stderr}")
                return 1
            print(f"ok   {label}: {len(got)} metrics, fail_frac 0 "
                  f"over {result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
