"""Print every metric of the benchmark by name and unit and check all outputs.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload with --trace 0 (end-to-end metrics) and once
with --trace 1 (per-layer metrics of every workload), prints each table,
and exits with 1 when any job gave a wrong answer or a run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    runs = [(w, 0) for w in workloads.WORKLOADS] + [(workloads.WORKLOADS[0], 1)]
    ok = True
    for workload, trace in runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            ok = False
            continue
        result = json.loads(lines[-1])
        print(f"  -> correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}\n")
        ok = ok and result["correct"]
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
