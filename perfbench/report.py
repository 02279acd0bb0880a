"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace 0]

One ``run.py`` process per workload, one after the other.  Besides the
metrics it prints ``fail_share``: requests that raised, exited with a wrong
code or gave an answer the oracle rejected, over requests attempted.
Exits non-zero when a run fails or a request fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(f"{name}: run failed (exit code {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_share = result["failed"] / result["attempted"]
        print(f"== {name}: {result['attempted']} requests, fail_share {fail_share:g} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']}")
        if result["failed"] or not result["correct"]:
            print(proc.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
