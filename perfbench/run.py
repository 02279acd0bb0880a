"""Benchmark entry point: one workload run of the coarsek command line.

    python3 perfbench/run.py --workload line-k1 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is used from ``src`` as checked
out; nothing is installed.  The run starts several fresh interpreters with
``PYTHONHASHSEED=0`` (frozenset iteration order otherwise changes from run
to run): a few only set up, which gives the median set-up time, and the last
one also runs the workload (see ``worker.py``).  The second-to-last stdout
line is the reproducibility record; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones, and
the spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("line-k1", "finite-k0", "finite-k1-dump", "verify-suite")
SETUP_SAMPLES = 5  # set-up probes per run, the workload process included
WORKER_TIMEOUT_S = 170
HASH_SEED = "0"


def git_commit():
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "coarsek").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, work: Path, setup_only: bool, reference) -> tuple:
    """Start a worker and wait for its ready line; returns (process, set-up
    seconds at the nominal speed of ``speed.py``).  Set-up covers interpreter
    start, ``import coarsek`` and input generation."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work),
        "--spans", str(ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    kernel = reference.seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    kernel = (kernel + reference.seconds()) / 2
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, seconds * speed.NOMINAL_S / kernel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coarsek" / "__init__.py").is_file():
        print(f"error: no coarsek source under {SRC}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    proc = None
    reference = speed.Kernel()
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            probe, seconds = start_worker(args, run_dir / f"setup-{i}", True, reference)
            probe.communicate(timeout=WORKER_TIMEOUT_S)
            setups.append(seconds)
        proc, seconds = start_worker(args, run_dir / "run", False, reference)
        setups.append(seconds)
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        if proc is not None:
            proc.kill()
            proc.communicate()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exit code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = dict(res["metrics"])
    units = {"wall_s": "s", "top_request_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}
    if args.trace:
        units = {k: unit for k, (unit, _) in tracing.layer_metric_units().items()}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units["setup_s"] = "s"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "coarsek_version": res["coarsek_version"],
        "python": res["python"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pythonhashseed": HASH_SEED,
        "passes": res["passes"],
        "pass_wall_raw_s": res["pass_wall_raw_s"],
        "pass_wall_adjusted_s": res["pass_wall_adjusted_s"],
        "request_raw_s": res["request_raw_s"],
        "setup_samples_s": setups,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
