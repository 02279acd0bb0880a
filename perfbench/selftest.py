"""Self-test of the benchmark.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics and workloads the
code reports, runs every workload at its smallest size with tracing on
(every request must pass its oracle and every declared span must be hit),
then gives each workload a deliberately wrong expected answer and requires
the failure to be counted, which proves the oracles are live.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import coarsek.cli

import tracing
import worker
import workloads

END_TO_END = {
    "wall_s": "s",
    "top_request_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "setup_s": "s",
}


def _wrong_index(wl):
    wl.requests[0].expect["index"] += 1


def _wrong_components(wl):
    wl.requests[0].expect["components"] += 1


def _wrong_digest(wl):
    digests = dict(wl.requests[0].expect["digests"])
    digests["u.txt"] = "0" * 64
    wl.requests[0].expect["digests"] = digests


def _wrong_shift_index(wl):
    wl.requests[0].expect["shift_index"] = 1


TAMPER = {
    "line-k1": _wrong_index,
    "finite-k0": _wrong_components,
    "finite-k1-dump": _wrong_digest,
    "verify-suite": _wrong_shift_index,
}


def check_manifest() -> list:
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != END_TO_END:
        problems.append(f"end_to_end metrics {e2e} != {END_TO_END}")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if layers != tracing.layer_metric_units():
        problems.append("per_layer metrics differ from tracing.layer_metric_units()")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.BUILDERS):
        problems.append(f"workloads {names} != {sorted(workloads.BUILDERS)}")
    return problems


def main() -> int:
    problems = check_manifest()
    scratch = Path(__file__).resolve().parent.parent / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for name, build in workloads.BUILDERS.items():
            work = root / name
            work.mkdir()
            wl = build(workloads.DEFAULT_SEED, work, smoke=True)
            try:
                res = worker.run_passes(coarsek.cli, wl, 0, trace=True)
            except tracing.CoverageError as exc:
                problems.append(f"{name}: {exc}")
                continue
            if res["failed"]:
                problems.append(f"{name} smoke run failed: {res['failures']}")
            missing = set(tracing.layer_metric_units()) - set(res["metrics"])
            if missing:
                problems.append(f"{name} traced run lacks {sorted(missing)}")
            TAMPER[name](wl)
            res = worker.run_passes(coarsek.cli, wl, 0, trace=False)
            if not res["metrics"]["ok_share"] < 1:
                problems.append(f"{name}: a wrong expected answer was not counted")
            print(f"{name}: smoke passed, wrong answer counted: {res['failures'][:1]}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
