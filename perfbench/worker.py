"""One workload process of the coarsek benchmark.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED`` and ``src`` on the
path.  It imports coarsek, writes the workload's inputs, prints ``ready``
(the parent's set-up clock stops there), then drives ``coarsek.cli.main``
in-process as one closed-loop client: each request is sent only after the
previous verdict came back.  The fixed request list is repeated as passes
until the time budget is spent, and the last stdout line is a JSON summary.
Each request's seconds are also scaled to the nominal speed of ``speed.py``
with reference-kernel times taken between requests.

With ``--trace 1`` untraced and traced passes alternate: per-layer metrics
come from the traced passes, and their wall time against the untraced ones
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

MAX_REPORTED_FAILURES = 10


def run_request(cli, req, tracer, request_id):
    """Send one request and grade its verdict; returns (seconds, problems)."""
    gc.collect()  # every request starts from a collected heap, untimed
    if req.dump_dir is not None:
        shutil.rmtree(req.dump_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    if tracer is not None:
        tracer.request = request_id
        tracer.open("cli.main")
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(req.argv)
        except (Exception, SystemExit) as e:  # every escape is a failed request
            exc = e
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close()
        tracer.request = None
    if exc is not None:
        problems = [f"raised {type(exc).__name__}: {exc}"]
    else:
        try:
            problems = req.check(req, rc, out.getvalue())
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            problems = [f"unparsable answer: {type(e).__name__}: {e}"]
    if rc not in (0, None) and err.getvalue():
        problems.append(err.getvalue().strip()[:200])
    if tracer is not None and req.dump_dir is not None and req.dump_dir.is_dir():
        tracer.add("cli.dump_bytes", sum(f.stat().st_size for f in req.dump_dir.iterdir()))
    return seconds, problems


def run_passes(cli, wl, seconds: float, trace: bool) -> dict:
    """Repeat the request list until ``seconds`` are spent; with ``trace``
    every second pass is traced."""
    tracer = tracing.Tracer() if trace else None

    def traced_pass(index):
        return trace and index % 2 == 1

    log = []  # (pass index, traced, request index, raw seconds, adjusted seconds)
    pass_raw = []  # raw wall seconds per pass
    pass_elapsed = []  # pass duration including grading and kernel samples
    attempted = failed = 0
    failures = []
    reference = speed.Kernel()
    t_start = time.perf_counter()
    kernel = reference.seconds()
    while True:
        index = len(pass_raw)
        traced = traced_pass(index)
        pass_start = time.perf_counter()
        try:
            if traced:
                tracer.pass_index = index
                tracer.install()
            wall = 0.0
            for i, req in enumerate(wl.requests):
                dt, problems = run_request(
                    cli, req, tracer if traced else None, (index, i)
                )
                # the kernel time after one request is the time before the next
                after = reference.seconds()
                adjusted = dt * speed.NOMINAL_S / ((kernel + after) / 2)
                kernel = after
                wall += dt
                log.append((index, traced, i, dt, adjusted))
                attempted += 1
                if problems:
                    failed += 1
                    if len(failures) < MAX_REPORTED_FAILURES:
                        failures.append(f"{req.name}: {'; '.join(problems)}")
        finally:
            if traced:
                tracer.uninstall()
        pass_raw.append(wall)
        pass_elapsed.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - t_start
        # the next pass is assumed to take as long as the slower of the last two
        if len(pass_raw) >= (2 if trace else 1) and elapsed + max(pass_elapsed[-2:]) > seconds:
            break

    pass_wall = [0.0] * len(pass_raw)
    tops = []
    request_s = [[] for _ in wl.requests]  # raw seconds of untraced requests
    for p, traced, i, dt, adj in log:
        pass_wall[p] += adj
        if not traced:
            request_s[i].append(dt)
            if wl.requests[i].top:
                tops.append(adj)
    untraced = [w for p, w in enumerate(pass_wall) if not traced_pass(p)]
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": len(pass_raw),
        "pass_wall_raw_s": pass_raw,
        "pass_wall_adjusted_s": pass_wall,
        "request_raw_s": request_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(untraced),
            "top_request_s": statistics.median(tops),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
        return result
    calls = tracer.calls()
    missing = [name for name in wl.exercises if calls[name] == 0]
    if missing:
        raise tracing.CoverageError(
            f"no calls recorded on {wl.name} for: {', '.join(missing)}"
        )
    plain = statistics.median(untraced)
    with_trace = statistics.median(w for p, w in enumerate(pass_wall) if traced_pass(p))
    metrics = tracing.median_metrics(tracer.pass_metrics())
    metrics["trace_overhead_share"] = (with_trace - plain) / plain
    result["metrics"] = metrics
    result["spans"] = tracer.spans
    return result


def write_spans(path: Path, wl_name: str, seed: int, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((span[2] for span in spans), default=0.0)
    rows = [
        [sid, name, round(start - t0, 7), round(end - t0, 7), parent, list(request)]
        for sid, name, start, end, parent, request in sorted(spans)
    ]
    payload = {
        "workload": wl_name,
        "seed": seed,
        "fields": ["id", "name", "start_s", "end_s", "parent", "request"],
        "spans": rows,
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import coarsek
    import coarsek.cli

    args.work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, args.work)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = run_passes(coarsek.cli, wl, args.seconds, bool(args.trace))
    except tracing.CoverageError as exc:
        print(f"wrapper coverage: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    spans = result.pop("spans", None)
    if spans is not None and args.spans is not None:
        write_spans(args.spans, wl.name, args.seed, spans)
    result["coarsek_version"] = coarsek.__version__
    result["python"] = platform.python_version()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
