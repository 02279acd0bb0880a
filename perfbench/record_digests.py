"""Record the SHA-256 digests of every finite-k1-dump dump file.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs the finite-k1-dump requests of the default seed once, checks them with
the workload's oracle and writes ``dump_digests.json`` next to this file,
keyed by the digest of each request's inputs.  The benchmark then requires
every later dump of the same inputs to be byte-identical, so record only
from a commit whose dumps are the reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import coarsek.cli

import worker
import workloads


def main() -> int:
    scratch = Path(__file__).resolve().parent.parent / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=scratch))
    try:
        wl = workloads.build_finite_k1_dump(workloads.DEFAULT_SEED, work, digests={})
        recorded = {}
        for i, req in enumerate(wl.requests):
            req.expect["require_digest"] = False
            _, problems = worker.run_request(coarsek.cli, req, None, (0, i))
            if problems:
                print(f"{req.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            recorded[req.inputs_sha256] = {
                "request": req.name,
                "files": {
                    name: hashlib.sha256((req.dump_dir / name).read_bytes()).hexdigest()
                    for name in workloads.DUMP_FILES
                },
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = Path(__file__).parent / "dump_digests.json"
    out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} requests in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
