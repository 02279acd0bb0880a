"""The benchmark's self-test, run as part of the suite.

perfbench wraps package functions by name and requires every workload to
call the layers it lists, so a change that renames a wrapped function or
stops calling a listed layer breaks the benchmark.  Running its self-test
here shows that at test time rather than at benchmark time.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
