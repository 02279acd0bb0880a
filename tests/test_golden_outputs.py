"""Golden outputs: SHA-256 digests of CLI reports and operator dumps.

Each case runs one ``coarsek`` command in-process and hashes its exit code,
its stdout and every file it dumps.  ``verify --json`` reports are hashed
with the per-check ``seconds`` removed, since timings vary from run to run.
The stored digests pin report content, so a refactor that changes a single
byte of a report or dump fails here.  After an intended output change,
regenerate the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from coarsek.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

TRIANGLE = {
    "kind": "finite",
    "vertices": [0, 1, 2],
    "edges": [
        {"id": "e01", "source": 0, "target": 1},
        {"id": "e12", "source": 1, "target": 2},
        {"id": "e02", "source": 0, "target": 2},
    ],
}
FIGURE_EIGHT = {
    "kind": "finite",
    "vertices": ["z", "a", "b"],
    "edges": [
        {"id": "f1", "source": "z", "target": "a"},
        {"id": "g1", "source": "a", "target": "z"},
        {"id": "f2", "source": "z", "target": "b"},
        {"id": "g2", "source": "b", "target": "z"},
    ],
}
LINE = {"kind": "banded_z", "edges_per_cell": 1}

# name -> (subcommand, {file option: payload}, extra arguments)
MAP_CASES = {
    "k1-triangle": (
        "k1-map",
        {"--graph": TRIANGLE, "--chain": {"degree": 1, "coeffs": {"e01": 2, "e12": 2, "e02": -2}}},
        [],
    ),
    "k1-figure-eight-matching": (
        "k1-map",
        {
            "--graph": FIGURE_EIGHT,
            "--chain": {"degree": 1, "coeffs": {"f1": 1, "g1": 1, "f2": 1, "g2": 1}},
            "--matching": {"positions": {"z": [1, 0]}},
        },
        [],
    ),
    "k1-line-k2": (
        "k1-map",
        {"--graph": LINE, "--chain": {"degree": 1, "tail_left": 2, "tail_right": 2}},
        ["--window", "8", "--margin", "4"],
    ),
    "k1-line-k-2": (
        "k1-map",
        {"--graph": LINE, "--chain": {"degree": 1, "tail_left": -2, "tail_right": -2}},
        ["--window", "8", "--margin", "4"],
    ),
    "k0-boundary": (
        "k0-map",
        {"--graph": TRIANGLE, "--chain": {"degree": 0, "coeffs": {"1": 2, "0": -2}}},
        [],
    ),
    "k0-nonbounding": (
        "k0-map",
        {"--graph": TRIANGLE, "--chain": {"degree": 0, "coeffs": {"0": 1, "2": 3}}},
        [],
    ),
}
VERIFY_SEEDS = (1, 7, 20240801)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _map_digest(name: str) -> str:
    command, files, extra = MAP_CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [command]
        for option, payload in files.items():
            path = root / f"{option.lstrip('-')}.json"
            path.write_text(json.dumps(payload))
            argv += [option, str(path)]
        dump = root / "dump"
        code, stdout = _run(argv + extra + ["--json", "--dump", str(dump)])
        h = hashlib.sha256(f"exit {code}\n{stdout}".encode())
        for f in sorted(dump.iterdir()):
            h.update(f"\n== {f.name}\n".encode() + f.read_bytes())
    return h.hexdigest()


def _verify_digest(seed: int) -> str:
    code, stdout = _run(["verify", "--json", "--seed", str(seed)])
    reports = json.loads(stdout)
    for report in reports:
        for check in report["checks"]:
            check.pop("seconds")
    text = json.dumps(reports, indent=1, sort_keys=True)
    return hashlib.sha256(f"exit {code}\n{text}".encode()).hexdigest()


def _all_digests() -> dict:
    out = {name: _map_digest(name) for name in MAP_CASES}
    out.update({f"verify-seed-{s}": _verify_digest(s) for s in VERIFY_SEEDS})
    return out


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_map_report_and_dumps_match_golden(stored, name):
    assert _map_digest(name) == stored[name]


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_report_matches_golden(stored, seed):
    assert _verify_digest(seed) == stored[f"verify-seed-{seed}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
