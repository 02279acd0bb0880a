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
import random
import sys
import tempfile
from pathlib import Path

import pytest

from coarsek import intlinalg, operators
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
CYCLE_40 = {
    "kind": "finite",
    "vertices": list(range(40)),
    "edges": [{"id": f"c{i}", "source": i, "target": (i + 1) % 40} for i in range(40)],
}
LINE = {"kind": "banded_z", "edges_per_cell": 1}
EDGELESS_LINE = {"kind": "banded_z", "edges_per_cell": 0}


def _connected_random_graph(seed: str, n_vertices: int, n_edges: int) -> dict:
    """A random spanning tree plus distinct extra edges, shuffled, each
    oriented at random: many cycles, so Smith normal form takes many unit
    pivots."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    seen = set(pairs)
    while len(pairs) < n_edges:
        pair = tuple(sorted(rng.sample(range(n_vertices), 2)))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    rng.shuffle(pairs)
    edges = []
    for i, (u, v) in enumerate(pairs):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append({"id": f"e{i}", "source": u, "target": v})
    return {"kind": "finite", "vertices": list(range(n_vertices)), "edges": edges}


# name -> graph payload for ``homology --json``
HOMOLOGY_CASES = {
    "homology-triangle": TRIANGLE,
    "homology-figure-eight": FIGURE_EIGHT,
    "homology-line": LINE,
    "homology-edgeless-line": EDGELESS_LINE,
    "homology-random-160": _connected_random_graph("golden/homology-160", 160, 320),
}

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
    # a product basis with scalar 1: 76 of the 80 rows at each vertex hold
    # only the diagonal 1
    "k1-cycle-40": (
        "k1-map",
        {"--graph": CYCLE_40, "--chain": {"degree": 1, "coeffs": {f"c{i}": 2 for i in range(40)}}},
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
    # the witness has an explicit basis whose vertices carry different slots
    "k0-random-20-boundary": (
        "k0-map",
        {
            "--graph": _connected_random_graph("golden/k0-witness-20", 20, 40),
            "--chain": {"degree": 0, "coeffs": {"0": 3, "7": -2, "13": 1, "19": -2}},
        },
        [],
    ),
    "k0-line": (
        "k0-map",
        {
            "--graph": LINE,
            "--chain": {
                "degree": 0,
                "tail_left": 1,
                "tail_right": 2,
                "window_start": -1,
                "window_values": [3, -1],
            },
        },
        ["--window", "4", "--margin", "2"],
    ),
    "k0-edgeless-line": (
        "k0-map",
        {
            "--graph": EDGELESS_LINE,
            "--chain": {"degree": 0, "tail_left": 2, "tail_right": 0, "window_values": [-2]},
        },
        ["--window", "3", "--margin", "1"],
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


def _homology_digest(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        path.write_text(json.dumps(HOMOLOGY_CASES[name]))
        code, stdout = _run(["homology", "--graph", str(path), "--json"])
    return hashlib.sha256(f"exit {code}\n{stdout}".encode()).hexdigest()


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
    out.update({name: _homology_digest(name) for name in HOMOLOGY_CASES})
    out.update({f"verify-seed-{s}": _verify_digest(s) for s in VERIFY_SEEDS})
    return out


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(MAP_CASES))
def test_map_report_and_dumps_match_golden(stored, name):
    assert _map_digest(name) == stored[name]


def test_matching_report_needs_no_rank_by_elimination(stored, monkeypatch):
    def refuse(mat):
        raise AssertionError("rank by elimination")

    assert not hasattr(operators, "matrix_rank")
    monkeypatch.setattr(intlinalg, "rank", refuse)
    name = "k1-figure-eight-matching"
    assert _map_digest(name) == stored[name]


@pytest.mark.parametrize("name", sorted(HOMOLOGY_CASES))
def test_homology_report_matches_golden(stored, name):
    assert _homology_digest(name) == stored[name]


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_report_matches_golden(stored, seed):
    assert _verify_digest(seed) == stored[f"verify-seed-{seed}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
