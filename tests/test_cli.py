import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsek import cli, scenarios
from coarsek.cli import MAX_WORK, main
from coarsek.operators import MarginError, OperatorError, Window
from helpers import cycle_graph, graph_to_json

LINE = {"kind": "banded_z", "edges_per_cell": 1}


def write(tmp_path, name, payload):
    """payload as JSON, or a str verbatim: JSON that json.dumps cannot
    write, such as an object with a repeated key"""
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


@pytest.fixture
def triangle_file(tmp_path):
    return write(
        tmp_path,
        "triangle.json",
        {
            "kind": "finite",
            "vertices": [0, 1, 2],
            "edges": [
                {"id": "e01", "source": 0, "target": 1},
                {"id": "e12", "source": 1, "target": 2},
                {"id": "e02", "source": 0, "target": 2},
            ],
        },
    )


@pytest.fixture
def line_file(tmp_path):
    return write(tmp_path, "line.json", {"kind": "banded_z", "edges_per_cell": 1})


def test_homology_triangle(triangle_file, capsys):
    assert main(["homology", "--graph", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "H0 = Z" in out
    assert "H1 rank = 1" in out


def test_homology_edgeless_vertices(tmp_path, capsys):
    path = write(
        tmp_path,
        "edgeless.json",
        {"kind": "finite", "vertices": ["a", "b", "c"], "edges": []},
    )
    assert main(["homology", "--graph", path]) == 0
    assert "Z^3" in capsys.readouterr().out


def test_homology_with_an_isolated_first_vertex(tmp_path, capsys):
    """Vertex 0 lies on no edge, so its incidence row is empty and Smith
    normal form swaps the first nonempty row up to pivot."""
    path = write(
        tmp_path,
        "isolated.json",
        {
            "kind": "finite",
            "vertices": [0, 1, 2, 3],
            "edges": [
                {"id": "a", "source": 1, "target": 2},
                {"id": "b", "source": 2, "target": 3},
                {"id": "c", "source": 3, "target": 1},
            ],
        },
    )
    assert main(["homology", "--graph", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["h0"] == "Z^2"
    assert data["h1_basis"] == [{"a": 1, "b": 1, "c": 1}]


def test_homology_banded_line(line_file, capsys):
    assert main(["homology", "--graph", line_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["h1"].startswith("Z")


def test_homology_banded_edgeless(tmp_path, capsys):
    path = write(
        tmp_path, "e.json", {"kind": "banded_z", "edges_per_cell": 0}
    )
    assert main(["homology", "--graph", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["h1"].startswith("0")


def test_homology_parse_error_carries_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "finite",')
    assert main(["homology", "--graph", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_k0_on_boundary_chain(triangle_file, tmp_path, capsys):
    chain = write(
        tmp_path, "c.json", {"degree": 0, "coeffs": {"1": 2, "0": -2}}
    )
    assert main(["k0-map", "--graph", triangle_file, "--chain", chain, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = {c["name"]: c["passed"] for c in data["checks"]}
    assert names["boundary witness identities"]
    assert names["signature equals coefficient sum"]


def test_k0_on_nonbounding_chain(triangle_file, tmp_path, capsys):
    chain = write(tmp_path, "c.json", {"degree": 0, "coeffs": {"0": 1}})
    assert main(["k0-map", "--graph", triangle_file, "--chain", chain]) == 0
    assert "does not bound" in capsys.readouterr().out


def test_k0_nonbounding_chain_reports_a_signature_per_component(tmp_path, capsys):
    # the total signature is 0, yet the chain does not bound: each of the
    # two components carries its own nonzero signature
    graph = write(tmp_path, "g.json", {"kind": "finite", "vertices": [0, 1], "edges": []})
    chain = write(tmp_path, "c.json", {"degree": 0, "coeffs": {"0": 1, "1": -1}})
    assert main(["k0-map", "--graph", graph, "--chain", chain, "--json"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][-1]
    assert check["name"].startswith("chain does not bound")
    assert check["passed"]
    assert check["details"] == {"signature": 0, "component_signatures": {"0": 1, "1": -1}}


def test_k0_banded(line_file, tmp_path, capsys):
    chain = write(
        tmp_path,
        "c.json",
        {"degree": 0, "tail_left": 0, "tail_right": 0, "window_start": 0,
         "window_values": [2, -1]},
    )
    assert main(
        ["k0-map", "--graph", line_file, "--chain", chain, "--window", "6",
         "--margin", "2", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"]


def test_k1_banded_unit_cycle(line_file, tmp_path, capsys):
    chain = write(tmp_path, "g.json", {"degree": 1, "tail_left": 1, "tail_right": 1})
    assert main(
        ["k1-map", "--graph", line_file, "--chain", chain, "--window", "8",
         "--margin", "4", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    check = data["checks"][0]
    assert check["details"]["index"] == -1
    assert check["passed"]


def test_k1_banded_noncycle_names_vertex(line_file, tmp_path, capsys):
    chain = write(
        tmp_path,
        "g.json",
        {"degree": 1, "tail_left": 0, "tail_right": 0, "window_start": 5,
         "window_values": [1]},
    )
    assert main(["k1-map", "--graph", line_file, "--chain", chain]) == 2
    err = capsys.readouterr().err
    assert "not a cycle" in err
    assert "vertex 5" in err


def test_k1_finite_triangle(triangle_file, tmp_path, capsys):
    chain = write(
        tmp_path, "g.json", {"degree": 1, "coeffs": {"e01": 1, "e12": 1, "e02": -1}}
    )
    assert main(["k1-map", "--graph", triangle_file, "--chain", chain]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_k1_finite_noncycle_is_input_error(triangle_file, tmp_path, capsys):
    chain = write(tmp_path, "g.json", {"degree": 1, "coeffs": {"e01": 1}})
    assert main(["k1-map", "--graph", triangle_file, "--chain", chain]) == 2
    assert "not a cycle" in capsys.readouterr().err


def test_k1_matching_override_figure_eight(tmp_path, capsys):
    graph = write(
        tmp_path,
        "g8.json",
        {
            "kind": "finite",
            "vertices": ["z", "a", "b"],
            "edges": [
                {"id": "f1", "source": "z", "target": "a"},
                {"id": "g1", "source": "a", "target": "z"},
                {"id": "f2", "source": "z", "target": "b"},
                {"id": "g2", "source": "b", "target": "z"},
            ],
        },
    )
    chain = write(
        tmp_path,
        "g.json",
        {"degree": 1, "coeffs": {"f1": 1, "g1": 1, "f2": 1, "g2": 1}},
    )
    override = write(tmp_path, "m.json", {"positions": {"z": [1, 0]}})
    # the product identity passes; the two-conjugation route is advisory
    assert main(
        ["k1-map", "--graph", graph, "--chain", chain, "--matching", override]
    ) == 0
    out = capsys.readouterr().out
    assert "KNOWN LIMITATION" in out
    # with --strict-matching the literal route counts as a hard failure
    assert main(
        ["k1-map", "--graph", graph, "--chain", chain, "--matching", override,
         "--strict-matching"]
    ) == 1


def test_k1_matching_decides_the_conjugator_on_a_large_double_bigon(tmp_path, capsys):
    # 2,000 parallel copies each way, rerouted at 0 by p and at 1 by p^-1:
    # every track stays a 2-cycle 0 -> 1 -> 0, so a conjugator exists; a
    # search that recurses once per track would overflow the stack here
    graph = write(
        tmp_path,
        "bigon.json",
        {
            "kind": "finite",
            "vertices": [0, 1],
            "edges": [
                {"id": "a", "source": 0, "target": 1},
                {"id": "b", "source": 1, "target": 0},
            ],
        },
    )
    chain = write(tmp_path, "c.json", {"degree": 1, "coeffs": {"a": 2000, "b": 2000}})
    p = list(range(2000))
    random.Random(1).shuffle(p)
    p_inv = [0] * len(p)
    for j, i in enumerate(p):
        p_inv[i] = j
    override = write(tmp_path, "m.json", {"positions": {"0": p, "1": p_inv}})
    argv = ["k1-map", "--graph", graph, "--chain", chain, "--matching", override, "--json"]
    assert main(argv) == 0
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert status["matching independence (product identity)"] == "PASS"
    assert status["matching independence (two-conjugation route)"] == "PASS"


@pytest.mark.parametrize(
    "coeffs, field",
    [
        ({"e01": 1.9, "e12": 1, "e02": -1}, "e01"),
        ({"e01": True, "e12": 1, "e02": -1}, "e01"),
        ({"e01": 1, "e12": "1", "e02": -1}, "e12"),
    ],
)
def test_finite_chain_rejects_non_integer_coefficients(
    triangle_file, tmp_path, capsys, coeffs, field
):
    chain = write(tmp_path, "g.json", {"degree": 1, "coeffs": coeffs})
    assert main(["k1-map", "--graph", triangle_file, "--chain", chain]) == 2
    err = capsys.readouterr().err
    assert f"coeffs[{field!r}] must be an integer" in err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"tail_left": 1.5, "tail_right": 1.5}, "tail_left"),
        ({"tail_left": 1, "tail_right": True}, "tail_right"),
        ({"tail_left": 0, "tail_right": 0, "window_start": 0.5, "window_values": [1]}, "window_start"),
        ({"tail_left": 0, "tail_right": 0, "window_values": [1, 2.0]}, "window_values[1]"),
        ({"tail_left": 0, "tail_right": 0, "window_values": "12"}, "window_values"),
    ],
)
def test_banded_chain_rejects_non_integer_fields(
    line_file, tmp_path, capsys, payload, field
):
    chain = write(tmp_path, "g.json", {"degree": 1, **payload})
    assert main(["k1-map", "--graph", line_file, "--chain", chain, "--json"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["k0-map", "k1-map"])
@pytest.mark.parametrize("flag", ["--window", "--margin"])
def test_negative_window_is_input_error(line_file, tmp_path, capsys, command, flag):
    chain = write(tmp_path, "g.json", {"degree": 0 if command == "k0-map" else 1,
                                       "tail_left": 1, "tail_right": 1})
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", line_file, "--chain", chain, flag, "-1"])
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--window", "--margin"])
def test_k0_map_on_a_finite_graph_refuses_window_options(
    triangle_file, tmp_path, capsys, monkeypatch, flag
):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the options were checked")

    monkeypatch.setattr(cli, "certify_k0", refuse)
    chain = write(tmp_path, "c.json", {"degree": 0, "coeffs": {"0": 1}})
    assert main(["k0-map", "--graph", triangle_file, "--chain", chain, flag, "8"]) == 2
    captured = capsys.readouterr()
    assert f"{flag}: a finite graph takes no window, got 8" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["k0-map", "k1-map"])
@pytest.mark.parametrize(
    "flags, window",
    [([], (16, 8)), (["--window", "3"], (3, 8)), (["--margin", "2"], (16, 2))],
    ids=["defaults", "window-only", "margin-only"],
)
def test_the_line_window_defaults_to_radius_16_and_margin_8(
    line_file, tmp_path, capsys, monkeypatch, command, flags, window
):
    made = []

    def record(radius, margin):
        made.append((radius, margin))
        return Window(radius=radius, margin=margin)

    monkeypatch.setattr(cli, "Window", record)
    chain = write(tmp_path, "c.json", {"degree": int(command == "k1-map"),
                                       "tail_left": 1, "tail_right": 1})
    assert main([command, "--graph", line_file, "--chain", chain, *flags]) == 0
    assert made == [window]


def test_strict_matching_belongs_to_k1_map_only(triangle_file, tmp_path):
    chain = write(tmp_path, "c.json", {"degree": 0, "coeffs": {"0": 1}})
    with pytest.raises(SystemExit) as exc:
        main(["k0-map", "--graph", triangle_file, "--chain", chain, "--strict-matching"])
    assert exc.value.code == 2


def test_k1_dump_is_deterministic(line_file, tmp_path):
    chain = write(tmp_path, "g.json", {"degree": 1, "tail_left": 1, "tail_right": 1})
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    for d in (d1, d2):
        assert main(
            ["k1-map", "--graph", line_file, "--chain", chain, "--window", "4",
             "--margin", "2", "--dump", str(d)]
        ) == 0
    assert (d1 / "u.txt").read_text() == (d2 / "u.txt").read_text()
    assert (d1 / "u.json").read_text() == (d2 / "u.json").read_text()


# command -> (chain, one of the files its dump writes)
DUMP_REQUESTS = {
    "k1-map": ({"degree": 1, "coeffs": {"e01": 1, "e12": 1, "e02": -1}}, "u.txt"),
    "k0-map": ({"degree": 0, "coeffs": {"1": 2, "0": -2}}, "g.json"),
}


@pytest.mark.parametrize("command", sorted(DUMP_REQUESTS))
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_dump_path_blocked_by_a_file_exits_2_before_building(
    triangle_file, tmp_path, capsys, monkeypatch, command, below
):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the dump directory was made")

    monkeypatch.setattr(cli, "cycle_unitary", refuse)
    monkeypatch.setattr(scenarios, "build_projection_pair", refuse)
    chain = write(tmp_path, "c.json", DUMP_REQUESTS[command][0])
    target = Path(triangle_file) / "dump" if below else Path(triangle_file)
    argv = [command, "--graph", triangle_file, "--chain", chain, "--dump", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write dumps to {target}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(DUMP_REQUESTS))
def test_dump_file_blocked_by_a_directory_exits_2(triangle_file, tmp_path, capsys, command):
    chain, name = DUMP_REQUESTS[command]
    chain = write(tmp_path, "c.json", chain)
    (tmp_path / "dump" / name).mkdir(parents=True)
    argv = [command, "--graph", triangle_file, "--chain", chain, "--dump", str(tmp_path / "dump")]
    assert main(argv) == 2
    assert f"error: cannot write dumps to {tmp_path / 'dump'}: " in capsys.readouterr().err


def cycle_k1_request(tmp_path, n: int, coefficient: int) -> list:
    """k1-map --json on cycle_graph(n) with every coefficient equal"""
    graph = write(tmp_path, "g.json", graph_to_json(cycle_graph(n)))
    chain = write(tmp_path, "c.json", {"degree": 1, "coeffs": {f"e{i}": coefficient for i in range(n)}})
    return ["k1-map", "--json", "--graph", graph, "--chain", chain]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_dump_to_a_full_device_exits_2(tmp_path, capsys):
    # u.json of the 20-cycle with coefficient 2 is about 140 KB: more than
    # the default 8 KiB buffer but less than the dump buffer, so the error
    # surfaces when the file closes, not at a write
    (tmp_path / "dump").mkdir()
    (tmp_path / "dump" / "u.json").symlink_to("/dev/full")
    argv = cycle_k1_request(tmp_path, 20, 2) + ["--dump", str(tmp_path / "dump")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot write dumps to {tmp_path / 'dump'}: [Errno 28] No space left on device\n"
    )
    assert captured.out == ""


def _write_calls() -> int:
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("syscw:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_dumps_reach_disk_in_few_writes(tmp_path, capsys):
    # 4.5 MB in four files, handed over one chunk per vertex: 443 write
    # calls through the default 8 KiB buffer, 19 through the dump buffer
    argv = cycle_k1_request(tmp_path, 80, 2) + ["--dump", str(tmp_path / "dump")]
    before = _write_calls()
    assert main(argv) == 0
    assert _write_calls() - before <= 40
    assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize("command", sorted(DUMP_REQUESTS))
def test_empty_dump_directory_is_an_input_error(triangle_file, tmp_path, capsys, command):
    chain = write(tmp_path, "c.json", DUMP_REQUESTS[command][0])
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", triangle_file, "--chain", chain, "--dump", ""])
    assert exc.value.code == 2
    assert "--dump" in capsys.readouterr().err


def test_verify_edgeless_scenario(capsys):
    assert main(["verify", "--scenario", "z-edgeless"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_unknown_scenario(capsys):
    # argparse rejects the choice and exits with the input-error code
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "nope"])
    assert exc.value.code == 2


def test_verify_deterministic_per_seed(capsys):
    def run():
        assert main(["verify", "--scenario", "z-edgeless", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for report in data:
            for check in report["checks"]:
                check.pop("seconds")
        return data

    assert run() == run()


def test_k0_zero_banded_chain_with_empty_window(line_file, tmp_path, capsys):
    chain = write(
        tmp_path,
        "c.json",
        {"degree": 0, "tail_left": 0, "tail_right": 0, "window_start": -1,
         "window_values": []},
    )
    assert main(["k0-map", "--graph", line_file, "--chain", chain, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize("k", [1, 2, -3])
def test_k1_one_vertex_window_is_too_small(line_file, tmp_path, capsys, k):
    # the window has no cells, so the truncated operator hides the
    # propagation 1 of the infinite one
    chain = write(tmp_path, "g.json", {"degree": 1, "tail_left": k, "tail_right": k})
    assert main(
        ["k1-map", "--graph", line_file, "--chain", chain, "--window", "0",
         "--margin", "0"]
    ) == 2
    captured = capsys.readouterr()
    assert "too small for propagation 1" in captured.err
    assert captured.out == ""


def test_k1_zero_class_on_one_vertex_window(line_file, tmp_path, capsys):
    chain = write(tmp_path, "g.json", {"degree": 1, "tail_left": 0, "tail_right": 0})
    assert main(
        ["k1-map", "--graph", line_file, "--chain", chain, "--window", "0",
         "--margin", "0", "--json"]
    ) == 0
    details = json.loads(capsys.readouterr().out)["checks"][0]["details"]
    assert details["index"] == 0 and details["index_doubled_window"] == 0


FIGURE_EIGHT_GRAPH = {
    "kind": "finite",
    "vertices": ["z", "a", "b"],
    "edges": [
        {"id": "f1", "source": "z", "target": "a"},
        {"id": "g1", "source": "a", "target": "z"},
        {"id": "f2", "source": "z", "target": "b"},
        {"id": "g2", "source": "b", "target": "z"},
    ],
}
FIGURE_EIGHT_CHAIN = {"degree": 1, "coeffs": {"f1": 1, "g1": 1, "f2": 1, "g2": 1}}


LINE_GRAPH = {"kind": "banded_z", "edges_per_cell": 1}
LINE_CYCLE = {"degree": 1, "tail_left": 1, "tail_right": 1}
MISSING = object()  # a --matching path with no file
INT_GRAPH = {"kind": "finite", "vertices": [0, 1, 2], "edges": []}
EMPTY_CYCLE = {"degree": 1, "coeffs": {}}


@pytest.mark.parametrize(
    "graph, chain, matching, message, flags",
    [
        ([], FIGURE_EIGHT_CHAIN, None, "top level must be a JSON object", ()),
        (FIGURE_EIGHT_GRAPH, [], None, "top level must be a JSON object", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, [], "top level must be a JSON object", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"position": {"z": [1, 0]}}, "bad matching override: the top-level object has no key 'positions'", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": []}, "positions must be an object", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": 5}}, "positions['z'] must be a list", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": [0.0, 1]}}, "positions['z'][0] must be an integer", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"a": [False]}}, "positions['a'][0] must be an integer", ()),
        ({"kind": "banded_z", "edges_per_cell": True}, {"degree": 1, "tail_left": 1, "tail_right": 1}, None, "edges_per_cell must be an integer", ()),
        ({"kind": "banded_z", "edges_per_cell": 1.0}, {"degree": 1, "tail_left": 1, "tail_right": 1}, None, "edges_per_cell must be an integer", ()),
        ({"kind": "banded_z"}, {"degree": True, "tail_left": 1, "tail_right": 1}, None, "degree must be an integer, got True", ()),
        (FIGURE_EIGHT_GRAPH, dict(FIGURE_EIGHT_CHAIN, degree=True), None, "degree must be an integer, got True", ()),
        (LINE_GRAPH, LINE_CYCLE, MISSING, "--matching: the line takes no matching file", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, None, "--strict-matching needs a --matching file", ("--strict-matching",)),
        (LINE_GRAPH, LINE_CYCLE, None, "--strict-matching needs a --matching file", ("--strict-matching",)),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, None, "--window: a finite graph takes no window, got 4", ("--window", "4")),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, None, "--margin: a finite graph takes no window, got 0", ("--margin", "0")),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": [1, 0]}}, "--window: a finite graph takes no window, got 16", ("--window", "16")),
        ('{"kind": "banded_z", "kind": "finite", "vertices": [], "edges": []}', LINE_CYCLE, None, "g.json: duplicate key 'kind'", ()),
        (FIGURE_EIGHT_GRAPH, '{"degree": 1, "degree": 0, "coeffs": {}}', None, "c.json: duplicate key 'degree'", ()),
        (FIGURE_EIGHT_GRAPH, '{"degree": 1, "coeffs": {"f1": 1, "f1": 5}}', None, "c.json: duplicate key 'f1'", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, '{"positions": {"z": [1, 0], "z": [0, 1]}}', "m.json: duplicate key 'z'", ()),
        ({"kind": "finite", "vertex": [0, 1, 2], "edges": [], "colour": 1}, FIGURE_EIGHT_CHAIN, None, "g.json: bad graph file: unknown key 'vertex'", ()),
        ({"kind": "banded_z", "edges_per_cell": 1, "perturbations": None}, LINE_CYCLE, None, "g.json: bad graph file: unknown key 'perturbations'", ()),
        (dict(FIGURE_EIGHT_GRAPH, edges=[{"id": "f1", "source": "z", "target": "a", "weight": 5}]), FIGURE_EIGHT_CHAIN, None, "g.json: bad graph file: edges[0]: unknown key 'weight'", ()),
        (FIGURE_EIGHT_GRAPH, dict(FIGURE_EIGHT_CHAIN, note="x"), None, "c.json: bad chain file: unknown key 'note'", ()),
        (LINE_GRAPH, {"degree": 1, "tail_lft": 3, "tail_right": 3, "window": []}, None, "c.json: bad chain file: unknown key 'tail_lft'", ()),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": [1, 0]}, "vertex": "z", "note": 1}, "m.json: bad matching override: unknown key 'vertex'", ()),
        (dict(INT_GRAPH, edges=[{"id": "a", "source": True, "target": 2}]), EMPTY_CYCLE, None, "g.json: bad graph file: boolean labels are not allowed", ()),
        (dict(INT_GRAPH, edges=[{"id": "a", "source": 0, "target": 1.0}]), EMPTY_CYCLE, None, "g.json: bad graph file: unsupported label type: float", ()),
        (LINE_GRAPH, FIGURE_EIGHT_CHAIN, None, "c.json: bad chain file: a host graph is required for finite-support chains", ()),
    ],
    ids=[
        "graph-list", "chain-list", "matching-list", "positions-missing", "positions-list",
        "permutation-int", "permutation-float", "permutation-bool",
        "edges-per-cell-bool", "edges-per-cell-float",
        "degree-bool-banded", "degree-bool-coeffs", "matching-on-the-line",
        "strict-without-matching-finite", "strict-without-matching-line",
        "window-on-finite", "margin-on-finite", "window-on-finite-with-matching",
        "graph-duplicate-key", "chain-duplicate-key", "coeffs-duplicate-key",
        "positions-duplicate-key", "finite-graph-unknown-key", "banded-graph-unknown-key",
        "edge-unknown-key", "finite-chain-unknown-key", "banded-chain-unknown-key",
        "matching-unknown-key", "endpoint-bool", "endpoint-float", "coeffs-on-the-line",
    ],
)
def test_malformed_input_files_are_input_errors(
    tmp_path, capsys, monkeypatch, graph, chain, matching, message, flags
):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the options were checked")

    monkeypatch.setattr(cli, "cycle_unitary", refuse)
    monkeypatch.setattr(cli, "line_cycle_unitary", refuse)
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", graph),
            "--chain", write(tmp_path, "c.json", chain), *flags]
    if matching is MISSING:
        argv += ["--matching", str(tmp_path / "m.json")]
    elif matching is not None:
        argv += ["--matching", write(tmp_path, "m.json", matching)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"kind": "finite", "vertices": [' + b"7" * 5000 + b'], "edges": []}', "g.json: not readable as JSON: Exceeds the limit"),
        (b'{"kind": "finite", "vertices": ["\xe9"], "edges": []}', "g.json: not readable as JSON: 'utf-8' codec can't decode"),
        (b'{"kind": "finite", "vertices": ' + b"[" * 100_000 + b"]" * 100_000 + b', "edges": []}', "g.json: not readable as JSON: maximum recursion depth"),
        (None, "g.json: cannot read: Is a directory"),
    ],
    ids=["int-over-4300-digits", "not-utf-8", "nested-too-deep", "directory"],
)
def test_unreadable_graph_files_are_input_errors(tmp_path, capsys, raw, message):
    """Bytes that json cannot decode, and a path that is no file."""
    path = tmp_path / "g.json"
    if raw is None:
        path.mkdir()
    else:
        path.write_bytes(raw)
    assert main(["homology", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "error, code", [(OperatorError("boom"), 1), (MarginError("boom"), 2)], ids=["operator", "margin"]
)
def test_an_operator_error_in_a_build_exits_1_and_a_margin_error_2(
    tmp_path, capsys, monkeypatch, error, code
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "certify_k1", fail)
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", FIGURE_EIGHT_GRAPH),
            "--chain", write(tmp_path, "c.json", FIGURE_EIGHT_CHAIN)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == "error: boom\n"
    assert captured.out == ""


# matching file (None: no file at that path) -> part of the error it gets
BAD_MATCHINGS = {
    "missing-file": (None, "file not found"),
    "positions-missing": ({"position": {"z": [1, 0]}}, "no key 'positions'"),
    "unknown-vertex": ({"positions": {"q": [0]}}, "bad matching override: not a vertex: 'q'"),
}


@pytest.mark.parametrize("fault", sorted(BAD_MATCHINGS))
def test_bad_matching_file_exits_2_before_building(tmp_path, capsys, monkeypatch, fault):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the matching file was read")

    monkeypatch.setattr(cli, "cycle_unitary", refuse)
    payload, message = BAD_MATCHINGS[fault]
    matching = str(tmp_path / "m.json")
    if payload is not None:
        write(tmp_path, "m.json", payload)
    dump = tmp_path / "dump"
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", FIGURE_EIGHT_GRAPH),
            "--chain", write(tmp_path, "c.json", FIGURE_EIGHT_CHAIN),
            "--matching", matching, "--dump", str(dump)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {matching}: ") and message in captured.err
    assert captured.out == ""
    assert not dump.exists()  # read before the request is admitted


@pytest.mark.parametrize("perm", [[1, 0, 2], [-1, 0], [0], [2, 1]])
def test_a_bad_permutation_in_a_matching_file_exits_2_naming_its_vertex(
    tmp_path, capsys, perm
):
    matching = write(tmp_path, "m.json", {"positions": {"z": perm}})
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", FIGURE_EIGHT_GRAPH),
            "--chain", write(tmp_path, "c.json", FIGURE_EIGHT_CHAIN),
            "--matching", matching]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {matching}: bad matching override: bad permutation at vertex 'z'\n"
    )
    assert captured.out == ""


def test_matching_file_with_no_permutations_keeps_the_canonical_matching(tmp_path, capsys):
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", FIGURE_EIGHT_GRAPH),
            "--chain", write(tmp_path, "c.json", FIGURE_EIGHT_CHAIN),
            "--matching", write(tmp_path, "m.json", {"positions": {}}),
            "--strict-matching", "--json"]
    assert main(argv) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names[-2:] == [
        "matching independence (product identity)",
        "matching independence (two-conjugation route)",
    ]


@pytest.mark.parametrize("command", ["homology", "k0-map", "k1-map"])
@pytest.mark.parametrize(
    "graph, message",
    [
        ({"kind": "banded_z", "perturbation": [1]}, "perturbation must be null or absent, got [1]"),
        ({"kind": "banded_z", "perturbation": {"drop": [0]}}, "perturbation must be null or absent"),
        ({"kind": "banded_z", "edges_per_cell": 2}, "edges_per_cell must be 0 or 1, got 2"),
    ],
    ids=["perturbation-list", "perturbation-drop", "edges-per-cell-2"],
)
def test_removed_banded_shapes_are_input_errors(
    tmp_path, capsys, command, graph, message
):
    argv = [command, "--graph", write(tmp_path, "g.json", graph)]
    if command != "homology":
        chain = {"degree": int(command == "k1-map"), "tail_left": 1, "tail_right": 1}
        argv += ["--chain", write(tmp_path, "c.json", chain)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["homology", "k0-map", "k1-map"])
@pytest.mark.parametrize(
    "graph, message",
    [
        (
            {"kind": "finite", "vertices": [0, 1], "edges": [
                {"id": 1, "source": 0, "target": 1},
                {"id": "1", "source": 1, "target": 0},
            ]},
            "edges: ids 1 and '1' collide as JSON keys",
        ),
        (
            {"kind": "finite", "vertices": [1, "1"], "edges": []},
            "vertices: ids 1 and '1' collide as JSON keys",
        ),
    ],
    ids=["edge-ids", "vertex-labels"],
)
def test_ids_colliding_as_json_keys_are_input_errors(
    tmp_path, capsys, command, graph, message
):
    argv = [command, "--graph", write(tmp_path, "g.json", graph)]
    if command != "homology":
        chain = {"degree": int(command == "k1-map"), "coeffs": {}}
        argv += ["--chain", write(tmp_path, "c.json", chain)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def module_env(**extra):
    """The environment for ``python -m coarsek`` run from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


def test_python_m_coarsek_runs_the_cli(triangle_file):
    done = subprocess.run(
        [sys.executable, "-m", "coarsek", "homology", "--graph", triangle_file],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "H1 rank = 1" in done.stdout


def test_in_process_calls_match_one_process_per_call(
    line_file, triangle_file, tmp_path, capsys, monkeypatch
):
    # the parser is built once per process and reused; every call must still
    # answer as a fresh ``python -m coarsek`` does, errors included
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    monkeypatch.delenv("COARSEK_LOG", raising=False)
    k1 = write(tmp_path, "k1.json", {"degree": 1, "tail_left": 2, "tail_right": 2})
    k0 = write(tmp_path, "k0.json", {"degree": 0, "coeffs": {"0": 1}})
    line = ["k1-map", "--graph", line_file, "--chain", k1, "--window", "4", "--margin", "4"]
    calls = [
        line,
        [*line, "--bogus"],
        ["k0-map", "--graph", triangle_file, "--chain", k0, "--dump", ""],
        ["k1-map", "--graph", line_file, "--chain", k1, "--window", "-1"],
        line,
        ["verify", "--scenario", "z-line"],
        [*line, "--json"],
    ]

    def timeless(text):
        text = re.sub(r"\(\d+\.\d\ds\)", "(s)", text)
        return re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', text)

    cli._build_parser.cache_clear()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        done = subprocess.run(
            [sys.executable, "-m", "coarsek", *argv],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )
        assert code == done.returncode, argv
        assert timeless(got.out) == timeless(done.stdout), argv
        assert got.err == done.stderr, argv
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("value", ["basic_format", "_styles"])
def test_log_variable_that_is_not_a_level_falls_back_to_warning(triangle_file, value):
    # logging.BASIC_FORMAT is a string and logging._STYLES a dict
    done = subprocess.run(
        [sys.executable, "-m", "coarsek", "homology", "--graph", triangle_file],
        capture_output=True, text=True, env=module_env(COARSEK_LOG=value), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "H1 rank = 1" in done.stdout
    assert done.stderr == ""


def test_reader_closing_early_ends_without_traceback(tmp_path):
    # a circulant graph, V = 300 and E = 900: its ``homology --json`` report
    # is about 350 kB, so the writer blocks on a full pipe until the reader
    # closes it, as in ``coarsek homology --json | head -c 10``
    n = 300
    edges = [{"id": f"e{k}_{i}", "source": i, "target": (i + s) % n}
             for k, s in enumerate((1, 7, 31)) for i in range(n)]
    graph = write(tmp_path, "g.json", {"kind": "finite", "vertices": list(range(n)), "edges": edges})
    proc = subprocess.Popen(
        [sys.executable, "-m", "coarsek", "homology", "--graph", graph, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    )
    assert proc.stdout.read(10).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err, err


@pytest.mark.parametrize("command", ["homology", "k0-map", "k1-map"])
@pytest.mark.parametrize(
    "graph, message",
    [
        ({"kind": "finite", "vertices": "abc", "edges": []}, "vertices must be a list, got 'abc'"),
        ({"kind": "finite", "vertices": {"a": 1, "b": 2}, "edges": []}, "vertices must be a list"),
        (
            {"kind": "finite", "vertices": [0, 1], "edges": {"id": 0, "source": 0, "target": 1}},
            "edges must be a list",
        ),
        ({"kind": "finite", "vertices": [0, 1], "edges": "e"}, "edges must be a list, got 'e'"),
        ({"kind": "finite", "vertices": [0, 1], "edges": [[0, 0, 1]]}, "edges[0] must be an object"),
        (
            {"kind": "finite", "vertices": [0, 1], "edges": [{"id": 0, "source": 0}]},
            "edges[0] must be an object with id, source and target",
        ),
    ],
    ids=["vertices-str", "vertices-object", "edges-object", "edges-str", "edge-list", "edge-no-target"],
)
def test_graph_fields_must_be_lists_of_the_right_shape(
    tmp_path, capsys, command, graph, message
):
    argv = [command, "--graph", write(tmp_path, "g.json", graph)]
    if command != "homology":
        chain = {"degree": int(command == "k1-map"), "coeffs": {}}
        argv += ["--chain", write(tmp_path, "c.json", chain)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


TWO_CYCLE = {
    "kind": "finite",
    "vertices": [0, 1],
    "edges": [{"id": "a", "source": 0, "target": 1}, {"id": "b", "source": 1, "target": 0}],
}
HUGE = 10**12


@pytest.mark.parametrize(
    "command, graph, chain, extra, estimate",
    [
        # 2 (2 + 2) + 1 = 9 window vertices times uniform_bound
        ("k0-map", LINE, {"degree": 0, "tail_left": 3000000, "tail_right": 0},
         ["--window", "2", "--margin", "2"], 9 * 3000001),
        # 9 window vertices plus |k| copies of each of the 8 cells
        ("k1-map", LINE, {"degree": 1, "tail_left": 200000, "tail_right": 200000},
         ["--window", "2", "--margin", "2"], 9 + 200000 * 8),
        ("k1-map", LINE, {"degree": 1, "tail_left": 0, "tail_right": 0},
         ["--window", str(HUGE)], 2 * (HUGE + 8) + 1),
        ("k0-map", LINE, {"degree": 0}, ["--window", str(HUGE)], 2 * (HUGE + 8) + 1),
        ("k1-map", TWO_CYCLE, {"degree": 1, "coeffs": {"a": HUGE, "b": HUGE}}, [], 2 + 2 * HUGE),
        # a dump lists the whole vertex-by-slot basis
        ("k1-map", TWO_CYCLE, {"degree": 1, "coeffs": {"a": 30000, "b": 30000}},
         ["--dump", "DUMP"], 2 * 60001),
        ("k0-map", TWO_CYCLE, {"degree": 0, "coeffs": {"0": 50000, "1": -50000}}, [], 2 * 100001),
        # 2 (256 + 8) + 1 = 529 window vertices times one plus 2 copies of
        # each of the 528 cells; without --dump the request is 1,585 units
        ("k1-map", LINE, {"degree": 1, "tail_left": 2, "tail_right": 2},
         ["--window", "256", "--margin", "8", "--dump", "DUMP"], 529 * 1057),
    ],
    ids=["k0-line-coefficient", "k1-line-class", "k1-line-window", "k0-line-window",
         "k1-finite-coefficients", "k1-finite-dump", "k0-finite-witness", "k1-line-dump"],
)
def test_oversized_requests_exit_2_before_building(
    tmp_path, capsys, command, graph, chain, extra, estimate
):
    extra = [str(tmp_path / "dump") if a == "DUMP" else a for a in extra]
    argv = [command, "--graph", write(tmp_path, "g.json", graph),
            "--chain", write(tmp_path, "c.json", chain)] + extra
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert f"estimated work {estimate} exceeds the limit {MAX_WORK}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "dump").exists()


def test_line_k1_request_too_large_to_dump_is_admitted_without_dump(tmp_path, capsys):
    graph = write(tmp_path, "g.json", LINE)
    chain = write(tmp_path, "c.json", {"degree": 1, "tail_left": 2, "tail_right": 2})
    argv = ["k1-map", "--json", "--graph", graph, "--chain", chain, "--window", "256", "--margin", "8"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_work_limit_admits_an_estimate_equal_to_it(monkeypatch, tmp_path, capsys):
    # the largest benchmark request: k1-map on the line, k = 3, radius 64,
    # margin 8, is 145 window vertices plus 3 copies of each of 144 cells
    graph = write(tmp_path, "g.json", LINE)
    chain = write(tmp_path, "c.json", {"degree": 1, "tail_left": 3, "tail_right": 3})
    argv = ["k1-map", "--graph", graph, "--chain", chain, "--window", "64", "--margin", "8"]
    assert MAX_WORK >= 145 + 3 * 144
    monkeypatch.setattr(cli, "MAX_WORK", 145 + 3 * 144)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MAX_WORK", 145 + 3 * 144 - 1)
    assert main(argv) == 2
    assert "estimated work 577 exceeds the limit 576" in capsys.readouterr().err


def _homology_payload(basis):
    return {"h0": "Z", "h0_torsion": [], "h0_free_rank": 1, "h1_rank": len(basis), "h1_basis": basis}


@settings(max_examples=200, deadline=None)
@example(_homology_payload([]))
@example(_homology_payload([{"e1": 1}]))
@example(_homology_payload([{"}": 1, "{": -1, ",": 2}, {'"': 1, "\\": -1, "\n": 1}, {"é": 3, "边": -1}]))
@example(_homology_payload([{"},\n   {": 1}, {"a": -1, "},\n   {\n": 1}]))
@example(_homology_payload([{0: 1, 2: -1, 10: 1}, {1: -2}]))
@given(
    st.fixed_dictionaries(
        {
            "h0": st.text(max_size=8),
            "h0_torsion": st.lists(st.integers(2, 99), max_size=3),
            "h0_free_rank": st.integers(0, 9),
            "h1_rank": st.integers(0, 9),
            "h1_basis": st.lists(
                st.dictionaries(
                    st.text(alphabet='e1é"\\\n {}[],:', max_size=4),
                    st.integers(-3, 3).filter(bool),
                    min_size=1,
                    max_size=5,
                ),
                max_size=4,
            ),
        }
    )
)
def test_homology_json_is_the_indent_1_encoding(payload):
    """Keys with quotes, backslashes, newlines, separators, the sequence
    that joins two encoded chains and non-ASCII characters, int ids, one
    chain and an empty basis."""
    assert cli._homology_json(payload) == json.dumps(payload, indent=1, sort_keys=True)
