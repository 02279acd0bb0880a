import json

import pytest

from coarsek.cli import main


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
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


@pytest.mark.parametrize(
    "graph, chain, matching, message",
    [
        ([], FIGURE_EIGHT_CHAIN, None, "top level must be a JSON object"),
        (FIGURE_EIGHT_GRAPH, [], None, "top level must be a JSON object"),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, [], "top level must be a JSON object"),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": []}, "positions must be an object"),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": 5}}, "positions['z'] must be a list"),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"z": [0.0, 1]}}, "positions['z'][0] must be an integer"),
        (FIGURE_EIGHT_GRAPH, FIGURE_EIGHT_CHAIN, {"positions": {"a": [False]}}, "positions['a'][0] must be an integer"),
        ({"kind": "banded_z", "edges_per_cell": True}, {"degree": 1, "tail_left": 1, "tail_right": 1}, None, "edges_per_cell must be an integer"),
        ({"kind": "banded_z", "edges_per_cell": 1.0}, {"degree": 1, "tail_left": 1, "tail_right": 1}, None, "edges_per_cell must be an integer"),
    ],
    ids=[
        "graph-list", "chain-list", "matching-list", "positions-list",
        "permutation-int", "permutation-float", "permutation-bool",
        "edges-per-cell-bool", "edges-per-cell-float",
    ],
)
def test_malformed_input_files_are_input_errors(
    tmp_path, capsys, graph, chain, matching, message
):
    argv = ["k1-map", "--graph", write(tmp_path, "g.json", graph),
            "--chain", write(tmp_path, "c.json", chain)]
    if matching is not None:
        argv += ["--matching", write(tmp_path, "m.json", matching)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
