"""Fuzzed graph, chain and matching files through the command line.

Every run must end in exit 0, 1 or 2; an exception escaping ``main`` is a
failure.  Each example starts from a well-formed request (a finite graph
whose degree-1 chain is a sum of closed walks, or the line) and then may
have one field replaced: by a JSON value of the wrong type, by a label of
the wrong kind, or by a coefficient or window far beyond the work limit.
A value that is neither an integer nor a string where a label goes (a
vertex, an edge id or an endpoint) must exit 2 before a dump directory is
made: true and 1.0 equal the vertex 1 but are no labels.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coarsek.cli import main

HUGE = 10**12

junk = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.sampled_from([0.5, 1.0, HUGE, -HUGE, "a", "1", "", "é"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "id", "0"]), inner, max_size=2),
    ),
    max_leaves=4,
)
# junk for an edge's id or endpoint: often a value equal to the vertex 0 or 1
label_junk = st.one_of(junk, st.sampled_from([False, True, 0.0, 1.0]))
small = st.integers(-3, 3)


def is_label(value) -> bool:
    return isinstance(value, (int, str)) and not isinstance(value, bool)


@st.composite
def finite_request(draw, degree):
    n = draw(st.integers(1, 5))
    vertices = draw(st.permutations([*range(n - 1), "v"]))
    edges, coeffs = [], {}

    def add_edge(s, t, c):
        eid = f"e{len(edges)}"
        edges.append({"id": eid, "source": s, "target": t})
        if c:
            coeffs[eid] = c

    if n > 1:
        # closed walks make the degree-1 chain a cycle
        for _ in range(draw(st.integers(0, 2))):
            walk = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=4))
            c = draw(st.integers(1, 3))
            for s, t in zip(walk, walk[1:] + walk[:1]):
                if s != t:
                    add_edge(s, t, c)
        for s, t in draw(st.lists(st.tuples(*[st.sampled_from(vertices)] * 2), max_size=2)):
            if s != t:
                add_edge(s, t, 0)
    if degree == 0:
        keys = [str(v) for v in vertices]
        coeffs = draw(st.dictionaries(st.sampled_from(keys), small, max_size=3))
    graph = {"kind": "finite", "vertices": vertices, "edges": edges}
    # a permutation of the copies arriving at x, which a matching reroutes
    x = draw(st.sampled_from(vertices))
    arriving = sum(coeffs.get(e["id"], 0) for e in edges if e["target"] == x)
    perm = draw(st.permutations(range(arriving)))
    matching = draw(st.sampled_from([None, {"positions": {str(x): perm}}]))
    return graph, {"degree": degree, "coeffs": coeffs}, matching


@st.composite
def line_request(draw, degree):
    graph = {"kind": "banded_z", "edges_per_cell": draw(st.sampled_from([0, 1, 1]))}
    k = draw(small)
    chain = {
        "degree": degree,
        "tail_left": k if degree else draw(small),
        "tail_right": k,
        "window_start": draw(small),
        "window_values": draw(st.lists(small, max_size=3)) if not degree else [],
    }
    return graph, chain, None


def mutate(draw, graph, chain, matching, options) -> bool:
    """Replace one field of the request, or leave it whole.  True when the
    new value puts something other than an int or a str where a label goes."""
    target = draw(
        st.sampled_from(["none", "none", "graph", "edge", "edge", "chain", "coeff", "option"])
    )
    bad_label = False
    if target == "graph":
        key = draw(st.sampled_from(["vertices", "edges", "kind", "edges_per_cell"]))
        graph[key] = value = draw(junk)
        bad_label = key == "vertices" and isinstance(value, list) and not all(map(is_label, value))
    elif target == "edge" and graph.get("edges"):
        edge = draw(st.sampled_from(graph["edges"]))
        if draw(st.booleans()):
            graph["edges"][graph["edges"].index(edge)] = draw(junk)
        else:
            edge[draw(st.sampled_from(["id", "source", "target"]))] = value = draw(label_junk)
            bad_label = not is_label(value)
    elif target == "chain":
        key = draw(st.sampled_from(["degree", "coeffs", "tail_left", "window_values"]))
        chain[key] = draw(st.one_of(junk, st.sampled_from([HUGE, -HUGE])))
    elif target == "coeff":
        if isinstance(chain.get("coeffs"), dict) and chain["coeffs"]:
            chain["coeffs"][draw(st.sampled_from(sorted(chain["coeffs"])))] = draw(
                st.sampled_from([HUGE, -HUGE, 10**5])
            )
        else:
            chain["tail_left"] = chain["tail_right"] = draw(st.sampled_from([HUGE, 10**5]))
    elif target == "option":
        options[draw(st.sampled_from(["--window", "--margin"]))] = str(HUGE)
    if matching is not None and draw(st.integers(0, 4)) == 0:
        matching["positions"] = draw(junk)
    return bad_label


@st.composite
def requests(draw):
    command = draw(st.sampled_from(["homology", "k0-map", "k1-map"]))
    degree = int(command == "k1-map")
    make = draw(st.sampled_from([finite_request, finite_request, line_request]))
    graph, chain, matching = draw(make(degree))
    options = {}
    # a finite graph refuses --window and --margin, so they go to it rarely
    if make is line_request or draw(st.integers(0, 4)) == 0:
        options = {"--window": str(draw(st.integers(0, 4))), "--margin": str(draw(st.integers(0, 4)))}
    bad_label = mutate(draw, graph, chain, matching, options)
    return command, graph, chain, matching, options, draw(st.booleans()), bad_label


@settings(max_examples=200, deadline=None)
@given(requests())
def test_fuzzed_files_never_escape_main(request):
    command, graph, chain, matching, options, dump, bad_label = request
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        def write(name, payload):
            path = root / name
            path.write_text(json.dumps(payload))
            return str(path)

        argv = [command, "--graph", write("g.json", graph)]
        if command != "homology":
            argv += ["--chain", write("c.json", chain)]
            for option, value in options.items():
                argv += [option, value]
            if dump:
                argv += ["--dump", str(root / "dump")]
        if command == "k1-map" and matching is not None:
            argv += ["--matching", write("m.json", matching)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
        made_dump = (root / "dump").exists()
    assert code in (0, 1, 2)
    if bad_label:
        assert code == 2 and not made_dump
