"""Workload inputs, request lists and oracles of the coarsek benchmark.

Every input is generated here from the benchmark seed and written as the
graph, chain and matching JSON files the ``coarsek`` command line reads.
Nothing is generated through ``coarsek.corpus``, and every verdict is
checked against an oracle computed here, never against coarsek itself, so a
change to the program can change neither its own workload nor its own
grading.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
LINE_MARGIN = 8
TWO_CONJUGATION = "matching independence (two-conjugation route)"


@dataclass
class Request:
    """One ``coarsek`` invocation plus what its oracle expects."""

    name: str
    argv: list
    expect: dict
    check: Callable  # (request, exit_code, stdout_text) -> list of problems
    top: bool = False
    dump_dir: Path | None = None
    inputs_sha256: str = ""


@dataclass
class Workload:
    name: str
    requests: list
    # span names the traced run must see at least once on this workload
    exercises: tuple


# ---------------------------------------------------------------------------
# small helpers shared by the generators and oracles


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def components(self) -> int:
        return len({self.find(x) for x in self.parent})


def _write_json(path: Path, data) -> bytes:
    raw = json.dumps(data, sort_keys=True).encode()
    path.write_bytes(raw)
    return raw


def _inputs_digest(argv: list, files: list) -> str:
    """Digest of a request's arguments (paths reduced to file names) and of
    the bytes of its input files: the key of the dump byte-identity guard."""
    h = hashlib.sha256()
    for arg in argv:
        h.update(Path(arg).name.encode() if "/" in arg else arg.encode())
        h.update(b"\0")
    for raw in files:
        h.update(hashlib.sha256(raw).digest())
    return h.hexdigest()


def _parse_report(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict) or "checks" not in data:
        raise ValueError("stdout is not a report object")
    return data


def _checks_pass(report: dict, allowed_limitation=(TWO_CONJUGATION,)) -> list:
    problems = []
    for c in report["checks"]:
        if c["status"] == "PASS":
            continue
        if c["status"] == "KNOWN LIMITATION" and c["name"] in allowed_limitation:
            continue
        problems.append(f"check {c['name']!r} is {c['status']}")
    return problems


def _check_named(report: dict, name: str):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    return None


# ---------------------------------------------------------------------------
# finite graphs and chains


def connected_graph(rng: random.Random, n_vertices: int, n_edges: int):
    """Random spanning tree plus distinct extra edges, random orientation.
    Returns (vertices, edges) with edges as (id, source, target)."""
    pairs = []
    seen = set()
    for i in range(1, n_vertices):
        p = rng.randrange(i)
        pairs.append((p, i))
        seen.add((p, i))
    while len(pairs) < n_edges:
        u, v = sorted(rng.sample(range(n_vertices), 2))
        if (u, v) not in seen:
            seen.add((u, v))
            pairs.append((u, v))
    rng.shuffle(pairs)
    edges = []
    for i, (u, v) in enumerate(pairs):
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((f"e{i}", u, v))
    return list(range(n_vertices)), edges


def cycle_host(n: int):
    return list(range(n)), [(f"e{i}", i, (i + 1) % n) for i in range(n)]


def graph_json(vertices, edges) -> dict:
    return {
        "kind": "finite",
        "vertices": vertices,
        "edges": [{"id": e, "source": s, "target": t} for e, s, t in edges],
    }


def boundary_of(edges, coeffs: dict) -> dict:
    """d(e) = t(e) - s(e), extended linearly; zero entries dropped."""
    out = Counter()
    for eid, s, t in edges:
        c = coeffs.get(eid, 0)
        if c:
            out[t] += c
            out[s] -= c
    return {v: c for v, c in out.items() if c}


def bounds(vertices, edges, chain0: dict) -> bool:
    """A 0-chain bounds iff its coefficients sum to zero on every component."""
    uf = UnionFind(vertices)
    for _, s, t in edges:
        uf.union(s, t)
    sums = Counter()
    for v, c in chain0.items():
        sums[uf.find(v)] += c
    return all(c == 0 for c in sums.values())


def fundamental_cycles(vertices, edges) -> list:
    """One cycle per non-tree edge of a union-find spanning forest: the edge
    plus the tree path from its target back to its source."""
    uf = UnionFind(vertices)
    adj = {v: [] for v in vertices}
    extras = []
    for eid, s, t in edges:
        if uf.union(s, t):
            adj[s].append((t, eid, 1))
            adj[t].append((s, eid, -1))
        else:
            extras.append((eid, s, t))
    cycles = []
    for eid, s, t in extras:
        prev = {t: None}
        stack = [t]
        while stack:
            cur = stack.pop()
            for nxt, tree_edge, sign in adj[cur]:
                if nxt not in prev:
                    prev[nxt] = (cur, tree_edge, sign)
                    stack.append(nxt)
        coeffs = {eid: 1}
        cur = s
        while prev[cur] is not None:
            back, tree_edge, sign = prev[cur]
            coeffs[tree_edge] = coeffs.get(tree_edge, 0) + sign
            cur = back
        cycles.append(coeffs)
    return cycles


def in_counts(edges, coeffs: dict) -> Counter:
    """Ingoing copies per vertex in the expansion of a 1-chain."""
    out = Counter()
    for eid, s, t in edges:
        c = coeffs.get(eid, 0)
        if c > 0:
            out[t] += c
        elif c < 0:
            out[s] -= c
    return out


# ---------------------------------------------------------------------------
# line-k1


LINE_RUNGS = (8, 16, 32)
LINE_TOP_RADIUS = 64


def _line_check(req: Request, rc, text: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    report = _parse_report(text)
    problems = _checks_pass(report, ())
    check = _check_named(report, "index pairing stable under window doubling")
    if check is None:
        return problems + ["index pairing check missing"]
    details = check["details"]
    want = req.expect["index"]
    if details.get("index") != want or details.get("index_doubled_window") != want:
        problems.append(
            f"index {details.get('index')} / {details.get('index_doubled_window')}, "
            f"expected {want}"
        )
    if details.get("class") != req.expect["k"]:
        problems.append(f"class {details.get('class')}, expected {req.expect['k']}")
    return problems


def build_line_k1(seed: int, work: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"line-k1/{seed}")
    graph_path = work / "line.json"
    _write_json(graph_path, {"kind": "banded_z", "edges_per_cell": 1})
    # magnitudes are fixed so every seed does the same amount of work; the
    # seed picks the signs of 1 and 3 and the order within a rung.  The top
    # rung holds k = 2 and k = -2, two samples of the largest request a pass
    ks = [rng.choice((1, -1)), 2, -2, 3 * rng.choice((1, -1))]
    rungs = [(r, k) for r in (LINE_RUNGS[:1] if smoke else LINE_RUNGS) for k in ks]
    if not smoke:
        rungs += [(LINE_TOP_RADIUS, 2), (LINE_TOP_RADIUS, -2)]
    rng.shuffle(rungs)
    rungs.sort(key=lambda rk: rk[0])
    top_radius = rungs[-1][0]
    requests = []
    for radius, k in rungs:
        chain_path = work / f"line-k{k}.json"
        _write_json(chain_path, {"degree": 1, "tail_left": k, "tail_right": k})
        argv = [
            "k1-map", "--graph", str(graph_path), "--chain", str(chain_path),
            "--window", str(radius), "--margin", str(LINE_MARGIN), "--json",
        ]
        requests.append(
            Request(
                name=f"line-k{k}-R{radius}",
                argv=argv,
                expect={"k": k, "index": -k},
                check=_line_check,
                top=radius == top_radius,
            )
        )
    return Workload(
        "line-k1",
        requests,
        exercises=(
            "cli.main",
            "graphs.graph_from_json",
            "k1_map.line_cycle_unitary",
            "k0_map.expand_graph",
            "operators.index_pairing",
            "operators.is_unitary_on",
            "operators.construct",
        ),
    )


# ---------------------------------------------------------------------------
# finite-k0


K0_VERTICES = (40, 80, 120, 160)
K0_SMOKE_VERTICES = (40,)
# Smith normal form time differs by about 10% between random graphs of one
# size, so the top rung has extra hosts (homology only) and top_request_s is
# the median over its homology requests
K0_TOP_EXTRA = 4


def _homology_check(req: Request, rc, text: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    data = json.loads(text)
    e = req.expect
    problems = []
    if data.get("h0_torsion") != []:
        problems.append(f"H0 torsion {data.get('h0_torsion')}, expected none")
    if data.get("h0_free_rank") != e["components"]:
        problems.append(
            f"H0 rank {data.get('h0_free_rank')}, expected {e['components']}"
        )
    if data.get("h1_rank") != e["h1_rank"]:
        problems.append(f"H1 rank {data.get('h1_rank')}, expected {e['h1_rank']}")
    basis = data.get("h1_basis", [])
    if len(basis) != e["h1_rank"]:
        problems.append(f"{len(basis)} H1 basis vectors, expected {e['h1_rank']}")
    edges = e["edges"]
    for i, vec in enumerate(basis):
        if boundary_of(edges, vec):
            problems.append(f"H1 basis vector {i} is not a cycle")
            break
    return problems


def _k0_check(req: Request, rc, text: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    report = _parse_report(text)
    problems = _checks_pass(report, ())
    sig = _check_named(report, "signature equals coefficient sum")
    if sig is None or sig["details"].get("signature") != req.expect["sum"]:
        problems.append(f"signature is not the coefficient sum {req.expect['sum']}")
    if req.expect["bounds"]:
        if _check_named(report, "boundary witness identities") is None:
            problems.append("a boundary got no witness")
    elif _check_named(
        report, "chain does not bound (signature is the obstruction witness)"
    ) is None:
        problems.append("a non-boundary was not reported as such")
    return problems


def build_finite_k0(seed: int, work: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"finite-k0/{seed}")
    requests = []
    sizes = K0_SMOKE_VERTICES if smoke else K0_VERTICES
    rungs = list(sizes) + [sizes[-1]] * (0 if smoke else K0_TOP_EXTRA)
    for j, n in enumerate(rungs):
        vertices, edges = connected_graph(rng, n, 2 * n)
        uf = UnionFind(vertices)
        for _, s, t in edges:
            uf.union(s, t)
        comps = uf.components()
        graph_path = work / f"k0-graph-{j}.json"
        _write_json(graph_path, graph_json(vertices, edges))
        requests.append(
            Request(
                name=f"homology-V{n}-{j}",
                argv=["homology", "--graph", str(graph_path), "--json"],
                expect={
                    "components": comps,
                    "h1_rank": len(edges) - len(vertices) + comps,
                    "edges": edges,
                },
                check=_homology_check,
                top=n == sizes[-1],
            )
        )
        if j >= len(sizes):
            continue
        picked = rng.sample(edges, 8)
        gamma = {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e, _, _ in picked}
        chains = {
            "boundary": boundary_of(edges, gamma),
            "random": {
                v: rng.choice((-3, -2, -1, 1, 2, 3))
                for v in rng.sample(vertices, rng.randint(1, 8))
            },
        }
        for kind, coeffs in chains.items():
            chain_path = work / f"k0-chain-{j}-{kind}.json"
            _write_json(
                chain_path,
                {"degree": 0, "coeffs": {str(v): c for v, c in coeffs.items()}},
            )
            requests.append(
                Request(
                    name=f"k0-{kind}-V{n}",
                    argv=[
                        "k0-map", "--graph", str(graph_path),
                        "--chain", str(chain_path), "--json",
                    ],
                    expect={
                        "sum": sum(coeffs.values()),
                        "bounds": bounds(vertices, edges, coeffs),
                    },
                    check=_k0_check,
                )
            )
    return Workload(
        "finite-k0",
        requests,
        exercises=(
            "cli.main",
            "graphs.graph_from_json",
            "chains.homology_finite",
            "chains.solve_boundary_finite",
            "intlinalg.smith_normal_form",
            "k0_map.build_projection_pair",
            "k0_map.boundary_witness",
            "k0_map.expand_graph",
            "operators.compose",
            "operators.construct",
        ),
    )


# ---------------------------------------------------------------------------
# finite-k1-dump


DUMP_CYCLES = (20, 40, 80)
DUMP_SMOKE_CYCLES = (20,)
DUMP_RANDOM = 4  # random hosts per pass; every other one gets a matching
DUMP_FILES = ("u.txt", "u.json", "u_tilde.txt", "u_tilde.json")


def _slot_text(slot: dict) -> str:
    if "ordinal" in slot:
        return f"o:{slot['ordinal']}"
    edge = json.dumps(slot["edge"], separators=(",", ":"))
    return f"e:{edge}:{slot['copy']}"


def check_permutation_dump(txt: bytes, js: bytes, adjacent) -> list:
    """The line dump is a permutation matrix of the basis listed in the JSON
    dump, and every moved entry joins equal or adjacent vertices."""
    basis = {
        (json.dumps(v, separators=(",", ":")), _slot_text(s))
        for v, s in json.loads(js)["basis"]
    }
    rows, cols = set(), set()
    problems = []
    for line in txt.decode().splitlines():
        fields = line.split("\t")
        if len(fields) != 5:
            return [f"unparsable dump line {line[:80]!r}"]
        rv, rs, cv, cs, val = fields
        r, c = (rv, rs), (cv, cs)
        if val != "1":
            return [f"entry value {val}, expected 1"]
        if r in rows or c in cols:
            return ["a row or column holds two entries"]
        rows.add(r)
        cols.add(c)
        if r != c and rv != cv and (json.loads(rv), json.loads(cv)) not in adjacent:
            problems.append(f"moved entry joins non-adjacent {rv} and {cv}")
            break
    if rows != basis or cols != basis:
        problems.append("entries do not cover the basis exactly once")
    return problems


def _dump_check(req: Request, rc, text: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    report = _parse_report(text)
    problems = _checks_pass(report)
    for name in req.expect["checks"]:
        if _check_named(report, name) is None:
            problems.append(f"check {name!r} missing")
    files = {}
    for fname in DUMP_FILES:
        try:
            files[fname] = (req.dump_dir / fname).read_bytes()
        except OSError as exc:
            return problems + [f"dump file {fname}: {exc.strerror}"]
    for op in ("u", "u_tilde"):
        problems += [
            f"{op}: {p}"
            for p in check_permutation_dump(
                files[f"{op}.txt"], files[f"{op}.json"], req.expect["adjacent"]
            )
        ]
    recorded = req.expect.get("digests")
    if recorded is not None:
        for fname, raw in files.items():
            if hashlib.sha256(raw).hexdigest() != recorded.get(fname):
                problems.append(f"{fname} differs from the recorded dump")
    elif req.expect["require_digest"]:
        problems.append("no recorded dump digest for this input")
    return problems


def load_digests() -> dict:
    return json.loads((Path(__file__).parent / "dump_digests.json").read_text())


def build_finite_k1_dump(
    seed: int, work: Path, smoke: bool = False, digests: dict | None = None
) -> Workload:
    rng = random.Random(f"finite-k1-dump/{seed}")
    if digests is None:
        digests = load_digests()
    hosts = []
    cycles = DUMP_SMOKE_CYCLES if smoke else DUMP_CYCLES
    # cycle hosts do not depend on the seed, so their dumps are checked
    # against the recorded digests on every run
    for n in cycles:
        vertices, edges = cycle_host(n)
        hosts.append((f"cycle-{n}", vertices, edges, {e: 2 for e, _, _ in edges}, None))
    for i in range(1 if smoke else DUMP_RANDOM):
        n = rng.randint(12, 20)
        vertices, edges = connected_graph(rng, n, 2 * n)
        basis = fundamental_cycles(vertices, edges)
        while True:
            coeffs = Counter()
            for cyc in rng.sample(basis, 3):
                c = rng.choice((-2, -1, 1, 2))
                for e, v in cyc.items():
                    coeffs[e] += c * v
            coeffs = {e: c for e, c in coeffs.items() if c}
            if coeffs and max(abs(c) for c in coeffs.values()) <= 3:
                break
        matching = None
        if i % 2 == 0:
            ins = in_counts(edges, coeffs)
            multi = sorted(v for v, c in ins.items() if c >= 2)
            if multi:
                positions = {}
                for v in rng.sample(multi, min(3, len(multi))):
                    perm = list(range(ins[v]))
                    rng.shuffle(perm)
                    positions[str(v)] = perm
                matching = {"positions": positions}
        hosts.append((f"random-{i}", vertices, edges, coeffs, matching))
    requests = []
    for name, vertices, edges, coeffs, matching in hosts:
        graph_path = work / f"{name}-graph.json"
        chain_path = work / f"{name}-chain.json"
        dump_dir = work / f"{name}-dump"
        raws = [
            _write_json(graph_path, graph_json(vertices, edges)),
            _write_json(chain_path, {"degree": 1, "coeffs": coeffs}),
        ]
        argv = [
            "k1-map", "--graph", str(graph_path), "--chain", str(chain_path),
            "--json", "--dump", str(dump_dir),
        ]
        checks = [
            "cycle unitary is exactly unitary",
            "entries join adjacent vertices only",
            "compression into the ordinal corner",
        ]
        if matching is not None:
            match_path = work / f"{name}-matching.json"
            raws.append(_write_json(match_path, matching))
            argv += ["--matching", str(match_path)]
            checks += ["matching independence (product identity)", TWO_CONJUGATION]
        adjacent = set()
        for eid, s, t in edges:
            if coeffs.get(eid):
                adjacent |= {(s, t), (t, s)}
        key = _inputs_digest(argv, raws)
        requests.append(
            Request(
                name=name,
                argv=argv,
                expect={
                    "checks": checks,
                    "adjacent": adjacent,
                    "digests": digests.get(key, {}).get("files"),
                    "require_digest": seed == DEFAULT_SEED,
                },
                check=_dump_check,
                top=name == f"cycle-{cycles[-1]}",
                dump_dir=dump_dir,
                inputs_sha256=key,
            )
        )
    return Workload(
        "finite-k1-dump",
        requests,
        exercises=(
            "cli.main",
            "graphs.graph_from_json",
            "chains.is_cycle",
            "k0_map.expand_graph",
            "k1_map.cycle_unitary",
            "k1_map.compress_to_uniform",
            "k1_map.verify_matching_independence",
            "operators.is_unitary_on",
            "operators.compose",
            "operators.construct",
            "operators.dump",
        ),
    )


# ---------------------------------------------------------------------------
# verify-suite


VERIFY_RUNS = 2  # verify seeds per pass


def _verify_check(req: Request, rc, text: str) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    reports = json.loads(text)
    problems = []
    names = set()
    for report in reports:
        names.add(report["report"])
        problems += _checks_pass(report)
    if names != {"random-finite", "z-line", "z-edgeless"}:
        problems.append(f"reports {sorted(names)}")
    iso = None
    for report in reports:
        iso = iso or _check_named(report, "degree-1 map is a signed isomorphism")
    if iso is None:
        return problems + ["line isomorphism check missing"]
    values = iso["details"].get("values", {})
    if iso["details"].get("shift_index") != req.expect["shift_index"]:
        problems.append(f"shift index {iso['details'].get('shift_index')}")
    for k in range(-3, 4):
        if values.get(str(k)) != req.expect["sign"] * k:
            problems.append(f"line value for k={k} is {values.get(str(k))}")
    return problems


def build_verify_suite(seed: int, work: Path, smoke: bool = False) -> Workload:
    rng = random.Random(f"verify-suite/{seed}")
    requests = []
    runs = 1 if smoke else VERIFY_RUNS
    for i in range(runs):
        s = rng.randrange(1, 2**31)
        requests.append(
            Request(
                name=f"verify-{s}",
                argv=["verify", "--json", "--seed", str(s)],
                expect={"shift_index": -1, "sign": -1},
                check=_verify_check,
                top=True,
            )
        )
    return Workload(
        "verify-suite",
        requests,
        exercises=(
            "cli.main",
            "corpus",
            "chains.homology_finite",
            "chains.is_cycle",
            "intlinalg.smith_normal_form",
            "intlinalg.rank",
            "k0_map.expand_graph",
            "k0_map.build_projection_pair",
            "k0_map.boundary_witness",
            "k1_map.cycle_unitary",
            "k1_map.line_cycle_unitary",
            "k1_map.compress_to_uniform",
            "k1_map.verify_matching_independence",
            "operators.index_pairing",
            "operators.is_unitary_on",
            "operators.compose",
            "operators.construct",
            "scenarios.check_unitarity_corpus",
            "scenarios.check_propagation_corpus",
            "scenarios.check_witness_corpus",
            "scenarios.check_k0_signatures",
            "scenarios.check_matching_independence",
            "scenarios.check_compression",
            "scenarios.check_line_isomorphism",
            "scenarios.check_line_h0_quotient",
            "scenarios.check_line_homology",
            "scenarios.check_edgeless_line",
            "scenarios.check_homology_engine",
        ),
    )


BUILDERS = {
    "line-k1": build_line_k1,
    "finite-k0": build_finite_k0,
    "finite-k1-dump": build_finite_k1_dump,
    "verify-suite": build_verify_suite,
}
