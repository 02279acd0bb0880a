"""Built-in verification scenarios and the k0-map and k1-map pipelines.

Each check function returns a plain dict of exact certificates, which the
scenario runners wrap into reports and the acceptance tests assert on.
certify_k0 and certify_k1 build the reports of k0-map and k1-map.  Each
identity that both surfaces check is decided by one piece of code here or
in the maps, so the two agree on what was actually computed.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from . import corpus
from .chains import (
    BandedZChain,
    banded_cycle_value,
    boundary,
    free_abelian,
    homology_finite,
    is_cycle,
    solve_boundary_finite,
    solve_boundary_on_z,
    uf_class_on_z,
    uniform_bound,
)
from .graphs import BandedZGraph
from .intlinalg import rank as matrix_rank
from .k0_map import (
    boundary_witness,
    build_projection_pair,
    component_signatures,
    k0_signature,
    slot_ceiling,
    witness_report_json,
)
from .k1_map import (
    compress_to_uniform,
    constant_cycle_index,
    cycle_unitary,
    line_cycle_unitary,
    line_matching_independence,
    permuted_matching,
    verify_matching_independence,
)
from .operators import (
    Window,
    bilateral_shift,
    block_ranks,
    index_pairing,
    is_unitary_on,
)

DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0
    advisory: bool = False
    verbose: bool = False  # render details also on success

    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "KNOWN LIMITATION" if self.advisory else "FAIL"


@dataclass
class Report:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.advisory for c in self.checks)

    def add(self, name: str, passed: bool, details: dict | None = None, **flags) -> None:
        self.checks.append(CheckResult(name, passed, details or {}, **flags))

    def add_certificates(self, name: str, data: dict, key: str = "ok", advisory: bool = False):
        """Add the check whose verdict is data[key]; data, with its seconds
        taken out, becomes the details."""
        seconds = data.pop("seconds", 0.0)
        self.add(name, bool(data.get(key)), data, seconds=seconds, advisory=advisory)

    def to_json(self) -> dict:
        return {
            "report": self.name,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status(),
                    "passed": c.passed,
                    "advisory": c.advisory,
                    "seconds": round(c.seconds, 4),
                    "details": _jsonable(c.details),
                }
                for c in self.checks
            ],
        }

    def render(self) -> list[str]:
        lines = [f"== {self.name} =="]
        for c in self.checks:
            lines.append(f"  {c.status():<16} {c.name}  ({c.seconds:.2f}s)")
            if not c.passed or c.verbose:
                for key, val in sorted(c.details.items()):
                    text = str(val)
                    if len(text) > 220:
                        text = text[:220] + "..."
                    lines.append(f"      {key}: {text}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return lines


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _timed(check):
    """Record the seconds a check takes under "seconds" in its result."""

    @functools.wraps(check)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = check(*args, **kwargs)
        out["seconds"] = time.perf_counter() - t0
        return out

    return timed


# ---------------------------------------------------------------------------
# the k0-map and k1-map pipelines

# the checks that k0-map or k1-map and the random-finite scenario share
WITNESS = "boundary witness identities"
COMPRESSION = "compression into the ordinal corner"
PRODUCT_ROUTE = "matching independence (product identity)"
LITERAL_ROUTE = "matching independence (two-conjugation route)"


def _projections_hold(pair) -> bool:
    """f and g are idempotent, selfadjoint and orthogonal."""
    f, g = pair.f, pair.g
    return (
        f.compose(f) == f and g.compose(g) == g and f.adjoint() == f and g.adjoint() == g
        and f.compose(g).is_zero()
    )


def _uniform_corner(chain: BandedZChain, pair) -> tuple[bool, dict]:
    """Whether a banded pair stays inside the (K-1)-sized matrix corner below
    the chain's strict coefficient bound K, with the two numbers compared."""
    ceiling, bound = slot_ceiling(pair), uniform_bound(chain)
    return ceiling <= bound - 1, {"slot_ceiling": ceiling, "strict_bound": bound}


def _doubled_window_indexes(k: int, cu) -> tuple[int, int]:
    """Index pairings of cu, the constant-k cycle's unitary on its window,
    and of the same cycle on the window of twice the radius."""
    w = cu.window
    idx = index_pairing(cu.u, w)
    # constant_cycle_index also checks the margin against the infinite
    # operator's propagation; doubling the radius keeps the check's
    # outcome, since radius >= 1 iff 2 * radius >= 1
    return idx, constant_cycle_index(k, Window(radius=2 * w.radius, margin=w.margin))


def certify_k0(g, chain, window: Window | None = None) -> tuple[Report, dict]:
    """The k0-map report on an admitted chain, and the operators it dumps:
    a finite degree-0 chain over the graph g, or a banded one realised on
    the window."""
    report, dumps = Report(name="k0-map"), {}
    add = report.add
    if window is None:
        pair = build_projection_pair(chain)
        add("projections are idempotent, selfadjoint and orthogonal", _projections_hold(pair))
        sig, total = k0_signature(pair), chain.total()
        details = {"signature": sig, "sum": total}
        add("signature equals coefficient sum", sig == total, details, verbose=True)
        gamma = solve_boundary_finite(g, chain)
        if gamma is None:
            # a chain that does not bound has a nonzero sum on some component
            per_component = component_signatures(pair, g)
            details = {"signature": sig}
            if len(per_component) > 1:
                details["component_signatures"] = per_component
            name = "chain does not bound (signature is the obstruction witness)"
            add(name, any(per_component.values()), details)
        else:
            w = boundary_witness(gamma)
            add(WITNESS, w.ok and sig == 0, witness_report_json(w))
            dumps["witness_v"] = w.v
    else:
        pair = build_projection_pair(chain, window)
        add("pair confined to the corner below the uniform bound", *_uniform_corner(chain, pair))
        add("bounded-class invariant", True, {"tail_pair": uf_class_on_z(chain)}, verbose=True)
        if not g.is_edgeless:
            sol = solve_boundary_on_z(chain)
            ok = not sol.bounded or (sol.gamma is not None and boundary(sol.gamma) == chain)
            details = {
                "bounded": sol.bounded, "slope_left": sol.slope_left, "slope_right": sol.slope_right
            }
            add("boundary solution on the line", ok, details, verbose=True)
    dumps.update(f=pair.f, g=pair.g)
    return report, dumps


def certify_k1(chain, cu, beta=None, strict_matching: bool = False) -> tuple[Report, dict]:
    """The k1-map report on the cycle unitary cu of chain, and the operators
    it dumps.  A unitary on a line window is certified by its index pairing;
    a finite one by its identities, its compression and, given a second
    matching beta, the comparison with the canonical matching."""
    report, dumps = Report(name="k1-map"), {}
    add = report.add
    if cu.window is not None:
        k = banded_cycle_value(chain)
        idx, idx2 = _doubled_window_indexes(k, cu)
        details = {"class": k, "index": idx, "index_doubled_window": idx2}
        add("index pairing stable under window doubling", idx == idx2, details, verbose=True)
    else:
        ex = cu.expanded
        add("cycle unitary is exactly unitary", is_unitary_on(cu.u))
        add("entries join adjacent vertices only", not ex.far_moves(cu.u))
        if ex.edges:
            comp = compress_to_uniform(cu)
            add(COMPRESSION, comp.ok, {"corner": comp.max_valence, "max_valence": comp.max_valence})
            dumps["u_tilde"] = comp.u_tilde
        if beta is not None:
            rep = verify_matching_independence(cu, beta)
            details = rep.to_json()
            add(PRODUCT_ROUTE, rep.content_ok, details)
            add(LITERAL_ROUTE, rep.literal_route_ok, details, advisory=not strict_matching)
    dumps["u"] = cu.u
    return report, dumps


# ---------------------------------------------------------------------------
# random finite corpus checks


class CycleVerdicts(NamedTuple):
    """The failures one pass over the cycle corpus finds."""

    unitarity: list
    adjacency: list
    rank: list


def cycle_corpus_pass(seed: int = DEFAULT_SEED, count: int = 200) -> CycleVerdicts:
    """One cycle unitary per case of the corpus; only the failures outlive
    their case."""
    rng = random.Random(seed)
    out = CycleVerdicts([], [], [])
    for i in range(count):
        gamma = corpus.random_cycle(rng, corpus.random_graph(rng))
        cu = cycle_unitary(gamma)
        if not is_unitary_on(cu.u):
            out.unitarity.append({"graph": i, "coeffs": gamma.coeffs})
        ex = cu.expanded
        for c, r in ex.far_moves(cu.u):
            out.adjacency.append({"graph": i, "row": r, "col": c})
        for (x, y), rank in block_ranks(cu.u).items():
            if rank > ex.degree(x):
                out.rank.append({"graph": i, "block": (x, y)})
    return out


# the cycle checks read the verdicts of a pass over the same seed and count,
# or make a pass of their own


@_timed
def check_unitarity_corpus(
    seed: int = DEFAULT_SEED, count: int = 200, cycles: CycleVerdicts | None = None
) -> dict:
    failures = (cycles or cycle_corpus_pass(seed, count)).unitarity
    return {"count": count, "failures": failures, "ok": not failures}


@_timed
def check_propagation_corpus(
    seed: int = DEFAULT_SEED, count: int = 200, cycles: CycleVerdicts | None = None
) -> dict:
    _, adjacency, rank = cycles or cycle_corpus_pass(seed, count)
    return {
        "count": count,
        "adjacency_failures": adjacency,
        "rank_failures": rank,
        "ok": not adjacency and not rank,
    }


@_timed
def check_witness_corpus(seed: int = DEFAULT_SEED, count: int = 200) -> dict:
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        g = corpus.random_graph(rng)
        gamma = corpus.random_chain1(rng, g)
        w = boundary_witness(gamma)
        if not w.ok:
            failing = [k for k, v in w.checks.items() if not v]
            failures.append({"case": i, "checks": failing})
    return {"count": count, "failures": failures, "ok": not failures}


@_timed
def check_k0_signatures(seed: int = DEFAULT_SEED, count: int = 100) -> dict:
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        g = corpus.random_graph(rng)
        gamma = corpus.random_chain1(rng, g)
        c = boundary(gamma)
        if k0_signature(build_projection_pair(c)) != 0:
            failures.append({"case": i, "kind": "boundary signature nonzero"})
        c2 = corpus.random_chain0(rng, g)
        pair = build_projection_pair(c2)
        if k0_signature(pair) != c2.total():
            failures.append({"case": i, "kind": "signature != coefficient sum"})
        swapped = build_projection_pair(-c2)
        if swapped.f != pair.g or swapped.g != pair.f:
            failures.append({"case": i, "kind": "negation does not swap f and g"})
        if not _projections_hold(pair):
            failures.append({"case": i, "kind": "f and g not orthogonal projections"})
    return {"count": count, "failures": failures, "ok": not failures}


@_timed
def check_matching_independence(
    seed: int = DEFAULT_SEED, pairs: int = 50
) -> dict:
    """Compares the unitaries of two matchings on cycles with a vertex of
    multiplicity at least two: the exact product identity always, and the
    classical two-conjugation route literally (which fails in general, with
    certificates)."""
    rng = random.Random(seed)
    content_failures = []
    failing_pairs, first_obstruction = 0, None
    # the fixed wedge of two 2-gons, with the crossing matching
    cu8 = cycle_unitary(corpus.figure_eight()[1])
    cases = [(cu8, permuted_matching(cu8.expanded, {"z": (1, 0)}))]
    while len(cases) < pairs:
        g = corpus.random_graph(rng, max_vertices=12, max_edges=24)
        gamma = corpus.random_multiplicity_cycle(rng, g)
        if gamma is None:
            continue
        cu = cycle_unitary(gamma)
        cases.append((cu, corpus.random_matching(rng, cu.expanded)))
    for i, (cu, beta) in enumerate(cases):
        rep = verify_matching_independence(cu, beta)
        if not rep.content_ok:
            content_failures.append({"case": i})
        if not rep.literal_route_ok:
            if not failing_pairs:
                first_obstruction = rep.literal_v_obstruction
            failing_pairs += 1
    literal_summary = {"failing_pairs": failing_pairs, "first_obstruction": first_obstruction}
    line = {}
    for k in (2, 3):
        perm = tuple(reversed(range(k)))
        line[k] = line_matching_independence(
            k, Window(radius=8, margin=4), {0: perm, 3: perm}
        )
    line_ok = all(
        v["correction_identity"] and v["indexes_equal"] for v in line.values()
    )
    return {
        "pairs": pairs,
        "content_failures": content_failures,
        "content_ok": not content_failures and line_ok,
        "literal_summary": literal_summary,
        "literal_ok": not failing_pairs,
        "line_variants": line,
        "line_ok": line_ok,
    }


@_timed
def check_compression(seed: int = DEFAULT_SEED, count: int = 40) -> dict:
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        g = corpus.random_graph(rng, max_vertices=14, max_edges=28)
        gamma = corpus.random_cycle(rng, g)
        cu = cycle_unitary(gamma)
        if not cu.expanded.edges:
            continue
        res = compress_to_uniform(cu)
        if not res.ok:
            failures.append({"case": i, "round_trip": res.round_trip_ok})
    window = Window(radius=16, margin=6)
    line = {}
    for k in (1, 2, -2):
        cu = line_cycle_unitary(k, window)
        res = compress_to_uniform(cu)
        idx_u = index_pairing(cu.u, window)
        idx_t = index_pairing(res.u_tilde, window)
        line[k] = {
            "confinement": res.confinement_ok,
            "round_trip": res.round_trip_ok,
            "n": res.max_valence,
            "index_original": idx_u,
            "index_compressed": idx_t,
            "index_equal": idx_u == idx_t,
        }
    line_ok = all(
        v["confinement"] and v["round_trip"] and v["index_equal"]
        for v in line.values()
    )
    return {
        "count": count,
        "failures": failures,
        "finite_ok": not failures,
        "line": line,
        "line_ok": line_ok,
        "ok": not failures and line_ok,
    }


# ---------------------------------------------------------------------------
# the line and the edgeless line


@_timed
def check_line_isomorphism() -> dict:
    shift_window = Window(radius=8, margin=4)
    shift_index = index_pairing(bilateral_shift(shift_window), shift_window)
    values = {}
    agree = True
    for k in range(-3, 4):
        a, b = _doubled_window_indexes(k, line_cycle_unitary(k, Window(radius=16, margin=4)))
        values[k] = a
        agree = agree and a == b
    sign = shift_index  # index of the one-track forward shift
    linear = all(values[k] == sign * k for k in values)
    injective = len({values[k] for k in values}) == len(values)
    additive = all(
        values[k1] + values[k2] == values[k1 + k2]
        for k1 in (-1, 1, 2)
        for k2 in (-1, 1)
        if -3 <= k1 + k2 <= 3
    )
    return {
        "shift_index": shift_index,
        "sign": sign,
        "values": values,
        "windows_agree": agree,
        "linear": linear,
        "injective": injective,
        "additive": additive,
        "ok": shift_index == -1 and linear and agree and injective and additive,
    }


@_timed
def check_line_h0_quotient(seed: int = DEFAULT_SEED, count: int = 50) -> dict:
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        support = {
            rng.randint(-10, 10): rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(rng.randint(1, 6))
        }
        c = BandedZChain.from_finite_values(0, support)
        sol = solve_boundary_on_z(c)
        if not (sol.bounded and sol.gamma is not None and boundary(sol.gamma) == c):
            failures.append({"case": i, "kind": "no bounded witness"})
        if uf_class_on_z(c) != (0, 0):
            failures.append({"case": i, "kind": "finite support class nonzero"})
    constant_one = BandedZChain(0, 1, 1)
    sol_one = solve_boundary_on_z(constant_one)
    step = BandedZChain(0, 0, 1)
    sol_step = solve_boundary_on_z(step)
    classes = {
        uf_class_on_z(BandedZChain(0, 0, 0)),
        uf_class_on_z(constant_one),
        uf_class_on_z(step),
    }
    return {
        "count": count,
        "failures": failures,
        "constant_one_unbounded": not sol_one.bounded,
        "constant_one_slopes": (sol_one.slope_left, sol_one.slope_right),
        "step_unbounded": not sol_step.bounded,
        "step_slopes": (sol_step.slope_left, sol_step.slope_right),
        "classes_separated": len(classes) == 3,
        "ok": not failures
        and not sol_one.bounded
        and not sol_step.bounded
        and len(classes) == 3,
    }


@_timed
def check_line_homology() -> dict:
    constant2 = BandedZChain(1, 2, 2)
    broken = BandedZChain(1, 2, 2, 0, (5,))
    value = banded_cycle_value(constant2)
    corner_window = Window(radius=8, margin=0)
    chain = BandedZChain(0, 2, -1, 0, (3,))
    corner, corner_details = _uniform_corner(chain, build_projection_pair(chain, corner_window))
    return {
        "constant_is_cycle": is_cycle(constant2),
        "constant_class": value,
        "nonconstant_is_cycle": is_cycle(broken),
        "uniform_corner": corner,
        **corner_details,
        "ok": is_cycle(constant2)
        and value == 2
        and not is_cycle(broken)
        and corner,
    }


@_timed
def check_edgeless_line() -> dict:
    g = BandedZGraph(edges_per_cell=0)
    window_graph = g.window(-6, 6)
    no_edges = len(window_graph.edges) == 0
    hom = homology_finite(window_graph)
    # only the zero chain bounds; distinct banded chains stay distinct
    c = BandedZChain(0, 0, 0, 0, (1, 2))
    shifted = c.shifted(1)
    distinct = c != shifted
    # the degree-0 map identifies a chain with its translate: conjugating
    # the projection pair by the shift matches the translated pair on the
    # interior of any window
    window = Window(radius=6, margin=2)
    f = build_projection_pair(c, window).f
    t_f = build_projection_pair(c.shifted(-1), window).f
    shift = bilateral_shift(window, f.domain.slots)
    conj = shift.compose(f).compose(shift.adjoint())
    interior_ok = all(
        conj.entry(b, b) == t_f.entry(b, b)
        for b in f.domain
        if window.lo < b.vertex <= window.hi
    )
    return {
        "no_edges": no_edges,
        "h1_rank": len(hom.h1_basis),
        "h0": free_abelian(hom.h0_rank),
        "only_zero_bounds": no_edges,
        "translate_distinct_in_homology": distinct,
        "shift_conjugation_matches": interior_ok,
        "ok": no_edges and not hom.h1_basis and distinct and interior_ok,
    }


@_timed
def check_homology_engine(seed: int = DEFAULT_SEED) -> dict:
    failures = []
    examined = 0
    for n in range(1, 6):
        for g in corpus.all_connected_graphs(n):
            examined += 1
            if not _homology_agrees(g):
                failures.append({"n": n, "edges": [e.id for e in g.edges]})
    rng = random.Random(seed)
    for n in range(2, 13):
        for extra in range(0, 9):
            for _ in range(2):
                g = corpus.tree_plus_edges(rng, n, extra)
                examined += 1
                if not _homology_agrees(g, expected_rank=extra):
                    failures.append({"n": n, "extra": extra})
    return {"examined": examined, "failures": failures, "ok": not failures}


def _homology_agrees(g, expected_rank=None) -> bool:
    res = homology_finite(g)
    euler_rank = len(g.edges) - len(g.vertices) + 1
    if expected_rank is not None and euler_rank != expected_rank:
        return False
    if res.h0_rank != 1:
        return False
    if len(res.h1_basis) != euler_rank:
        return False
    for gamma in res.h1_basis:
        if not is_cycle(gamma):
            return False
    if res.h1_basis:
        gets = [gamma.coeffs.get for gamma in res.h1_basis]
        cols = [[get(e.id, 0) for get in gets] for e in g.edges]
        if matrix_rank(cols) != len(res.h1_basis):
            return False
    return True


# ---------------------------------------------------------------------------
# scenario assembly


def run_random_finite(
    seed: int = DEFAULT_SEED, count: int = 200, strict_matching: bool = False
) -> Report:
    report = Report(name="random-finite")
    add = report.add_certificates
    # one pass serves both cycle checks; its seconds count for the first
    t0 = time.perf_counter()
    cycles = cycle_corpus_pass(seed, count)
    unitarity = check_unitarity_corpus(seed, count, cycles)
    unitarity["seconds"] = time.perf_counter() - t0
    add("cycle unitaries are exactly unitary", unitarity)
    add("finite propagation and block-finite rank", check_propagation_corpus(seed, count, cycles))
    add(WITNESS, check_witness_corpus(seed, count))
    add("projection-pair signatures", check_k0_signatures(seed))
    matching = check_matching_independence(seed)
    content_view = {
        k: v for k, v in matching.items() if not k.startswith("literal")
    }
    literal_view = {
        "pairs": matching["pairs"],
        "literal_ok": matching["literal_ok"],
        "literal_summary": matching["literal_summary"],
    }
    add(PRODUCT_ROUTE, content_view, key="content_ok")
    add(LITERAL_ROUTE, literal_view, key="literal_ok", advisory=not strict_matching)
    add(COMPRESSION, check_compression(seed))
    add("homology engine cross-check", check_homology_engine(seed))
    return report


def run_z_line(seed: int = DEFAULT_SEED, strict_matching: bool = False) -> Report:
    report = Report(name="z-line")
    report.add_certificates("banded 1-cycles are the constants", check_line_homology())
    report.add_certificates("degree-1 map is a signed isomorphism", check_line_isomorphism())
    report.add_certificates("degree-0 quotient certificates", check_line_h0_quotient(seed))
    return report


def run_z_edgeless(seed: int = DEFAULT_SEED, strict_matching: bool = False) -> Report:
    report = Report(name="z-edgeless")
    report.add_certificates("edgeless line scenario", check_edgeless_line())
    return report


SCENARIOS = {
    "random-finite": run_random_finite,
    "z-line": run_z_line,
    "z-edgeless": run_z_edgeless,
}


def run_all(
    seed: int = DEFAULT_SEED, scenario: str | None = None, strict_matching: bool = False
) -> list[Report]:
    """Run one named scenario, or all of them in order.  Every scenario takes
    the seed and the strict-matching flag; only random-finite has a
    matching check for the flag to act on."""
    names = list(SCENARIOS) if scenario is None else [scenario]
    return [SCENARIOS[name](seed, strict_matching=strict_matching) for name in names]
