"""Command line front end.

Subcommands: ``homology`` (chain-level invariants of a graph), ``k0-map``
and ``k1-map`` (run the degree-0/degree-1 constructions with their full
verification suites), ``verify`` (the built-in scenario runner).  Reports go
to stdout, human readable by default or as JSON with --json.  Exit codes:
0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .chains import (
    BandedZChain,
    Chain0,
    Chain1,
    ChainError,
    banded_cycle_value,
    boundary,
    chain_from_json,
    homology_finite,
    json_int,
    solve_boundary_finite,
    solve_boundary_on_z,
    uf_class_on_z,
    uniform_bound,
)
from .graphs import GraphError, OrientedGraph, graph_from_json
from .k0_map import (
    boundary_witness,
    build_projection_pair,
    k0_signature,
    slot_ceiling,
    uniform_corner_holds,
    witness_report_json,
)
from .k1_map import (
    NonCycleError,
    canonical_matching,
    compress_to_uniform,
    constant_cycle_index,
    cycle_unitary,
    line_cycle_unitary,
    permuted_matching,
    verify_matching_independence,
)
from .operators import (
    MarginError,
    OperatorError,
    Window,
    dump_lines,
    index_pairing,
    is_unitary_on,
    operator_to_json,
)
from .scenarios import DEFAULT_SEED, SCENARIOS, CheckResult, Report, run_all

log = logging.getLogger("coarsek")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

#: Largest work estimate that k0-map and k1-map accept (see _admit).
#: A unit is one window vertex, ordinal slot or expanded edge copy.  Measured
#: on a 2-vCPU Xeon, Python 3.11: requests near the limit take 13-26 s and
#: 0.3-0.4 GB (k1-map on the line, k = 2000, radius 16, is 96k units, 18 s,
#: 0.4 GB), against 577 units for the largest benchmark request.
MAX_WORK = 100_000


class InputError(Exception):
    pass


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    return data


def _load_graph(path: str):
    try:
        return graph_from_json(_load_json_file(path))
    except (GraphError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad graph file: {exc}")


def _load_chain(path: str, graph=None):
    try:
        return chain_from_json(_load_json_file(path), graph)
    except (ChainError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad chain file: {exc}")


def _admit(estimate: int, dump) -> None:
    """Admit a request before anything is built: reject it if its work
    estimate exceeds MAX_WORK, then make its dump directory.  The estimate
    counts what grows with the numbers in the input rather than with its
    length: the vertices plus the slots over them.  See _finite_work; on the
    line it is the window's vertices plus |k| copies per cell for k1-map and
    uniform_bound - 1 ordinals per vertex for k0-map."""
    if estimate > MAX_WORK:
        raise InputError(
            f"request too large: estimated work {estimate} exceeds the limit "
            f"{MAX_WORK} (MAX_WORK in coarsek.cli)"
        )
    if dump:
        _dump_operators(dump, {})  # makes the directory or fails


def _finite_work(g: OrientedGraph, chain, spread: bool) -> int:
    """Vertices plus expanded edge copies (the sum of |coefficients|), or
    with spread every vertex times one plus the copies: a dump lists the
    whole vertex-by-slot basis, and the forest witness of a boundary
    carries each unit of its chain along at most |V| - 1 tree edges."""
    copies = sum(abs(v) for v in chain.coeffs.values())
    n = len(g.vertices)
    return n * (1 + copies) if spread else n + copies


def _window_vertices(args) -> int:
    return 2 * (args.window + args.margin) + 1


def _dump_operators(directory: str, named_ops: dict) -> None:
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for name, op in named_ops.items():
            for suffix, writer in ((".txt", dump_lines), (".json", operator_to_json)):
                path = Path(directory, name + suffix)
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    writer(op, fh)
    except OSError as exc:
        raise InputError(f"cannot write dumps to {directory}: {exc}")


def _emit(report: Report, args, dumps: dict) -> int:
    if args.dump:
        _dump_operators(args.dump, dumps)
        log.info("dumped %d operators to %s", len(dumps), args.dump)
    if args.json:
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print("\n".join(report.render()))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# homology


def _homology_json(payload: dict) -> str:
    """json.dumps(payload, indent=1, sort_keys=True), with each H1 basis
    chain written by the C encoder: indent=1 runs the pure-Python encoder
    over every coefficient.  A basis chain is never empty."""
    chains = [
        "{\n   " + json.dumps(b, sort_keys=True, separators=(",\n   ", ": "))[1:-1] + "\n  }"
        for b in payload["h1_basis"]
    ]
    basis = "[\n  " + ",\n  ".join(chains) + "\n ]" if chains else "[]"
    text = json.dumps({**payload, "h1_basis": []}, indent=1, sort_keys=True)
    return text.replace('"h1_basis": []', '"h1_basis": ' + basis, 1)


def cmd_homology(args) -> int:
    g = _load_graph(args.graph)
    if isinstance(g, OrientedGraph):
        res = homology_finite(g)
        payload = {
            "h0": str(res.h0),
            "h0_torsion": list(res.h0.torsion),
            "h0_free_rank": res.h0.free_rank,
            "h1_rank": res.h1_rank,
            "h1_basis": [
                {str(k): v for k, v in b.coeffs.items()} for b in res.h1_basis
            ],
        }
        if args.json:
            print(_homology_json(payload))
        else:
            print(f"H0 = {res.h0}")
            print(f"H1 rank = {res.h1_rank}")
            for i, b in enumerate(res.h1_basis):
                print(f"  basis[{i}] = {b.coeffs}")
        return EXIT_OK
    if g.is_edgeless:
        payload = {
            "graph": "edgeless line",
            "h1": "0 (there are no 1-chains)",
            "h0_bounded": "the group of bounded chains; nothing bounds",
            "note": "the degree-0 map into operator classes is a proper quotient",
        }
    else:
        payload = {
            "graph": "line",
            "h1": "Z (a banded 1-cycle is constant; its value is the class)",
            "h0_unbounded": "0 (every banded 0-chain bounds, witness may be unbounded)",
            "h0_bounded": "classified by the tail pair of the chain",
        }
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# degree-0 map


def cmd_k0(args) -> int:
    g = _load_graph(args.graph)
    chain = _load_chain(args.chain, g if isinstance(g, OrientedGraph) else None)
    report = Report(name="k0-map")
    dumps = {}
    if isinstance(g, OrientedGraph):
        if not isinstance(chain, Chain0):
            raise InputError("the degree-0 map needs a degree-0 chain")
        _admit(_finite_work(g, chain, spread=True), args.dump)
        pair = build_projection_pair(chain)
        f, gg = pair.f, pair.g
        report.checks.append(
            CheckResult(
                "projections are idempotent, selfadjoint and orthogonal",
                f.compose(f) == f
                and gg.compose(gg) == gg
                and f.adjoint() == f
                and gg.adjoint() == gg
                and f.compose(gg).is_zero(),
            )
        )
        sig = k0_signature(pair)
        report.checks.append(
            CheckResult(
                "signature equals coefficient sum",
                sig == chain.total(),
                {"signature": sig, "sum": chain.total()},
                verbose=True,
            )
        )
        gamma = solve_boundary_finite(g, chain)
        if gamma is None:
            report.checks.append(
                CheckResult(
                    "chain does not bound (signature is the obstruction witness)",
                    True,
                    {"signature": sig},
                )
            )
        else:
            w = boundary_witness(gamma)
            report.checks.append(
                CheckResult(
                    "boundary witness identities",
                    w.ok and sig == 0,
                    witness_report_json(w),
                )
            )
            dumps["witness_v"] = w.v
    else:
        if not isinstance(chain, BandedZChain) or chain.degree != 0:
            raise InputError("banded graphs need a banded degree-0 chain")
        _admit(_window_vertices(args) * uniform_bound(chain), args.dump)
        window = Window(radius=args.window, margin=args.margin)
        pair = build_projection_pair(chain, window)
        report.checks.append(
            CheckResult(
                "pair confined to the corner below the uniform bound",
                uniform_corner_holds(chain, pair),
                {"slot_ceiling": slot_ceiling(pair), "strict_bound": uniform_bound(chain)},
            )
        )
        report.checks.append(
            CheckResult(
                "bounded-class invariant",
                True,
                {"tail_pair": uf_class_on_z(chain)},
                verbose=True,
            )
        )
        if not g.is_edgeless:
            sol = solve_boundary_on_z(chain)
            details = {
                "bounded": sol.bounded,
                "slope_left": sol.slope_left,
                "slope_right": sol.slope_right,
            }
            ok = True
            if sol.bounded:
                ok = sol.gamma is not None and boundary(sol.gamma) == chain
            report.checks.append(
                CheckResult("boundary solution on the line", ok, details, verbose=True)
            )
    dumps.update(f=pair.f, g=pair.g)
    return _emit(report, args, dumps)


# ---------------------------------------------------------------------------
# degree-1 map


def _named_noncycle_vertex(chain: BandedZChain) -> int:
    d = boundary(chain)
    for i in range(d.window_start, d.window_end):
        if d.value(i):
            return i
    return d.window_start


def cmd_k1(args) -> int:
    g = _load_graph(args.graph)
    chain = _load_chain(args.chain, g if isinstance(g, OrientedGraph) else None)
    report = Report(name="k1-map")
    dumps = {}
    if isinstance(g, OrientedGraph):
        if not isinstance(chain, Chain1):
            raise InputError("the degree-1 map needs a degree-1 chain")
        _admit(_finite_work(g, chain, spread=bool(args.dump)), args.dump)
        try:
            cu = cycle_unitary(chain)
        except NonCycleError as exc:
            raise InputError(str(exc))
        ex = cu.expanded
        report.checks.append(
            CheckResult("cycle unitary is exactly unitary", is_unitary_on(cu.u))
        )
        report.checks.append(
            CheckResult(
                "entries join adjacent vertices only",
                all(
                    r is None or r.vertex == c.vertex or ex.adjacent(r.vertex, c.vertex)
                    for c, r in cu.u.moves.items()
                ),
            )
        )
        if ex.edges:
            comp = compress_to_uniform(cu)
            report.checks.append(
                CheckResult(
                    "compression into the ordinal corner",
                    comp.round_trip_ok and comp.confinement_ok,
                    {"corner": comp.n, "max_valence": comp.max_valence},
                )
            )
            dumps["u_tilde"] = comp.u_tilde
        if args.matching:
            data = _load_json_file(args.matching).get("positions", {})
            lookup = {str(v): v for v in g.vertices}
            try:
                if not isinstance(data, dict):
                    raise ValueError(f"positions must be an object, got {data!r}")
                positions = {}
                for key, val in data.items():
                    if not isinstance(val, list):
                        raise ValueError(f"positions[{key!r}] must be a list, got {val!r}")
                    positions[lookup[key]] = tuple(
                        json_int(p, f"positions[{key!r}][{j}]") for j, p in enumerate(val)
                    )
                beta = permuted_matching(ex, positions)
            except (KeyError, ValueError) as exc:
                raise InputError(f"{args.matching}: bad matching override: {exc}")
            rep = verify_matching_independence(chain, canonical_matching(ex), beta)
            report.checks.append(
                CheckResult(
                    "matching independence (product identity)",
                    rep.content_ok,
                    rep.to_json(),
                )
            )
            report.checks.append(
                CheckResult(
                    "matching independence (two-conjugation route)",
                    rep.literal_route_ok,
                    rep.to_json(),
                    advisory=not args.strict_matching,
                )
            )
    else:
        if not isinstance(chain, BandedZChain) or chain.degree != 1:
            raise InputError("banded graphs need a banded degree-1 chain")
        if g.is_edgeless:
            raise InputError("banded degree-1 map: plain line only")
        k = banded_cycle_value(chain)
        if k is None:
            raise InputError(
                f"not a cycle: the boundary is nonzero at vertex "
                f"{_named_noncycle_vertex(chain)}"
            )
        n = _window_vertices(args)
        _admit(n + abs(k) * (n - 1), args.dump)
        window = Window(radius=args.window, margin=args.margin)
        cu = line_cycle_unitary(k, window)
        idx = index_pairing(cu.u, window)
        # constant_cycle_index also checks the margin against the infinite
        # operator's propagation; doubling the radius keeps the check's
        # outcome, since radius >= 1 iff 2 * radius >= 1
        idx2 = constant_cycle_index(k, Window(radius=2 * args.window, margin=args.margin))
        report.checks.append(
            CheckResult(
                "index pairing stable under window doubling",
                idx == idx2,
                {"class": k, "index": idx, "index_doubled_window": idx2},
                verbose=True,
            )
        )
    dumps["u"] = cu.u
    return _emit(report, args, dumps)


# ---------------------------------------------------------------------------
# scenario runner


def cmd_verify(args) -> int:
    reports = run_all(
        seed=args.seed, scenario=args.scenario, strict_matching=args.strict_matching
    )
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=1, sort_keys=True))
    else:
        for r in reports:
            print("\n".join(r.render()))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# wiring


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsek",
        description="exact maps from graph homology to operator K-theory classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="homology of a graph file")
    p_hom.add_argument("--graph", required=True)
    p_hom.add_argument("--json", action="store_true")
    p_hom.set_defaults(fn=cmd_homology)

    for name, fn in (("k0-map", cmd_k0), ("k1-map", cmd_k1)):
        p = sub.add_parser(name, help=f"run the {name} construction and checks")
        p.add_argument("--graph", required=True)
        p.add_argument("--chain", required=True)
        p.add_argument(
            "--window", type=_nonnegative, default=16, help="central radius"
        )
        p.add_argument("--margin", type=_nonnegative, default=8)
        p.add_argument("--dump", metavar="DIR", help="write operator dumps")
        p.add_argument("--json", action="store_true")
        if name == "k1-map":
            p.add_argument("--matching", help="matching override file")
            p.add_argument(
                "--strict-matching",
                action="store_true",
                help="count the two-conjugation route as a hard failure",
            )
        p.set_defaults(fn=fn)

    p_ver = sub.add_parser("verify", help="run the built-in scenario suite")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_ver.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    p_ver.add_argument(
        "--strict-matching",
        action="store_true",
        help="count the two-conjugation route as a hard failure",
    )
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    # only int attributes are levels: COARSEK_LOG=basic_format names a string
    level = getattr(logging, os.environ.get("COARSEK_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dump", None) == "":
        parser.error("argument --dump: expected a directory, got an empty path")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed early fails here, not at exit
        return code
    except (InputError, GraphError, ChainError, MarginError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # as the signal module docs advise for SIGPIPE: point stdout at
        # devnull so the flush at exit cannot fail again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
