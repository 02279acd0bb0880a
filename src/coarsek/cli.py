"""Command line front end.

Subcommands: ``homology`` (chain-level invariants of a graph), ``k0-map``
and ``k1-map`` (the degree-0/degree-1 constructions, certified by the
pipelines of ``scenarios``), ``verify`` (the built-in scenario runner).
This module validates the input, admits a request, builds the operators
whose construction can reject the input, and writes the output.  Reports go
to stdout, human readable by default or as JSON with --json.  Exit codes:
0 all checks passed, 1 a check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
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
    free_abelian,
    homology_finite,
    json_int,
    uniform_bound,
)
from .graphs import GraphError, OrientedGraph, graph_from_json
from .k1_map import NonCycleError, cycle_unitary, line_cycle_unitary, permuted_matching
from .operators import MarginError, OperatorError, Window, dump_lines, operator_to_json
from .scenarios import (
    DEFAULT_SEED,
    SCENARIOS,
    Report,
    certify_k0,
    certify_k1,
    run_all,
)

log = logging.getLogger("coarsek")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

#: Largest work estimate that k0-map and k1-map accept (see _admit).
#: A unit is one window vertex, ordinal slot or expanded edge copy.  Measured
#: on a 2-vCPU Xeon, Python 3.11: requests near the limit take under 2 s and
#: 0.2 GB (k1-map on the line, k = 2000, radius 16, is 96k units, 1.7 s,
#: 161 MB), against 577 units for the largest benchmark request.
MAX_WORK = 100_000

#: The window radius and margin on the line when --window or --margin is not
#: given.
LINE_RADIUS, LINE_MARGIN = 16, 8

#: The write buffer of each dump file.  The writers hand over one chunk per
#: vertex, and the default 8 KiB buffer would pass nearly each chunk to the
#: kernel in a write call of its own: 443 calls for k1-map --dump on a cycle
#: of 80 with coefficient 2, against 19 with this buffer.
_DUMP_BUFFER = 1 << 18


class InputError(Exception):
    pass


def _load_json_file(path: str) -> dict:
    def unique(pairs):
        # json keeps the last of two equal keys; a file is refused instead
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror}")
    except json.JSONDecodeError as exc:  # a ValueError: caught before the others
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, too long an int, too deep
        raise InputError(f"{path}: not readable as JSON: {exc}")
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
    length: the vertices plus the slots over them.  See _work; on the
    line it is the window's vertices plus |k| copies per cell for k1-map
    (spread over the vertices with a dump) and uniform_bound - 1 ordinals
    per vertex for k0-map."""
    if estimate > MAX_WORK:
        raise InputError(
            f"request too large: estimated work {estimate} exceeds the limit "
            f"{MAX_WORK} (MAX_WORK in coarsek.cli)"
        )
    if dump:
        _dump_operators(dump, {})  # makes the directory or fails


def _work(n: int, copies: int, spread: bool) -> int:
    """n vertices plus the expanded edge copies over them (on a finite
    graph the sum of |coefficients|), or with spread every vertex times one
    plus the copies: a dump lists the whole vertex-by-slot basis, and the
    forest witness of a boundary carries each unit of its chain along at
    most |V| - 1 tree edges."""
    return n * (1 + copies) if spread else n + copies


def _refuse_window_options(args) -> None:
    """--window and --margin size the window of the line; a finite graph
    has none, so either one given with it is an input error."""
    for flag, value in (("--window", args.window), ("--margin", args.margin)):
        if value is not None:
            raise InputError(f"{flag}: a finite graph takes no window, got {value}")


def _line_window(args) -> Window:
    """The window of a request on the line: radius 16 and margin 8 unless
    --window or --margin says otherwise."""
    radius = LINE_RADIUS if args.window is None else args.window
    return Window(radius=radius, margin=LINE_MARGIN if args.margin is None else args.margin)


def _window_vertices(window: Window) -> int:
    return window.hi - window.lo + 1


def _dump_operators(directory: str, named_ops: dict) -> None:
    """Write NAME.txt and NAME.json for each operator.  A full disk may
    surface only when a buffered file closes; that is inside the try too."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
        for name, op in named_ops.items():
            for suffix, writer in ((".txt", dump_lines), (".json", operator_to_json)):
                path = Path(directory, name + suffix)
                with open(
                    path, "w", buffering=_DUMP_BUFFER, encoding="utf-8", newline="\n"
                ) as fh:
                    writer(op, fh)
    except OSError as exc:
        raise InputError(f"cannot write dumps to {directory}: {exc}")


def _emit(args, report: Report, dumps: dict) -> int:
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


#: Writes each H1 basis chain as ",\n   "-joined items (see _homology_json)
_BASIS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": "))


def _homology_json(payload: dict) -> str:
    r"""json.dumps(payload, indent=1, sort_keys=True), with the H1 basis
    written by one C-encoder call, not the pure-Python indent=1 encoder.
    An encoded key holds no raw newline, so "},\n   {" only ever joins two
    chains.  A basis chain is never empty."""
    basis = _BASIS_ENCODER.encode(payload["h1_basis"])
    if basis != "[]":
        basis = "[\n  {\n   " + basis[2:-2].replace("},\n   {", "\n  },\n  {\n   ") + "\n  }\n ]"
    text = json.dumps({**payload, "h1_basis": []}, indent=1, sort_keys=True)
    return text.replace('"h1_basis": []', '"h1_basis": ' + basis, 1)


def cmd_homology(args) -> int:
    g = _load_graph(args.graph)
    if isinstance(g, OrientedGraph):
        res = homology_finite(g)
        h0 = free_abelian(res.h0_rank)
        payload = {
            "h0": h0,
            "h0_torsion": [],  # an incidence matrix is totally unimodular
            "h0_free_rank": res.h0_rank,
            "h1_rank": len(res.h1_basis),
            "h1_basis": [{str(k): v for k, v in b.coeffs.items()} for b in res.h1_basis],
        }
        if args.json:
            print(_homology_json(payload))
        else:
            print(f"H0 = {h0}")
            print(f"H1 rank = {len(res.h1_basis)}")
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
    window = None
    if isinstance(g, OrientedGraph):
        _refuse_window_options(args)
        if not isinstance(chain, Chain0):
            raise InputError("the degree-0 map needs a degree-0 chain")
        copies = sum(map(abs, chain.coeffs.values()))
        _admit(_work(len(g.vertices), copies, True), args.dump)
    else:
        if not isinstance(chain, BandedZChain) or chain.degree != 0:
            raise InputError("banded graphs need a banded degree-0 chain")
        window = _line_window(args)
        _admit(_window_vertices(window) * uniform_bound(chain), args.dump)
    return _emit(args, *certify_k0(g, chain, window))


# ---------------------------------------------------------------------------
# degree-1 map


def _named_noncycle_vertex(chain: BandedZChain) -> int:
    d = boundary(chain)
    for i in range(d.window_start, d.window_end):
        if d.value(i):
            return i
    return d.window_start


def _bad_matching(path: str, exc: Exception) -> InputError:
    return InputError(f"{path}: bad matching override: {exc}")


def _load_positions(path: str, g: OrientedGraph) -> dict:
    """The per-vertex permutations of a matching file, read before anything
    is built; permuted_matching checks them against the expanded graph."""
    data = _load_json_file(path)
    lookup = {str(v): v for v in g.vertices}
    try:
        if "positions" not in data:
            raise ValueError("the top-level object has no key 'positions'")
        data = data["positions"]
        if not isinstance(data, dict):
            raise ValueError(f"positions must be an object, got {data!r}")
        positions = {}
        for key, val in data.items():
            if not isinstance(val, list):
                raise ValueError(f"positions[{key!r}] must be a list, got {val!r}")
            if key not in lookup:
                raise ValueError(f"not a vertex: {key!r}")
            positions[lookup[key]] = tuple(
                json_int(p, f"positions[{key!r}][{j}]") for j, p in enumerate(val)
            )
    except ValueError as exc:
        raise _bad_matching(path, exc)
    return positions


def cmd_k1(args) -> int:
    if args.strict_matching and not args.matching:
        raise InputError("--strict-matching needs a --matching file")
    g = _load_graph(args.graph)
    chain = _load_chain(args.chain, g if isinstance(g, OrientedGraph) else None)
    beta = None
    if isinstance(g, OrientedGraph):
        _refuse_window_options(args)
        if not isinstance(chain, Chain1):
            raise InputError("the degree-1 map needs a degree-1 chain")
        positions = _load_positions(args.matching, g) if args.matching else None
        copies = sum(map(abs, chain.coeffs.values()))
        _admit(_work(len(g.vertices), copies, bool(args.dump)), args.dump)
        try:
            cu = cycle_unitary(chain)
        except NonCycleError as exc:
            raise InputError(str(exc))
        if positions is not None:
            try:
                beta = permuted_matching(cu.expanded, positions)
            except ValueError as exc:
                raise _bad_matching(args.matching, exc)
    else:
        if args.matching:
            raise InputError(f"--matching: the line takes no matching file, got {args.matching}")
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
        window = _line_window(args)
        n = _window_vertices(window)
        _admit(_work(n, abs(k) * (n - 1), bool(args.dump)), args.dump)
        cu = line_cycle_unitary(k, window)
    return _emit(args, *certify_k1(chain, cu, beta, args.strict_matching))


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state that parsing
    changes (no append action, no mutable default, a fixed prog)."""
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
            "--window", type=_nonnegative, help=f"central radius on the line (default {LINE_RADIUS})"
        )
        p.add_argument(
            "--margin", type=_nonnegative, help=f"window margin on the line (default {LINE_MARGIN})"
        )
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
