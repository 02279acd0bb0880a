"""Which package functions do the commands never reach, and which result
fields does no code read?

Runs tests/test_cli.py and tests/test_golden_outputs.py in this process
with a profile hook that records every function entered while
coarsek.cli.main runs, then lists each function defined in src/coarsek that
was never entered and is not on the allowlist below.  The Hypothesis fuzz
tests are left out, so the result does not depend on random draws.

Four checks read the source instead: coarsek/__init__.py imports nothing
from the package (each module is its own import path), every field of a
package dataclass or NamedTuple is read as `.field` somewhere in
src/coarsek or perfbench, unless the field allowlist names it, every
name a package module imports is used in that module, and every entry of
either allowlist names a function or field the package still has.

    PYTHONPATH=src python tests/surface_scan.py

Exits 0 when every function off the allowlist was entered and the source
checks pass, 1 naming what failed, and with pytest's code when the tests
themselves fail.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

import coarsek
import coarsek.cli

TESTS = Path(__file__).resolve().parent
SUITES = ("test_cli.py", "test_golden_outputs.py")
PACKAGE = Path(coarsek.__file__).resolve().parent
READERS = (PACKAGE, TESTS.parent / "perfbench")  # whose `.field` reads count

# functions the commands need not enter, and the functions nested in them,
# each with the reason it stays
ALLOWED = {
    "operators.SparseBlockOperator.entries": "perfbench reads it to count entries",
    "operators._check_each": "the constructor's refusal path",
    "scenarios._timed": "it decorates the checks at import",
}
ALLOWED_NAMES = ("__repr__", "__hash__")

# result fields that no package or perfbench code need read, with reasons
WITNESS_OPERATOR = (
    "the differential tests compare each trusted witness with "
    "helpers.reference_witness through it, and the live checks pick the "
    "operator to fault through it"
)
FIELDS_ALLOWED = {
    f"k0_map.BoundaryWitness.{name}": WITNESS_OPERATOR
    for name in (
        "source_projection",
        "target_projection",
        "in_rank_projection",
        "out_rank_projection",
        "exchange_in",
        "exchange_out",
    )
}


def _codes(prefix: str, fn) -> dict:
    """The code of fn and of every named function nested in it."""
    fn = inspect.unwrap(fn)
    out = {}
    stack = [(prefix, fn.__code__)]
    while stack:
        name, code = stack.pop()
        out[code] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                stack.append((f"{name}.{const.co_name}", const))
    return out


def _members(owner) -> list:
    """(name, function) of each function, method, property and cached
    property defined on owner."""
    out = []
    for name, obj in vars(owner).items():
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            out += [(name, f) for f in (obj.fget, obj.fset, obj.fdel) if f]
        elif isinstance(obj, cached_property):
            out.append((name, obj.func))
        elif inspect.isfunction(obj):
            out.append((name, obj))
    return out


def package_functions() -> dict:
    """Code object -> dotted name (module.qualname) of every function
    written in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(coarsek.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        mod = importlib.import_module(f"coarsek.{info.name}")
        here = {}
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, fn in _members(obj):
                    here.update(_codes(f"{info.name}.{name}.{attr}", fn))
            elif inspect.isfunction(obj):
                here.update(_codes(f"{info.name}.{name}", obj))
        # generated methods (dataclass, NamedTuple) have no source here
        found.update((c, n) for c, n in here.items() if c.co_filename == mod.__file__)
    return found


def entered_under_main(args: list) -> tuple[int, set]:
    """Run pytest on args; return its exit code and the code objects
    entered while coarsek.cli.main was on the stack."""
    main_code = coarsek.cli.main.__code__
    entered: set = set()
    depth = 0

    def hook(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code is main_code:
                depth += 1
            if depth:
                entered.add(frame.f_code)
        elif event == "return" and frame.f_code is main_code:
            depth -= 1

    sys.setprofile(hook)
    try:
        code = pytest.main(args)
    finally:
        sys.setprofile(None)
    return int(code), entered


def reexports() -> list:
    """The names coarsek/__init__.py imports from the package."""
    out = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("coarsek"):
                out += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.asname or a.name for a in node.names if a.name.startswith("coarsek")]
    return out


def unused_imports() -> list:
    """module.name of every name a package module imports but never uses."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [
            (a.asname or a.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{path.stem}.{name}" for name in imported if name not in used]
    return out


def result_fields() -> list:
    """Dotted name (module.class.field) of every field of a dataclass or
    NamedTuple written in a module of the package."""
    out = []
    for info in pkgutil.iter_modules(coarsek.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"coarsek.{info.name}")
        for name, obj in vars(mod).items():
            if not inspect.isclass(obj) or obj.__module__ != mod.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                names = [f.name for f in dataclasses.fields(obj)]
            elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                names = list(obj._fields)
            else:
                continue
            out += [f"{info.name}.{name}.{f}" for f in names]
    return out


def attributes_read() -> set:
    """Every attribute name loaded as `x.name` in the package and perfbench."""
    return {
        node.attr
        for root in READERS
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def stale_entries(funcs: dict, fields: list) -> list:
    """The allowlist entries that name no package function or field."""
    names = set(funcs.values())
    return [a for a in ALLOWED if a not in names] + [f for f in FIELDS_ALLOWED if f not in fields]


def allowed(name: str) -> bool:
    return name.rpartition(".")[2] in ALLOWED_NAMES or any(
        name == a or name.startswith(a + ".") for a in ALLOWED
    )


def main() -> int:
    bound = reexports()
    read = attributes_read()
    fields = result_fields()
    unread = [f for f in fields if f.rpartition(".")[2] not in read]
    print(f"surface scan: __init__.py re-exports {len(bound)} names")
    for name in bound:
        print(f"  re-exported: {name}")
    print(f"surface scan: {len(fields)} result fields, {len(fields) - len(unread)} read as .field")
    for name in unread:
        state = "allowed, not read" if name in FIELDS_ALLOWED else "never read"
        print(f"  {state}: {name}")
    unused = unused_imports()
    print(f"surface scan: {len(unused)} imported names unused")
    for name in unused:
        print(f"  imported, never used: {name}")
    funcs = package_functions()
    stale = stale_entries(funcs, fields)
    print(f"surface scan: {len(stale)} allowlist entries name nothing")
    for name in stale:
        print(f"  stale allowlist entry: {name}")
    static_faults = (
        bool(bound) or bool(unused) or bool(stale) or any(f not in FIELDS_ALLOWED for f in unread)
    )

    code, entered = entered_under_main(
        [str(TESTS / s) for s in SUITES] + ["-q", "-p", "no:cacheprovider"]
    )
    if code:
        print(f"surface scan: the tests failed (pytest exit {code})", file=sys.stderr)
        return code
    unentered = [name for c, name in funcs.items() if c not in entered]
    missed = sorted(n for n in unentered if not allowed(n))
    allowed_names = sorted(n for n in unentered if allowed(n))
    print(f"surface scan: {len(funcs)} package functions, {len(entered & funcs.keys())} entered by cli.main")
    for name in allowed_names:
        print(f"  allowed, not entered: {name}")
    for name in missed:
        print(f"  never entered: {name}")
    return 1 if missed or static_faults else 0


if __name__ == "__main__":
    sys.exit(main())
