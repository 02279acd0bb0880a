"""Span tracer for the traced benchmark run.

Wrappers defined here replace coarsek's public functions in every
``coarsek`` module namespace that holds them (``cli`` and ``scenarios``
import names with ``from .x import f``), so spans are recorded around the
calls into each layer without touching the package's source.  The cyclic
garbage collector is traced as its own layer through ``gc.callbacks``.

A span records its name, start, end, parent span and request id.  Spans stay
in memory and are written out by the caller when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans, so
collector pauses inside a call count for ``gc`` and not for the caller.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

BOOKKEEPING = "trace.bookkeeping"  # counter work of the tracer itself


class CoverageError(RuntimeError):
    pass


def _operator_sizes(counts, args, out):
    u = out.u
    moved = sum(1 for (r, c) in u.entries if r != c)
    counts["operators.basis_vectors"] += len(u.domain)
    counts["operators.stored_entries"] += len(u.entries)
    counts["operators.moved_entries"] += moved


def _incidence_cells(counts, args, out):
    g = args[0]
    counts["chains.incidence_cells"] += len(g.vertices) * len(g.edges)


def _expanded_edges(counts, args, out):
    counts["k0_map.expanded_edges"] += len(out.edges)


def _conjugator_search(counts, args, out):
    report = out.to_json()
    obstruction = report.get("literal_v_obstruction") or ""
    if report.get("literal_v_identity") is not None or obstruction.startswith("search"):
        counts["k1_map.conjugator_searches"] += 1
    if obstruction == "search budget exceeded":
        counts["k1_map.conjugator_budget_exhausted"] += 1


SCENARIO_CHECKS = (
    "check_unitarity_corpus",
    "check_propagation_corpus",
    "check_witness_corpus",
    "check_k0_signatures",
    "check_matching_independence",
    "check_compression",
    "check_line_isomorphism",
    "check_line_h0_quotient",
    "check_line_homology",
    "check_edgeless_line",
    "check_homology_engine",
)

# (module, attribute, span name, counter); "Class.method" wraps a method
TARGETS = (
    ("graphs", "graph_from_json", "graphs.graph_from_json", None),
    ("chains", "homology_finite", "chains.homology_finite", _incidence_cells),
    ("chains", "solve_boundary_finite", "chains.solve_boundary_finite", _incidence_cells),
    ("chains", "is_cycle", "chains.is_cycle", None),
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form", None),
    ("intlinalg", "rank", "intlinalg.rank", None),
    ("k0_map", "expand_graph", "k0_map.expand_graph", _expanded_edges),
    ("k0_map", "build_projection_pair", "k0_map.build_projection_pair", None),
    ("k0_map", "boundary_witness", "k0_map.boundary_witness", None),
    ("k1_map", "line_cycle_unitary", "k1_map.line_cycle_unitary", _operator_sizes),
    ("k1_map", "cycle_unitary", "k1_map.cycle_unitary", _operator_sizes),
    ("k1_map", "compress_to_uniform", "k1_map.compress_to_uniform", None),
    (
        "k1_map",
        "verify_matching_independence",
        "k1_map.verify_matching_independence",
        _conjugator_search,
    ),
    ("operators", "SparseBlockOperator.__init__", "operators.construct", None),
    ("operators", "SparseBlockOperator.compose", "operators.compose", None),
    ("operators", "is_unitary_on", "operators.is_unitary_on", None),
    ("operators", "index_pairing", "operators.index_pairing", None),
    ("operators", "dump_lines", "operators.dump", None),
    ("operators", "operator_to_json", "operators.dump", None),
) + tuple(("scenarios", c, f"scenarios.{c}", None) for c in SCENARIO_CHECKS)

# every public function defined in these modules is one span name
WHOLE_MODULES = ("corpus",)

TIMED = (
    "operators.index_pairing",
    "operators.is_unitary_on",
    "operators.compose",
    "operators.construct",
    "operators.dump",
    "k1_map.line_cycle_unitary",
    "k1_map.cycle_unitary",
    "k1_map.compress_to_uniform",
    "k1_map.verify_matching_independence",
    "chains.homology_finite",
    "chains.solve_boundary_finite",
    "chains.is_cycle",
    "intlinalg.smith_normal_form",
    "intlinalg.rank",
    "k0_map.expand_graph",
    "k0_map.build_projection_pair",
    "k0_map.boundary_witness",
    "graphs.graph_from_json",
    "corpus",
    "gc",
) + tuple(f"scenarios.{c}" for c in SCENARIO_CHECKS)
CALLED = ("operators.construct", "chains.homology_finite", "intlinalg.smith_normal_form")
COUNTED = (
    "operators.basis_vectors",
    "operators.stored_entries",
    "operators.moved_entries",
    "chains.incidence_cells",
    "k0_map.expanded_edges",
    "cli.dump_bytes",
    "k1_map.conjugator_searches",
    "k1_map.conjugator_budget_exhausted",
)


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit and the
    direction that is better."""
    out = {f"{name}.s": ("s", "lower") for name in TIMED}
    out["gc.collections"] = ("count", "lower")
    out.update({f"{name}.calls": ("count", "lower") for name in CALLED})
    out.update({name: ("count", "lower") for name in COUNTED})
    out["cli.dump_bytes"] = ("bytes", "lower")
    out["cli.self_s"] = ("s", "lower")
    out["operators.moved_share"] = ("ratio", "higher")
    out["trace_overhead_share"] = ("ratio", "lower")
    return out


def _targets() -> list:
    """(module, attribute, span name, counter) of every wrapped function."""
    out = list(TARGETS)
    for module in WHOLE_MODULES:
        mod = importlib.import_module(f"coarsek.{module}")
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and fn.__module__ == mod.__name__
            ):
                out.append((module, attr, module, None))
    return out


class Tracer:
    def __init__(self):
        # closed spans: (id, name, start, end, parent id, request id), kept as
        # tuples of atoms so the collector stops tracking them and the
        # program's collections do not grow with the trace
        self.spans: list = []
        self.stack: list = []  # open spans: (id, name, start, parent id)
        self.next_id = 0
        self.request = None
        self.counts: dict = defaultdict(Counter)  # pass index -> counters
        self.pass_index = None
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((self.next_id, name, time.perf_counter(), parent))
        self.next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start, parent = self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.request))

    def add(self, metric: str, value) -> None:
        self.counts[self.pass_index][metric] += value

    def _on_gc(self, phase, info):
        if phase == "start":
            if self.request is not None:
                self.open("gc")
        elif self.stack and self.stack[-1][1] == "gc":
            self.close()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                tracer.open(BOOKKEEPING)
                counter(tracer.counts[tracer.pass_index], args, out)
                tracer.close()
            return out

        return traced

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "coarsek" or mod_name.startswith("coarsek.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def install(self) -> None:
        """Wrap every target; raises CoverageError naming a listed function
        that no longer exists."""
        for module, attr, name, counter in _targets():
            mod = importlib.import_module(f"coarsek.{module}")
            cls_name, _, key = attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            original = vars(owner).get(key) if owner is not None else None
            if original is None:
                raise CoverageError(f"coarsek.{module}.{attr} (span {name}) not found")
            wrapper = self._wrap(name, original, counter)
            if cls_name:
                setattr(owner, key, wrapper)
                self._patches.append((owner, key, original))
            else:
                self._patch_everywhere(original, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(span[1] for span in self.spans)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of every traced pass: pass index -> metrics."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(Counter)
        for sid, name, start, end, parent, request in self.spans:
            p = request[0]
            self_s[p][name] += end - start - child[sid]
            calls[p][name] += 1
        out = {}
        for p in self_s:
            m = {f"{name}.s": self_s[p][name] for name in TIMED}
            m["cli.self_s"] = self_s[p]["cli.main"]
            m["gc.collections"] = calls[p]["gc"]
            m.update({f"{name}.calls": calls[p][name] for name in CALLED})
            m.update({name: self.counts[p][name] for name in COUNTED})
            stored = m["operators.stored_entries"]
            m["operators.moved_share"] = (
                m["operators.moved_entries"] / stored if stored else 0.0
            )
            out[p] = m
        return out


def median_metrics(per_pass: dict) -> dict:
    """Median over passes of each metric."""
    passes = list(per_pass.values())
    return {k: statistics.median(m[k] for m in passes) for k in passes[0]}
