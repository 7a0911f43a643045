"""Span tracing around the library's layer entry points.

`Tracer.install()` replaces the public functions listed in LAYERS with
wrappers on their modules, so every caller that looks them up through the
module (``graphs.build_cayley_graph``, ``quandles.verify_quandle_axioms``,
...) records a span: name, start, end and parent.  A layer's self time is
the duration of its spans minus the time their child spans cover.
Functions not listed count toward the self time of their caller.
"""
from __future__ import annotations

import functools
import importlib
import time

# layer -> (module, functions)
LAYERS = {
    "groups.build": ("groups", (
        "make_cyclic", "make_direct_product", "make_abelian", "make_dihedral",
        "make_symmetric", "abelian_group_types")),
    "groups.automorphisms": ("groups", (
        "enumerate_automorphisms", "identity_automorphism", "inner_automorphism",
        "negation_automorphism", "matrix_automorphism")),
    "groups.predict": ("groups", (
        "image_id_minus_t", "fixed_point_subgroup", "cosets",
        "commutator_subgroup_with", "is_normal", "conjugacy_classes",
        "subgroup_generated")),
    "quandles.construct": ("quandles", (
        "trivial_quandle", "conjugation_quandle", "core_quandle",
        "dihedral_quandle", "alexander_quandle", "generalized_alexander_quandle",
        "quandle_from_json")),
    "quandles.axioms": ("quandles", ("verify_quandle_axioms",)),
    "quandles.orbit": ("quandles", ("forward_orbit", "inner_group")),
    "quandles.involutory": ("quandles", ("is_involutory",)),
    "graphs.build": ("graphs", (
        "build_cayley_graph", "complete_graph", "takasaki_z_window",
        "graph_from_json")),
    "graphs.scc": ("graphs", (
        "strongly_connected_components", "weakly_connected_components")),
    "graphs.predicates": ("graphs", (
        "degrees", "is_symmetric", "is_complete", "is_edgeless")),
    "graphs.subgraph": ("graphs", ("induced_subgraph",)),
    "graphs.diameter": ("graphs", ("component_diameter",)),
    "graphs.iso": ("graphs", ("find_isomorphism",)),
    "graphs.export": ("graphs", ("export_graph",)),
    "specs.parse": ("specs", (
        "parse_group_spec", "parse_quandle_string", "make_quandle_spec")),
    "specs.build": ("specs", (
        "build_group", "group_from_string", "build_quandle",
        "resolve_automorphism")),
    "verify.checks": ("verify", (
        "run_suite", "format_reports", "check_axioms", "check_trivial_edgeless",
        "check_conjugation_components", "check_dihedral_quandle",
        "check_takasaki_window", "check_alexander_components",
        "check_alexander_iso_corollary", "check_generalized_regularity",
        "check_orbit_coset", "check_dihedral_inner_example",
        "check_s4_example")),
    "cli.main": ("cli", ("main",)),
}

LAYER_OF = {f"{m}.{f}": layer for layer, (m, funcs) in LAYERS.items() for f in funcs}

# an axiom scan whose parent span is one of these validates a table the
# library derived itself; any other caller hands it outside data
FAMILY_CONSTRUCTORS = frozenset(
    f"quandles.{f}" for f in LAYERS["quandles.construct"][1]
    if f != "quandle_from_json")

COUNTERS = (
    "groups.automorphisms.found",
    "quandles.axioms.cells",
    "quandles.axioms.derived_calls",
    "quandles.axioms.raw_calls",
    "graphs.build.edges",
    "graphs.scc.vertices",
    "graphs.iso.found",
    "graphs.iso.not_found",
    "graphs.export.bytes",
)


def _count(counters: dict, spans: list, span: list, args, result) -> None:
    """Work counters, keyed by the span's function name."""
    name = span[0]
    if name == "groups.enumerate_automorphisms":
        counters["groups.automorphisms.found"] += len(result)
    elif name == "quandles.verify_quandle_axioms":
        n = len(args[0])
        counters["quandles.axioms.cells"] += n ** 3
        parent = spans[span[3]][0] if span[3] >= 0 else None
        kind = "derived_calls" if parent in FAMILY_CONSTRUCTORS else "raw_calls"
        counters["quandles.axioms." + kind] += 1
    elif LAYER_OF[name] == "graphs.build":
        counters["graphs.build.edges"] += result.edge_count
    elif name in ("graphs.strongly_connected_components",
                  "graphs.weakly_connected_components"):
        counters["graphs.scc.vertices"] += args[0].n
    elif name == "graphs.find_isomorphism":
        counters["graphs.iso.found" if result is not None else "graphs.iso.not_found"] += 1
    elif name == "graphs.export_graph":
        counters["graphs.export.bytes"] += len(result.encode())


class Tracer:
    """Records spans as [name, start, end, parent index] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _count(counters, spans, span, args, result)
            return result

        return traced

    def install(self, package: str = "quandle_cayley") -> None:
        for module_name, funcs in LAYERS.values():
            module = importlib.import_module(f"{package}.{module_name}")
            for f in funcs:
                original = getattr(module, f)
                self._saved.append((module, f, original))
                setattr(module, f, self.wrap(f"{module_name}.{f}", original))

    def uninstall(self) -> None:
        for module, f, original in reversed(self._saved):
            setattr(module, f, original)
        self._saved.clear()


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the durations of its direct children.
    Spans nest (one thread), so the children cover disjoint intervals."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, counters: dict) -> dict:
    """`<layer>.calls` and `<layer>.self_s` for every layer, plus counters."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        layer = LAYER_OF[span[0]]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += own
    out.update(counters)
    return out
