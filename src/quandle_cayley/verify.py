"""Mechanical verification of structural facts about quandle Cayley graphs.

Each checker builds the relevant quandle(s) and graph(s) from scratch,
computes the predicted structure by an independent route (cosets, orbits,
conjugacy classes, explicit formulas), and compares the two exhaustively.
A checker never assumes what it is checking; a failed comparison comes
back as a report with a concrete witness.
"""
from __future__ import annotations

import importlib.resources
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import graphs as gr
from . import groups as G
from . import quandles as Q
from . import specs

CHECK_IDS = (
    "axioms",
    "trivial_edgeless",
    "conjugation",
    "dihedral",
    "takasaki",
    "alexander_components",
    "alexander_iso",
    "regularity",
    "orbit_coset",
    "dihedral_inner",
    "s4_example",
)

# unordered automorphism pairs are swept only below this Aut-group size
_ISO_PAIR_AUT_CAP = 100


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    instance: str
    passed: bool
    witness: object = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "passed": self.passed,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }


def _report(tid: str, instance: str, start: float, failures: list) -> VerificationReport:
    return VerificationReport(
        theorem_id=tid,
        instance=instance,
        passed=not failures,
        witness=failures[0] if failures else None,
        elapsed=time.perf_counter() - start,
    )


def _merge(tid: str, instance: str, reports: list[VerificationReport]) -> VerificationReport:
    bad = [r for r in reports if not r.passed]
    witness = None
    if bad:
        witness = {"sub_instance": bad[0].instance, "detail": bad[0].witness,
                   "failed": len(bad), "of": len(reports)}
    return VerificationReport(
        theorem_id=tid,
        instance=instance,
        passed=not bad,
        witness=witness,
        elapsed=sum(r.elapsed for r in reports),
    )


def _partition_sets(blocks) -> set:
    return {frozenset(int(v) for v in b) for b in blocks}


# -- individual checkers -----------------------------------------------------


def check_axioms(label: str, table) -> VerificationReport:
    """Axiom scan plus the right-translation automorphism property."""
    start = time.perf_counter()
    failures = []
    report = Q.verify_quandle_axioms(table)
    if not report.ok:
        failures.append({
            "axioms": {
                "idempotent": report.idempotent,
                "right_invertible": report.right_invertible,
                "self_distributive": report.self_distributive,
            },
            "witness": next(w for w in (report.idempotency_witness,
                                        report.invertibility_witness,
                                        report.distributivity_witness)
                            if w is not None),
        })
    else:
        # the scan above accepted the table, so it is not scanned again
        rhd = np.asarray(table, dtype=np.int64)
        for b in range(rhd.shape[0]):
            bad = Q.translation_defect(rhd, b)
            if bad is not None:
                failures.append({"translation_not_automorphism": (b, *bad)})
                break
    return _report("axioms", label, start, failures)


def check_trivial_edgeless(n: int) -> VerificationReport:
    """Loops-only is exactly triviality: T_n edgeless, non-trivial peers not."""
    start = time.perf_counter()
    failures = []
    triv = Q.trivial_quandle(n)
    if not gr.is_edgeless(gr.build_cayley_graph(triv)):
        failures.append({"trivial_not_edgeless": n})
    candidates = []
    if n >= 3:
        candidates.append(Q.dihedral_quandle(n))
    if n == 6:
        candidates.append(Q.conjugation_quandle(G.make_symmetric(3)))
    if n == 24:
        candidates.append(Q.conjugation_quandle(G.make_symmetric(4)))
    for q in candidates:
        if (q.rhd == triv.rhd).all():
            continue
        if gr.is_edgeless(gr.build_cayley_graph(q)):
            failures.append({"nontrivial_but_edgeless": q.label})
    return _report("trivial_edgeless", f"n={n}", start, failures)


def check_conjugation_components(g: G.FiniteGroup) -> VerificationReport:
    """Conj(g): symmetric graph whose components are the conjugacy classes,
    each inducing a complete subgraph."""
    start = time.perf_counter()
    failures = []
    graph = gr.build_cayley_graph(Q.conjugation_quandle(g))
    if not gr.is_symmetric(graph):
        m = graph.matrix()
        u, v = np.argwhere(m != m.T)[0]
        failures.append({"asymmetric_edge": (int(u), int(v))})
    comps = gr.strongly_connected_components(graph)
    classes = G.conjugacy_classes(g)
    if comps.as_sets() != _partition_sets(classes):
        failures.append({
            "components": [list(c) for c in comps.components],
            "conjugacy_classes": [list(c) for c in classes],
        })
    for comp in comps.components:
        if not gr.is_complete(gr.induced_subgraph(graph, comp)):
            failures.append({"incomplete_component": list(comp)})
            break
    return _report("conjugation", f"Conj({g.label})", start, failures)


def check_dihedral_quandle(n: int) -> VerificationReport:
    """R_n: K_n for odd n; two K_{n/2} on the parity classes for even n."""
    start = time.perf_counter()
    failures = []
    graph = gr.build_cayley_graph(Q.dihedral_quandle(n))
    comps = gr.strongly_connected_components(graph)
    if n % 2 == 1:
        expected = {frozenset(range(n))}
    else:
        expected = {frozenset(range(0, n, 2)), frozenset(range(1, n, 2))}
    if comps.as_sets() != expected:
        failures.append({"components": [list(c) for c in comps.components]})
    for comp in comps.components:
        sub = gr.induced_subgraph(graph, comp)
        if not gr.is_complete(sub):
            failures.append({"incomplete_component": list(comp)})
        elif gr.find_isomorphism(sub, gr.complete_graph(len(comp))) is None:
            failures.append({"not_isomorphic_to_complete": list(comp)})
    return _report("dihedral", f"n={n}", start, failures)


def check_takasaki_window(w: int) -> VerificationReport:
    """Window [-w, w] of the integer quandle: the edge predicate matches
    direct solvability of c = 2b - a, and parity classes are the complete
    components."""
    start = time.perf_counter()
    failures = []
    for a in range(-w, w + 1):
        for c in range(-w, w + 1):
            direct = any(2 * b - a == c for b in range(-3 * w, 3 * w + 1))
            if direct != gr.takasaki_z_edge(a, c):
                failures.append({"edge_mismatch": (a, c)})
    graph = gr.takasaki_z_window(w)
    if not gr.is_symmetric(graph):
        failures.append({"not_symmetric": w})
    comps = gr.strongly_connected_components(graph)
    values = list(range(-w, w + 1))
    evens = frozenset(i for i, v in enumerate(values) if v % 2 == 0)
    odds = frozenset(i for i, v in enumerate(values) if v % 2 != 0)
    expected = {s for s in (evens, odds) if s}
    if comps.as_sets() != expected:
        failures.append({"components": [list(c) for c in comps.components]})
    for comp in comps.components:
        if not gr.is_complete(gr.induced_subgraph(graph, comp)):
            failures.append({"incomplete_component": list(comp)})
    return _report("takasaki", f"w={w}", start, failures)


def _auto_desc(t: G.Automorphism) -> list[int]:
    return [int(v) for v in t.mapping]


def check_alexander_components(g: G.FiniteGroup, t: G.Automorphism) -> VerificationReport:
    """A_t(g): components are the cosets of im(id - t), all complete, and
    the count is |g| divided by the image size."""
    start = time.perf_counter()
    failures = []
    graph = gr.build_cayley_graph(Q.alexander_quandle(g, t))
    image = G.image_id_minus_t(g, t)
    part = G.cosets(g, image, side="left")
    comps = gr.strongly_connected_components(graph)
    if comps.as_sets() != part.as_sets():
        failures.append({"components_vs_cosets": {
            "components": [list(c) for c in comps.components],
            "cosets": [list(b) for b in part.blocks],
            "t": _auto_desc(t),
        }})
    if comps.count != g.order // image.order:
        failures.append({"component_count": comps.count,
                         "expected": g.order // image.order, "t": _auto_desc(t)})
    for comp in comps.components:
        if not gr.is_complete(gr.induced_subgraph(graph, comp)):
            failures.append({"incomplete_component": list(comp), "t": _auto_desc(t)})
            break
    return _report("alexander_components", f"{g.label}", start, failures)


def check_alexander_iso_corollary(g: G.FiniteGroup, t1: G.Automorphism,
                                  t2: G.Automorphism) -> VerificationReport:
    """Graphs of A_t1(g) and A_t2(g) are isomorphic iff the images of
    id - t1 and id - t2 have equal size.  Both directions checked."""
    start = time.perf_counter()
    failures = []
    ga = gr.build_cayley_graph(Q.alexander_quandle(g, t1))
    gb = gr.build_cayley_graph(Q.alexander_quandle(g, t2))
    size1 = G.image_id_minus_t(g, t1).order
    size2 = G.image_id_minus_t(g, t2).order
    iso = gr.is_isomorphic(ga, gb)
    if iso != (size1 == size2):
        failures.append({"iso": iso, "image_sizes": (size1, size2),
                         "t1": _auto_desc(t1), "t2": _auto_desc(t2)})
    return _report("alexander_iso", f"{g.label}", start, failures)


def check_generalized_regularity(g: G.FiniteGroup, phi: G.Automorphism) -> VerificationReport:
    """Every vertex of the twisted graph has in- and out-degree equal to the
    index of the fixed-point subgroup of phi."""
    start = time.perf_counter()
    failures = []
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))
    expected = G.fixed_point_subgroup(g, phi).index()
    degs = gr.degrees(graph)
    for v, (o, i) in enumerate(degs):
        if o != expected or i != expected:
            failures.append({"vertex": v, "degree": (o, i), "expected": expected,
                             "phi": _auto_desc(phi)})
            break
    return _report("regularity", f"{g.label}", start, failures)


def _translation_iso_ok(graph: gr.DirectedGraph, g: G.FiniteGroup,
                        src: tuple, dst: tuple) -> bool:
    """Does x -> x * (u^-1 v) map src onto dst preserving edges both ways?"""
    u, v = src[0], dst[0]
    shift = g.op(g.inverse(u), v)
    image = g.mul[list(src), shift]
    if sorted(image.tolist()) != sorted(dst):
        return False
    m = graph.matrix()
    return bool((m[np.ix_(src, src)] == m[np.ix_(image, image)]).all())


def check_orbit_coset(g: G.FiniteGroup, h: int) -> VerificationReport:
    """For the inner twist by h: forward orbits are the left cosets of the
    subgroup N generated by all [h, x]; N is normal; the components are
    exactly those cosets; and coset translation is a graph isomorphism
    between any two components."""
    start = time.perf_counter()
    failures = []
    phi = G.inner_automorphism(g, h)
    q = Q.generalized_alexander_quandle(g, phi)
    graph = gr.build_cayley_graph(q)
    big_n = G.commutator_subgroup_with(g, h)
    if not G.is_normal(g, big_n):
        failures.append({"not_normal": list(big_n.members)})
    part = G.cosets(g, big_n, side="left")
    for x in range(g.order):
        orbit = Q.forward_orbit(q, x)
        coset = tuple(sorted(int(g.mul[x, m]) for m in big_n.members))
        if orbit != coset:
            failures.append({"orbit_mismatch": {"x": x, "orbit": list(orbit),
                                                "coset": list(coset)}})
            break
    comps = gr.strongly_connected_components(graph)
    if comps.as_sets() != part.as_sets():
        failures.append({"components_vs_cosets": {
            "components": [list(c) for c in comps.components],
            "cosets": [list(b) for b in part.blocks]}})
    else:
        comp_list = comps.components
        base = gr.induced_subgraph(graph, comp_list[0])
        for i in range(len(comp_list)):
            for j in range(len(comp_list)):
                if i != j and not _translation_iso_ok(graph, g, comp_list[i], comp_list[j]):
                    failures.append({"translation_not_isomorphism": (i, j)})
                    break
            else:
                continue
            break
        for i in range(1, len(comp_list)):
            other = gr.induced_subgraph(graph, comp_list[i])
            if gr.find_isomorphism(base, other) is None:
                failures.append({"components_not_isomorphic": (0, i)})
                break
    return _report("orbit_coset", f"({g.label}, h={g.name(h)})", start, failures)


def check_dihedral_inner_example(m: int) -> VerificationReport:
    """The inner twist of D_m by r: one non-loop out-edge per vertex, two
    steps of rotation; components are directed cycles (four of length m/2
    for even m, two of length m for odd m); diameters follow; the graph is
    symmetric only in the degenerate cases m = 2 and m = 4 where the cycles
    have length at most 2."""
    start = time.perf_counter()
    if m < 2:
        raise ValueError("dihedral example needs m >= 2")
    failures = []
    g = G.make_dihedral(m)
    phi = G.inner_automorphism(g, g.index_of("r"))
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))
    for i in range(m):
        rot_target = (i + 2) % m
        expected_rot = {i, rot_target}
        if set(graph.adj[i]) != expected_rot:
            failures.append({"rotation_row": i, "out": list(graph.adj[i])})
            break
        expected_ref = {m + i, m + rot_target}
        if set(graph.adj[m + i]) != expected_ref:
            failures.append({"reflection_row": i, "out": list(graph.adj[m + i])})
            break
    comps = gr.strongly_connected_components(graph)
    cycle_len = m // 2 if m % 2 == 0 else m
    expected_count = (2 * m) // cycle_len
    if comps.count != expected_count or set(comps.sizes()) != {cycle_len}:
        failures.append({"components": comps.sizes(),
                         "expected": (expected_count, cycle_len)})
    else:
        want_diam = cycle_len - 1
        for comp in comps.components:
            if gr.component_diameter(graph, comp) != want_diam:
                failures.append({"diameter_component": list(comp),
                                 "expected": want_diam})
                break
    symmetric = gr.is_symmetric(graph)
    if symmetric != (m in (2, 4)):
        failures.append({"symmetric": symmetric, "m": m})
    return _report("dihedral_inner", f"m={m}", start, failures)


def _load_s4_golden() -> dict:
    path = importlib.resources.files("quandle_cayley.data").joinpath(
        "s4_component_edges.json")
    return json.loads(path.read_text())


def check_s4_example() -> VerificationReport:
    """The inner twist of S4 by (12): fixed subgroup of order four, all
    degrees six, two components of twelve vertices, the identity component
    equal to the subgroup generated by the commutators [(12), x], and its
    induced subgraph equal to the stored golden edge set."""
    start = time.perf_counter()
    failures = []
    g = G.make_symmetric(4)
    h = g.index_of("(12)")
    phi = G.inner_automorphism(g, h)
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))

    fixed = G.fixed_point_subgroup(g, phi)
    expected_fixed = {g.index_of(s) for s in ("id", "(12)", "(34)", "(12)(34)")}
    if fixed.member_set() != frozenset(expected_fixed):
        failures.append({"fixed_subgroup": [g.name(x) for x in fixed.members]})

    degs = set(gr.degrees(graph))
    if degs != {(6, 6)}:
        failures.append({"degrees": sorted(degs)})

    comps = gr.strongly_connected_components(graph)
    if sorted(comps.sizes()) != [12, 12]:
        failures.append({"component_sizes": comps.sizes()})

    big_n = G.commutator_subgroup_with(g, h)
    ident_comp = comps.component_of(g.identity)
    if big_n.order != 12 or frozenset(ident_comp) != big_n.member_set():
        failures.append({"N": [g.name(x) for x in big_n.members],
                         "identity_component": [g.name(x) for x in ident_comp]})

    golden = _load_s4_golden()
    sub = gr.induced_subgraph(graph, ident_comp)
    if sorted(sub.names) != sorted(golden["vertices"]):
        failures.append({"vertices": sorted(sub.names)})
    else:
        expected_directed = set()
        for a, b in golden["undirected_edges"]:
            expected_directed.add((a, b))
            expected_directed.add((b, a))
        for vname in golden["vertices"]:
            expected_directed.add((vname, vname))
        have = {(sub.names[u], sub.names[v]) for u, v in sub.edges()}
        if have != expected_directed:
            failures.append({
                "missing": sorted(expected_directed - have),
                "extra": sorted(have - expected_directed),
            })
        if gr.is_complete(sub):
            failures.append({"unexpectedly_complete": True})
    return _report("s4_example", "S4, phi=inner:(12)", start, failures)


# -- the suite ---------------------------------------------------------------


@dataclass
class SuiteConfig:
    """What the suite sweeps.  The JSON form uses the same field names."""

    abelian_order_cap: int = 16
    nonabelian_registry: tuple = ("S3", "S4", "D2", "D3", "D4", "D5", "D6", "D7", "D8")
    dihedral_range: tuple = (2, 50)
    takasaki_window: int = 20
    checks: tuple | None = None
    extra_quandles: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.abelian_order_cap, int) or self.abelian_order_cap < 1:
            raise ValueError("abelian_order_cap must be a positive integer")
        self.nonabelian_registry = tuple(str(s) for s in self.nonabelian_registry)
        rng = tuple(int(v) for v in self.dihedral_range)
        if len(rng) != 2 or rng[0] < 1 or rng[1] < rng[0]:
            raise ValueError("dihedral_range must be [lo, hi] with 1 <= lo <= hi")
        self.dihedral_range = rng
        if not isinstance(self.takasaki_window, int) or self.takasaki_window < 0:
            raise ValueError("takasaki_window must be a non-negative integer")
        if self.checks is not None:
            checks = tuple(str(c) for c in self.checks)
            unknown = [c for c in checks if c not in CHECK_IDS]
            if unknown:
                raise ValueError(f"unknown check ids: {', '.join(unknown)}")
            self.checks = checks
        try:
            self.extra_quandles = tuple((str(lbl), [list(map(int, row)) for row in tbl])
                                        for lbl, tbl in self.extra_quandles)
        except TypeError:
            raise ValueError("extra_quandles tables must be lists of integer rows") from None

    @staticmethod
    def from_json(obj) -> "SuiteConfig":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("suite config must be a JSON object")
        allowed = {"abelian_order_cap", "nonabelian_registry", "dihedral_range",
                   "takasaki_window", "checks", "extra_quandles"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs = {}
        for key in allowed & set(obj):
            value = obj[key]
            if key == "extra_quandles":
                if not isinstance(value, list) or not all(
                        isinstance(item, dict) and "label" in item and "rhd" in item
                        for item in value):
                    raise ValueError("extra_quandles must be a list of objects "
                                     "with 'label' and 'rhd'")
                value = tuple((item["label"], item["rhd"]) for item in value)
            elif key in ("nonabelian_registry", "dihedral_range", "checks"):
                value = tuple(value) if value is not None else None
            kwargs[key] = value
        return SuiteConfig(**kwargs)

    def wants(self, check_id: str) -> bool:
        return self.checks is None or check_id in self.checks


def _registry_groups(config: SuiteConfig) -> list[G.FiniteGroup]:
    return [specs.group_from_string(label) for label in config.nonabelian_registry]


def _abelian_sweep(config: SuiteConfig):
    for g in G.abelian_group_types(config.abelian_order_cap):
        yield g, G.enumerate_automorphisms(g, cap=config.abelian_order_cap)


def run_suite(config: SuiteConfig | None = None) -> list[VerificationReport]:
    """Run the configured checks over the configured families, in a fixed
    deterministic order.  Big parameter sweeps come back as one merged
    report per group, with the first failing sub-instance as witness."""
    config = config or SuiteConfig()
    reports: list[VerificationReport] = []
    lo, hi = config.dihedral_range

    if config.wants("axioms"):
        samples: list[tuple[str, np.ndarray]] = []
        for n in range(1, 5):
            samples.append((f"T{n}", Q.trivial_quandle(n).rhd))
        for n in range(max(2, lo), min(hi, 12) + 1):
            samples.append((f"R{n}", Q.dihedral_quandle(n).rhd))
        for g in _registry_groups(config):
            if g.order <= 24:
                samples.append((f"Conj({g.label})", Q.conjugation_quandle(g).rhd))
                phi = G.inner_automorphism(g, 1 % g.order)
                samples.append((f"GAlex({g.label})",
                                Q.generalized_alexander_quandle(g, phi).rhd))
        for m in range(3, 9):
            samples.append((f"Core(Z{m})", Q.core_quandle(G.make_cyclic(m)).rhd))
        for label, table in config.extra_quandles:
            samples.append((label, np.asarray(table)))
        for label, table in samples:
            reports.append(check_axioms(label, table))

    if config.wants("trivial_edgeless"):
        for n in range(1, config.abelian_order_cap + 1):
            reports.append(check_trivial_edgeless(n))

    if config.wants("conjugation"):
        for g in _registry_groups(config):
            reports.append(check_conjugation_components(g))

    if config.wants("dihedral"):
        for n in range(lo, hi + 1):
            reports.append(check_dihedral_quandle(n))

    if config.wants("takasaki"):
        for w in range(1, config.takasaki_window + 1):
            reports.append(check_takasaki_window(w))

    needs_abelian = any(config.wants(c) for c in
                        ("alexander_components", "alexander_iso", "regularity"))
    abelian = list(_abelian_sweep(config)) if needs_abelian else []

    if config.wants("alexander_components"):
        for g, autos in abelian:
            subs = [check_alexander_components(g, t) for t in autos]
            reports.append(_merge("alexander_components",
                                  f"{g.label} ({len(autos)} automorphisms)", subs))

    if config.wants("alexander_iso"):
        for g, autos in abelian:
            if len(autos) > _ISO_PAIR_AUT_CAP:
                continue
            subs = []
            for i in range(len(autos)):
                for j in range(i, len(autos)):
                    subs.append(check_alexander_iso_corollary(g, autos[i], autos[j]))
            reports.append(_merge("alexander_iso",
                                  f"{g.label} ({len(subs)} pairs)", subs))

    if config.wants("regularity"):
        for g, autos in abelian:
            subs = [check_generalized_regularity(g, t) for t in autos]
            reports.append(_merge("regularity",
                                  f"{g.label} ({len(autos)} automorphisms)", subs))
        for g in _registry_groups(config):
            subs = [check_generalized_regularity(g, G.inner_automorphism(g, h))
                    for h in range(g.order)]
            reports.append(_merge("regularity",
                                  f"{g.label} (inner, all h)", subs))

    if config.wants("orbit_coset"):
        for g in _registry_groups(config):
            subs = [check_orbit_coset(g, h) for h in range(g.order)]
            reports.append(_merge("orbit_coset", f"{g.label} (all h)", subs))

    if config.wants("dihedral_inner"):
        for m in range(max(2, lo), hi + 1):
            reports.append(check_dihedral_inner_example(m))

    if config.wants("s4_example"):
        reports.append(check_s4_example())

    return reports


def format_reports(reports: list[VerificationReport], show_timing: bool = False) -> str:
    """Text rendering, one line per report.  Timing is off by default so
    the same reports always render to the same bytes."""
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        line = f"[{tag}] {r.theorem_id:22s} {r.instance}"
        if show_timing:
            line += f"  ({r.elapsed:.3f}s)"
        if not r.passed:
            line += f"\n       witness: {r.witness}"
        lines.append(line)
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines) + "\n"
