import importlib.resources
import json

import numpy as np
import pytest

from quandle_cayley import groups as G
from quandle_cayley import quandles as Q
from quandle_cayley import verify as V


def _autos(g, cap=G.AUTOMORPHISM_CAP):
    """enumerate_automorphisms' rows, each wrapped for the per-instance checkers."""
    return [G.Automorphism._of_checked(g, row) for row in G.enumerate_automorphisms(g, cap=cap)]


def _maps(autos):
    """The image array sweep_alexander takes, one row per automorphism."""
    return np.stack([t.mapping for t in autos])


def _scatter(table):
    """The Cayley adjacency matrix of an operation table: m[x, x |> y]."""
    n = len(table)
    m = np.zeros((n, n), dtype=bool)
    m[np.arange(n)[:, None], table] = True
    return m


class TestIndividualCheckers:
    def test_axioms_pass(self):
        r = V.check_axioms("R5", Q.dihedral_quandle(5).rhd)
        assert r.passed
        assert r.theorem_id == "axioms"
        assert r.witness is None

    def test_axioms_fail_with_witness(self):
        r = V.check_axioms("bad", np.zeros((3, 3), dtype=int))
        assert not r.passed
        assert "axioms" in r.witness

    def test_axioms_witness_zero_is_kept(self):
        # idempotency fails at x = 0; a falsy witness must not be skipped
        r = V.check_axioms("bad", np.array([[1, 0], [0, 1]]))
        assert r.witness["witness"] == 0

    def test_axioms_scan_a_table_once(self, monkeypatch):
        # a passing table is not scanned again to build a Quandle
        good = Q.dihedral_quandle(5).rhd.tolist()
        scans = []
        real = Q.verify_quandle_axioms

        def counted(table):
            scans.append(len(table))
            return real(table)

        monkeypatch.setattr(Q, "verify_quandle_axioms", counted)
        assert V.check_axioms("R5", good).passed
        assert not V.check_axioms("bad", np.zeros((3, 3), dtype=int)).passed
        assert scans == [5, 3]

    def test_trivial_edgeless(self):
        assert V.check_trivial_edgeless(6).passed
        assert V.check_trivial_edgeless(1).passed

    def test_conjugation(self, registry_groups):
        for g in registry_groups:
            assert V.check_conjugation_components(g).passed

    def test_dihedral(self):
        for n in (2, 3, 12, 25):
            assert V.check_dihedral_quandle(n).passed

    def test_takasaki(self):
        assert V.check_takasaki_window(4).passed

    def test_alexander_components(self):
        g = G.make_abelian([4, 4])
        t = G.matrix_automorphism(g, [[0, 1], [3, 2]])
        r = V.check_alexander_components(g, t)
        assert r.passed

    def test_alexander_iso_both_directions(self):
        g = G.make_abelian([8])
        autos = _autos(g)
        for i in range(len(autos)):
            for j in range(len(autos)):
                assert V.check_alexander_iso_corollary(g, autos[i], autos[j]).passed

    def test_regularity(self):
        g = G.make_symmetric(4)
        for h in range(0, g.order, 5):
            assert V.check_generalized_regularity(g, G.inner_automorphism(g, h)).passed

    def test_orbit_coset(self):
        g = G.make_dihedral(5)
        for h in range(g.order):
            assert V.check_orbit_coset(g, h).passed

    def test_dihedral_inner_range(self):
        for m in range(2, 16):
            assert V.check_dihedral_inner_example(m).passed
        with pytest.raises(ValueError):
            V.check_dihedral_inner_example(1)

    def test_s4_example(self):
        r = V.check_s4_example()
        assert r.passed
        assert r.witness is None

    def test_report_to_dict(self):
        r = V.check_dihedral_quandle(3)
        d = r.to_dict()
        assert d["theorem_id"] == "dihedral"
        assert d["passed"] is True
        assert set(d) == {"theorem_id", "instance", "passed", "witness", "elapsed"}


class TestSuiteConfig:
    def test_defaults(self):
        cfg = V.SuiteConfig()
        assert cfg.abelian_order_cap == 16
        assert cfg.dihedral_range == (2, 50)
        assert cfg.takasaki_window == 20
        assert cfg.checks is None

    def test_from_json(self):
        cfg = V.SuiteConfig.from_json(
            '{"abelian_order_cap": 8, "checks": ["dihedral"], "dihedral_range": [2, 5]}')
        assert cfg.abelian_order_cap == 8
        assert cfg.checks == ("dihedral",)
        assert cfg.dihedral_range == (2, 5)

    def test_rejects_deeply_nested_text(self):
        with pytest.raises(ValueError, match="^suite config is nested too deeply$"):
            V.SuiteConfig.from_json("[" * 100_000 + "]" * 100_000)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config"):
            V.SuiteConfig.from_json({"abelian_cap": 8})

    def test_rejects_unknown_check_ids(self):
        with pytest.raises(ValueError, match="unknown check"):
            V.SuiteConfig(checks=("dihedral", "pentagon"))

    @pytest.mark.parametrize("make", [
        lambda: V.SuiteConfig(checks=()),
        lambda: V.SuiteConfig(checks=[]),
        lambda: V.SuiteConfig.from_json('{"checks": []}'),
    ])
    def test_rejects_an_empty_check_list(self, make):
        with pytest.raises(ValueError, match="at least one check id"):
            make()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            V.SuiteConfig(dihedral_range=(5, 2))

    def test_rejects_a_range_that_is_not_a_pair(self):
        message = r"^dihedral_range must be \[lo, hi\] with 1 <= lo <= hi$"
        with pytest.raises(ValueError, match=message):
            V.SuiteConfig(dihedral_range=[1, 2, 3])

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            V.SuiteConfig.from_json("[1, 2]")

    @pytest.mark.parametrize("key, value", [
        ("abelian_order_cap", True), ("abelian_order_cap", 4.0),
        ("takasaki_window", True), ("takasaki_window", False), ("takasaki_window", 2.5),
        ("dihedral_range", [2, 5.5]), ("dihedral_range", [True, 4]),
    ])
    def test_rejects_bools_and_floats(self, key, value):
        with pytest.raises(ValueError, match=key):
            V.SuiteConfig.from_json({key: value})

    @pytest.mark.parametrize("obj", [{"dihedral_range": 5}, {"checks": 5},
                                     {"nonabelian_registry": None}])
    def test_rejects_scalars_where_lists_belong(self, obj):
        with pytest.raises(ValueError, match="wrong type"):
            V.SuiteConfig.from_json(obj)

    @pytest.mark.parametrize("make", [
        lambda: V.SuiteConfig.from_json({"checks": "dihedral"}),
        lambda: V.SuiteConfig.from_json({"nonabelian_registry": "S3", "checks": ["conjugation"]}),
        lambda: V.SuiteConfig(checks="axioms"),
        lambda: V.SuiteConfig(nonabelian_registry="S3"),
        lambda: V.SuiteConfig(checks={"axioms"}),
        lambda: V.SuiteConfig(nonabelian_registry={"S3": 1}),
    ])
    def test_rejects_a_string_or_other_non_list(self, make):
        # tuple() would split "S3" into ("S", "3")
        with pytest.raises(ValueError, match=r"wrong type: (checks|nonabelian_registry) must be"):
            make()

    def test_takes_lists_and_tuples(self):
        for seq in (list, tuple):
            cfg = V.SuiteConfig(checks=seq(["axioms"]), nonabelian_registry=seq(["S3", "D4"]))
            assert cfg.checks == ("axioms",) and cfg.nonabelian_registry == ("S3", "D4")

    @pytest.mark.parametrize("rhd", [[[0.5]], [[True]], [[0, 0], [1, 1.0]]])
    def test_rejects_non_integer_extra_tables(self, rhd):
        # int() would read [[0.5]] as the trivial quandle [[0]]
        with pytest.raises(ValueError, match="integers"):
            V.SuiteConfig.from_json({"extra_quandles": [{"label": "x", "rhd": rhd}]})

    def test_json_keys_are_the_fields(self):
        import dataclasses
        names = [f.name for f in dataclasses.fields(V.SuiteConfig)]
        defaults = V.SuiteConfig()
        cfg = V.SuiteConfig.from_json({name: getattr(defaults, name) for name in names
                                       if name != "extra_quandles"})
        assert cfg == defaults

    def test_extra_quandles_from_json(self):
        obj = {"checks": ["axioms"],
               "extra_quandles": [{"label": "inline", "rhd": [[0, 0], [1, 1]]}]}
        cfg = V.SuiteConfig.from_json(obj)
        assert cfg.extra_quandles[0][0] == "inline"

    def test_parses_registry_labels_at_load(self, monkeypatch):
        # a bad label is refused though no selected check reads the
        # registry, and parsing it builds no group
        built = []
        with monkeypatch.context() as mp:
            mp.setattr(V.specs, "build_group", lambda spec: built.append(spec))
            with pytest.raises(V.specs.SpecParseError, match="^bad spec 'Q8' at position 0"):
                V.SuiteConfig(checks=("dihedral",), nonabelian_registry=("S3", "Q8"))
            cfg = V.SuiteConfig(checks=("dihedral",), dihedral_range=(3, 3),
                                nonabelian_registry=("S7",))
        assert built == []
        # S7 parses, and SYMMETRIC_CAP refuses it only where it is built
        assert [r.passed for r in V.run_suite(cfg)] == [True]
        with pytest.raises(ValueError, match="^symmetric group capped at n <= 6"):
            V.run_suite(V.SuiteConfig(checks=("conjugation",), nonabelian_registry=("S7",)))


class TestRunSuite:
    def test_reduced_run_is_deterministic_and_green(self):
        cfg = V.SuiteConfig(abelian_order_cap=9, nonabelian_registry=("S3", "D4"),
                            dihedral_range=(2, 8), takasaki_window=4)
        first = V.run_suite(cfg)
        second = V.run_suite(cfg)
        assert all(r.passed for r in first)
        strip = lambda rs: [(r.theorem_id, r.instance, r.passed, r.witness) for r in rs]
        assert strip(first) == strip(second)

    def test_check_filter(self):
        cfg = V.SuiteConfig(checks=("dihedral",), dihedral_range=(2, 12))
        reports = V.run_suite(cfg)
        assert len(reports) == 11
        assert {r.theorem_id for r in reports} == {"dihedral"}

    def test_injected_broken_table_fails_suite(self):
        bad = [[1, 0], [1, 0]]
        cfg = V.SuiteConfig(checks=("axioms",), dihedral_range=(2, 3),
                            extra_quandles=(("bad2", bad),))
        reports = V.run_suite(cfg)
        failing = [r for r in reports if not r.passed]
        assert len(failing) == 1
        assert failing[0].instance == "bad2"
        assert not failing[0].witness["axioms"]["idempotent"]

    def test_merged_reports_carry_counts(self):
        cfg = V.SuiteConfig(abelian_order_cap=4,
                            checks=("alexander_components",),
                            nonabelian_registry=())
        reports = V.run_suite(cfg)
        # Z1, Z2, Z3, Z4, Z2xZ2
        assert len(reports) == 5
        assert all("automorphisms)" in r.instance for r in reports)

    @pytest.mark.parametrize("kwargs, ids", [
        ({"checks": ("dihedral_inner",), "dihedral_range": (1, 1)}, "dihedral_inner"),
        ({"checks": ("takasaki",), "takasaki_window": 0}, "takasaki"),
        ({"checks": ("conjugation", "orbit_coset"), "nonabelian_registry": ()},
         "conjugation, orbit_coset"),
    ])
    def test_refuses_a_run_with_no_report(self, kwargs, ids):
        with pytest.raises(ValueError, match=f"^the config selects no instance of {ids}$"):
            V.run_suite(V.SuiteConfig(**kwargs))

    def test_a_check_with_no_report_beside_one_with_some_runs(self):
        cfg = V.SuiteConfig(checks=("conjugation", "dihedral"), nonabelian_registry=(),
                            dihedral_range=(3, 3))
        assert [(r.theorem_id, r.passed) for r in V.run_suite(cfg)] == [("dihedral", True)]

    def test_format_reports_stable(self):
        cfg = V.SuiteConfig(checks=("dihedral",), dihedral_range=(3, 4))
        text = V.format_reports(V.run_suite(cfg))
        assert text == ("[PASS] dihedral               n=3\n"
                        "[PASS] dihedral               n=4\n"
                        "2 checks, 0 failed\n")

    def test_format_reports_shows_witness_on_failure(self):
        r = V.VerificationReport("dihedral", "n=3", False, witness={"bad": 1})
        text = V.format_reports([r])
        assert "FAIL" in text and "witness" in text

    def test_format_reports_timing_flag(self):
        r = V.VerificationReport("dihedral", "n=3", True, elapsed=0.5)
        assert "(0.500s)" in V.format_reports([r], show_timing=True)
        assert "0.500" not in V.format_reports([r])


class TestCheckersCatchSabotage:
    """Feed each checker a scenario that violates its claim and make sure
    the comparison actually trips.  Guards against vacuous checkers."""

    def test_conjugation_checker_sees_wrong_partition(self, monkeypatch):
        from quandle_cayley import graphs as gr
        g = G.make_symmetric(3)
        real = G.conjugacy_classes

        def wrong(group):
            classes = real(group)
            return [tuple(sorted(classes[0] + classes[1]))] + classes[2:]

        monkeypatch.setattr(V.G, "conjugacy_classes", wrong)
        r = V.check_conjugation_components(g)
        # the identity's row is the first to miss a predicted edge
        assert r.witness == {"block_mismatch": (0, real(g)[1][0])}

    def test_alexander_checker_sees_wrong_image(self, monkeypatch):
        g = G.make_abelian([4, 4])
        t = G.matrix_automorphism(g, [[0, 1], [3, 2]])

        def wrong(group, auto):
            return G.subgroup_generated(group, [])

        monkeypatch.setattr(V.G, "image_id_minus_t", wrong)
        r = V.check_alexander_components(g, t)
        out = V.gr.build_cayley_graph(Q.alexander_quandle(g, t)).adj[0]
        assert r.witness == {"block_mismatch": (0, min(set(out) - {0})),
                             "t": [int(v) for v in t.mapping]}

    def test_regularity_checker_sees_wrong_index(self, monkeypatch):
        g = G.make_symmetric(3)
        phi = G.inner_automorphism(g, 1)

        class FakeSub:
            def index(self):
                return 99

        monkeypatch.setattr(V.G, "fixed_point_subgroup", lambda a, b: FakeSub())
        assert not V.check_generalized_regularity(g, phi).passed

    @staticmethod
    def _plant(monkeypatch, builder, cells):
        """builder's graphs with each (u, v) of `cells` flipped."""
        real = getattr(V.gr, builder)

        def planted(*args):
            graph = real(*args)
            m = graph.matrix().copy()
            for u, v in cells:
                m[u, v] = not m[u, v]
            return V.gr.DirectedGraph._of_matrix(m, names=graph.names)

        monkeypatch.setattr(V.gr, builder, planted)

    @pytest.mark.parametrize("n, cells, cell", [
        (6, [(2, 4)], (2, 4)),              # a missing edge inside the evens
        (6, [(3, 0)], (3, 0)),              # an extra edge from the odds to the evens
        (6, [(4, 0), (1, 2)], (1, 2)),      # one of each: the first in row-major order
        (7, [(5, 3)], (5, 3)),              # odd n: one block, a missing edge
    ])
    def test_dihedral_checker_names_the_planted_cell(self, monkeypatch, n, cells, cell):
        assert V.check_dihedral_quandle(n).passed
        self._plant(monkeypatch, "build_cayley_graph", cells)
        r = V.check_dihedral_quandle(n)
        assert not r.passed and r.witness == {"block_mismatch": cell}

    @pytest.mark.parametrize("cells, cell", [
        ([(0, 2)], (0, 2)),                 # -3 -> -1 goes: both odd
        ([(4, 1)], (4, 1)),                 # 1 -> -2 appears: parities differ
        ([(5, 1), (4, 5)], (4, 5)),         # one of each: the first in row-major order
    ])
    def test_takasaki_checker_names_the_planted_cell(self, monkeypatch, cells, cell):
        # window [-3, 3]: vertex i is the integer i - 3, and the edge
        # predicate is untouched, so the block comparison alone fails
        self._plant(monkeypatch, "takasaki_z_window", cells)
        r = V.check_takasaki_window(3)
        assert not r.passed and r.witness == {"block_mismatch": cell}

    @pytest.mark.parametrize("m, cells, cell", [
        (6, [(1, 3)], (1, 3)),              # the rotation edge 1 -> 3 goes
        (6, [(9, 7)], (9, 7)),              # the reverse of the reflection edge 7 -> 9
        (6, [(4, 4)], (4, 4)),              # a missing loop
        (6, [(8, 10), (2, 0)], (2, 0)),     # two faults: the first in row-major order
        (7, [(5, 0)], (5, 0)),              # the wrapping rotation edge 5 -> 0 goes
        (7, [(9, 7)], (9, 7)),              # the reverse of the reflection edge 7 -> 9
        (7, [(10, 10)], (10, 10)),          # a missing loop
    ])
    def test_dihedral_inner_checker_names_the_planted_cell(self, monkeypatch, m, cells, cell):
        assert V.check_dihedral_inner_example(m).passed
        # each planted cell is a predicted edge that goes, or a reverse edge
        # that appears: i -> i + 2 inside a coset of <r>, or its reverse
        for u, v in cells:
            on_cycle = u // m == v // m and (u + 2) % m in (v % m, (v + 4) % m)
            assert on_cycle or u == v, (u, v)
        self._plant(monkeypatch, "build_cayley_graph", cells)
        r = V.check_dihedral_inner_example(m)
        assert not r.passed and r.witness == {"cell_mismatch": cell}

    @pytest.mark.parametrize("cells, cell", [
        # the second coset: 1 -> 6 and 9 -> 2 become 1 -> 2 and 9 -> 6, a
        # swap that keeps every in- and out-degree and both components
        ([(1, 6), (9, 2), (1, 2), (9, 6)], (1, 2)),
        # the identity block: 0 -> 12 and 3 -> 15 become 0 -> 15 and 3 -> 12
        ([(0, 12), (3, 15), (0, 15), (3, 12)], (0, 12)),
    ])
    def test_s4_checker_names_the_planted_cell(self, monkeypatch, cells, cell):
        g = G.make_symmetric(4)
        assert [g.name(v) for v in (1, 2, 6, 9)] == ["(34)", "(23)", "(12)", "(1234)"]
        assert V.check_s4_example().passed
        self._plant(monkeypatch, "build_cayley_graph", cells)
        phi = G.inner_automorphism(g, g.index_of("(12)"))
        m = V.gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi)).matrix()
        assert set(m.sum(axis=0)) == set(m.sum(axis=1)) == {6}
        r = V.check_s4_example()
        assert not r.passed and r.witness == {"cell_mismatch": cell}

    def test_s4_checker_sees_wrong_subgroups(self, monkeypatch):
        trivial = lambda g, *args: G.subgroup_generated(g, [])
        with monkeypatch.context() as mp:
            mp.setattr(V.G, "commutator_subgroup_with", trivial)
            r = V.check_s4_example()
            assert not r.passed and r.witness == {"N": ["id"]}
        monkeypatch.setattr(V.G, "fixed_point_subgroup", trivial)
        r = V.check_s4_example()
        assert not r.passed and r.witness == {"fixed_subgroup": ["id"]}

    @pytest.mark.parametrize("n", [3, 6])
    def test_trivial_edgeless_checker_sees_planted_graphs(self, monkeypatch, n):
        assert V.check_trivial_edgeless(n).passed
        # the cell (0, 1) flipped in every graph: T_n gains an edge, and the
        # non-trivial peers keep others either way, so only T_n's half fails
        with monkeypatch.context() as mp:
            self._plant(mp, "build_cayley_graph", [(0, 1)])
            r = V.check_trivial_edgeless(n)
            assert not r.passed and r.witness == {"trivial_not_edgeless": n}
        # R_n's graph cut down to its loops, every other graph untouched
        real = V.gr.build_cayley_graph
        monkeypatch.setattr(V.gr, "build_cayley_graph", lambda q: (
            V.gr.DirectedGraph._of_matrix(np.eye(q.order, dtype=bool))
            if q.label == f"R{n}" else real(q)))
        r = V.check_trivial_edgeless(n)
        assert not r.passed and r.witness == {"nontrivial_but_edgeless": f"R{n}"}

    def test_trivial_edgeless_checker_sees_a_planted_conj_s4(self, monkeypatch):
        # n = 24 is the one order with Conj(S4) among the peers; its graph
        # alone carries S4's permutation names, R24's and T24's are numbers
        assert V.check_trivial_edgeless(24).passed
        s4_names = G.make_symmetric(4).element_names
        real = V.gr.is_edgeless
        monkeypatch.setattr(V.gr, "is_edgeless",
                            lambda graph: graph.names == s4_names or real(graph))
        r = V.check_trivial_edgeless(24)
        assert not r.passed and r.witness == {"nontrivial_but_edgeless": "Conj(S4)"}


class TestDihedralInnerPrediction:
    """check_dihedral_inner_example compares the graph with one predicted
    matrix and infers components, diameters and symmetry from equality;
    here those inferences are computed on the prediction itself."""

    @staticmethod
    def _predicted(m):
        # a loop at every vertex, and i -> i + 2 mod m among the rotations
        # 0..m-1 and among the reflections m..2m-1
        pred = np.eye(2 * m, dtype=bool)
        for i in range(m):
            pred[i, (i + 2) % m] = True
            pred[m + i, m + (i + 2) % m] = True
        return pred

    def test_prediction_fixes_components_diameters_and_symmetry(self):
        for m in range(2, 51):
            pred = self._predicted(m)
            assert (V._dihedral_inner_matrix(m) == pred).all(), m
            graph = V.gr.DirectedGraph._of_matrix(pred)
            comps = V.gr.strongly_connected_components(graph)
            length = m // 2 if m % 2 == 0 else m
            assert comps.count == (4 if m % 2 == 0 else 2), m
            assert set(comps.sizes()) == {length}, m
            for comp in comps.components:
                assert V.gr.component_diameter(graph, comp) == length - 1, (m, comp)
            assert V.gr.is_symmetric(graph) == (m in (2, 4)), m


class TestS4Prediction:
    """check_s4_example compares the graph with one predicted matrix; here
    what the comparison fixes is computed on the prediction itself."""

    def test_prediction_fixes_degrees_components_and_golden_block(self):
        g = G.make_symmetric(4)
        h = g.index_of("(12)")
        path = importlib.resources.files("quandle_cayley.data").joinpath(
            "s4_component_edges.json")
        golden = json.loads(path.read_text())
        pred = V._s4_example_matrix(g, golden)
        real = V.gr.build_cayley_graph(
            Q.generalized_alexander_quandle(g, G.inner_automorphism(g, h)))
        assert (real.matrix() == pred).all() and pred.sum() == 144
        graph = V.gr.DirectedGraph._of_matrix(pred, names=g.element_names)
        assert set(V.gr.degrees(graph)) == {(6, 6)}
        comps = V.gr.strongly_connected_components(graph)
        assert sorted(comps.sizes()) == [12, 12]
        ident = comps.component_of(g.identity)
        assert {g.name(v) for v in ident} == set(golden["vertices"])
        sub = V.gr.induced_subgraph(graph, ident)
        want = {(v, v) for v in golden["vertices"]}
        want |= {pair for a, b in golden["undirected_edges"] for pair in ((a, b), (b, a))}
        assert {(sub.names[u], sub.names[v]) for u, v in sub.edges()} == want
        assert not V.gr.is_complete(sub)


class TestCheckersExhibitTheirIsomorphisms:
    """check_dihedral_quandle and check_orbit_coset settle isomorphism
    without a search: a complete component is complete_graph's matrix, and
    a coset translation that passes is an explicit isomorphism.  So they
    also run on components above the search cap."""

    def test_dihedral_above_the_search_cap(self):
        for n in (65, 130):
            assert V.check_dihedral_quandle(n).passed, n

    def test_orbit_coset_above_the_search_cap(self):
        g = G.make_dihedral(130)
        assert V.check_orbit_coset(g, g.index_of("r")).passed

    def test_no_search(self, registry_groups, monkeypatch):
        calls, scc, diameters = [], [], []
        real, real_scc = V.gr.find_isomorphism, V.gr.strongly_connected_components
        real_diameter = V.gr.component_diameter

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(V.gr, "find_isomorphism", counted)
        monkeypatch.setattr(V.gr, "strongly_connected_components",
                            lambda graph: scc.append(graph) or real_scc(graph))
        monkeypatch.setattr(V.gr, "component_diameter", lambda graph, comp: (
            diameters.append(comp) or real_diameter(graph, comp)))
        for n in range(2, 13):
            assert V.check_dihedral_quandle(n).passed
        # dihedral_inner compares the graph with its predicted cycle matrix
        for m in range(2, 13):
            assert V.check_dihedral_inner_example(m).passed
        # s4_example compares the graph with its predicted matrix
        assert V.check_s4_example().passed
        assert calls == [] and scc == [] and diameters == []
        # the spies are live: a direct call to each is seen
        graph = V.gr.build_cayley_graph(Q.dihedral_quandle(3))
        V.gr.find_isomorphism(graph, graph)
        V.gr.strongly_connected_components(graph)
        V.gr.component_diameter(graph, (0, 1, 2))
        assert len(calls) == len(scc) == len(diameters) == 1
        calls.clear()
        scc.clear()
        # orbit_coset reads its components from the orbits, never from Tarjan
        for g in registry_groups:
            for h in range(g.order):
                assert V.check_orbit_coset(g, h).passed
        assert calls == [] and scc == []

    def test_block_checkers_search_no_components(self, registry_groups, monkeypatch):
        # the four complete-blocks claims are one matrix comparison each
        calls = []
        for name in ("strongly_connected_components", "induced_subgraph", "is_complete"):
            real = getattr(V.gr, name)
            monkeypatch.setattr(V.gr, name, lambda *args, real=real, name=name: (
                calls.append(name) or real(*args)))
        for g in registry_groups:
            assert V.check_conjugation_components(g).passed
        for n in range(1, 13):
            assert V.check_dihedral_quandle(n).passed
            assert V.check_takasaki_window(n).passed
        g = G.make_abelian([4, 4])
        for t in _autos(g)[:10]:
            assert V.check_alexander_components(g, t).passed
        # and s4_example is one comparison with its predicted matrix
        assert V.check_s4_example().passed
        assert calls == []
        # the spies are live: a direct call to each is seen
        graph = V.gr.build_cayley_graph(Q.dihedral_quandle(3))
        V.gr.strongly_connected_components(graph)
        V.gr.is_complete(V.gr.induced_subgraph(graph, (0, 1)))
        assert set(calls) == {"strongly_connected_components", "induced_subgraph",
                              "is_complete"}

    def test_planted_in_coset_non_edge(self, monkeypatch):
        g = G.make_symmetric(4)
        h = g.index_of("(12)")
        q = Q.generalized_alexander_quandle(g, G.inner_automorphism(g, h))
        real = V.gr.build_cayley_graph
        u = g.identity
        v = next(w for w in real(q).adj[u] if w != u)

        def planted(quandle):
            m = real(quandle).matrix().copy()
            m[u, v] = False
            return V.gr.DirectedGraph._of_matrix(m, names=quandle.element_names)

        # one in-coset edge goes, and the components stay as they were
        scc = V.gr.strongly_connected_components
        assert scc(planted(q)).components == scc(real(q)).components
        monkeypatch.setattr(V.gr, "build_cayley_graph", planted)
        r = V.check_orbit_coset(g, h)
        assert not r.passed
        assert r.witness == {"translation_not_isomorphism": (0, 1)}

    def test_planted_in_coset_edge_names_the_first_coset(self, monkeypatch):
        # D6 with h = r: four cosets of <[r, x]> = <r^2>, each a directed
        # 3-cycle with loops.  An extra edge inside the first coset keeps
        # every forward orbit, so only the translations from that coset
        # fail, and the witness is the first pair, (0, 1); translating from
        # the last coset instead would give (0, 3)
        g = G.make_dihedral(6)
        h = g.index_of("r")
        q = Q.generalized_alexander_quandle(g, G.inner_automorphism(g, h))
        blocks = G.cosets(g, G.commutator_subgroup_with(g, h), side="left").blocks
        assert len(blocks) == 4 and g.identity in blocks[0]
        real = V.gr.build_cayley_graph
        u = g.identity
        w = next(x for x in blocks[0] if not real(q).matrix()[u, x])

        def planted(quandle):
            m = real(quandle).matrix().copy()
            m[u, w] = True
            return V.gr.DirectedGraph._of_matrix(m, names=quandle.element_names)

        monkeypatch.setattr(V.gr, "build_cayley_graph", planted)
        r = V.check_orbit_coset(g, h)
        assert not r.passed
        assert r.witness == {"translation_not_isomorphism": (0, 1)}

    def test_planted_cross_coset_edge_names_the_first_orbit(self, monkeypatch):
        g = G.make_symmetric(4)
        h = g.index_of("(12)")
        q = Q.generalized_alexander_quandle(g, G.inner_automorphism(g, h))
        members = list(G.commutator_subgroup_with(g, h).members)
        cosets = [sorted(int(g.mul[x, s]) for s in members) for x in range(g.order)]
        real = V.gr.build_cayley_graph
        u = 5
        v = min(set(range(g.order)) - set(cosets[u]))

        def planted(quandle):
            m = real(quandle).matrix().copy()
            m[u, v] = True
            return V.gr.DirectedGraph._of_matrix(m, names=quandle.element_names)

        # breadth-first forward orbits in the planted graph, the oracle
        m = planted(q).matrix()
        orbits = [sorted(w for layer in G.breadth_first([x], lambda a: np.flatnonzero(m[a]).tolist())
                         for w in layer) for x in range(g.order)]
        x = next(x for x in range(g.order) if orbits[x] != cosets[x])
        assert x == min(cosets[u]) and len(orbits[x]) == 2 * len(members)
        monkeypatch.setattr(V.gr, "build_cayley_graph", planted)
        r = V.check_orbit_coset(g, h)
        assert r.witness == {"orbit_mismatch": {"x": x, "orbit": orbits[x], "coset": cosets[x]}}

    def test_translation_that_misses_the_target_is_refused(self):
        # the left cosets x H of the non-normal H = <(12)> in S3: right
        # multiplication by s = u^-1 v carries x H to x H s, a coset of
        # s^-1 H s, which is H only when s normalises H.  So only a coset's
        # translation onto itself holds, even on the complete graph, whose
        # every bijection keeps the edges
        g = G.make_symmetric(3)
        blocks = G.cosets(g, G.subgroup_generated(g, [g.index_of("(12)")])).blocks
        complete = V.gr.complete_graph(g.order)
        assert [[V._translation_iso_ok(complete, g, src, dst) for dst in blocks]
                for src in blocks] == [[True, False, False], [False, True, False],
                                       [False, False, True]]


class TestDistinctRows:
    def test_matches_a_dict_of_row_bytes(self):
        # _ClassTable.number, in first-appearance order over two chunks,
        # against a loop keyed by each row's bytes; widths up to 130 need up
        # to three packed 64-bit words per row.  The second chunk, the first
        # one's rows reversed, meets no new class
        rng = np.random.default_rng(5)
        for k, n, p in ((1, 1, 0.5), (9, 3, 0.5), (400, 16, 0.9), (300, 70, 0.99),
                        (300, 130, 0.995)):
            rows = rng.random((k, n)) < p
            rows[k // 2] = rows[0]
            first, of = {}, []
            for i, row in enumerate(rows):
                of.append(first.setdefault(row.tobytes(), len(first)))
            table = V._ClassTable()
            got_of, got_new = table.number(rows)
            assert got_new.tolist() == [of.index(j) for j in range(len(first))], (k, n)
            assert got_of.dtype == np.int32 and got_of.tolist() == of, (k, n)
            got_of, got_new = table.number(rows[::-1])
            assert got_new.size == 0 and got_of.tolist() == of[::-1], (k, n)


def _verdicts(g, autos, check):
    return [check(g, t).passed for t in autos]


def _strip(reports):
    return [(r.theorem_id, r.instance, r.passed, r.witness) for r in reports]


def _merged_checkers(tid, instance, reports):
    """The merged report a loop over per-instance checker reports gives,
    stripped as _strip does: the first failure's instance and witness, and
    the counts."""
    bad = [r for r in reports if not r.passed]
    witness = {"sub_instance": bad[0].instance, "detail": bad[0].witness,
               "failed": len(bad), "of": len(reports)} if bad else None
    return (tid, instance, not bad, witness)


def _wrong_for_order(real, order, wrong):
    """real(group, t), except wrong(group) where real's subgroup has `order`."""
    def patched(group, t):
        sub = real(group, t)
        return wrong(group) if sub.order == order else sub
    return patched


def _wrong_masks(real, hit, wrong):
    """real(group, maps), groups.twist_masks, except the mask of wrong(group)
    in each row where hit(group, row, members) holds, members the real N's.
    twist_subgroup reads twist_masks, so the checkers see the same fault."""
    def patched(group, maps):
        masks = real(group, maps)
        for r, (row, mask) in enumerate(zip(maps, masks)):
            if hit(group, row, tuple(np.flatnonzero(mask).tolist())):
                masks[r] = G._mask(group.order, list(wrong(group).members))
        return masks
    return patched


def _wrong_indices(real, hit, wrong):
    """real(group, maps), groups.fixed_point_indices, except the index of
    wrong(group) in each row where hit(group, row, fixed) holds, fixed the
    members of the real Fix(phi)."""
    def patched(group, maps):
        index = real(group, maps)
        for r, row in enumerate(maps):
            if hit(group, row, tuple(np.flatnonzero(row == np.arange(group.order)).tolist())):
                index[r] = wrong(group).index()
        return index
    return patched


def _of_order(order):
    """The hit of _wrong_masks or _wrong_indices for a subgroup of `order`."""
    return lambda group, row, members: len(members) == order


def _plant_fixed_for_order(monkeypatch, order, wrong):
    """wrong(group) for every Fix(phi) of `order`: in fixed_point_subgroup,
    the checkers' prediction, and in fixed_point_indices, the sweep's."""
    monkeypatch.setattr(V.G, "fixed_point_subgroup",
                        _wrong_for_order(G.fixed_point_subgroup, order, wrong))
    monkeypatch.setattr(V.G, "fixed_point_indices",
                        _wrong_indices(G.fixed_point_indices, _of_order(order), wrong))


class TestAbelianSweepMatchesCheckers:
    """sweep_alexander's three checks against the per-instance checkers,
    which stay their reference."""

    def _check(self, g, autos):
        result = V.sweep_alexander(g, _maps(autos), ("alexander_components", "regularity"))
        ok03, w03 = result["alexander_components"]
        ok05, w05 = result["regularity"]
        assert list(ok03) == _verdicts(g, autos, V.check_alexander_components), g.label
        assert list(ok05) == _verdicts(g, autos, V.check_generalized_regularity), g.label
        return ok03, w03, ok05, w05

    def test_every_type_with_small_aut(self, abelian_sweep):
        swept = 0
        for g, autos in abelian_sweep:
            if len(autos) <= 192:
                ok03, w03, ok05, w05 = self._check(g, autos)
                assert ok03.all() and ok05.all() and w03 is None and w05 is None
                swept += 1
        assert swept == 24                         # all but Z2^4

    def test_seeded_z2_4_sample(self, abelian_sweep):
        g, autos = next((g, a) for g, a in abelian_sweep if g.label == "Z2xZ2xZ2xZ2")
        pick = np.random.default_rng(6).choice(len(autos), 500, replace=False)
        ok03, _, ok05, _ = self._check(g, [autos[i] for i in sorted(pick)])
        assert ok03.all() and ok05.all()

    def test_one_prediction_per_difference_set(self, monkeypatch):
        # the coset checks pass twist_masks one row per D class, and never
        # read the closed forms it replaced
        def refuse(*args):
            raise AssertionError("the sweep called a closed form")

        real, calls = G.twist_masks, []
        monkeypatch.setattr(V.G, "image_id_minus_t", refuse)
        monkeypatch.setattr(V.G, "commutator_subgroup_with", refuse)
        monkeypatch.setattr(V.G, "twist_masks", lambda group, maps: (
            calls.append(len(maps)) or real(group, maps)))
        abelian = G.make_abelian([2, 4])
        s4 = G.make_symmetric(4)
        for g, maps, tids in ((abelian, G.enumerate_automorphisms(abelian), V._SWEPT),
                              (s4, s4.mul[s4.mul, s4.inv[:, None]], ("orbit_coset",))):
            calls.clear()
            result = V.sweep_alexander(g, maps, tids)
            assert all(ok.all() for ok, _ in result.values())
            assert sum(calls) == len(np.unique(Q.difference_sets(g, maps), axis=0)), g.label

    def test_regularity_alone_builds_no_masks(self, monkeypatch):
        # regularity reads only the matrices, so its sweeps, alone or in a
        # suite run that selects no coset check, never call twist_masks
        real, calls = G.twist_masks, []
        monkeypatch.setattr(V.G, "twist_masks", lambda group, maps: (
            calls.append(len(maps)) or real(group, maps)))
        s4 = G.make_symmetric(4)
        inner = s4.mul[s4.mul, s4.inv[:, None]]
        ok, witness = V.sweep_alexander(s4, inner, ("regularity",))["regularity"]
        assert ok.all() and len(ok) == 24 and witness is None and calls == []
        cfg = V.SuiteConfig(abelian_order_cap=8, nonabelian_registry=("S3", "S4"),
                            checks=("regularity",))
        assert all(r.passed for r in V.run_suite(cfg)) and calls == []
        result = V.sweep_alexander(s4, inner, ("regularity", "orbit_coset"))
        assert all(ok.all() for ok, _ in result.values())
        assert sum(calls) == len(np.unique(Q.difference_sets(s4, inner), axis=0))

    def test_failures_land_on_the_same_automorphisms(self, abelian_sweep, monkeypatch):
        # wrong predictions for every t with |im(id - t)| = 4 or |Fix(t)| = 2
        trivial = lambda group: G.Subgroup(group, [group.identity])
        monkeypatch.setattr(V.G, "twist_masks",
                            _wrong_masks(G.twist_masks, _of_order(4), trivial))
        _plant_fixed_for_order(monkeypatch, 2, trivial)
        for g, autos in abelian_sweep:
            if g.label in ("Z4xZ4", "Z2xZ6", "Z8", "Z2xZ2xZ2"):
                ok03, w03, ok05, w05 = self._check(g, autos)
                assert 0 < ok03.sum() < len(autos) and 0 < ok05.sum() < len(autos)
                first = autos[int(np.argmin(ok03))]
                assert w03 == V.check_alexander_components(g, first).witness
                first = autos[int(np.argmin(ok05))]
                assert w05 == V.check_generalized_regularity(g, first).witness

    def test_failures_in_one_matrix_chunks(self, abelian_sweep, monkeypatch):
        # one difference set per chunk: the first failing automorphism's
        # chunk need not be the first chunk with a failure
        trivial = lambda group: G.Subgroup(group, [group.identity])
        monkeypatch.setattr(V.G, "twist_masks",
                            _wrong_masks(G.twist_masks, _of_order(4), trivial))
        _plant_fixed_for_order(monkeypatch, 2, trivial)
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 1)
        for g, autos in abelian_sweep:
            if g.label in ("Z4xZ4", "Z2xZ6", "Z2xZ2xZ2"):
                ok03, w03, ok05, w05 = self._check(g, autos)
                assert w03 == V.check_alexander_components(g, autos[int(np.argmin(ok03))]).witness
                assert w05 == V.check_generalized_regularity(g, autos[int(np.argmin(ok05))]).witness

    @pytest.mark.parametrize("cells", [None, 1])
    def test_verdicts_split_within_a_difference_set(self, monkeypatch, cells):
        # a wrong index for one fixed-point subgroup, Fix(autos[32]) on
        # Z2xZ2xZ4: other automorphisms with a failing difference set, and
        # so the same graph, have other fixed points and keep passing.  A
        # later failing automorphism has a difference set that appears
        # first, so the witness is not the first failing difference set's
        # first failure, whether the sets share a chunk or each has its own
        g = G.make_abelian([2, 2, 4])
        autos = _autos(g)
        if cells is not None:
            monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", cells)
        order = {}                 # difference sets in order of first appearance
        d_of = [order.setdefault(d.tobytes(), len(order))
                for d in Q.difference_sets(g, _maps(autos))]
        real = G.fixed_point_subgroup
        fixes = [real(g, t).members for t in autos]
        failing = [i for i, f in enumerate(fixes) if f == fixes[32]]
        assert failing[0] == 32 and min(d_of[i] for i in failing) < d_of[32]
        trivial = lambda group: G.Subgroup(group, [group.identity])
        monkeypatch.setattr(V.G, "fixed_point_subgroup", lambda group, t: (
            trivial(group) if real(group, t).members == fixes[32] else real(group, t)))
        monkeypatch.setattr(V.G, "fixed_point_indices", _wrong_indices(
            G.fixed_point_indices, lambda group, row, fixed: fixed == fixes[32], trivial))
        ok, detail = V.sweep_alexander(g, _maps(autos), ("regularity",))["regularity"]
        assert np.flatnonzero(~ok).tolist() == failing
        assert any(d_of[i] == d_of[32] for i in np.flatnonzero(ok))
        assert list(ok) == _verdicts(g, autos, V.check_generalized_regularity)
        assert detail == V.check_generalized_regularity(g, autos[32]).witness

    def test_chunk_edges(self, monkeypatch):
        # Z4xZ4 has 96 automorphisms: 7 matrices of 16 x 16 cells per chunk
        # end in a partial chunk of 5
        g = G.make_abelian([4, 4])
        autos = _autos(g)
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 7 * 16 * 16)
        self._check(g, autos)

    def test_planted_fault_names_the_third_automorphism(self, monkeypatch):
        # the trivial graph in place of the matrices of two difference sets,
        # those of the 3rd and 70th automorphisms: the sweep builds one
        # matrix per distinct D, so every automorphism with either D fails
        g = G.make_abelian([4, 4])
        autos = _autos(g)
        dsets = Q.difference_sets(g, _maps(autos))
        planted = {dsets[2].tobytes(), dsets[69].tobytes()}
        sharing = [i for i, d in enumerate(dsets) if d.tobytes() in planted]
        assert sharing[0] == 2 and len(sharing) == 11
        real = Q.alexander_adjacency
        trivial = _scatter(Q.trivial_quandle(g.order).rhd)

        def adjacency(group, maps):
            out = real(group, maps)
            for row, d in enumerate(Q.difference_sets(group, maps)):
                if group.label == "Z4xZ4" and d.tobytes() in planted:
                    out[row] = trivial
            return out

        monkeypatch.setattr(Q, "alexander_adjacency", adjacency)
        ok = V.sweep_alexander(g, _maps(autos), ("alexander_components", "regularity"))
        for tid in ("alexander_components", "regularity"):
            assert np.flatnonzero(~ok[tid][0]).tolist() == sharing, tid
        cfg = V.SuiteConfig(checks=("alexander_components", "regularity"),
                            nonabelian_registry=())
        reports = V.run_suite(cfg)
        failing = [r for r in reports if not r.passed]
        assert [(r.theorem_id, r.instance) for r in failing] == [
            ("alexander_components", "Z4xZ4 (96 automorphisms)"),
            ("regularity", "Z4xZ4 (96 automorphisms)")]
        third = [int(v) for v in autos[2].mapping]
        image = G.image_id_minus_t(g, autos[2])
        c03, c05 = (r.witness for r in failing)
        # the witnesses come from the sweep's comparisons: the identity-only
        # row 0 misses the edge to the least non-zero member of im(id - t)
        assert c03 == {"sub_instance": "Z4xZ4", "failed": 11, "of": 96,
                       "detail": {"block_mismatch": (0, image.members[1]), "t": third}}
        assert c05 == {"sub_instance": "Z4xZ4", "failed": 11, "of": 96,
                       "detail": {"vertex": 0, "degree": (1, 1),
                                  "expected": G.fixed_point_subgroup(g, autos[2]).index(),
                                  "phi": third}}
        # and they are the checkers' own witnesses on the planted graph
        monkeypatch.setattr(V.gr, "build_cayley_graph", lambda q: V.gr.DirectedGraph._of_matrix(
            trivial, names=q.element_names))
        assert c03["detail"] == V.check_alexander_components(g, autos[2]).witness
        assert c05["detail"] == V.check_generalized_regularity(g, autos[2]).witness

    @pytest.mark.parametrize("factors, distinct", [([2, 2, 2, 2], 67), ([4, 4], 15)])
    def test_one_matrix_per_difference_set(self, monkeypatch, factors, distinct):
        # Z2^4: 20,160 automorphisms, one D per subgroup; Z4xZ4: 96
        g = G.make_abelian(factors)
        maps = G.enumerate_automorphisms(g)
        assert len(np.unique(Q.difference_sets(g, maps), axis=0)) == distinct
        real = Q.alexander_adjacency
        built = []
        monkeypatch.setattr(Q, "alexander_adjacency", lambda group, rows: (
            built.append(len(rows)) or real(group, rows)))
        tids = ("alexander_components", "regularity")
        if len(maps) <= V._ISO_PAIR_AUT_CAP:
            tids += ("alexander_iso",)
        results = V.sweep_alexander(g, maps, tids)
        assert all(ok.all() for ok, _ in results.values())
        assert sum(built) == distinct

    def test_checker_witness_comes_first(self, monkeypatch):
        g = G.make_abelian([3, 3])
        autos = _autos(g)

        class FakeSub:
            def index(self):
                return 99

        monkeypatch.setattr(V.G, "fixed_point_subgroup", lambda a, b: FakeSub())
        monkeypatch.setattr(V.G, "fixed_point_indices", lambda group, maps: np.full(len(maps), 99))
        ok, detail = V.sweep_alexander(g, _maps(autos), ("regularity",))["regularity"]
        assert not ok.any()
        assert detail == V.check_generalized_regularity(g, autos[0]).witness

    def _check_iso(self, g, autos, pairs):
        """The sweep's alexander_iso verdicts on `pairs` (either way round)
        equal the checker's, and its witness is the checker's for the first
        failing pair i <= j in row-major order.  Returns every verdict of
        the sweep, keyed by pair, and the checker's witnesses on `pairs`."""
        ok, detail = V.sweep_alexander(g, _maps(autos), ("alexander_iso",))["alexander_iso"]
        every = [(i, j) for i in range(len(autos)) for j in range(i, len(autos))]
        assert len(ok) == len(every)
        verdict = dict(zip(every, ok.tolist()))
        want = [V.check_alexander_iso_corollary(g, autos[i], autos[j]) for i, j in pairs]
        assert [verdict[min(p), max(p)] for p in pairs] == [r.passed for r in want]
        failing = [p for p in every if not verdict[p]]
        if failing:
            i, j = failing[0]
            assert detail == V.check_alexander_iso_corollary(g, autos[i], autos[j]).witness
        else:
            assert detail is None
        return verdict, [r.witness for r in want]

    def test_iso_all_z3xz3_pairs(self):
        g = G.make_abelian([3, 3])
        autos = _autos(g)
        pairs = [(i, j) for i in range(len(autos)) for j in range(i, len(autos))]
        assert len(pairs) == 1176
        verdict, witnesses = self._check_iso(g, autos, pairs)
        assert len(verdict) == 1176 and all(verdict.values())
        assert witnesses == [None] * 1176

    def test_iso_seeded_z4xz4_sample(self):
        g = G.make_abelian([4, 4])
        autos = _autos(g)
        rng = np.random.default_rng(3)
        pairs = [tuple(int(v) for v in rng.integers(0, len(autos), 2)) for _ in range(300)]
        self._check_iso(g, autos, pairs)

    def test_iso_failures_match(self, monkeypatch):
        # a wrong image size for the images of two automorphisms (the sweep
        # reads one size per distinct image): pairs that are isomorphic with
        # unequal sizes, and non-isomorphic with equal sizes, both fail
        g = G.make_abelian([2, 4])
        autos = _autos(g)
        wrong = {G.twist_subgroup(g, autos[1]).members, G.twist_subgroup(g, autos[5]).members}
        monkeypatch.setattr(V.G, "twist_masks", _wrong_masks(
            G.twist_masks, lambda group, row, members: members in wrong,
            lambda group: G.Subgroup(group, [group.identity])))
        pairs = [(i, j) for i in range(len(autos)) for j in range(len(autos))]
        verdict, witnesses = self._check_iso(g, autos, pairs)
        assert not all(verdict.values())
        assert {w["iso"] for w in witnesses if w is not None} == {True, False}

    def test_iso_capped_groups_all_pairs(self, abelian_sweep):
        # the suite skips these groups (over _ISO_PAIR_AUT_CAP automorphisms)
        rng = np.random.default_rng(7)
        for label, count in (("Z2xZ2xZ2", 168), ("Z2xZ2xZ4", 192)):
            g, autos = next((g, a) for g, a in abelian_sweep if g.label == label)
            assert len(autos) == count
            pairs = [(i, j) for i in range(count) for j in range(i, count)]
            sample = [pairs[k] for k in sorted(rng.choice(len(pairs), 200, replace=False))]
            verdict, _ = self._check_iso(g, autos, sample)
            assert len(verdict) == count * (count + 1) // 2
            assert all(verdict.values())


def _z4xz4_iso_pairs():
    g = G.make_abelian([4, 4])
    autos = _autos(g)
    pairs = [(i, j) for i in range(len(autos)) for j in range(i, len(autos))]
    return g, autos, pairs


def _iso_sweep(g, autos):
    return V.sweep_alexander(g, _maps(autos), ("alexander_iso",))["alexander_iso"]


def _search_classes(matrices, search=None):
    """The class loop alexander_iso ran before its keys, kept as the oracle:
    each matrix, in order, is searched against the class representatives in
    turn (search, by default graphs.find_isomorphism, on each pair), a
    mapping counts only if it carries every edge and non-edge onto the
    representative's, and an unmatched matrix starts a new class."""
    search = search or V.gr.find_isomorphism
    reps, class_of = [], []
    for m in matrices:
        graph = V.gr.DirectedGraph._of_matrix(m)
        for c, rep in enumerate(reps):
            p = search(graph, rep)
            if p is not None and (m == rep.matrix()[np.ix_(p, p)]).all():
                class_of.append(c)
                break
        else:
            class_of.append(len(reps))
            reps.append(graph)
    return class_of


class _Collected(Exception):
    """Raised by the spy on _iso_classes once it has the matrices, so that
    a family too large for pair verdicts stops before its pair array."""


def _relabelled(m, rng):
    perm = rng.permutation(len(m))
    out = np.zeros_like(m)
    out[np.ix_(perm, perm)] = m
    return out


def _cycles_with_loops(lengths):
    """The disjoint union of directed cycles of these lengths, each vertex
    with its loop: an equivalence relation only when no length exceeds 2."""
    n = sum(lengths)
    m = np.eye(n, dtype=bool)
    start = 0
    for length in lengths:
        for v in range(start, start + length):
            m[v, start + (v - start + 1) % length] = True
        start += length
    return m


def _partition_matrix(sizes):
    label = np.repeat(np.arange(len(sizes)), sizes)
    return label[:, None] == label[None, :]


def _distinct(matrices):
    seen = {}
    for m in matrices:
        seen.setdefault(m.tobytes(), m)
    return list(seen.values())


def _complemented(monkeypatch):
    """Plants each Alexander matrix's complement: a map is an isomorphism
    of two complements exactly when it is one of the two matrices, so every
    class and verdict stays, but no complement is reflexive, so none has a
    key and the whole family goes through the search."""
    real = Q.alexander_adjacency
    monkeypatch.setattr(V.Q, "alexander_adjacency", lambda group, rows: ~real(group, rows))


class TestIsoClassesCatchSabotage:
    """The class step of the alexander_iso sweep: a wrong key, a missed
    class, or a wrong or missing isomorphism in the search fallback must
    come out as failing pairs.  The search faults are planted on the
    complemented family (_complemented), which has no keys.  A keyed family
    makes no search, and the fallback stays within distinct matrices times
    classes."""

    def _matrices_and_sizes(self, g, autos):
        keys = [V.gr.build_cayley_graph(Q.alexander_quandle(g, t)).matrix().tobytes()
                for t in autos]
        return keys, [G.image_id_minus_t(g, t).order for t in autos]

    def _fails(self, monkeypatch, plant, merged=False):
        """Z4xZ4's sweep with the fault planted fails exactly on the pairs
        of distinct matrices with equal |N| (every distinct matrix its own
        class), or with merged on the pairs of unequal |N| (one class)."""
        g, autos, pairs = _z4xz4_iso_pairs()
        keys, sizes = self._matrices_and_sizes(g, autos)
        plant()
        ok, detail = _iso_sweep(g, autos)
        if merged:
            want = [sizes[i] != sizes[j] for i, j in pairs]
        else:
            want = [keys[i] != keys[j] and sizes[i] == sizes[j] for i, j in pairs]
        assert any(want) and (~ok).tolist() == want
        i, j = pairs[want.index(True)]
        assert detail == {"iso": merged, "image_sizes": (sizes[i], sizes[j]),
                          "t1": [int(v) for v in autos[i].mapping],
                          "t2": [int(v) for v in autos[j].mapping]}

    def test_constant_key_merges_the_classes(self, monkeypatch):
        self._fails(monkeypatch, lambda: monkeypatch.setattr(V, "_iso_key", lambda m: (1,)),
                    merged=True)

    def test_key_per_matrix_misses_classes(self, monkeypatch):
        self._fails(monkeypatch, lambda: monkeypatch.setattr(V, "_iso_key", lambda m: m.tobytes()))

    def test_identity_mapping_fails_the_edge_check(self, monkeypatch):
        def plant():
            _complemented(monkeypatch)
            monkeypatch.setattr(V.gr, "find_isomorphism", lambda g1, g2, cap=64: list(range(g1.n)))
        self._fails(monkeypatch, plant)

    def test_missed_isomorphisms_fail(self, monkeypatch):
        real = V.gr.find_isomorphism

        def search(g1, g2):
            if g1.matrix().tobytes() != g2.matrix().tobytes():
                return None
            return real(g1, g2)

        def plant():
            _complemented(monkeypatch)
            monkeypatch.setattr(V.gr, "find_isomorphism", search)
        self._fails(monkeypatch, plant)

    def test_searches_per_distinct_matrix_and_class(self, monkeypatch):
        g, autos, pairs = _z4xz4_iso_pairs()
        keys, sizes = self._matrices_and_sizes(g, autos)
        assert (len(set(keys)), len(set(sizes))) == (15, 5)
        real = V.gr.find_isomorphism
        calls = []
        monkeypatch.setattr(V.gr, "find_isomorphism",
                            lambda g1, g2: calls.append(1) or real(g1, g2))
        # every matrix has a key
        ok, detail = _iso_sweep(g, autos)
        assert len(ok) == len(pairs) and ok.all() and detail is None
        assert calls == []
        # none does, and the verdicts stay
        _complemented(monkeypatch)
        ok, detail = _iso_sweep(g, autos)
        assert len(ok) == len(pairs) and ok.all() and detail is None
        assert 0 < len(calls) <= 15 * 5


class TestIsoKeysMatchTheSearch:
    """_iso_classes' ids equal the search oracle's (_search_classes) on
    every list a sweep hands it and on planted lists of both kinds, and a
    default pass makes no search."""

    def test_every_abelian_type_to_31(self, monkeypatch):
        # the matrix list each whole family's sweep hands _iso_classes
        groups, lists = G.abelian_group_types(31), []

        def spy(matrices):
            lists.append(np.array(matrices))
            raise _Collected
        with monkeypatch.context() as patch:
            patch.setattr(V, "_iso_classes", spy)
            for g in groups:
                with pytest.raises(_Collected):
                    V.sweep_alexander(g, G._automorphism_chunks(g, cap=31), ("alexander_iso",))
        # Z2^4 and Z3^3 are far over the pair cap; their matrices are one
        # per subgroup
        sizes = {g.label: len(m) for g, m in zip(groups, lists)}
        assert sizes["Z2xZ2xZ2xZ2"] == 67 and sizes["Z3xZ3xZ3"] == 28
        for g, matrices in zip(groups, lists):
            assert all(V._iso_key(m) is not None for m in matrices), g.label
            assert V._iso_classes(matrices).tolist() == _search_classes(matrices), g.label

    def _planted(self, rng, n=7):
        """Relabelled unions of directed cycles with loops for each partition
        of n with a part over 2 (no key), and relabelled partition matrices
        for each partition of n with a part over 1 (a key), one to three
        copies of each."""
        def partitions(k, most):
            if k == 0:
                yield []
            for p in range(min(k, most), 0, -1):
                for rest in partitions(k - p, p):
                    yield [p] + rest
        parts = list(enumerate(partitions(n, n)))
        cycles = [_relabelled(_cycles_with_loops(p), rng) for k, p in parts if max(p) > 2
                  for _ in range(1 + k % 3)]
        blocks = [_relabelled(_partition_matrix(p), rng) for k, p in parts if max(p) > 1
                  for _ in range(1 + k % 3)]
        return _distinct(cycles), _distinct(blocks)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_planted_lists(self, seed):
        rng = np.random.default_rng(seed)
        cycles, blocks = self._planted(rng)
        assert all(V._iso_key(m) is None for m in cycles)
        assert all(V._iso_key(m) is not None for m in blocks)
        mixed = [cycles + blocks, blocks + cycles]
        mixed.append([(cycles + blocks)[k] for k in rng.permutation(len(cycles + blocks))])
        for matrices in (cycles, blocks, *mixed):
            want = _search_classes(matrices)
            # some classes hold several matrices, and some matrices stand alone
            assert len(set(want)) < len(matrices) and min(np.bincount(want)) == 1
            assert V._iso_classes(matrices).tolist() == want

    def test_default_pass_makes_no_search(self, monkeypatch):
        real_classes, real_search = V._iso_classes, V.gr.find_isomorphism
        lists, calls = [], []
        monkeypatch.setattr(V, "_iso_classes", lambda ms: lists.append(ms) or real_classes(ms))
        monkeypatch.setattr(V.gr, "find_isomorphism",
                            lambda g1, g2: calls.append(1) or real_search(g1, g2))
        assert all(r.passed for r in V.run_suite())
        assert lists and calls == []


def _in_degree_plant(g, t):
    """The Alexander table of t with one non-loop target a of row 0
    replaced by a vertex b outside that row: every out-degree stays
    [G : Fix(t)], the in-degrees of a and b move by one."""
    table = Q.alexander_quandle(g, t).rhd.copy()
    row = set(table[0].tolist())
    a = min(row - {0})
    b = min(set(range(g.order)) - row)
    table[0][table[0] == a] = b
    return table, a, b


class TestRegularityInDegrees:
    """A table whose out-degrees are all right but two in-degrees are not
    must fail regularity, in the sweep and in the per-instance checker."""

    def _plant(self):
        g = G.make_abelian([4, 4])
        autos = _autos(g)
        k = next(k for k, t in enumerate(autos)
                 if 1 < G.fixed_point_subgroup(g, t).index() < g.order)
        table, a, b = _in_degree_plant(g, autos[k])
        return g, autos, k, table, a, b

    def test_sweep_fails_the_planted_automorphism(self, monkeypatch):
        # planted on the matrix of autos[k]'s difference set D, so exactly
        # the automorphisms with that D fail; autos[k] is the first of them
        g, autos, k, table, a, b = self._plant()
        dsets = Q.difference_sets(g, _maps(autos))
        sharing = [i for i, d in enumerate(dsets) if (d == dsets[k]).all()]
        assert sharing[0] == k and len(sharing) > 1
        real = Q.alexander_adjacency

        def adjacency(group, maps):
            out = real(group, maps)
            for row, d in enumerate(Q.difference_sets(group, maps)):
                if (d == dsets[k]).all():
                    out[row] = _scatter(table)
            return out

        monkeypatch.setattr(Q, "alexander_adjacency", adjacency)
        ok, detail = V.sweep_alexander(g, _maps(autos), ("regularity",))["regularity"]
        assert np.flatnonzero(~ok).tolist() == sharing
        expected = G.fixed_point_subgroup(g, autos[k]).index()
        out, inn = detail["degree"]
        assert detail["vertex"] == min(a, b) and detail["phi"] == autos[k].mapping.tolist()
        assert out == expected and inn != expected

    def test_checker_fails_the_planted_degrees(self, monkeypatch):
        g, autos, k, table, a, b = self._plant()
        planted = V.gr.DirectedGraph(g.order, [(x, int(y)) for x in range(g.order)
                                               for y in table[x]])
        real = V.gr.degrees
        monkeypatch.setattr(V.gr, "degrees", lambda graph: real(planted))
        r = V.check_generalized_regularity(g, autos[k])
        assert not r.passed
        out, inn = r.witness["degree"]
        assert r.witness["vertex"] == min(a, b)
        assert out == r.witness["expected"] and inn != r.witness["expected"]


class TestRegistrySweepMatchesCheckers:
    """sweep_alexander's regularity on the generalized Alexander quandles
    of nonabelian groups, against check_generalized_regularity."""

    def test_every_inner_and_outer_automorphism(self, registry_groups):
        for g in registry_groups:
            inner = [G.inner_automorphism(g, h) for h in range(g.order)]
            for autos in (inner, _autos(g, cap=24)):
                ok, detail = V.sweep_alexander(g, _maps(autos), ("regularity",))["regularity"]
                assert list(ok) == _verdicts(g, autos, V.check_generalized_regularity)
                assert ok.all() and detail is None, g.label

    def test_failures_land_on_the_same_automorphisms(self, registry_groups, monkeypatch):
        trivial = lambda group: G.Subgroup(group, [group.identity])
        _plant_fixed_for_order(monkeypatch, 2, trivial)
        g = next(g for g in registry_groups if g.label == "D4")
        autos = _autos(g)
        ok, detail = V.sweep_alexander(g, _maps(autos), ("regularity",))["regularity"]
        assert list(ok) == _verdicts(g, autos, V.check_generalized_regularity)
        assert 0 < ok.sum() < len(autos)
        first = autos[int(np.argmin(ok))]
        assert detail == V.check_generalized_regularity(g, first).witness

    def test_suite_sweeps_conjugation_by_each_h(self, monkeypatch):
        # row h of the inner family the suite builds in one gather is
        # inner_automorphism(g, h), x -> h x h^-1
        real = V.sweep_alexander
        swept = []
        monkeypatch.setattr(V, "sweep_alexander", lambda g, maps, ids, clock: (
            swept.append((g, maps)) or real(g, maps, ids, clock)))
        cfg = V.SuiteConfig(checks=("regularity",), abelian_order_cap=1,
                            nonabelian_registry=("S3", "D4", "D5"))
        V.run_suite(cfg)
        inner = [(g, maps) for g, maps in swept if not g.is_abelian()]
        assert [g.label for g, _ in inner] == ["S3", "D4", "D5"]
        for g, maps in inner:
            want = np.stack([G.inner_automorphism(g, h).mapping for h in range(g.order)])
            assert maps.dtype == np.int64 and (maps == want).all(), g.label

    def test_suite_report_equals_merged_checkers(self, monkeypatch):
        # the report the per-instance loop gave: checker reports merged
        trivial = lambda group: G.Subgroup(group, [group.identity])
        _plant_fixed_for_order(monkeypatch, 2, trivial)
        cfg = V.SuiteConfig(checks=("regularity",), abelian_order_cap=1,
                            nonabelian_registry=("S3", "D4", "D5"))
        got = [r for r in V.run_suite(cfg) if "inner" in r.instance]
        want = []
        for label in ("S3", "D4", "D5"):
            g = V.specs.group_from_string(label)
            subs = [V.check_generalized_regularity(g, G.inner_automorphism(g, h))
                    for h in range(g.order)]
            want.append(_merged_checkers("regularity", f"{label} (inner, all h)", subs))
        assert _strip(got) == want
        # no centralizer in D4 has order 2
        assert [r.passed for r in got] == [False, True, False]

    def test_sweep_skips_the_axiom_scan(self, registry_groups, monkeypatch):
        # the sweep's tables are generalized_alexander_quandle's, which
        # TestFamilyConstructorsMatchTheAxiomScan puts through the scan
        def refuse(table):
            raise AssertionError("a sweep table was scanned")

        monkeypatch.setattr(Q, "verify_quandle_axioms", refuse)
        g = G.make_abelian([4, 4])
        results = V.sweep_alexander(g, G.enumerate_automorphisms(g), V._SWEPT)
        assert all(ok.all() for ok, _ in results.values())
        s4 = next(g for g in registry_groups if g.label == "S4")
        ok, _ = V.sweep_alexander(s4, G.enumerate_automorphisms(s4, cap=24),
                                  ("regularity",))["regularity"]
        assert ok.all() and ok.size == 24


def _inner(g):
    """The inner family the suite sweeps: row h is x -> h x h^-1."""
    return g.mul[g.mul, g.inv[:, None]]


class TestStackedOrbitCoset:
    """orbit_coset as one sweep over the inner family, against
    check_orbit_coset, which stays its reference."""

    def _check(self, g):
        ok, detail = V.sweep_alexander(g, _inner(g), ("orbit_coset",))["orbit_coset"]
        checks = [V.check_orbit_coset(g, h) for h in range(g.order)]
        assert ok.tolist() == [r.passed for r in checks], g.label
        bad = [r.witness for r in checks if not r.passed]
        assert detail == (bad[0] if bad else None), g.label
        return ok

    def test_verdicts_match_the_checker(self, registry_groups):
        extra = [V.specs.group_from_string(s) for s in ("S3xS3", "D4xZ2", "D16")]
        for g in list(registry_groups) + extra:
            assert self._check(g).all()

    def test_inner_family_only(self):
        g = G.make_symmetric(3)
        with pytest.raises(ValueError, match="inner family"):
            V.sweep_alexander(g, G.enumerate_automorphisms(g)[::-1], ("orbit_coset",))

    @staticmethod
    def _in_coset_cell(g, h, coset):
        """A non-edge inside coset `coset` of <[h, x]>, or where that coset
        is complete an edge of it: flipping it keeps every forward orbit,
        so only the translations touching that coset fail."""
        blocks = G.cosets(g, G.commutator_subgroup_with(g, h), side="left").blocks
        assert len(blocks) >= 3 and len(blocks[coset]) >= 3
        m = Q.alexander_adjacency(g, _inner(g)[[h]])[0]
        cells = [(u, w) for u in blocks[coset] for w in blocks[coset] if u != w]
        return next(((u, w) for u, w in cells if not m[u, w]), cells[0])

    @staticmethod
    def _plant(monkeypatch, g, h, cell):
        """Flip one cell of the matrix of the difference set of h, both
        where the sweep builds its matrices and where the checker builds its
        graph.  Returns the h that share the difference set."""
        dsets = Q.difference_sets(g, _inner(g))

        def plant(m):
            m = m.copy()
            m[cell] = not m[cell]
            return m

        real, real_graph = Q.alexander_adjacency, V.gr.build_cayley_graph

        def adjacency(group, maps):
            out = real(group, maps)
            for row, d in enumerate(Q.difference_sets(group, maps)):
                if group.label == g.label and (d == dsets[h]).all():
                    out[row] = plant(out[row])
            return out

        def graph(q):
            m = real_graph(q).matrix()
            hit = q.provenance.get("group") == g.label and (m[g.identity] == dsets[h]).all()
            return V.gr.DirectedGraph._of_matrix(plant(m) if hit else m, names=q.element_names)

        monkeypatch.setattr(Q, "alexander_adjacency", adjacency)
        monkeypatch.setattr(V.gr, "build_cayley_graph", graph)
        return [x for x in range(g.order) if (dsets[x] == dsets[h]).all()]

    @pytest.mark.parametrize("coset, pair", [(0, (0, 1)), (2, (0, 2))])
    def test_planted_in_coset_fault(self, monkeypatch, coset, pair):
        # D6 with h = r: four cosets of <[r, x]> = <r^2>.  A fault in coset
        # 0 fails every translation from it, the first being (0, 1); one in
        # coset 2 fails only (0, 2).  Translating from any other coset
        # would name other pairs
        g = G.make_dihedral(6)
        h = g.index_of("r")
        sharing = self._plant(monkeypatch, g, h, self._in_coset_cell(g, h, coset))
        assert sharing == [h, g.index_of("r^4")]
        ok = self._check(g)
        assert np.flatnonzero(~ok).tolist() == sharing
        assert V.check_orbit_coset(g, h).witness == {"translation_not_isomorphism": pair}
        cfg = V.SuiteConfig(checks=("orbit_coset",), nonabelian_registry=("D6",))
        (report,) = V.run_suite(cfg)
        checks = [V.check_orbit_coset(g, x) for x in range(g.order)]
        assert _strip([report]) == [_merged_checkers("orbit_coset", "D6 (all h)", checks)]
        assert report.witness["sub_instance"] == "(D6, h=r)"

    def test_planted_cross_coset_edge(self, monkeypatch):
        # S4 with h = (12): an edge out of the coset of 5 merges two orbits
        g = G.make_symmetric(4)
        h = g.index_of("(12)")
        members = G.commutator_subgroup_with(g, h).member_set()
        v = min(x for x in range(g.order) if int(g.mul[g.inv[5], x]) not in members)
        sharing = self._plant(monkeypatch, g, h, (5, v))
        ok = self._check(g)
        assert np.flatnonzero(~ok).tolist() == sharing
        assert "orbit_mismatch" in V.check_orbit_coset(g, h).witness

    def test_wrong_subgroup_is_not_normal(self, monkeypatch):
        # <(12)> in place of <[h, x]> = A4 for every h with that subgroup
        g = G.make_symmetric(4)
        a4 = G.commutator_subgroup_with(g, g.index_of("(12)")).members
        sharing = [x for x in range(g.order) if G.commutator_subgroup_with(g, x).members == a4]
        wrong = G.subgroup_generated(g, [g.index_of("(12)")])
        monkeypatch.setattr(V.G, "twist_masks", _wrong_masks(
            G.twist_masks, lambda group, row, members: members == a4, lambda group: wrong))
        ok = self._check(g)
        assert np.flatnonzero(~ok).tolist() == sharing
        assert V.check_orbit_coset(g, g.index_of("(12)")).witness == {
            "not_normal": list(wrong.members)}

    def test_chunk_edges(self, monkeypatch):
        # D6's inner family has 4 difference sets: chunks of 3 matrices of
        # 12 x 12 cells end in a partial chunk of 1, and the planted fault
        # sits in the last one
        g = G.make_dihedral(6)
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 3 * 12 * 12)
        built = []
        real = Q.alexander_adjacency
        monkeypatch.setattr(Q, "alexander_adjacency", lambda group, maps: (
            built.append(len(maps)) or real(group, maps)))
        assert self._check(g).all() and built == [3, 1]
        s = g.index_of("s")
        sharing = self._plant(monkeypatch, g, s, self._in_coset_cell(g, s, 2))
        assert sharing == list(range(6, 12))
        assert np.flatnonzero(~self._check(g)).tolist() == sharing


class TestFirstFailingClass:
    """Faults planted on two difference sets whose packed masks sort in the
    opposite order to their first appearance, one matrix per chunk: the
    witness is the first failing automorphism's, so the sweep must visit
    the difference sets in order of first appearance."""

    @staticmethod
    def _mask_rank(dsets, rows):
        """The rank of each of `rows` among their packed difference-set
        masks, in the order a sort of the packed bytes gives."""
        packed = np.packbits(dsets[rows], axis=1)
        return np.argsort(np.lexsort(packed.T)).tolist()

    def test_alexander_components(self, monkeypatch):
        g = G.make_abelian([4, 4])
        autos = _autos(g)
        dsets = Q.difference_sets(g, _maps(autos))
        early, late = 4, 33           # the first automorphisms with their difference sets
        assert self._mask_rank(dsets, [early, late]) == [1, 0]
        planted = {dsets[early].tobytes(), dsets[late].tobytes()}
        sharing = [i for i, d in enumerate(dsets) if d.tobytes() in planted]
        assert sharing[0] == early and late in sharing
        real = Q.alexander_adjacency
        trivial = _scatter(Q.trivial_quandle(g.order).rhd)

        def adjacency(group, maps):
            out = real(group, maps)
            for row, d in enumerate(Q.difference_sets(group, maps)):
                if d.tobytes() in planted:
                    out[row] = trivial
            return out

        monkeypatch.setattr(Q, "alexander_adjacency", adjacency)
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", g.order * g.order)
        tids = ("alexander_components", "regularity")
        results = V.sweep_alexander(g, _maps(autos), tids)
        for tid in tids:
            assert np.flatnonzero(~results[tid][0]).tolist() == sharing, tid
        monkeypatch.setattr(V.gr, "build_cayley_graph", lambda q: V.gr.DirectedGraph._of_matrix(
            trivial, names=q.element_names))
        assert results["alexander_components"][1] == \
            V.check_alexander_components(g, autos[early]).witness
        assert results["regularity"][1] == \
            V.check_generalized_regularity(g, autos[early]).witness

    def test_orbit_coset(self, monkeypatch):
        # D6 with h = r and h = r^2, both with four cosets of <r^2>: a fault
        # in coset 0 of r's matrix fails translation (0, 1), one in coset 2
        # of r^2's fails only (0, 2)
        g = G.make_dihedral(6)
        early, late = g.index_of("r"), g.index_of("r^2")
        dsets = Q.difference_sets(g, _inner(g))
        assert self._mask_rank(dsets, [early, late]) == [1, 0]
        plant = TestStackedOrbitCoset._plant
        cell = TestStackedOrbitCoset._in_coset_cell
        sharing = plant(monkeypatch, g, early, cell(g, early, 0))
        sharing += plant(monkeypatch, g, late, cell(g, late, 2))
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", g.order * g.order)
        ok = TestStackedOrbitCoset()._check(g)
        assert np.flatnonzero(~ok).tolist() == sorted(sharing) == [
            g.index_of(x) for x in ("r", "r^2", "r^4", "r^5")]
        assert V.check_orbit_coset(g, early).witness == {"translation_not_isomorphism": (0, 1)}
        assert V.check_orbit_coset(g, late).witness == {"translation_not_isomorphism": (0, 2)}


class TestSuiteWiring:
    def test_registry_groups_built_once(self, monkeypatch):
        real = V.specs.group_from_string
        built = []
        monkeypatch.setattr(V.specs, "group_from_string",
                            lambda label: built.append(label) or real(label))
        cfg = V.SuiteConfig(abelian_order_cap=4, nonabelian_registry=("S3", "D4"),
                            dihedral_range=(2, 4), takasaki_window=2)
        assert all(r.passed for r in V.run_suite(cfg))
        assert built == ["S3", "D4"]
        built.clear()
        V.run_suite(V.SuiteConfig(checks=("dihedral",), dihedral_range=(2, 3)))
        assert built == []

    def test_one_sweep_per_group_and_no_pairs_above_the_cap(self, monkeypatch):
        real = V.sweep_alexander
        calls = []

        def spy(g, autos, ids, clock):
            # a large family comes as a stream of chunks, so the count is
            # read from the verdicts: one per automorphism for regularity
            results = real(g, autos, ids, clock)
            calls.append((g.label, len(results["regularity"][0]), ids))
            return results

        monkeypatch.setattr(V, "sweep_alexander", spy)
        cfg = V.SuiteConfig(abelian_order_cap=8, nonabelian_registry=("S3",),
                            checks=("alexander_components", "alexander_iso", "regularity"))
        reports = V.run_suite(cfg)
        assert all(r.passed for r in reports)
        assert calls[-1] == ("S3", 6, ("regularity",))
        abelian = calls[:-1]
        assert len(abelian) == len({label for label, _, _ in abelian}) == 11
        assert all(("alexander_iso" in ids) == (n <= V._ISO_PAIR_AUT_CAP)
                   for _, n, ids in abelian)
        assert ("Z2xZ2xZ2", 168, ("alexander_components", "regularity")) in abelian
        iso = [r.instance for r in reports if r.theorem_id == "alexander_iso"]
        assert len(iso) == 10 and "Z8 (10 pairs)" in iso

    def test_sweep_refuses_ids_it_has_no_judge_for(self):
        # a suite check the sweep does not run, alone or beside one it does
        g = G.make_cyclic(3)
        maps = G.enumerate_automorphisms(g)
        with pytest.raises(ValueError, match="^sweep_alexander has no judge for axioms$"):
            V.sweep_alexander(g, maps, ("axioms",))
        with pytest.raises(ValueError, match="^sweep_alexander has no judge for bogus$"):
            V.sweep_alexander(g, maps, ("alexander_components", "bogus"))
        assert set(V.sweep_alexander(g, maps, V._SWEPT)) == set(V._SWEPT)

    def test_every_check_id_has_one_table_entry(self):
        # run_suite reads an id in neither table as no reports, and the
        # sweep loop has no CHECK_IDS place for a judge outside it
        entries = list(V._PER_INSTANCE) + list(V._JUDGES)
        assert sorted(entries) == sorted(V.CHECK_IDS)


class TestStreamedSweep:
    """sweep_alexander over a stream of row chunks (groups._automorphism_chunks)
    against the same sweep over the whole image array."""

    TIDS = ("alexander_components", "regularity")

    @staticmethod
    def _z2_4(monkeypatch):
        # 2^14 cells: 1,024 candidate tuples per chunk, 50 chunks for Z2^4
        g = G.make_abelian([2, 2, 2, 2])
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 1 << 14)
        chunks = list(G._automorphism_chunks(g))
        assert len(chunks) >= 10
        return g, chunks, G.enumerate_automorphisms(g)

    def _both(self, g, chunks, maps):
        """The merged reports of the streamed and the whole-array sweep,
        without their times."""
        streamed = V._sweep_reports(g, iter(chunks), self.TIDS, predicted=len(maps))
        whole = V._sweep_reports(g, maps, self.TIDS)
        return ([_strip([streamed[t]]) for t in self.TIDS],
                [_strip([whole[t]]) for t in self.TIDS])

    def test_z2_4_in_many_chunks_equals_the_array_sweep(self, monkeypatch):
        g, chunks, maps = self._z2_4(monkeypatch)
        real, built = Q.alexander_adjacency, []
        monkeypatch.setattr(Q, "alexander_adjacency", lambda group, rows: (
            built.append(len(rows)) or real(group, rows)))
        streamed = V.sweep_alexander(g, iter(chunks), self.TIDS)
        assert sum(built) == 67         # one matrix per D class over all chunks
        whole = V.sweep_alexander(g, maps, self.TIDS)
        for tid in self.TIDS:
            ok, detail = streamed[tid]
            assert ok.shape == (20160,) and ok.all() and detail is None, tid
            assert np.array_equal(ok, whole[tid][0]) and detail == whole[tid][1], tid
        got, want = self._both(g, chunks, maps)
        assert got == want

    @staticmethod
    def _latest_class(masks, later_than):
        """The mask of the class whose first member comes last, which must
        lie past row later_than."""
        order = {}
        for i, m in enumerate(masks):
            order.setdefault(m.tobytes(), i)
        key, first = max(order.items(), key=lambda item: item[1])
        assert first >= later_than
        return key, first

    def test_twist_fault_first_met_in_a_later_chunk(self, monkeypatch):
        g, chunks, maps = self._z2_4(monkeypatch)
        dsets = Q.difference_sets(g, maps)
        key, first = self._latest_class(dsets, len(chunks[0]))
        monkeypatch.setattr(V.G, "twist_masks", _wrong_masks(
            G.twist_masks,
            lambda group, row, members: Q.difference_sets(group, row[None])[0].tobytes() == key,
            lambda group: G.Subgroup(group, [group.identity])))
        got, want = self._both(g, chunks, maps)
        assert got == want
        (_, _, passed, witness), = got[0]
        assert not passed and witness["failed"] == sum(d.tobytes() == key for d in dsets)
        ok, _ = V.sweep_alexander(g, iter(chunks), self.TIDS)["alexander_components"]
        assert int(np.argmin(ok)) == first
        auto = G.Automorphism._of_checked(g, maps[first])
        assert witness["detail"] == V.check_alexander_components(g, auto).witness

    def test_fixed_fault_first_met_in_a_later_chunk(self, monkeypatch):
        g, chunks, maps = self._z2_4(monkeypatch)
        key, first = self._latest_class(maps == np.arange(g.order), len(chunks[0]))
        real = G.fixed_point_subgroup
        trivial = lambda group: G.Subgroup(group, [group.identity])
        monkeypatch.setattr(V.G, "fixed_point_subgroup", lambda group, phi: (
            trivial(group) if (phi.mapping == np.arange(group.order)).tobytes() == key
            else real(group, phi)))
        monkeypatch.setattr(V.G, "fixed_point_indices", _wrong_indices(
            G.fixed_point_indices,
            lambda group, row, fixed: (row == np.arange(group.order)).tobytes() == key, trivial))
        got, want = self._both(g, chunks, maps)
        assert got == want
        (_, _, passed, witness), = got[1]
        failing = [i for i, row in enumerate(maps == np.arange(g.order)) if row.tobytes() == key]
        assert not passed and witness["failed"] == len(failing) > 1 and failing[0] == first
        ok, _ = V.sweep_alexander(g, iter(chunks), self.TIDS)["regularity"]
        assert np.flatnonzero(~ok).tolist() == failing
        auto = G.Automorphism._of_checked(g, maps[first])
        assert witness["detail"] == V.check_generalized_regularity(g, auto).witness

    def test_enumeration_is_a_shared_step_of_the_stream(self, monkeypatch):
        # the enumeration runs inside the sweep, so its time is shared, and
        # the reports still sum to no more than the sweep's wall time
        g, chunks, maps = self._z2_4(monkeypatch)

        def slow():
            for chunk in chunks:
                V.time.sleep(0.002)
                yield chunk

        before = V.time.perf_counter()
        reports = V._sweep_reports(g, slow(), self.TIDS, predicted=len(maps))
        wall = V.time.perf_counter() - before
        total = sum(r.elapsed for r in reports.values())
        assert 0 < total <= wall
        assert min(r.elapsed for r in reports.values()) >= 0.002 * len(chunks) / 2

    def test_orbit_coset_takes_the_inner_array_only(self):
        g = G.make_symmetric(3)
        with pytest.raises(ValueError, match="inner family"):
            V.sweep_alexander(g, iter([_inner(g)]), ("orbit_coset",))

    def test_suite_streams_every_family_and_drops_pairs_above_the_cap(self, monkeypatch):
        real = V.sweep_alexander
        calls = []

        def spy(g, maps, ids, clock):
            results = real(g, maps, ids, clock)
            calls.append((g.label, isinstance(maps, np.ndarray),
                          len(results["regularity"][0]), "alexander_iso" in ids))
            return results

        monkeypatch.setattr(V, "sweep_alexander", spy)
        cfg = V.SuiteConfig(checks=V._SWEPT, nonabelian_registry=())
        assert all(r.passed for r in V.run_suite(cfg))
        assert len(calls) == 25 and not any(array for _, array, _, _ in calls)
        assert all(pairs == (k <= V._ISO_PAIR_AUT_CAP) for _, _, k, pairs in calls)
        unpaired = [label for label, _, _, pairs in calls if not pairs]
        assert unpaired == ["Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z2xZ2xZ4"]


class TestAutomorphismCountCheck:
    """run_suite compares every abelian enumeration with the closed-form
    count of groups._abelian_automorphism_count."""

    @pytest.mark.parametrize("wrong", [3, 101])
    def test_a_wrong_prediction_fails_the_group(self, monkeypatch, wrong):
        # Z4 has 2 automorphisms; a prediction above the pair cap also
        # drops its pair verdicts and streams its family
        real = G._abelian_automorphism_count
        monkeypatch.setattr(V.G, "_abelian_automorphism_count", lambda g: (
            wrong if g.label == "Z4" else real(g)))
        cfg = V.SuiteConfig(abelian_order_cap=5, checks=V._SWEPT, nonabelian_registry=())
        reports = V.run_suite(cfg)
        failing = [r for r in reports if not r.passed]
        tids = V._SWEPT if wrong <= V._ISO_PAIR_AUT_CAP else ("alexander_components", "regularity")
        assert [r.theorem_id for r in failing] == list(tids)
        assert all(r.instance.startswith("Z4 (") for r in failing)
        assert all(r.witness == {"automorphisms": 2, "predicted": wrong} for r in failing)
        # the other five groups of order <= 5 pass all three
        assert len(reports) - len(failing) == 3 * 5

    def test_budget_lets_cap_63_through(self, monkeypatch):
        # the 10,114,762 automorphisms of the types of order <= 63 fit in
        # 2^24: the run reaches its first enumeration, which the spy stops
        class Reached(Exception):
            pass

        def stop(group, cap):
            raise Reached(group.label)

        total = sum(G._abelian_automorphism_count(g) for g in G.abelian_group_types(63))
        assert total == 10_114_762 <= V._AUT_BUDGET
        monkeypatch.setattr(V.G, "_automorphism_chunks", stop)
        cfg = V.SuiteConfig(abelian_order_cap=63, checks=("regularity",), nonabelian_registry=())
        with pytest.raises(Reached, match="^Z1$"):
            V.run_suite(cfg)

    def test_budget_refuses_cap_64_before_any_check(self, monkeypatch):
        # Z2^6 alone has 20,158,709,760 automorphisms
        calls = []
        monkeypatch.setattr(V.G, "_automorphism_chunks", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(V, "check_axioms", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^abelian_order_cap 64 asks for 20,179,427,626 "
                                             "automorphisms, over the budget of 16,777,216$"):
            V.run_suite(V.SuiteConfig(abelian_order_cap=64))
        assert calls == []
        # without a swept check nothing is enumerated, so nothing is refused
        cfg = V.SuiteConfig(abelian_order_cap=64, checks=("dihedral",), dihedral_range=(3, 3))
        assert [r.passed for r in V.run_suite(cfg)] == [True] and calls == []

    def test_the_count_is_read_from_the_pairs_alone(self):
        # Z2xZ4 has 8 automorphisms, so 36 pairs i <= j
        g = G.make_abelian([2, 4])
        good = V._sweep_reports(g, G._automorphism_chunks(g), ("alexander_iso",), predicted=8)
        assert good["alexander_iso"].passed and good["alexander_iso"].instance == "Z2xZ4 (36 pairs)"
        bad = V._sweep_reports(g, G._automorphism_chunks(g), ("alexander_iso",), predicted=9)
        assert bad["alexander_iso"].witness == {"automorphisms": 8, "predicted": 9}


class TestSweepTiming:
    """A sweep's reports split its time: each check id its own predictions
    and tests, plus an equal share of the shared steps."""

    def test_elapsed_sums_to_the_measured_total(self):
        g = G.make_abelian([2, 4])
        maps = G.enumerate_automorphisms(g)
        tids = ("alexander_components", "alexander_iso", "regularity")
        before = V.time.perf_counter()
        reports = V._sweep_reports(g, maps, tids)
        after = V.time.perf_counter()
        assert set(reports) == set(tids)
        total = sum(r.elapsed for r in reports.values())
        assert 0 < total <= after - before

    def test_own_predictions_are_charged_to_their_check(self, monkeypatch):
        real = G.fixed_point_indices

        def slow(group, maps):
            V.time.sleep(0.02 * len(maps))
            return real(group, maps)

        monkeypatch.setattr(V.G, "fixed_point_indices", slow)
        g = G.make_abelian([4])
        reports = V._sweep_reports(g, G.enumerate_automorphisms(g),
                                   ("alexander_components", "regularity"))
        # Z4 has two automorphisms with different fixed-point sets
        gap = reports["regularity"].elapsed - reports["alexander_components"].elapsed
        assert gap >= 0.03

    def test_enumeration_is_timed_with_its_sweep(self, monkeypatch):
        # run_suite enumerates each family as a stream of chunks, from a
        # generator that runs only when the sweep asks for its first chunk
        real = G._automorphism_chunks

        def slow(group, cap):
            if group.label == "Z2xZ2":
                V.time.sleep(0.05)
            yield from real(group, cap=cap)

        monkeypatch.setattr(V.G, "_automorphism_chunks", slow)
        cfg = V.SuiteConfig(abelian_order_cap=4, checks=("alexander_components", "regularity"))
        reports = V.run_suite(cfg)
        assert all(r.passed for r in reports)
        spent = {}
        for r in reports:
            group = r.instance.split(" ")[0]
            spent[group] = spent.get(group, 0.0) + r.elapsed
        assert spent["Z2xZ2"] >= 0.05


class TestPerInstanceTiming:
    """run_suite times each per-instance report around the step of its
    check's iterator that makes it; a checker called alone times nothing."""

    def test_a_slow_checker_is_charged_to_its_own_report(self, monkeypatch):
        real, slept = V.check_dihedral_quandle, []

        def slow(n):
            if n == 5:
                before = V.time.perf_counter()
                V.time.sleep(0.05)
                slept.append(V.time.perf_counter() - before)
            return real(n)

        monkeypatch.setattr(V, "check_dihedral_quandle", slow)
        reports = V.run_suite(V.SuiteConfig(checks=("dihedral",), dihedral_range=(3, 7)))
        assert [r.instance for r in reports] == [f"n={n}" for n in range(3, 8)]
        assert reports[2].elapsed >= slept[0]
        assert all(r.elapsed < slept[0] for i, r in enumerate(reports) if i != 2)
        assert slow(5).elapsed == 0.0

    def test_building_the_axiom_samples_is_charged_to_no_report(self, monkeypatch):
        real, slept = V._axiom_samples, []

        def slow(config, registry):
            before = V.time.perf_counter()
            V.time.sleep(0.05)
            slept.append(V.time.perf_counter() - before)
            return real(config, registry)

        monkeypatch.setattr(V, "_axiom_samples", slow)
        cfg = V.SuiteConfig(checks=("axioms",), nonabelian_registry=("S3",), dihedral_range=(2, 4))
        before = V.time.perf_counter()
        reports = V.run_suite(cfg)
        wall = V.time.perf_counter() - before
        assert len(reports) == len(real(cfg, lambda: [G.make_symmetric(3)])) and slept
        # the sleep and the reports' steps are disjoint spans of the run
        assert sum(r.elapsed for r in reports) <= wall - slept[0]


class TestTakasakiScan:
    def test_mismatches_match_the_loop(self, monkeypatch):
        # a wrong predicate: the sweep's mismatch list is the loop's, in order
        wrong = lambda a, c: (a + c) % 3 == 0
        monkeypatch.setattr(V.gr, "takasaki_z_edge", wrong)
        seen = []
        real = V._report
        monkeypatch.setattr(V, "_report", lambda tid, inst, failures: (
            seen.append(list(failures)) or real(tid, inst, failures)))
        for w in (0, 1, 3, 6):
            assert V.check_takasaki_window(w).passed == (w == 0)
            loop = [{"edge_mismatch": (a, c)}
                    for a in range(-w, w + 1) for c in range(-w, w + 1)
                    if any(2 * b - a == c for b in range(-3 * w, 3 * w + 1)) != wrong(a, c)]
            assert [f for f in seen[-1] if "edge_mismatch" in f] == loop
