import json

import numpy as np
import pytest

from quandle_cayley import groups as G
from quandle_cayley import quandles as Q
from quandle_cayley import verify as V


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
        autos = G.enumerate_automorphisms(g)
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

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config"):
            V.SuiteConfig.from_json({"abelian_cap": 8})

    def test_rejects_unknown_check_ids(self):
        with pytest.raises(ValueError, match="unknown check"):
            V.SuiteConfig(checks=("dihedral", "pentagon"))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            V.SuiteConfig(dihedral_range=(5, 2))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            V.SuiteConfig.from_json("[1, 2]")

    def test_extra_quandles_from_json(self):
        obj = {"checks": ["axioms"],
               "extra_quandles": [{"label": "inline", "rhd": [[0, 0], [1, 1]]}]}
        cfg = V.SuiteConfig.from_json(obj)
        assert cfg.extra_quandles[0][0] == "inline"


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
        assert not V.check_conjugation_components(g).passed

    def test_alexander_checker_sees_wrong_image(self, monkeypatch):
        g = G.make_abelian([4, 4])
        t = G.matrix_automorphism(g, [[0, 1], [3, 2]])

        def wrong(group, auto):
            return G.subgroup_generated(group, [])

        monkeypatch.setattr(V.G, "image_id_minus_t", wrong)
        assert not V.check_alexander_components(g, t).passed

    def test_regularity_checker_sees_wrong_index(self, monkeypatch):
        g = G.make_symmetric(3)
        phi = G.inner_automorphism(g, 1)

        class FakeSub:
            def index(self):
                return 99

        monkeypatch.setattr(V.G, "fixed_point_subgroup", lambda a, b: FakeSub())
        assert not V.check_generalized_regularity(g, phi).passed
