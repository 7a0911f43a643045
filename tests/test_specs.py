import json

import numpy as np
import pytest

from quandle_cayley import quandles as Q
from quandle_cayley import specs


class TestGroupSpecs:
    @pytest.mark.parametrize("text,order,abelian", [
        ("Z6", 6, True),
        ("D4", 8, False),
        ("S4", 24, False),
        ("Z4xZ4", 16, True),
        ("Z2xZ2xZ2", 8, True),
        ("D3xZ2", 12, False),
    ])
    def test_build(self, text, order, abelian):
        g = specs.group_from_string(text)
        assert g.order == order
        assert g.is_abelian() == abelian

    def test_canonical_round_trip(self):
        spec = specs.parse_group_spec("Z4xZ4")
        assert spec.canonical() == "Z4xZ4"
        assert specs.parse_group_spec(spec.canonical()) == spec

    @pytest.mark.parametrize("bad", ["", "Q8", "Z4x", "xZ4", "Z0", "Z4yZ4", "Z4 x Z4"])
    def test_parse_errors(self, bad):
        with pytest.raises(specs.SpecParseError):
            specs.parse_group_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(specs.SpecParseError) as info:
            specs.parse_group_spec("Z4xQ8")
        assert info.value.pos == 3

    def test_abelian_product_uses_flat_names(self):
        g = specs.group_from_string("Z2xZ3")
        assert g.label == "Z2xZ3"
        assert "(1,2)" in g.element_names


class TestAutomorphismSpecs:
    def test_neg(self):
        g = specs.group_from_string("Z7")
        t = specs.resolve_automorphism(g, "neg")
        assert list(t.mapping) == [0, 6, 5, 4, 3, 2, 1]

    def test_inner(self):
        g = specs.group_from_string("D4")
        t = specs.resolve_automorphism(g, "inner:r")
        s = g.index_of("s")
        assert g.name(t.mapping[s]) == "r^2 s"

    def test_matrix(self):
        g = specs.group_from_string("Z3xZ3")
        t = specs.resolve_automorphism(g, "matrix:[[1,1],[0,1]]")
        assert t.mapping[g.index_of("(1,0)")] == g.index_of("(1,0)")
        assert t.mapping[g.index_of("(0,1)")] == g.index_of("(1,1)")

    def test_perm(self):
        g = specs.group_from_string("Z3")
        t = specs.resolve_automorphism(g, "perm:[0,2,1]")
        assert t.order() == 2

    @pytest.mark.parametrize("bad", [
        "", "inner:", "inner:nope", "matrix:[[1,0]", "matrix:[[2,0],[0,1]]",
        "perm:{}", "perm:[1,0,2]", "twist",
    ])
    def test_bad_automorphism_specs(self, bad):
        g = specs.group_from_string("Z4xZ4")
        with pytest.raises(ValueError):
            specs.resolve_automorphism(g, bad)

    @pytest.mark.parametrize("bad", ["perm:[0.2,2.5,1.1]", "perm:[0,2.0,1]",
                                     "perm:[0,true,2]", 'perm:[0,"2",1]'])
    def test_perm_rejects_non_integer_images(self, bad):
        # numpy would read the first as [0, 2, 1] and the third as [0, 1, 2]
        g = specs.group_from_string("Z3")
        with pytest.raises(ValueError, match="integers"):
            specs.resolve_automorphism(g, bad)

    def test_neg_needs_abelian(self):
        g = specs.group_from_string("S3")
        with pytest.raises(ValueError):
            specs.resolve_automorphism(g, "neg")


class TestQuandleSpecs:
    def test_flag_form_validation(self):
        spec = specs.make_quandle_spec("dihedral", n=5)
        assert spec.describe() == "dihedral:5"
        with pytest.raises(specs.SpecParseError, match="--n"):
            specs.make_quandle_spec("dihedral")
        with pytest.raises(specs.SpecParseError, match="--group"):
            specs.make_quandle_spec("conj")
        with pytest.raises(specs.SpecParseError, match="--phi"):
            specs.make_quandle_spec("alexander", group="Z8")
        with pytest.raises(specs.SpecParseError, match="--raw-path"):
            specs.make_quandle_spec("raw")
        with pytest.raises(specs.SpecParseError, match="family"):
            specs.make_quandle_spec("latin")

    @pytest.mark.parametrize("family,kwargs,flag", [
        ("conj", {"group": "S3", "n": 7}, "--n"),
        ("dihedral", {"n": 5, "automorphism": "neg"}, "--phi"),
        ("trivial", {"n": 3, "group": "Z3"}, "--group"),
        ("alexander", {"group": "Z8", "automorphism": "neg", "raw_path": "q.json"}, "--raw-path"),
        ("raw", {"raw_path": "q.json", "n": 4}, "--n"),
    ])
    def test_stray_parameter_is_refused(self, family, kwargs, flag):
        # once dropped without a word: conj with --n 7 built Conj(S3)
        with pytest.raises(specs.SpecParseError, match=f"{family} takes no {flag}$"):
            specs.make_quandle_spec(family, **kwargs)

    @pytest.mark.parametrize("text,order", [
        ("trivial:5", 5),
        ("dihedral:8", 8),
        ("conj:S3", 6),
        ("core:D4", 8),
        ("alexander:Z4xZ4:neg", 16),
        ("gen_alexander:S4:inner:(12)", 24),
    ])
    def test_compact_strings(self, text, order):
        q = specs.build_quandle(specs.parse_quandle_string(text))
        assert q.order == order

    @pytest.mark.parametrize("bad", [
        "trivial", "trivial:x", "conj", "alexander:Z8", "raw", "mystery:3",
    ])
    def test_compact_string_errors(self, bad):
        with pytest.raises(specs.SpecParseError):
            specs.parse_quandle_string(bad)

    def test_gen_alexander_matches_manual_build(self):
        from quandle_cayley import groups as G
        q = specs.build_quandle(specs.parse_quandle_string("gen_alexander:D6:inner:r"))
        d6 = G.make_dihedral(6)
        manual = Q.generalized_alexander_quandle(
            d6, G.inner_automorphism(d6, d6.index_of("r")))
        assert (q.rhd == manual.rhd).all()

    def test_raw_round_trip(self, tmp_path):
        table = Q.quandle_to_json(Q.dihedral_quandle(5))
        path = tmp_path / "r5.json"
        path.write_text(json.dumps(table))
        spec = specs.make_quandle_spec("raw", raw_path=str(path))
        q = specs.build_quandle(spec)
        assert (q.rhd == Q.dihedral_quandle(5).rhd).all()

    def test_raw_rejects_broken_table(self, tmp_path):
        obj = Q.quandle_to_json(Q.dihedral_quandle(3))
        obj["rhd"][1] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(Q.AxiomViolation):
            specs.build_quandle(specs.make_quandle_spec("raw", raw_path=str(path)))

    def test_alexander_rejects_nonabelian_group(self):
        spec = specs.parse_quandle_string("alexander:S3:perm:[0,1,2,3,4,5]")
        with pytest.raises(ValueError, match="abelian"):
            specs.build_quandle(spec)


FAMILIES = "trivial, conj, core, dihedral, alexander, gen_alexander, raw"


class TestSpecMessages:
    """One table states what each family takes; the messages below are
    those the per-family branches gave, written out by hand."""

    @pytest.mark.parametrize("kwargs,reason", [
        ({"family": "trivial"}, "trivial needs --n"),
        ({"family": "dihedral"}, "dihedral needs --n"),
        ({"family": "conj"}, "conj needs --group"),
        ({"family": "gen_alexander"}, "gen_alexander needs --group"),
        ({"family": "alexander", "group": "Z8"}, "alexander needs --phi"),
        ({"family": "alexander", "group": "Z8", "automorphism": ""}, "alexander needs --phi"),
        ({"family": "raw"}, "raw needs --raw-path"),
        ({"family": "raw", "raw_path": ""}, "raw needs --raw-path"),
        ({"family": "trivial", "n": 3, "group": "Z3"}, "trivial takes no --group"),
        ({"family": "core", "group": "S3", "n": 7}, "core takes no --n"),
        ({"family": "dihedral", "n": 5, "automorphism": "neg"}, "dihedral takes no --phi"),
        ({"family": "gen_alexander", "group": "Z8", "automorphism": "neg", "raw_path": "q"},
         "gen_alexander takes no --raw-path"),
        ({"family": "latin"}, f"unknown family (expected one of {FAMILIES})"),
    ])
    def test_flag_form(self, kwargs, reason):
        with pytest.raises(specs.SpecParseError) as info:
            specs.make_quandle_spec(**kwargs)
        family = kwargs["family"]
        assert str(info.value) == f"bad spec {family!r} at position 0: {reason}"
        assert info.value.pos == 0

    @pytest.mark.parametrize("kwargs,message", [
        ({"family": "dihedral", "n": 0}, "dihedral --n must be an integer >= 1, got 0"),
        ({"family": "conj", "group": ""}, "bad spec '' at position 0: empty group spec"),
        # the group is read before the missing automorphism is noticed
        ({"family": "alexander", "group": ""}, "bad spec '' at position 0: empty group spec"),
    ])
    def test_flag_values(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            specs.make_quandle_spec(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,pos,reason", [
        ("trivial:x", 8, "trivial needs an integer size"),
        ("trivial", 7, "trivial needs an integer size"),
        ("dihedral:5:3", 9, "dihedral needs an integer size"),
        ("conj", 4, "conj needs a group spec"),
        ("core:", 5, "core needs a group spec"),
        ("alexander::neg", 10, "alexander needs group and automorphism specs"),
        ("alexander:Z8", 10, "alexander needs group and automorphism specs"),
        ("gen_alexander:S4:", 14, "gen_alexander needs group and automorphism specs"),
        ("raw", 3, "raw needs a file path"),
        ("raw:", 4, "raw needs a file path"),
        ("mystery:3", 0, f"unknown family (expected one of {FAMILIES})"),
        ("conj:S3:x", 2, "expected 'x' between factors"),
    ])
    def test_compact_form(self, text, pos, reason):
        with pytest.raises(specs.SpecParseError) as info:
            specs.parse_quandle_string(text)
        assert str(info.value).endswith(f" at position {pos}: {reason}")
        assert info.value.pos == pos

    @pytest.mark.parametrize("text,described", [
        ("raw:a:b", "raw:a:b"),
        ("dihedral:07", "dihedral:7"),
        ("core:Z2xZ2", "core:Z2xZ2"),
        ("gen_alexander:S4:inner:(12)", "gen_alexander:S4:inner:(12)"),
        ("alexander:Z4xZ4:matrix:[[1,1],[0,1]]", "alexander:Z4xZ4:matrix:[[1,1],[0,1]]"),
    ])
    def test_compact_form_describes(self, text, described):
        assert specs.parse_quandle_string(text).describe() == described

    @pytest.mark.parametrize("text,pos,reason", [
        ("matrix:[[1,1],[0,1]", 19, "matrix is not valid JSON"),
        ("perm:{1}", 6, "image list is not valid JSON"),
        ("perm:[0,1", 9, "image list is not valid JSON"),
        ("perm:{}", 5, "image list must be a JSON array"),
    ])
    def test_bad_json_argument(self, text, pos, reason):
        g = specs.group_from_string("Z4xZ4")
        with pytest.raises(specs.SpecParseError) as info:
            specs.resolve_automorphism(g, text)
        assert str(info.value) == f"bad spec {text!r} at position {pos}: {reason}"
