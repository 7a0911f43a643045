import json
import re

import pytest

from quandle_cayley.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_dihedral_json_on_stdout(self, capsys):
        code, out, err = run(capsys, "build", "--family", "dihedral", "--n", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 4
        assert obj["rhd"][:4] == [0, 2, 0, 2]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "q.json"
        code, out, _ = run(capsys, "build", "--family", "conj", "--group", "S3",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["order"] == 6

    def test_gen_alexander_s4(self, capsys):
        code, out, _ = run(capsys, "build", "--family", "gen_alexander",
                           "--group", "S4", "--phi", "inner:(12)")
        assert code == 0
        assert json.loads(out)["order"] == 24

    def test_raw_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "--family", "dihedral", "--n", "5")
        path = tmp_path / "r5.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "build", "--family", "raw", "--raw-path", str(path))
        assert code == 0
        assert json.loads(out2)["rhd"] == json.loads(out)["rhd"]

    def test_raw_axiom_failure_exits_1(self, capsys, tmp_path):
        bad = {"order": 2, "names": ["a", "b"], "rhd": [1, 0, 1, 0], "provenance": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "build", "--family", "raw", "--raw-path", str(path))
        assert code == 1
        assert "idempotency" in err

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--family", "dihedral")
        assert code == 2
        assert "--n" in err

    def test_bad_group_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--family", "conj", "--group", "Q8")
        assert code == 2
        assert "error" in err


class TestAnalyze:
    def test_dihedral5_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "dihedral", "--n", "5")
        assert code == 0
        assert "components: 1" in out
        assert "size 5, complete, diameter 1" in out
        assert "degrees: out 5..5, in 5..5" in out
        assert "symmetric: yes" in out

    def test_twisted_d6_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "gen_alexander",
                           "--group", "D6", "--phi", "inner:r")
        assert code == 0
        assert "components: 4" in out
        assert out.count("size 3, not complete, diameter 2") == 4
        assert "symmetric: no" in out

    def test_trivial_edgeless(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "trivial", "--n", "7")
        assert code == 0
        assert "edgeless: yes" in out
        assert "components: 7" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "dihedral", "--n", "6",
                           "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["component_count"] == 2
        assert obj["components"][0]["vertices"] == ["0", "2", "4"]
        assert obj["involutory"] is True

    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "analyze", "--family", "dihedral", "--n", "3",
                           "--export", "dot", "--out", str(target))
        assert code == 0
        assert "components: 1" in out
        assert target.read_text().startswith("digraph {")

    def test_export_to_stdout(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "dihedral", "--n", "3",
                           "--export", "adjlist")
        assert code == 0
        assert "components: 1" in out
        assert "0: 0 1 2" in out


class TestVerify:
    def test_dihedral_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "dihedral",
                           "--range", "2..12")
        assert code == 0
        assert out.count("[PASS]") == 11
        assert "11 checks, 0 failed" in out

    def test_multiple_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "s4_example,takasaki")
        assert code == 0
        assert "s4_example" in out
        assert "takasaki" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "s4_example", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["failed"] == 0
        assert obj["reports"][0]["theorem_id"] == "s4_example"
        assert "elapsed" not in obj["reports"][0]

    def test_timing_flag(self, capsys):
        args = ("verify", "--check", "dihedral", "--range", "3..4")
        code, plain, _ = run(capsys, *args)
        code_t, timed, _ = run(capsys, *args, "--timing")
        assert code == code_t == 0
        stamp = r"  \(\d+\.\d{3}s\)$"
        assert len(re.findall(stamp, timed, re.M)) == 2
        assert re.sub(stamp, "", timed, flags=re.M) == plain
        code, out, _ = run(capsys, "verify", "--check", "s4_example", "--json")
        code_t, out_t, _ = run(capsys, "verify", "--check", "s4_example", "--json",
                               "--timing")
        assert code == code_t == 0
        obj, obj_t = json.loads(out), json.loads(out_t)
        elapsed = obj_t["reports"][0].pop("elapsed")
        assert isinstance(elapsed, float) and elapsed >= 0
        assert obj_t == obj

    def test_failing_config_exits_1(self, capsys, tmp_path):
        cfg = {"checks": ["axioms"], "dihedral_range": [2, 3],
               "extra_quandles": [{"label": "bad", "rhd": [[1, 0], [1, 0]]}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "verify", "--config", str(path))
        assert code == 1
        assert "[FAIL] axioms" in out

    @pytest.mark.parametrize("item", [{"label": "no_table"}, ["x", [[0]]],
                                      {"label": "flat", "rhd": [0, 1]}])
    def test_malformed_extra_quandle_exits_2(self, capsys, tmp_path, item):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"checks": ["axioms"], "extra_quandles": [item]}))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "extra_quandles" in err

    def test_bad_check_id_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "heptagon")
        assert code == 2
        assert "unknown check" in err

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "dihedral", "--range", "a..b")
        assert code == 2

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--config", str(tmp_path / "none.json"))
        assert code == 2

    def test_byte_identical_output(self, capsys):
        args = ("verify", "--check", "conjugation")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)


class TestExport:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "dihedral", "--n", "4",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("digraph {")
        assert "0 -> 2;" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "export", "--family", "trivial", "--n", "3",
                           "--format", "json")
        obj = json.loads(out)
        assert obj["n"] == 3
        assert obj["edges"] == [[0, 0], [1, 1], [2, 2]]

    def test_format_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "export", "--family", "trivial", "--n", "3")
        assert info.value.code == 2


class TestIsomorphic:
    def test_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "core:Z6", "dihedral:6")
        assert code == 0
        assert out.splitlines()[0] == "isomorphic"

    def test_non_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "dihedral:6", "trivial:6")
        assert code == 1
        assert "not isomorphic" in out

    def test_json_mapping_is_valid(self, capsys):
        code, out, _ = run(capsys, "isomorphic",
                           "alexander:Z4xZ4:matrix:[[0,1],[3,2]]",
                           "alexander:Z4xZ4:matrix:[[1,2],[2,1]]", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["isomorphic"] is True
        assert sorted(obj["mapping"]) == list(range(16))

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "isomorphic", "dihedral:x", "dihedral:3")
        assert code == 2

    def test_seed_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "isomorphic", "dihedral:3", "core:Z3",
                           "--seed", "7")
        assert code == 0
