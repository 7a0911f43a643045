import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quandle_cayley import CHECK_IDS, cli, run_suite
from quandle_cayley import graphs as gr
from quandle_cayley import groups as G
from quandle_cayley import quandles as Q
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

    @pytest.mark.parametrize("argv,stray", [
        (("build", "--family", "conj", "--group", "S3", "--n", "7"), "conj takes no --n"),
        (("analyze", "--family", "dihedral", "--n", "5", "--phi", "neg"),
         "dihedral takes no --phi"),
    ])
    def test_stray_flag_exits_2(self, capsys, argv, stray):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.rstrip().endswith(stray)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rhd", [[0.9, 0.2, 1.7, 1.0], [0, True, 0, 1]])
    def test_raw_non_integer_entries_exit_2(self, capsys, tmp_path, rhd):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": 2, "names": ["a", "b"], "rhd": rhd}))
        code, out, err = run(capsys, "analyze", "--family", "raw", "--raw-path", str(path))
        assert (code, out) == (2, "")
        assert "integers" in err

    @pytest.mark.parametrize("field, value, message", [
        ("rhd", 5, "rhd must be a list of integers"),
        ("names", 5, "names must be a list"),
        ("provenance", [1], "provenance must be an object"),
        # list() read a string as its characters and an object as its keys
        ("names", "ab", "names must be a list"),
        ("names", {"a": 1, "b": 2}, "names must be a list"),
    ])
    def test_raw_wrongly_typed_field_exits_2(self, capsys, tmp_path, field, value, message):
        obj = {"order": 2, "names": ["a", "b"], "rhd": [0, 0, 1, 1], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        got = run(capsys, "analyze", "--family", "raw", "--raw-path", str(path))
        assert got == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("names", [["a", "a"], [1, "1"], ["a"], ["a", "b", "c"]])
    def test_raw_names_that_collide_or_miscount_exit_2(self, capsys, tmp_path, names):
        # quandle_from_json checks a raw file's names, as the public
        # constructors check theirs
        obj = {"order": 2, "names": names, "rhd": [0, 0, 1, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        message = "element names must be distinct and match the order"
        got = run(capsys, "analyze", "--family", "raw", "--raw-path", str(path))
        assert got == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Q.quandle_from_json(obj)

    def test_deeply_nested_raw_file_exits_2(self, capsys, tmp_path):
        # json.loads raised RecursionError, a traceback and exit 1
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"order": 2, "names": ["a", "b"], "rhd": [0, 0, 1, 1], "provenance": '
                        + "[" * depth + "]" * depth + "}")
        for argv in (("analyze", "--family", "raw", "--raw-path", str(path)),
                     ("isomorphic", f"raw:{path}", "trivial:2")):
            got = run(capsys, *argv)
            assert got == (2, "", "error: quandle JSON is nested too deeply\n"), argv

    @pytest.mark.parametrize("command", [("analyze",), ("build",), ("export", "--format", "dot")])
    @pytest.mark.parametrize("text", ["", '{"order": 2, "rhd": [0, '])
    def test_raw_file_syntax_error_names_the_document(self, capsys, tmp_path, command, text):
        # json's bare message names neither the file nor what it holds
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, *command, "--family", "raw", "--raw-path", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: quandle JSON is not valid JSON: ")

    @pytest.mark.parametrize("command", [("analyze",), ("build",), ("export", "--format", "dot")])
    def test_raw_file_not_utf8_names_the_document(self, capsys, tmp_path, command):
        # a UTF-16 file, starting ff fe: the codec's bare message named
        # neither the file nor what it holds
        path = tmp_path / "bad.json"
        path.write_bytes("{}".encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        got = run(capsys, *command, "--family", "raw", "--raw-path", str(path))
        assert got == (2, "", "error: quandle JSON is not valid UTF-8: "
                              "invalid start byte at byte 0\n")

    def test_raw_file_is_read_as_utf8(self, tmp_path):
        # whatever the locale: a non-ASCII name loads, and a Latin-1 byte
        # past the start is named with its offset
        text = '{"order": 2, "names": ["\u00e9", "b"], "rhd": [0, 0, 1, 1]}'
        path = tmp_path / "q.json"
        path.write_bytes(text.encode("utf-8"))
        assert G.read_utf8(path, "quandle JSON") == text
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError) as exc:
            G.read_utf8(path, "quandle JSON")
        assert str(exc.value) == ("quandle JSON is not valid UTF-8: invalid continuation "
                                  f"byte at byte {text.index(chr(0xe9))}")

    def test_perm_non_integer_images_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--family", "gen_alexander",
                             "--group", "Z3", "--phi", "perm:[0.2,2.5,1.1]")
        assert (code, out) == (2, "")
        assert "integers" in err

    @pytest.mark.parametrize("matrix", ["[[1.5,0],[0,1]]", "[[1,0],[0,true]]",
                                        '[[1,"0"],[0,1]]', "[[1,0],[null,1]]"])
    def test_matrix_non_integer_entries_exit_2(self, capsys, matrix):
        # a float, a bool, a string, null: no entry is rounded or read as 0 or 1
        code, out, err = run(capsys, "analyze", "--family", "alexander",
                             "--group", "Z3xZ3", "--phi", f"matrix:{matrix}")
        assert (code, out) == (2, "")
        assert err == "error: matrix automorphism entries must be integers\n"

    @pytest.mark.parametrize("exc, err", [
        (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB\n"),
        (MemoryError(), "error: MemoryError\n"),      # no message: the name stands in
    ])
    def test_memory_error_exits_2(self, capsys, monkeypatch, exc, err):
        # an input too large to allocate is a usage error, not a domain failure
        from quandle_cayley import quandles

        def refuse(n):
            raise exc

        monkeypatch.setattr(quandles, "dihedral_quandle", refuse)
        got = run(capsys, "analyze", "--family", "dihedral", "--n", "1000000")
        assert got == (2, "", err)

    def test_bad_group_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "build", "--family", "conj", "--group", "Q8")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("family, label, matrix", [
        ("alexander", "Z4", "[[1,1],[0,1]]"), ("gen_alexander", "S3xS3", "[[1,0],[0,1]]")])
    def test_matrix_on_a_group_that_is_not_zn_x_zn_exits_2(self, capsys, family, label, matrix):
        got = run(capsys, "build", "--family", family, "--group", label, "--phi", f"matrix:{matrix}")
        assert got == (2, "", f"error: {label} is not Zn x Zn in the make_abelian([n, n]) layout\n")


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


def _relabelled(q, seed):
    """q with element x renamed perm[x], names carried along."""
    perm = np.random.default_rng(seed).permutation(q.order)
    table = np.empty_like(q.rhd)
    table[np.ix_(perm, perm)] = perm[q.rhd]
    names = [None] * q.order
    for x, name in enumerate(q.element_names):
        names[perm[x]] = name
    return Q.Quandle(table, element_names=names)


def _alexander(g, matrix):
    return Q.alexander_quandle(g, G.matrix_automorphism(g, matrix))


def _inner_twist(g, name):
    return Q.generalized_alexander_quandle(g, G.inner_automorphism(g, g.index_of(name)))


def _tarjan_analysis(q, spec):
    """The analyze --json report built from Tarjan's components and
    component_diameter on the whole graph."""
    graph = gr.build_cayley_graph(q)
    outs, ins = graph.matrix().sum(axis=1), graph.matrix().sum(axis=0)
    components = []
    for comp in gr.strongly_connected_components(graph).components:
        diameter = gr.component_diameter(graph, comp)
        components.append({"vertices": [q.element_names[v] for v in comp], "size": len(comp),
                           "complete": diameter <= 1, "diameter": diameter})
    return {"spec": spec, "order": q.order, "involutory": Q.is_involutory(q),
            "edges": int(graph.matrix().sum()), "edgeless": gr.is_edgeless(graph),
            "symmetric": gr.is_symmetric(graph), "complete": gr.is_complete(graph),
            "degrees": {"out": [int(outs.min()), int(outs.max())],
                        "in": [int(ins.min()), int(ins.max())]},
            "component_count": len(components), "components": components}


class TestNamesCheckedWhereTheyEnter:
    def test_as_names_runs_on_names_from_outside_only(self, capsys, monkeypatch, tmp_path):
        # derived groups, quandles and graphs take their parent's names as
        # given: a default suite checks no names, and a raw file's are
        # checked once, where they are read
        calls, real = [], G.as_names

        def spy(names, n):
            calls.append(n)
            return real(names, n)

        for module in (G, Q, gr):
            monkeypatch.setattr(module, "as_names", spy)
        run_suite()
        assert calls == []
        path = tmp_path / "r3.json"
        path.write_text(json.dumps({"order": 3, "names": ["a", "b", "c"],
                                    "rhd": [0, 2, 1, 2, 1, 0, 1, 0, 2]}))
        assert run(capsys, "analyze", "--family", "raw", "--raw-path", str(path))[0] == 0
        assert calls == [3]


class TestAnalyzeMatchesTarjan:
    """analyze reads the strong components from the orbit labels; Tarjan's
    search on the Cayley graph is the oracle."""

    @pytest.mark.parametrize("build,seed", [
        (lambda: Q.conjugation_quandle(G.make_symmetric(5)), 1),
        (lambda: Q.core_quandle(G.make_dihedral(60)), 2),
        (lambda: _alexander(G.make_abelian([11, 11]), [[1, 1], [0, 1]]), 3),
        (lambda: Q.dihedral_quandle(128), 4),
        (lambda: Q.trivial_quandle(200), 5),
        # components that are not complete: cycles of length 50, and S4's
        # twist by (12)
        (lambda: _inner_twist(G.make_dihedral(50), "r"), 6),
        (lambda: _inner_twist(G.make_symmetric(4), "(12)"), 7),
        # numbered along its cycles, as gen_alexander:D192:inner:r builds it
        (lambda: _inner_twist(G.make_dihedral(192), "r"), None),
    ], ids=["conj_S5", "core_D60", "alex_Z11", "R128", "T200", "twist_D50", "twist_S4",
            "twist_D192"])
    def test_report(self, capsys, tmp_path, build, seed):
        q = build() if seed is None else _relabelled(build(), seed)
        tarjan = gr.strongly_connected_components(gr.build_cayley_graph(q))
        assert gr.orbit_components(q) == tarjan
        path = tmp_path / "q.json"
        path.write_text(json.dumps(Q.quandle_to_json(q)))
        code, out, _ = run(capsys, "analyze", "--family", "raw", "--raw-path", str(path), "--json")
        assert code == 0
        assert json.loads(out) == _tarjan_analysis(q, f"raw:{path}")


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_carry_no_state(self, capsys):
        # each call prints what it prints in a fresh process, whatever ran
        # before it on the shared parser
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for argv in (["analyze", "--family", "dihedral", "--n", "6", "--json"],
                     ["analyze", "--family", "dihedral", "--n", "6"],
                     ["verify", "--check", "axioms"],
                     ["build", "--family", "conj", "--group", "S3", "--n", "7"]):
            fresh = subprocess.run([sys.executable, "-m", "quandle_cayley", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert fresh.returncode == 2 and fresh.stderr.startswith("error: ")


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "quandle_cayley", "verify",
                               "--check", "s4_example"],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("[PASS] s4_example ")


class TestLazyVerifyImport:
    def test_only_the_suite_loads_verify(self):
        # the package and every command but verify run without the verify
        # module; the suite's names still resolve from the package
        script = """if True:
            import sys, quandle_cayley
            from quandle_cayley import cli
            loaded = ["quandle_cayley.verify" in sys.modules]
            cli.main(["analyze", "--family", "dihedral", "--n", "5"])
            loaded.append("quandle_cayley.verify" in sys.modules)
            from quandle_cayley import run_suite, SuiteConfig
            assert run_suite is sys.modules["quandle_cayley.verify"].run_suite
            assert all(getattr(quandle_cayley, name) is not None
                       for name in quandle_cayley.__all__)
            print(loaded)
        """
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "[False, False]"

    def test_check_help_lists_the_ids(self, capsys):
        from quandle_cayley import verify as V
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"ids: {', '.join(V.CHECK_IDS)}" in help_text


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

    @pytest.mark.parametrize("argv", [("--check", ""), ("--check", ","),
                                      ("--check", ",", "--check", "")])
    def test_empty_check_list_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at least one check id" in err

    def test_empty_config_check_list_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"checks": []}))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at least one check id" in err

    def test_config_that_is_not_an_object_exits_2_with_flags(self, capsys, tmp_path):
        # --check writes into the config before it is read, which would
        # raise TypeError on a list
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        code, out, err = run(capsys, "verify", "--config", str(path), "--check", "dihedral")
        assert (code, out, err) == (2, "", "error: suite config must be a JSON object\n")

    @pytest.mark.parametrize("cfg, message", [
        ({"checks": "dihedral"}, "checks must be a list, got 'dihedral'"),
        ({"nonabelian_registry": "S3"}, "nonabelian_registry must be a list, got 'S3'"),
    ])
    def test_config_string_for_a_list_exits_2(self, capsys, tmp_path, cfg, message):
        # a string was split into characters: unknown check ids d, i, h, ...
        # and a bad spec 'S'
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: suite config value of the wrong type: {message}\n"

    def test_deeply_nested_config_exits_2(self, capsys, tmp_path):
        depth = 100_000
        path = tmp_path / "cfg.json"
        path.write_text("[" * depth + "]" * depth)
        got = run(capsys, "verify", "--config", str(path))
        assert got == (2, "", "error: suite config is nested too deeply\n")

    @pytest.mark.parametrize("text,message", [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ('{"checks": [', "Expecting value: line 1 column 13 (char 12)"),
    ])
    def test_config_syntax_error_names_the_document(self, capsys, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        got = run(capsys, "verify", "--config", str(path))
        assert got == (2, "", f"error: suite config is not valid JSON: {message}\n")

    def test_config_not_utf8_names_the_document(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes("{}".encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        got = run(capsys, "verify", "--config", str(path))
        assert got == (2, "", "error: suite config is not valid UTF-8: "
                              "invalid start byte at byte 0\n")

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "dihedral", "--range", "a..b")
        assert code == 2

    def test_oversized_abelian_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        # refused from the predicted |Aut| counts, before any enumeration
        calls = []
        monkeypatch.setattr(G, "_automorphism_chunks", lambda *args, **kw: calls.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"abelian_order_cap": 64}))
        code, out, err = run(capsys, "verify", "--config", str(path))
        assert (code, out, calls) == (2, "", [])
        assert err == ("error: abelian_order_cap 64 asks for 20,179,427,626 automorphisms, "
                       "over the budget of 16,777,216\n")

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--config", str(tmp_path / "none.json"))
        assert code == 2

    def test_abelian_sweeps_match_recorded_output(self, capsys):
        # the recorded default-suite output is only read here, never written
        ids = ("alexander_components", "alexander_iso", "regularity")
        oracle = Path(__file__).resolve().parents[1] / "bench" / "expected" / "suite_default.txt"
        want = [line for line in oracle.read_text().splitlines()
                if line.startswith("[") and line.split()[1] in ids]
        code, out, _ = run(capsys, "verify", "--check", ",".join(ids))
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("[")] == want
        assert len(want) == 81         # 25 + 22 + 25 abelian, 9 registry

    @pytest.mark.parametrize("tid", CHECK_IDS)
    def test_each_check_matches_recorded_output(self, capsys, tid):
        # each id run alone prints its lines of the recorded default run, in order
        oracle = Path(__file__).resolve().parents[1] / "bench" / "expected" / "suite_default.txt"
        want = [line for line in oracle.read_text().splitlines()
                if line.startswith("[") and line.split()[1] == tid]
        code, out, _ = run(capsys, "verify", "--check", tid)
        assert code == 0 and want
        assert [line for line in out.splitlines() if line.startswith("[")] == want

    def test_bad_registry_label_exits_2_without_a_registry_check(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonabelian_registry": ["Q8"]}))
        got = run(capsys, "verify", "--check", "dihedral", "--range", "3..3",
                  "--config", str(path))
        assert got == (2, "", "error: bad spec 'Q8' at position 0: expected Zn, Dm, or Sn\n")

    @pytest.mark.parametrize("argv, cfg, ids", [
        (("--check", "dihedral_inner", "--range", "1..1"), {}, "dihedral_inner"),
        ((), {"checks": ["takasaki"], "takasaki_window": 0}, "takasaki"),
    ])
    def test_run_with_no_report_exits_2(self, capsys, tmp_path, argv, cfg, ids):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        got = run(capsys, "verify", *argv, "--config", str(path))
        assert got == (2, "", f"error: the config selects no instance of {ids}\n")

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
