"""Tests for the benchmark's own logic (not the library's).

    python3 -m pytest bench -q
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import gen  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [
        ["verify.run_suite", 0.0, 10.0, -1],
        ["graphs.build_cayley_graph", 1.0, 4.0, 0],
        ["quandles.verify_quandle_axioms", 2.0, 3.0, 1],
        ["graphs.degrees", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracing.layer_metrics(spans, dict.fromkeys(tracing.COUNTERS, 0))
    assert m["verify.checks.self_s"] == 3.0
    assert m["graphs.build.self_s"] == 2.0
    assert m["quandles.axioms.calls"] == 1
    assert m["graphs.iso.calls"] == 0
    # self times add back up to the root span
    assert sum(tracing.self_times(spans)) == 10.0


def test_tracer_records_nesting_and_counters():
    tracer = tracing.Tracer()

    def table(n):
        return np.zeros((n, n), dtype=np.int64)

    scan = tracer.wrap("quandles.verify_quandle_axioms", lambda t: None)
    build = tracer.wrap("quandles.dihedral_quandle", lambda n: scan(table(n)))
    build(3)
    scan(table(2))
    assert [s[0] for s in tracer.spans] == ["quandles.dihedral_quandle",
                                            "quandles.verify_quandle_axioms",
                                            "quandles.verify_quandle_axioms"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert tracer.counters["quandles.axioms.derived_calls"] == 1
    assert tracer.counters["quandles.axioms.raw_calls"] == 1
    assert tracer.counters["quandles.axioms.cells"] == 27 + 8


def test_relabelling_preserves_claimed_invariants():
    rng = np.random.default_rng(0)
    tables = [gen.dihedral_quandle(10), gen.core(gen.dihedral(6)),
              gen.alexander_z2(5, ((1, 1), (0, 1))), gen.conj(gen.symmetric(4)),
              gen.inner_twist(gen.dihedral(6), 1)]
    for table in tables:
        perm = rng.permutation(len(table))
        moved = gen.relabel(table, perm)
        assert gen.invariants(moved) == gen.invariants(table)
        # perm itself is an isomorphism from the old graph to the new one
        assert gen.valid_isomorphism(gen.adjacency(table), gen.adjacency(moved), perm)


def test_invariants_match_known_structure():
    odd = gen.invariants(gen.dihedral_quandle(7))       # R_7 is complete
    assert odd["complete"] and odd["component_count"] == 1
    assert odd["components"] == [[7, True, 1]]
    # inner twist of D_5 by r: two directed 5-cycles (plus loops)
    twist = gen.invariants(gen.inner_twist(gen.dihedral(5), 1))
    assert twist["components"] == [[5, False, 4], [5, False, 4]]
    assert not twist["symmetric"]


def test_mapping_checker_rejects_wrong_mappings():
    table = gen.inner_twist(gen.dihedral(5), 1)
    adj = gen.adjacency(table)
    ident = list(range(len(table)))
    assert gen.valid_isomorphism(adj, adj, ident)
    swapped = ident.copy()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not gen.valid_isomorphism(adj, adj, swapped)
    assert not gen.valid_isomorphism(adj, adj, [0] * len(table))
    assert not gen.valid_isomorphism(adj, adj, ident[:-1])
    assert not gen.valid_isomorphism(adj, adj, None)


def test_inputs_are_seeded(tmp_path):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        runs.append(gen.make_inputs("iso_pairs", 5, tmp_path / sub))
    a, b = runs
    assert [i["expected"] for i in a] == [i["expected"] for i in b]
    assert Path(a[0]["table_a"]).read_text() == Path(b[0]["table_a"]).read_text()
    assert any(i["expected"] for i in a) and not all(i["expected"] for i in a)
