"""Every count and element index taken from a caller passes one gate,
groups.as_integer: a Python or numpy integer, not a bool, in lo..hi-1.
Nothing is rounded, and every refusal is a ValueError naming an integer."""
import numpy as np
import pytest

from quandle_cayley import graphs as gr
from quandle_cayley import groups as G
from quandle_cayley import quandles as Q
from quandle_cayley import specs
from quandle_cayley import verify as V

Z4, Z6, S3 = G.make_cyclic(4), G.make_cyclic(6), G.make_symmetric(3)
R4, K3 = Q.dihedral_quandle(4), gr.complete_graph(3)
NEG6, ORBITS4 = G.negation_automorphism(Z6), gr.orbit_components(R4)
COSETS6 = G.cosets(Z6, G.subgroup_generated(Z6, [3]))


def _trivial_json(order):
    """The trivial quandle's JSON form with the given "order" field; its
    table has order n for an integer n >= 1, and order 1 otherwise."""
    n = order if type(order) in (int, np.int64) and order >= 1 else 1
    return {"order": order, "names": [str(x) for x in range(n)],
            "rhd": [x for x in range(n) for _ in range(n)]}


# entry point -> (call with the integer argument, lo, hi); hi None is unbounded
GATES = {
    "make_cyclic": (G.make_cyclic, 1, None),
    "make_abelian": (lambda v: G.make_abelian([2, v]), 1, None),
    "make_dihedral": (G.make_dihedral, 1, None),
    "make_symmetric": (G.make_symmetric, 1, None),
    "abelian_group_types": (G.abelian_group_types, 1, None),
    "inner_automorphism": (lambda v: G.inner_automorphism(Z4, v), 0, 4),
    "commutator_subgroup_with": (lambda v: G.commutator_subgroup_with(S3, v), 0, 6),
    "subgroup_generated": (lambda v: G.subgroup_generated(Z6, [0, v]), 0, 6),
    "Subgroup": (lambda v: G.Subgroup(G.make_cyclic(2), [0, v]), 0, 2),
    "DirectedGraph n": (lambda v: gr.DirectedGraph(v, []), 0, None),
    "DirectedGraph source": (lambda v: gr.DirectedGraph(3, [(v, 0)]), 0, 3),
    "DirectedGraph target": (lambda v: gr.DirectedGraph(3, [(0, v)]), 0, 3),
    "complete_graph": (gr.complete_graph, 1, None),
    "induced_subgraph": (lambda v: gr.induced_subgraph(K3, [v]), 0, 3),
    "component_diameter": (lambda v: gr.component_diameter(K3, [v]), 0, 3),
    "takasaki_z_window": (gr.takasaki_z_window, 0, None),
    "trivial_quandle": (Q.trivial_quandle, 1, None),
    "dihedral_quandle": (Q.dihedral_quandle, 1, None),
    "forward_orbit": (lambda v: Q.forward_orbit(R4, v), 0, 4),
    "quandle_from_json": (lambda v: Q.quandle_from_json(_trivial_json(v)), 1, None),
    "SuiteConfig abelian_order_cap": (lambda v: V.SuiteConfig(abelian_order_cap=v), 1, None),
    "SuiteConfig dihedral_range lo": (lambda v: V.SuiteConfig(dihedral_range=(v, 5)), 1, 6),
    "SuiteConfig dihedral_range hi": (lambda v: V.SuiteConfig(dihedral_range=(3, v)), 3, None),
    "SuiteConfig takasaki_window": (lambda v: V.SuiteConfig(takasaki_window=v), 0, None),
    "check_dihedral_inner_example": (V.check_dihedral_inner_example, 2, None),
    "make_quandle_spec": (lambda v: specs.make_quandle_spec("dihedral", n=v), 1, None),
    "FiniteGroup.op x": (lambda v: Z6.op(v, 2), 0, 6),
    "FiniteGroup.op y": (lambda v: Z6.op(2, v), 0, 6),
    "FiniteGroup.inverse": (Z6.inverse, 0, 6),
    "FiniteGroup.conjugate x": (lambda v: S3.conjugate(v, 1), 0, 6),
    "FiniteGroup.conjugate by": (lambda v: S3.conjugate(1, v), 0, 6),
    "FiniteGroup.element_order": (Z6.element_order, 0, 6),
    "FiniteGroup.name": (Z6.name, 0, 6),
    "Automorphism call": (NEG6, 0, 6),
    "Quandle.op x": (lambda v: R4.op(v, 0), 0, 4),
    "Quandle.op y": (lambda v: R4.op(0, v), 0, 4),
    "Quandle.name": (R4.name, 0, 4),
    "DirectedGraph.has_edge u": (lambda v: K3.has_edge(v, 0), 0, 3),
    "DirectedGraph.has_edge v": (lambda v: K3.has_edge(0, v), 0, 3),
    # an index >= 0 that no block holds raises "not in any block"
    "component_of": (ORBITS4.component_of, 0, None),
    "block_of": (COSETS6.block_of, 0, None),
}


def _refused(name):
    call, lo, hi = GATES[name]
    values = [float(lo), lo + 0.5, True, np.True_, str(lo), lo - 1]
    return values + ([] if hi is None else [hi])


def _accepted(name):
    call, lo, hi = GATES[name]
    return [lo, lo + 1 if hi is None else hi - 1, np.int64(lo)]


@pytest.mark.parametrize("name, value", [(name, v) for name in GATES for v in _refused(name)],
                         ids=lambda x: repr(x) if not isinstance(x, str) else x)
def test_gate_refuses(name, value):
    with pytest.raises(ValueError, match="integer"):
        GATES[name][0](value)


@pytest.mark.parametrize("name, value", [(name, v) for name in GATES for v in _accepted(name)],
                         ids=lambda x: repr(x) if not isinstance(x, str) else x)
def test_gate_accepts(name, value):
    GATES[name][0](value)


@pytest.mark.parametrize("call", [
    lambda: G.subgroup_generated(Z6, [2.9]),           # was (0, 2, 4)
    lambda: G.make_abelian([2.9, True]),               # was Z2xZ1
    lambda: G.make_abelian([2, "3"]),                  # was Z2xZ3
    lambda: Q.dihedral_quandle(3.5),                   # was R3.5, a float table
    lambda: Q.trivial_quandle(True),                   # was TTrue
    lambda: gr.induced_subgraph(K3, [0.5, 1.7]),       # was a 2-vertex graph
    lambda: specs.make_quandle_spec("dihedral", n=3.7),  # was n = 3
    lambda: specs.make_quandle_spec("dihedral", n="5"),  # was n = 5
    lambda: G.inner_automorphism(Z4, 1.5),             # was an IndexError
    lambda: G.commutator_subgroup_with(S3, 1.5),       # was an IndexError
    lambda: Q.forward_orbit(R4, 1.5),                  # was an IndexError
    lambda: G.Subgroup(Z6, [0, 3.7]),                  # was (0, 3)
])
def test_truncations_and_index_errors_are_refused(call):
    with pytest.raises(ValueError, match="integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ORBITS4.component_of(4), "vertex 4 not in any block"),
    (lambda: COSETS6.block_of(6), "element 6 not in any block"),
])
def test_index_no_block_holds(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_subgroup_holds_only_integers():
    # 2.9 was read as 2
    sub = G.subgroup_generated(Z6, [2])
    assert [x in sub for x in (2, np.int64(4), 2.9, 2.0, True, "2", None)] == [
        True, True, False, False, False, False, False]


@pytest.mark.parametrize("lo, hi, value, message", [
    (0, 6, 6, "x must be an integer in 0..5, got 6"),
    (1, None, 0, "x must be an integer >= 1, got 0"),
    (None, 3, 3, "x must be an integer < 3, got 3"),
    (None, None, 2.0, "x must be an integer, got 2.0"),
    (0, None, "2", "x must be an integer >= 0, got '2'"),
])
def test_message_names_what_range_and_value(lo, hi, value, message):
    with pytest.raises(ValueError) as info:
        G.as_integer(value, "x", lo, hi)
    assert str(info.value) == message


def test_values_come_back_as_python_ints():
    for value in (np.int64(-7), np.uint8(3), 2**70):
        out = G.as_integer(value, "x", lo=None)
        assert type(out) is int and out == value
    config = V.SuiteConfig(abelian_order_cap=np.int64(4), dihedral_range=(np.int32(2), 5),
                           takasaki_window=np.uint16(3))
    fields = (config.abelian_order_cap, *config.dihedral_range, config.takasaki_window)
    assert fields == (4, 2, 5, 3) and all(type(v) is int for v in fields)
    assert Q.dihedral_quandle(np.int64(5)).provenance == {"family": "dihedral", "n": 5}
    assert type(Q.dihedral_quandle(np.int64(5)).provenance["n"]) is int


def test_not_exported_from_the_package():
    import quandle_cayley
    assert not hasattr(quandle_cayley, "as_integer")
