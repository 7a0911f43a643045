import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from quandle_cayley import graphs as gr
from quandle_cayley import groups as G
from quandle_cayley import quandles as Q


def scc_partition_scipy(graph: gr.DirectedGraph) -> set:
    """Independent strong-component partition via scipy."""
    if graph.n == 0:
        return set()
    m = sp.csr_matrix(graph.matrix().astype(np.int8))
    _, labels = connected_components(m, directed=True, connection="strong")
    blocks = {}
    for v, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def random_digraph(rng, n: int, p: float) -> gr.DirectedGraph:
    m = rng.random((n, n)) < p
    return gr.DirectedGraph(n, ((u, v) for u, v in np.argwhere(m)))


class TestDirectedGraph:
    def test_dedupes_and_sorts(self):
        g = gr.DirectedGraph(3, [(0, 1), (0, 1), (2, 0), (0, 2)])
        assert g.adj[0] == (1, 2)
        assert g.edge_count == 3
        assert g.has_edge(2, 0)
        assert not g.has_edge(1, 0)

    def test_default_names(self):
        g = gr.DirectedGraph(2, [(0, 1)])
        assert g.names == ("0", "1")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gr.DirectedGraph(2, [(0, 5)])

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValueError):
            gr.DirectedGraph(2, [(-1, 0)])

    def test_from_json_rejects_three_element_edge(self):
        with pytest.raises(ValueError):
            gr.graph_from_json({"n": 3, "edges": [[0, 1, 2]]})

    def test_matrix(self):
        g = gr.DirectedGraph(2, [(0, 1), (1, 1)])
        assert g.matrix().tolist() == [[False, True], [False, True]]


class TestCayleyGraphShapes:
    def test_dihedral4_edge_set(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(4))
        expected = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1)}
        assert set(graph.edges()) == expected

    def test_loops_at_every_vertex(self):
        for q in (Q.trivial_quandle(5), Q.conjugation_quandle(G.make_symmetric(3))):
            graph = gr.build_cayley_graph(q)
            assert all(graph.has_edge(v, v) for v in range(graph.n))

    def test_trivial_is_edgeless(self):
        graph = gr.build_cayley_graph(Q.trivial_quandle(6))
        assert gr.is_edgeless(graph)
        assert graph.edge_count == 6

    def test_odd_dihedral_complete(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(7))
        assert gr.is_complete(graph)
        assert gr.degrees(graph) == [(7, 7)] * 7

    def test_matrix_build_matches_edge_loop(self):
        # reference: one edge x -> x |> y per table cell, collected in a loop
        d6 = G.make_dihedral(6)
        for q in (Q.dihedral_quandle(6), Q.conjugation_quandle(G.make_symmetric(4)),
                  Q.generalized_alexander_quandle(d6, G.inner_automorphism(d6, 1))):
            graph = gr.build_cayley_graph(q)
            edges = {(x, int(q.rhd[x, y])) for x in range(q.order) for y in range(q.order)}
            assert graph.edges() == sorted(edges)
            assert graph.edge_count == len(edges)
            assert graph.adj == tuple(tuple(sorted(v for u, v in edges if u == x))
                                      for x in range(q.order))
            verts = list(range(0, q.order, 3))
            pos = {v: i for i, v in enumerate(verts)}
            sub = gr.induced_subgraph(graph, reversed(verts))
            assert sub.edges() == sorted((pos[u], pos[v]) for u, v in edges
                                         if u in pos and v in pos)

    def test_complete_graph_helper(self):
        k = gr.complete_graph(4)
        assert gr.is_complete(k)
        assert k.edge_count == 16


class TestComponents:
    def test_strong_vs_weak_on_path(self):
        g = gr.DirectedGraph(3, [(0, 1), (1, 2)])
        strong = gr.strongly_connected_components(g)
        weak = gr.weakly_connected_components(g)
        assert strong.as_sets() == {frozenset({0}), frozenset({1}), frozenset({2})}
        assert weak.as_sets() == {frozenset({0, 1, 2})}
        assert strong.kind == "strong"
        assert weak.kind == "weak"

    def test_components_ordered_by_min_vertex(self):
        g = gr.DirectedGraph(4, [(3, 2), (2, 3)])
        comps = gr.strongly_connected_components(g)
        assert comps.components == ((0,), (1,), (2, 3))
        assert comps.component_of(3) == (2, 3)

    def test_matches_scipy_on_quandle_graphs(self):
        cases = [Q.dihedral_quandle(n) for n in range(2, 11)]
        cases += [
            Q.conjugation_quandle(G.make_symmetric(3)),
            Q.conjugation_quandle(G.make_symmetric(4)),
            Q.conjugation_quandle(G.make_dihedral(6)),
        ]
        d6 = G.make_dihedral(6)
        cases.append(Q.generalized_alexander_quandle(
            d6, G.inner_automorphism(d6, d6.index_of("r"))))
        for q in cases:
            graph = gr.build_cayley_graph(q)
            ours = gr.strongly_connected_components(graph).as_sets()
            assert ours == scc_partition_scipy(graph), q.label

    def test_matches_scipy_on_random_digraphs(self):
        rng = np.random.default_rng(20240817)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            p = float(rng.choice([0.02, 0.05, 0.1, 0.3, 0.8]))
            graph = random_digraph(rng, n, p)
            ours = gr.strongly_connected_components(graph).as_sets()
            assert ours == scc_partition_scipy(graph), f"trial {trial}, n={n}, p={p}"

    def test_deep_path_no_recursion_limit(self):
        # iterative traversal must survive paths much longer than the
        # interpreter's recursion limit
        n = 5000
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        graph = gr.DirectedGraph(n, edges)
        comps = gr.strongly_connected_components(graph)
        assert comps.count == 1

    def test_long_path_without_back_edge(self):
        # no vertex reaches back, so every frame closes its own singleton
        n = 5000
        graph = gr.DirectedGraph(n, [(i, i + 1) for i in range(n - 1)])
        comps = gr.strongly_connected_components(graph)
        assert comps.components == tuple((v,) for v in range(n))
        assert comps.as_sets() == scc_partition_scipy(graph)

    def test_core_d192_matches_scipy(self):
        graph = gr.build_cayley_graph(Q.core_quandle(G.make_dihedral(192)))
        assert graph.n == 384
        comps = gr.strongly_connected_components(graph)
        assert comps.as_sets() == scc_partition_scipy(graph)
        assert comps.components == tuple(sorted(tuple(sorted(c)) for c in comps.components))
        assert comps.sizes() == [96, 96, 96, 96]

    def test_low_link_propagates_through_parent_frames(self):
        # neighbours are taken in increasing order, so the search runs
        # 0 -> 1 -> 2 -> 3 -> 4 and only 4 points back (to 1): 3 and 2 learn
        # their low link from a returning child.  {5, 6} closes inside the
        # frame of 2 after 3 returns.  In 10..14 the inner cycle 12 -> 13 ->
        # 14 -> 12 nests inside the outer one closed by 13 -> 10.  8 and 9
        # are later roots whose edges enter finished components.  15, 17, 16
        # is found out of order and must still come back sorted.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (5, 6), (6, 5),
                 (6, 7), (8, 4), (8, 9), (9, 8), (9, 0),
                 (10, 11), (11, 12), (12, 13), (13, 10), (13, 14), (14, 12), (14, 7),
                 (15, 17), (17, 16), (16, 15)]
        graph = gr.DirectedGraph(18, edges)
        comps = gr.strongly_connected_components(graph)
        assert comps.components == ((0,), (1, 2, 3, 4), (5, 6), (7,), (8, 9),
                                    (10, 11, 12, 13, 14), (15, 16, 17))
        assert comps.as_sets() == scc_partition_scipy(graph)

    def test_induced_subgraph(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(4))
        sub = gr.induced_subgraph(graph, [1, 3])
        assert sub.n == 2
        assert set(sub.edges()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert sub.names == ("1", "3")

    def test_component_diameter(self):
        cycle = gr.DirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert gr.component_diameter(cycle, range(5)) == 4
        assert gr.component_diameter(gr.complete_graph(4), range(4)) == 1
        loop = gr.DirectedGraph(1, [(0, 0)])
        assert gr.component_diameter(loop, [0]) == 0

    def test_component_diameter_requires_strong_connectivity(self):
        path = gr.DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            gr.component_diameter(path, [0, 1, 2])


class TestPredicates:
    def test_symmetry(self):
        assert gr.is_symmetric(gr.build_cayley_graph(Q.dihedral_quandle(6)))
        d6 = G.make_dihedral(6)
        twisted = gr.build_cayley_graph(Q.generalized_alexander_quandle(
            d6, G.inner_automorphism(d6, d6.index_of("r"))))
        assert not gr.is_symmetric(twisted)

    def test_takasaki_edge_parity(self):
        assert gr.takasaki_z_edge(3, 5)
        assert gr.takasaki_z_edge(-2, 4)
        assert not gr.takasaki_z_edge(0, 3)
        assert gr.takasaki_z_edge(7, 7)

    def test_takasaki_window_matches_edge_predicate(self):
        for w in range(4):
            values = range(-w, w + 1)
            expected = [(i, j) for i, a in enumerate(values)
                        for j, c in enumerate(values) if gr.takasaki_z_edge(a, c)]
            assert gr.takasaki_z_window(w).edges() == expected

    def test_takasaki_window(self):
        graph = gr.takasaki_z_window(2)
        assert graph.names == ("-2", "-1", "0", "1", "2")
        comps = gr.strongly_connected_components(graph)
        assert comps.as_sets() == {frozenset({0, 2, 4}), frozenset({1, 3})}
        for comp in comps.components:
            assert gr.is_complete(gr.induced_subgraph(graph, comp))


class TestIsomorphism:
    def shuffle(self, graph: gr.DirectedGraph, rng) -> gr.DirectedGraph:
        perm = rng.permutation(graph.n)
        edges = [(perm[u], perm[v]) for u, v in graph.edges()]
        return gr.DirectedGraph(graph.n, edges)

    def check_mapping(self, g1, g2, mapping):
        assert sorted(mapping) == list(range(g1.n))
        m1, m2 = g1.matrix(), g2.matrix()
        for u in range(g1.n):
            for v in range(g1.n):
                assert m1[u, v] == m2[mapping[u], mapping[v]]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabelled_quandle_graphs(self, seed):
        rng = np.random.default_rng(seed)
        for q in (Q.dihedral_quandle(6), Q.conjugation_quandle(G.make_symmetric(3)),
                  Q.dihedral_quandle(9)):
            graph = gr.build_cayley_graph(q)
            other = self.shuffle(graph, rng)
            mapping = gr.find_isomorphism(graph, other)
            assert mapping is not None
            self.check_mapping(graph, other, mapping)

    def test_distinguishes_cycle_lengths(self):
        c6 = gr.DirectedGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_c3 = gr.DirectedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert gr.find_isomorphism(c6, two_c3) is None
        assert not gr.is_isomorphic(c6, two_c3)

    def test_distinguishes_orientation_structure(self):
        # same degree sequences: directed 3-cycle vs a 2-cycle with a loop set
        a = gr.DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
        b = gr.DirectedGraph(3, [(0, 1), (1, 0), (2, 2)])
        assert gr.find_isomorphism(a, b) is None

    def test_different_sizes(self):
        assert gr.find_isomorphism(gr.complete_graph(3), gr.complete_graph(4)) is None

    def test_identical_is_isomorphic(self):
        g = gr.build_cayley_graph(Q.dihedral_quandle(8))
        mapping = gr.find_isomorphism(g, g)
        assert mapping is not None
        self.check_mapping(g, g, mapping)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            gr.find_isomorphism(gr.complete_graph(65), gr.complete_graph(65))


class TestExport:
    def test_dot(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(3))
        text = gr.export_graph(graph, "dot")
        assert text.startswith("digraph {")
        assert '0 [label="0"];' in text
        assert "0 -> 1;" in text
        assert text.endswith("}\n")

    def test_dot_escapes_quotes(self):
        g = gr.DirectedGraph(1, [(0, 0)], names=['a"b'])
        assert 'label="a\\"b"' in gr.export_graph(g, "dot")

    def test_json_round_trip(self):
        graph = gr.build_cayley_graph(Q.conjugation_quandle(G.make_symmetric(3)))
        obj = json.loads(gr.export_graph(graph, "json"))
        back = gr.graph_from_json(obj)
        assert back.n == graph.n
        assert back.adj == graph.adj
        assert back.names == graph.names

    def test_adjlist(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(4))
        lines = gr.export_graph(graph, "adjlist").splitlines()
        assert lines[0] == "0: 0 2"
        assert lines[1] == "1: 1 3"
        assert len(lines) == 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            gr.export_graph(gr.complete_graph(2), "gml")
