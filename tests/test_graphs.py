import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from quandle_cayley import graphs as gr
from quandle_cayley import groups as G
from quandle_cayley import quandles as Q


def scc_partition_scipy(graph: gr.DirectedGraph, connection: str = "strong") -> set:
    """Independent strong (or, with connection="weak", weak) component
    partition via scipy."""
    if graph.n == 0:
        return set()
    m = sp.csr_matrix(graph.matrix().astype(np.int8))
    _, labels = connected_components(m, directed=True, connection=connection)
    blocks = {}
    for v, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def assert_weak_matches_scipy(graph: gr.DirectedGraph, context) -> None:
    """The weak components equal scipy's, and come sorted, in the order of
    their least vertices."""
    weak = gr.weakly_connected_components(graph)
    assert weak.as_sets() == scc_partition_scipy(graph, connection="weak"), context
    assert weak.components == tuple(sorted(tuple(sorted(c)) for c in weak.components)), context


def random_digraph(rng, n: int, p: float) -> gr.DirectedGraph:
    m = rng.random((n, n)) < p
    return gr.DirectedGraph(n, ((u, v) for u, v in np.argwhere(m)))


def _inner_twist(g, name):
    return Q.generalized_alexander_quandle(g, G.inner_automorphism(g, g.index_of(name)))


def bfs_diameter(g: gr.DirectedGraph, component) -> int:
    """The per-source breadth-first diameter that component_diameter
    replaced, kept as its oracle."""
    sub = gr.induced_subgraph(g, component)
    best = 0
    for s in range(sub.n):
        layers = G.breadth_first([s], sub.adj.__getitem__)
        if sum(len(layer) for layer in layers) < sub.n:
            raise ValueError("component is not strongly connected")
        best = max(best, len(layers) - 1)
    return best


def json_reference(g: gr.DirectedGraph) -> str:
    """The export_graph(fmt="json") text as json.dumps renders it."""
    payload = {"n": g.n, "names": list(g.names),
               "edges": [[u, v] for u, v in g.edges()]}
    return json.dumps(payload, indent=2) + "\n"


def dot_reference(g: gr.DirectedGraph) -> str:
    """The export_graph(fmt="dot") text, one f-string per vertex and edge."""
    lines = ["digraph {"]
    for v, name in enumerate(g.names):
        label = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'    {v} [label="{label}"];')
    lines += [f"    {u} -> {v};" for u, v in g.edges()]
    return "\n".join(lines + ["}"]) + "\n"


def adjlist_reference(g: gr.DirectedGraph) -> str:
    """The export_graph(fmt="adjlist") text, one str() per edge."""
    m = g.matrix()
    return "\n".join(f"{g.names[u]}: " + " ".join(str(v) for v in np.flatnonzero(m[u]))
                     for u in range(g.n)) + "\n"


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

    @pytest.mark.parametrize("n, edges", [
        (2.9, [(0, 1)]),
        (True, [(0, 0)]),
        ("2", [(0, 1)]),
        (2, [(0.7, 1)]),
        (2, [(0, 1.0)]),
        (2, [(True, 0)]),
        (2, [(0, np.True_)]),
    ])
    def test_rejects_non_integer_count_or_endpoint(self, n, edges):
        with pytest.raises(ValueError, match="integer"):
            gr.DirectedGraph(n, edges)

    @pytest.mark.parametrize("edges, bad", [([1, 2], "1"), ([(0, 1, 2)], r"\(0, 1, 2\)"),
                                            ([(0, 1), [2]], r"\[2\]"),
                                            (np.array([[0, 1, 2]]), r"array\(\[0, 1, 2\]\)")])
    def test_refuses_an_edge_that_is_not_a_pair(self, edges, bad):
        # a TypeError and a bare unpacking error before the check moved here
        with pytest.raises(ValueError, match=rf"^edge {bad} is not a pair$"):
            gr.DirectedGraph(3, edges)

    def test_accepts_numpy_rows_as_edges(self):
        m = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
        g = gr.DirectedGraph(3, np.argwhere(m))
        assert g.edges() == [(0, 1), (1, 2), (2, 0)]
        assert (g.matrix() == m).all()

    def test_accepts_numpy_integers(self):
        g = gr.DirectedGraph(np.int64(3), [(np.int32(0), np.uint8(2)), (np.int64(2), 1)])
        assert g.n == 3
        assert g.edges() == [(0, 2), (2, 1)]

    def test_from_json_refuses_truncation(self):
        # int() would have read this as a 2-vertex graph with edges (0, 1), (1, 0)
        for obj in ({"n": 2.9, "edges": [[0, 1]]},
                    {"n": 2, "edges": [[0.7, 1]]},
                    {"n": 2, "edges": [[True, 0]]},
                    '{"n": 2, "edges": [[0, 1.0]]}'):
            with pytest.raises(ValueError, match="integer"):
                gr.graph_from_json(obj)

    def test_from_json_rejects_three_element_edge(self):
        with pytest.raises(ValueError):
            gr.graph_from_json({"n": 3, "edges": [[0, 1, 2]]})

    @pytest.mark.parametrize("obj, field", [
        ({"n": 2, "edges": 5}, "edges"),
        ({"n": 2, "edges": None}, "edges"),
        ({"n": 2, "edges": [5]}, "edge 5 is not a pair"),
        ({"n": 2, "edges": [[0, 1]], "names": 5}, "names"),
        ({"n": 2, "edges": [[0, 1]], "names": "ab"}, "names must be a list"),
        ({"n": 2, "edges": [[0, 1]], "names": {"a": 1, "b": 2}}, "names must be a list"),
    ])
    def test_from_json_refuses_wrongly_typed_fields(self, obj, field):
        with pytest.raises(ValueError, match=field):
            gr.graph_from_json(obj)

    def test_from_json_refuses_deeply_nested_text(self):
        # json.loads raised RecursionError
        with pytest.raises(ValueError, match="^graph JSON is nested too deeply$"):
            gr.graph_from_json("[" * 100_000 + "]" * 100_000)

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
            assert_weak_matches_scipy(graph, q.label)

    def test_matches_scipy_on_random_digraphs(self):
        rng = np.random.default_rng(20240817)
        for trial in range(60):
            n = int(rng.integers(1, 40))
            p = float(rng.choice([0.02, 0.05, 0.1, 0.3, 0.8]))
            graph = random_digraph(rng, n, p)
            ours = gr.strongly_connected_components(graph).as_sets()
            assert ours == scc_partition_scipy(graph), f"trial {trial}, n={n}, p={p}"
            assert_weak_matches_scipy(graph, f"trial {trial}, n={n}, p={p}")

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
        assert gr.weakly_connected_components(graph).components == (tuple(range(n)),)

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

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_by_label_takes_any_integers(self, seed):
        # labels that are not least members, negative ones among them
        rng = np.random.default_rng(seed)
        labels = rng.integers(-5, 12, size=40).tolist()
        want = sorted(tuple(x for x in range(40) if labels[x] == lab) for lab in set(labels))
        assert G._blocks_by_label(labels) == tuple(want)
        assert G._blocks_by_label(np.array(labels)) == tuple(want)
        assert G._blocks_by_label([7, 3, 7, 3, 9]) == ((0, 2), (1, 3), (4,))

    @pytest.mark.parametrize("build,seed", [
        (lambda: Q.trivial_quandle(64), 1),
        (lambda: Q.conjugation_quandle(G.make_symmetric(5)), None),
        (lambda: Q.conjugation_quandle(G.make_symmetric(5)), 2),
        (lambda: _inner_twist(G.make_dihedral(50), "r"), 3),
    ], ids=["T64", "conj_S5", "conj_S5_relabelled", "twist_D50_relabelled"])
    def test_orbits_and_tarjan_match_scipy(self, build, seed):
        q = build()
        if seed is not None:
            perm = np.random.default_rng(seed).permutation(q.order)
            table = np.empty_like(q.rhd)
            table[np.ix_(perm, perm)] = perm[q.rhd]
            q = Q.Quandle(table)
        graph = gr.build_cayley_graph(q)
        want = tuple(sorted(tuple(sorted(b)) for b in scc_partition_scipy(graph)))
        assert gr.orbit_components(q).components == want
        assert gr.strongly_connected_components(graph).components == want
        assert gr.weakly_connected_components(graph).components == want

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

    def test_component_diameter_gates_the_component_as_one_array(self, monkeypatch):
        cycle = gr.DirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        monkeypatch.setattr(gr, "induced_subgraph", None)   # not on this path
        for comp in (range(5), [4, 3, 2, 1, 0, 0, 3], np.arange(5, dtype=np.uint8),
                     (np.int64(v) for v in range(5))):
            assert gr.component_diameter(cycle, comp) == 4
        assert gr.component_diameter(cycle, []) == 0
        # the first vertex the gate refuses is named, as as_integer names it
        for comp, bad in (([0, 5, 1.5], "5"), ([0, 1.5, 5], "1.5"), ([1, True], "True"),
                          ([0, [1, 2]], "[1, 2]"), ([0, -1], "-1"), (["0"], "'0'"),
                          ([2 ** 70], str(2 ** 70)), (np.array([0.0]), repr(np.float64(0.0)))):
            with pytest.raises(ValueError) as info:
                gr.component_diameter(cycle, comp)
            assert str(info.value) == f"vertex must be an integer in 0..4, got {bad}", comp

    def test_component_diameter_requires_strong_connectivity(self):
        path = gr.DirectedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            gr.component_diameter(path, [0, 1, 2])


class TestDiameterOracle:
    """component_diameter (matrix powers) against the per-source BFS."""

    @pytest.mark.parametrize("length", list(range(1, 41)) + [300])
    def test_cycles(self, length):
        cycle = gr.DirectedGraph(length, [(i, (i + 1) % length) for i in range(length)])
        assert gr.component_diameter(cycle, range(length)) == length - 1
        assert bfs_diameter(cycle, range(length)) == length - 1

    def test_complete_graphs_and_a_loopless_vertex(self):
        for n in range(1, 9):
            assert gr.component_diameter(gr.complete_graph(n), range(n)) == min(n - 1, 1)
        lone = gr.DirectedGraph(1, [])
        assert gr.component_diameter(lone, [0]) == bfs_diameter(lone, [0]) == 0
        assert gr.component_diameter(gr.DirectedGraph(0, []), []) == 0

    def test_raw_large_family_components(self):
        # the families of the raw_large benchmark workload, orders 120..384
        z = {k: G.make_abelian([k, k]) for k in (11, 13, 16, 19)}
        twists = {11: [[1, 1], [0, 1]], 13: [[1, 0], [3, 1]],
                  16: [[1, 2], [0, 1]], 19: [[1, 0], [1, 1]]}
        quandles = [Q.conjugation_quandle(G.make_symmetric(5)),
                    Q.dihedral_quandle(128), Q.dihedral_quandle(150)]
        quandles += [Q.core_quandle(G.make_dihedral(m)) for m in (60, 96, 144, 192)]
        quandles += [Q.alexander_quandle(z[k], G.matrix_automorphism(z[k], twists[k]))
                     for k in z]
        for q in quandles:
            graph = gr.build_cayley_graph(q)
            for comp in gr.strongly_connected_components(graph).components:
                diameter = gr.component_diameter(graph, comp)
                assert diameter == bfs_diameter(graph, comp)
                # analyze reads completeness off the diameter
                assert (diameter <= 1) == gr.is_complete(gr.induced_subgraph(graph, comp))

    def test_random_strongly_connected_digraphs(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(2, 70))
            m = rng.random((n, n)) < rng.choice([0.0, 0.02, 0.1, 0.4])
            order = rng.permutation(n)                  # a Hamilton cycle
            m[order, np.roll(order, -1)] = True
            g = gr.DirectedGraph(n, np.argwhere(m).tolist())
            assert gr.component_diameter(g, range(n)) == bfs_diameter(g, range(n))

    def test_not_strongly_connected_raises_the_same_message(self):
        rng = np.random.default_rng(12)
        cases = [gr.DirectedGraph(2, []), gr.DirectedGraph(2, [(0, 1)]),
                 gr.DirectedGraph(3, [(0, 1), (1, 2)])]
        while len(cases) < 40:
            g = random_digraph(rng, int(rng.integers(2, 30)), 0.08)
            if gr.strongly_connected_components(g).count > 1:
                cases.append(g)
        for g in cases:
            with pytest.raises(ValueError) as old:
                bfs_diameter(g, range(g.n))
            with pytest.raises(ValueError) as new:
                gr.component_diameter(g, range(g.n))
            assert str(new.value) == str(old.value) == "component is not strongly connected"

    def test_reachability_matches_breadth_first(self):
        # long paths, where the closure needs every squaring, and random
        # sparse graphs with several components
        rng = np.random.default_rng(13)
        cases = [gr.DirectedGraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 3, 33, 64, 65)]
        cases += [random_digraph(rng, int(rng.integers(1, 60)), p)
                  for p in (0.0, 0.02, 0.05, 0.2) for _ in range(10)]
        for g in cases:
            reach = gr._reachability(g.matrix())
            assert reach.dtype == bool
            for s in range(g.n):
                seen = {v for layer in G.breadth_first([s], g.adj.__getitem__) for v in layer}
                assert np.flatnonzero(reach[s]).tolist() == sorted(seen)

    def test_stacked_reachability_matches_each_matrix(self):
        # one batch of squarings over matrices that need different numbers
        # of them: a long path, a short cycle and random sparse graphs
        rng = np.random.default_rng(17)
        n = 40
        stack = [gr.DirectedGraph(n, [(i, i + 1) for i in range(n - 1)]).matrix(),
                 gr.DirectedGraph(n, [(i, (i + 1) % 3) for i in range(3)]).matrix()]
        stack += [random_digraph(rng, n, p).matrix() for p in (0.0, 0.03, 0.1)]
        reach = gr._reachability(np.stack(stack))
        assert reach.shape == (len(stack), n, n) and reach.dtype == bool
        for r, m in zip(reach, stack):
            assert (r == gr._reachability(m)).all()


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


def _loop_find_isomorphism(g1, g2, cap=gr.ISOMORPHISM_CAP):
    """find_isomorphism as it was with a per-vertex consistency loop: the
    same signature classes and search order, each candidate tested against
    the placed vertices one at a time."""
    if g1.n > cap or g2.n > cap:
        raise ValueError(f"isomorphism search capped at {cap} vertices")
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    sig1, sig2 = gr._signatures(g1), gr._signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_sig = {}
    for v, s in enumerate(sig2):
        by_sig.setdefault(s, []).append(v)
    order = []
    placed = np.zeros(g1.n, dtype=bool)
    sym1 = gr._rows(g1.matrix() | g1.matrix().T)
    rarity = {v: len(by_sig[sig1[v]]) for v in range(g1.n)}
    while len(order) < g1.n:
        pool = np.flatnonzero(~placed).tolist()
        seed = min(pool, key=lambda v: (rarity[v], v))
        reached = [v for layer in G.breadth_first([seed], sym1.__getitem__) for v in layer]
        placed[reached] = True
        order += reached
    m1, m2 = g1.matrix(), g2.matrix()
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def consistent(v, w, upto):
        for k in range(upto):
            u = order[k]
            mu = mapping[u]
            if m1[v, u] != m2[w, mu] or m1[u, v] != m2[mu, w]:
                return False
        return True

    def backtrack(k):
        if k == len(order):
            return True
        v = order[k]
        for w in by_sig.get(sig1[v], ()):
            if used[w] or not consistent(v, w, k):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(k + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    return list(mapping) if backtrack(0) else None


def _relabelled(graph, rng):
    perm = rng.permutation(graph.n)
    m = np.zeros_like(graph.matrix())
    m[np.ix_(perm, perm)] = graph.matrix()
    return gr.DirectedGraph._of_matrix(m)


def _edge_swapped(graph, rng):
    """graph with u1 -> v1, u2 -> v2 replaced by u1 -> v2, u2 -> v1 for a
    random pair of non-loop edges, which keeps every vertex's signature."""
    m = graph.matrix().copy()
    edges = [(u, v) for u, v in graph.edges() if u != v]
    while True:
        (u1, v1), (u2, v2) = (edges[i] for i in rng.choice(len(edges), 2, replace=False))
        if len({u1, v1, u2, v2}) == 4 and not m[u1, v2] and not m[u2, v1]:
            m[u1, v1] = m[u2, v2] = False
            m[u1, v2] = m[u2, v1] = True
            return gr.DirectedGraph._of_matrix(m)


class TestIsomorphismMatchesTheLoop:
    """find_isomorphism returns the mapping (or None) that the per-vertex
    loop returned, on every search of a default verify pass and on
    relabelled and edge-swapped quandle graphs."""

    def test_default_pass_searches(self, monkeypatch):
        from quandle_cayley import verify as V
        real, pairs = gr.find_isomorphism, []

        def record(g1, g2):
            pairs.append((g1, g2))
            return real(g1, g2)

        monkeypatch.setattr(gr, "find_isomorphism", record)
        V.run_suite()
        assert len(pairs) > 100
        found = 0
        for g1, g2 in pairs:
            mapping = real(g1, g2)
            assert mapping == _loop_find_isomorphism(g1, g2)
            found += mapping is not None
        assert found > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_quandle_graphs(self, seed):
        rng = np.random.default_rng(seed)
        z8, s4 = G.make_abelian([8, 8]), G.make_symmetric(4)
        for q in (Q.conjugation_quandle(s4), Q.core_quandle(G.make_dihedral(16)),
                  Q.dihedral_quandle(49), Q.conjugation_quandle(G.make_dihedral(16)),
                  Q.generalized_alexander_quandle(s4, G.inner_automorphism(s4, 1)),
                  Q.alexander_quandle(z8, G.matrix_automorphism(z8, [[1, 1], [1, 2]]))):
            graph = gr.build_cayley_graph(q)
            assert 24 <= graph.n <= 64
            other = _relabelled(graph, rng)
            mapping = gr.find_isomorphism(graph, other)
            assert mapping is not None and mapping == _loop_find_isomorphism(graph, other), q.label

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_swapped_small_graphs(self, seed):
        # a swap keeps every signature but not the isomorphism type, so the
        # search runs to exhaustion; that is only cheap on small graphs
        rng = np.random.default_rng(seed)
        for q in (Q.dihedral_quandle(6), Q.conjugation_quandle(G.make_symmetric(3)),
                  Q.core_quandle(G.make_dihedral(4)), Q.dihedral_quandle(10),
                  Q.conjugation_quandle(G.make_dihedral(5))):
            graph = gr.build_cayley_graph(q)
            other = _relabelled(_edge_swapped(graph, rng), rng)
            assert gr.find_isomorphism(graph, other) is None
            assert _loop_find_isomorphism(graph, other) is None, q.label


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

    @pytest.mark.parametrize("graph", [
        gr.DirectedGraph(3, []),
        gr.DirectedGraph(1, []),
        gr.DirectedGraph(1, [(0, 0)]),
        gr.DirectedGraph(0, []),
        gr.DirectedGraph(4, [(0, 1), (3, 3), (1, 0)],
                         names=['a"b', "c\\d", "\u00e9\u2603\U0001d11e", "x\x01\ty"]),
    ], ids=["edgeless", "one_vertex", "one_loop", "empty", "escaped_names"])
    def test_json_bytes_match_json_dumps(self, graph):
        assert gr.export_graph(graph, "json") == json_reference(graph)

    def test_json_bytes_match_json_dumps_on_cayley_and_random_graphs(self):
        rng = np.random.default_rng(5)
        graphs = [gr.build_cayley_graph(Q.conjugation_quandle(G.make_symmetric(4))),
                  gr.build_cayley_graph(Q.trivial_quandle(5))]
        graphs += [random_digraph(rng, int(rng.integers(1, 20)), p) for p in (0.0, 0.1, 0.5) * 10]
        for graph in graphs:
            assert gr.export_graph(graph, "json") == json_reference(graph)

    def test_dot_and_adjlist_text_is_unchanged(self):
        g = gr.DirectedGraph(4, [(0, 1), (1, 2), (2, 0), (1, 1), (3, 3)],
                             names=['a"b', "c\\d", "\u00e9", "x y"])
        assert gr.export_graph(g, "dot") == (
            'digraph {\n    0 [label="a\\"b"];\n    1 [label="c\\\\d"];\n'
            '    2 [label="\u00e9"];\n    3 [label="x y"];\n    0 -> 1;\n    1 -> 1;\n'
            '    1 -> 2;\n    2 -> 0;\n    3 -> 3;\n}\n')
        assert gr.export_graph(g, "adjlist") == 'a"b: 1\nc\\d: 1 2\n\u00e9: 0\nx y: 3\n'

    def test_fixed_text_of_short_rows_and_escaped_names(self):
        # vertex 0 has one out-edge, vertex 1 none; the names need JSON and
        # dot escapes, and the second cannot be written in ASCII
        g = gr.DirectedGraph(3, [(0, 2), (2, 0), (2, 2)], names=['q"\\', "\u00e9\t\x01", "x y"])
        assert gr.export_graph(g, "dot") == (
            'digraph {\n    0 [label="q\\"\\\\"];\n    1 [label="\u00e9\t\x01"];\n'
            '    2 [label="x y"];\n    0 -> 2;\n    2 -> 0;\n    2 -> 2;\n}\n')
        assert gr.export_graph(g, "json") == (
            '{\n  "n": 3,\n  "names": [\n    "q\\"\\\\",\n    "\\u00e9\\t\\u0001",\n'
            '    "x y"\n  ],\n  "edges": [\n    [\n      0,\n      2\n    ],\n'
            '    [\n      2,\n      0\n    ],\n    [\n      2,\n      2\n    ]\n  ]\n}\n')
        assert gr.export_graph(g, "adjlist") == 'q"\\: 2\n\u00e9\t\x01: \nx y: 0 2\n'
        one = gr.build_cayley_graph(Q.trivial_quandle(1))
        assert gr.export_graph(one, "dot") == 'digraph {\n    0 [label="0"];\n    0 -> 0;\n}\n'
        assert gr.export_graph(one, "json") == (
            '{\n  "n": 1,\n  "names": [\n    "0"\n  ],\n'
            '  "edges": [\n    [\n      0,\n      0\n    ]\n  ]\n}\n')
        assert gr.export_graph(one, "adjlist") == "0: 0\n"

    def test_all_formats_match_the_per_edge_references(self):
        # rows of one vertex (trivial quandles), empty rows (edge lists),
        # n = 1 and n = 0, escaped names, and dense quandle graphs
        rng = np.random.default_rng(22)
        graphs = [gr.build_cayley_graph(q) for q in (
            Q.trivial_quandle(1), Q.trivial_quandle(12), Q.dihedral_quandle(8),
            Q.conjugation_quandle(G.make_symmetric(4)), Q.core_quandle(G.make_dihedral(30)))]
        graphs += [gr.DirectedGraph(0, []), gr.DirectedGraph(1, []),
                   gr.DirectedGraph(4, [(0, 1), (3, 3), (1, 0)],
                                    names=['a"b', "c\\d", "\u00e9\u2603\U0001d11e", "x\x01\ty"])]
        graphs += [random_digraph(rng, int(rng.integers(1, 30)), p) for p in (0.02, 0.1, 0.5) * 5]
        for graph in graphs:
            assert gr.export_graph(graph, "json") == json_reference(graph), graph
            assert gr.export_graph(graph, "dot") == dot_reference(graph), graph
            assert gr.export_graph(graph, "adjlist") == adjlist_reference(graph), graph

    def test_adjlist(self):
        graph = gr.build_cayley_graph(Q.dihedral_quandle(4))
        lines = gr.export_graph(graph, "adjlist").splitlines()
        assert lines[0] == "0: 0 2"
        assert lines[1] == "1: 1 3"
        assert len(lines) == 4

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            gr.export_graph(gr.complete_graph(2), "gml")
