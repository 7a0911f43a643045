"""Directed graphs for quandle Cayley structure.

The Cayley graph of a quandle Q has vertex set Q and an edge x -> x |> y
for every y (duplicates collapse, and idempotency puts a loop at every
vertex).  A graph is its read-only n x n boolean adjacency matrix plus
display names; adjacency lists and edge lists are derived from the matrix.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import breadth_first
from .quandles import Quandle

ISOMORPHISM_CAP = 64


def _rows(m: np.ndarray) -> tuple:
    """Out-neighbours of every vertex of m, as sorted tuples of ints."""
    cols = np.nonzero(m)[1].tolist()
    ends = np.cumsum(m.sum(axis=1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))


class DirectedGraph:
    """Immutable digraph on 0..n-1, stored as its boolean adjacency matrix.

    The constructor takes an edge list (duplicates collapse) and rejects
    edges that leave 0..n-1.
    """

    def __init__(self, n: int, edges, names=None):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        n = int(n)
        m = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            m[u, v] = True
        self._init(m, names)

    @classmethod
    def _of_matrix(cls, m: np.ndarray, names=None) -> "DirectedGraph":
        """Wrap a square bool matrix built in this module (entries unchecked)."""
        g = cls.__new__(cls)
        g._init(m, names)
        return g

    def _init(self, m: np.ndarray, names) -> None:
        self.n = m.shape[0]
        if names is None:
            names = [str(i) for i in range(self.n)]
        if len(names) != self.n:
            raise ValueError("names length must equal vertex count")
        self.names = tuple(str(s) for s in names)
        m.flags.writeable = False
        self._m = m

    def matrix(self) -> np.ndarray:
        """Boolean adjacency matrix (read-only)."""
        return self._m

    @cached_property
    def adj(self) -> tuple:
        """Sorted out-neighbour tuple per vertex."""
        return _rows(self._m)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._m[u, v])

    def edges(self) -> list[tuple]:
        return [tuple(e) for e in np.argwhere(self._m).tolist()]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._m))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class ComponentDecomposition:
    kind: str                 # "strong" or "weak"
    components: tuple         # tuple of sorted vertex tuples, ordered by min vertex

    @property
    def count(self) -> int:
        return len(self.components)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.components]

    def as_sets(self) -> set:
        return {frozenset(c) for c in self.components}

    def component_of(self, v: int) -> tuple:
        for comp in self.components:
            if v in comp:
                return comp
        raise ValueError(f"vertex {v} not in any component")


def build_cayley_graph(q: Quandle) -> DirectedGraph:
    """Edge x -> x |> y for every y; one loop per vertex, no multi-edges."""
    m = np.zeros((q.order, q.order), dtype=bool)
    m[np.arange(q.order)[:, None], q.rhd] = True
    return DirectedGraph._of_matrix(m, names=q.element_names)


def complete_graph(n: int, names=None) -> DirectedGraph:
    """All ordered pairs, loops included."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return DirectedGraph._of_matrix(np.ones((n, n), dtype=bool), names=names)


def degrees(g: DirectedGraph) -> list[tuple]:
    """(out, in) per vertex; a loop adds one to each."""
    m = g.matrix()
    outs = m.sum(axis=1)
    ins = m.sum(axis=0)
    return [(int(o), int(i)) for o, i in zip(outs, ins)]


def is_edgeless(g: DirectedGraph) -> bool:
    """Only loops (if anything) present."""
    m = g.matrix().copy()
    np.fill_diagonal(m, False)
    return not m.any()


def is_symmetric(g: DirectedGraph) -> bool:
    m = g.matrix()
    return bool((m == m.T).all())


def is_complete(g: DirectedGraph) -> bool:
    """Every ordered pair of distinct vertices plus a loop at each vertex."""
    return bool(g.matrix().all())


def _tarjan(adj, n: int) -> list[list[int]]:
    """Tarjan's strong components, iteratively: each frame of the work stack
    holds a vertex and the iterator over its out-neighbours, resumed after
    every child returns.  O(V + E); each component comes back sorted."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every out-neighbour of v is done
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        on_stack[w] = False
                    comp.sort()
                    comps.append(comp)
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    return comps


def strongly_connected_components(g: DirectedGraph) -> ComponentDecomposition:
    """Maximal sets with directed paths both ways between every pair."""
    comps = _tarjan(g.adj, g.n)
    comps.sort(key=lambda c: c[0])
    return ComponentDecomposition(kind="strong",
                                  components=tuple(tuple(c) for c in comps))


def weakly_connected_components(g: DirectedGraph) -> ComponentDecomposition:
    """Components of the symmetrized graph."""
    nbrs = _rows(g.matrix() | g.matrix().T)
    seen = np.zeros(g.n, dtype=bool)
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = sorted(v for layer in breadth_first([s], nbrs.__getitem__) for v in layer)
        seen[comp] = True
        comps.append(tuple(comp))
    return ComponentDecomposition(kind="weak", components=tuple(comps))


def induced_subgraph(g: DirectedGraph, vertices) -> DirectedGraph:
    """Subgraph on the given vertices, relabeled densely in sorted order."""
    verts = sorted({int(v) for v in vertices})
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    c = np.array(verts, dtype=np.intp)
    return DirectedGraph._of_matrix(g.matrix()[np.ix_(c, c)],
                                    names=[g.names[v] for v in verts])


def component_diameter(g: DirectedGraph, component) -> int:
    """Max over ordered pairs of shortest directed path length inside one
    strongly connected component."""
    sub = induced_subgraph(g, component)
    best = 0
    for s in range(sub.n):
        layers = breadth_first([s], sub.adj.__getitem__)
        if sum(len(layer) for layer in layers) < sub.n:
            raise ValueError("component is not strongly connected")
        best = max(best, len(layers) - 1)
    return best


# -- isomorphism -------------------------------------------------------------


def _signatures(g: DirectedGraph) -> list[tuple]:
    m = g.matrix()
    outs = m.sum(axis=1)
    ins = m.sum(axis=0)
    loops = np.diagonal(m)
    return [(int(outs[v]), int(ins[v]), bool(loops[v])) for v in range(g.n)]


def find_isomorphism(g1: DirectedGraph, g2: DirectedGraph,
                     cap: int = ISOMORPHISM_CAP) -> list[int] | None:
    """Exact directed-graph isomorphism by backtracking.

    Vertices are classed by (out-degree, in-degree, loop) and matched class
    against class; the search order walks g1 by connectivity so partial
    mappings get contradicted early.  Returns the vertex mapping or None.
    """
    if g1.n > cap or g2.n > cap:
        raise ValueError(f"isomorphism search capped at {cap} vertices")
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    by_sig: dict[tuple, list[int]] = {}
    for v, s in enumerate(sig2):
        by_sig.setdefault(s, []).append(v)

    # order: start at the rarest signature, then grow along edges; the
    # symmetrized search from a seed covers its whole weak component
    order: list[int] = []
    placed = np.zeros(g1.n, dtype=bool)
    sym1 = _rows(g1.matrix() | g1.matrix().T)
    rarity = {v: len(by_sig[sig1[v]]) for v in range(g1.n)}
    while len(order) < g1.n:
        pool = np.flatnonzero(~placed).tolist()
        seed = min(pool, key=lambda v: (rarity[v], v))
        reached = [v for layer in breadth_first([seed], sym1.__getitem__) for v in layer]
        placed[reached] = True
        order += reached

    m1, m2 = g1.matrix(), g2.matrix()
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def consistent(v: int, w: int, upto: int) -> bool:
        for k in range(upto):
            u = order[k]
            mu = mapping[u]
            if m1[v, u] != m2[w, mu] or m1[u, v] != m2[mu, w]:
                return False
        return True

    def backtrack(k: int) -> bool:
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

    if backtrack(0):
        return list(mapping)
    return None


def is_isomorphic(g1: DirectedGraph, g2: DirectedGraph,
                  cap: int = ISOMORPHISM_CAP) -> bool:
    return find_isomorphism(g1, g2, cap=cap) is not None


# -- export / import ---------------------------------------------------------


def export_graph(g: DirectedGraph, fmt: str) -> str:
    """Render as 'dot', 'json', or 'adjlist'.  Output is byte-stable."""
    if fmt == "dot":
        lines = ["digraph {"]
        for v in range(g.n):
            label = g.names[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'    {v} [label="{label}"];')
        for u, v in g.edges():
            lines.append(f"    {u} -> {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "n": g.n,
            "names": list(g.names),
            "edges": [[u, v] for u, v in g.edges()],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "adjlist":
        lines = [f"{g.names[v]}: " + " ".join(str(w) for w in g.adj[v])
                 for v in range(g.n)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (use dot, json, or adjlist)")


def graph_from_json(obj) -> DirectedGraph:
    """Rebuild a graph exported with fmt='json' (accepts dict or text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("graph JSON must be an object")
    for key in ("n", "edges"):
        if key not in obj:
            raise ValueError(f"graph JSON missing key {key!r}")
    return DirectedGraph(int(obj["n"]), [tuple(e) for e in obj["edges"]],
                         names=obj.get("names"))


# -- the integer quandle window ----------------------------------------------


def takasaki_z_edge(a: int, c: int) -> bool:
    """Whether c is reachable from a in one step of a |> b = 2b - a over Z.

    Solvable for integer b exactly when a and c have the same parity.
    Works elementwise on numpy arrays too.
    """
    return (a + c) % 2 == 0


def takasaki_z_window(w: int) -> DirectedGraph:
    """The induced edge relation on the integer window [-w, w].

    Vertex i stands for the integer i - w; names are the integers.
    """
    if w < 0:
        raise ValueError("window radius must be >= 0")
    values = np.arange(-w, w + 1)
    m = takasaki_z_edge(values[:, None], values[None, :])
    return DirectedGraph._of_matrix(m, names=[str(v) for v in values.tolist()])
