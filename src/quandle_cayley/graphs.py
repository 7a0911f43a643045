"""Directed graphs for quandle Cayley structure.

The Cayley graph of a quandle Q has vertex set Q and an edge x -> x |> y
for every y (duplicates collapse, and idempotency puts a loop at every
vertex).  A graph is its read-only n x n boolean adjacency matrix plus
display names; adjacency lists and edge lists are derived from the matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .groups import (_block_of, _blocks_by_label, as_integer, as_integer_array, as_list,
                     breadth_first, loads_json)
from .quandles import Quandle, _orbit_labels

ISOMORPHISM_CAP = 64


def _rows(m: np.ndarray, items=None) -> tuple:
    """Out-neighbours of every vertex of m, as sorted tuples of ints, or of
    items[v] when a list of items is given: one gather of references to
    those items, so no object is built per edge."""
    cols = np.nonzero(m)[1]
    cols = (cols if items is None else np.array(items, dtype=object)[cols]).tolist()
    ends = np.cumsum(m.sum(axis=1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))


class DirectedGraph:
    """Immutable digraph on 0..n-1, stored as its boolean adjacency matrix.

    The constructor takes a list of edge pairs (duplicates collapse); the
    count passes as_integer and the endpoints as_integer_array, so floats
    are not rounded, bools are refused and no edge leaves 0..n-1.
    """

    def __init__(self, n: int, edges, names=None):
        n = as_integer(n, "vertex count")
        edges = list(edges)
        bad = next((e for e in edges if not (isinstance(e, (list, tuple)) or isinstance(
            e, np.ndarray) and e.ndim == 1) or len(e) != 2), None)
        if bad is not None:
            raise ValueError(f"edge {bad!r} is not a pair")
        ends = as_integer_array([v for e in edges for v in e], "edge endpoint", n)
        m = np.zeros((n, n), dtype=bool)
        m[ends[0::2], ends[1::2]] = True
        self._init(m, names)

    @classmethod
    def _of_matrix(cls, m: np.ndarray, names=None) -> "DirectedGraph":
        """Wrap a square bool matrix the library built (entries unchecked)."""
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
        n = self.n
        return bool(self._m[as_integer(u, "vertex", 0, n), as_integer(v, "vertex", 0, n)])

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
        return _block_of(self.components, v, "vertex")


def build_cayley_graph(q: Quandle) -> DirectedGraph:
    """Edge x -> x |> y for every y; one loop per vertex, no multi-edges."""
    m = np.zeros((q.order, q.order), dtype=bool)
    m[np.arange(q.order)[:, None], q.rhd] = True
    return DirectedGraph._of_matrix(m, names=q.element_names)


def complete_graph(n: int, names=None) -> DirectedGraph:
    """All ordered pairs, loops included, on n >= 1 vertices."""
    n = as_integer(n, "complete graph n", lo=1)
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


def _tarjan(adj, n: int) -> list[int]:
    """Tarjan's strong components, iteratively: each frame of the work stack
    holds a vertex and the iterator over its out-neighbours, resumed after
    every child returns.  O(V + E); returns each vertex's component number."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [0] * n
    counter = found = 0
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
                    for w in stack[at:]:
                        on_stack[w] = False
                        comp[w] = found
                    del stack[at:]
                    found += 1
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    return comp


def orbit_components(q: Quandle) -> ComponentDecomposition:
    """Strong components of build_cayley_graph(q), read with no search
    from q's orbit labels (see quandles._orbit_labels)."""
    return ComponentDecomposition("strong", _blocks_by_label(_orbit_labels(q.rhd)))


def strongly_connected_components(g: DirectedGraph) -> ComponentDecomposition:
    """Maximal sets with directed paths both ways between every pair."""
    return ComponentDecomposition("strong", _blocks_by_label(_tarjan(g.adj, g.n)))


def weakly_connected_components(g: DirectedGraph) -> ComponentDecomposition:
    """Components of the symmetrized graph: those are its strong components,
    since every edge of a symmetric digraph runs both ways."""
    return ComponentDecomposition(
        "weak", _blocks_by_label(_tarjan(_rows(g.matrix() | g.matrix().T), g.n)))


def induced_subgraph(g: DirectedGraph, vertices) -> DirectedGraph:
    """Subgraph on the given vertex indices, relabeled densely in sorted order."""
    c = np.unique(as_integer_array(vertices, "vertex", g.n))
    return DirectedGraph._of_matrix(g.matrix().take(c, axis=0).take(c, axis=1),
                                    names=[g.names[v] for v in c.tolist()])


def component_diameter(g: DirectedGraph, component) -> int:
    """Max over ordered pairs of shortest directed path length inside one
    strongly connected component."""
    c = np.unique(as_integer_array(component, "vertex", g.n))
    return _matrix_diameter(g.matrix().take(c, axis=0).take(c, axis=1))


def _reach_powers(m: np.ndarray):
    """Yield B, B^2, B^4, ... for B the bool matrix m plus the identity, as
    float32 0/1 matrices: B^t holds the pairs joined by a path of length
    <= t.  The last one is the first B^t with t >= k - 1 for k vertices,
    the reflexive-transitive closure, since no shortest path is longer.
    A stack of matrices, m[..., k, k], is squared as one batch.
    """
    k = m.shape[-1]
    p = (m | np.eye(k, dtype=bool)).astype(np.float32)
    yield p
    steps = 1
    while steps < k - 1:
        p = (p @ p > 0).astype(np.float32)
        steps *= 2
        yield p


def _reachability(m: np.ndarray) -> np.ndarray:
    """Bool matrix whose row x marks every vertex reachable from x, x itself
    included: the first of _reach_powers that squaring leaves unchanged.
    For a stack of matrices, the first that leaves every one unchanged."""
    last = None
    for p in _reach_powers(m):
        if last is not None and (p == last).all():
            break
        last = p
    return last > 0


def _matrix_diameter(m: np.ndarray) -> int:
    """Diameter of the strongly connected graph with bool matrix m.

    The diameter is the least t with B^t all true (see _reach_powers).
    Squaring finds the first power of two that reaches it, then binary
    lifting walks down from the last power that does not: O(k^3 log d)
    in float32 matmuls for k vertices and diameter d.
    """
    k = m.shape[0]
    if k <= 1:
        return 0
    powers = []
    for p in _reach_powers(m):        # powers[i] = B^(2^i), entries 0 or 1
        powers.append(p)
        if p.all():
            break
    else:
        raise ValueError("component is not strongly connected")
    if len(powers) == 1:
        return 1
    top = len(powers) - 2             # B^(2^top) is not all true
    reach, steps = powers[top], 2 ** top
    for i in range(top - 1, -1, -1):
        nxt = (reach @ powers[i] > 0).astype(np.float32)
        if not nxt.all():
            reach, steps = nxt, steps + 2 ** i
    return steps + 1


# -- isomorphism -------------------------------------------------------------


def _signatures(g: DirectedGraph) -> list[tuple]:
    m = g.matrix()
    outs = m.sum(axis=1)
    ins = m.sum(axis=0)
    loops = np.diagonal(m)
    return [(int(outs[v]), int(ins[v]), bool(loops[v])) for v in range(g.n)]


def find_isomorphism(g1: DirectedGraph, g2: DirectedGraph) -> list[int] | None:
    """Exact directed-graph isomorphism by backtracking.

    Vertices are classed by (out-degree, in-degree, loop) and matched class
    against class; the search order walks g1 by connectivity so partial
    mappings get contradicted early.  A candidate image w of v is tested
    against all placed vertices at once: w's row and column of g2's matrix,
    read at their images, must equal v's row and column of g1's matrix.
    Returns the vertex mapping or None.
    """
    if g1.n > ISOMORPHISM_CAP or g2.n > ISOMORPHISM_CAP:
        raise ValueError(f"isomorphism search capped at {ISOMORPHISM_CAP} vertices")
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
    order = np.array(order, dtype=np.intp)
    mapping = np.full(g1.n, -1, dtype=np.intp)
    used = np.zeros(g2.n, dtype=bool)

    def backtrack(k: int) -> bool:
        if k == len(order):
            return True
        v, done = order[k], order[:k]
        image = mapping[done]
        out_v, in_v = m1[v, done], m1[done, v]
        for w in by_sig.get(sig1[v], ()):
            if used[w] or (m2[w, image] != out_v).any() or (m2[image, w] != in_v).any():
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(k + 1):
                return True
            used[w] = False
        return False

    return mapping.tolist() if backtrack(0) else None


def is_isomorphic(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    return find_isomorphism(g1, g2) is not None


# -- export / import ---------------------------------------------------------


def export_graph(g: DirectedGraph, fmt: str) -> str:
    """Render as 'dot', 'json', or 'adjlist'.  Output is byte-stable.  Each
    vertex's decimal string is built once and rows are joined from them."""
    s = [str(v) for v in range(g.n)]
    rows = _rows(g.matrix(), s)
    if fmt == "dot":
        lines = ["digraph {"]
        for v, name in zip(s, g.names):
            label = name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'    {v} [label="{label}"];')
        lines += [f"    {u} -> " + f";\n    {u} -> ".join(row) + ";"
                  for u, row in zip(s, rows) if row]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # the text of json.dumps({"n", "names", "edges"}, indent=2) + "\n",
        # with the edge list built one adjacency row at a time
        edges = []
        for u, row in zip(s, rows):
            if row:
                head = f"    [\n      {u},\n      "
                edges.append(head + f"\n    ],\n{head}".join(row) + "\n    ]")
        # json.dumps(name) is encode_basestring_ascii(name), without its frames
        names = ",\n    ".join(map(encode_basestring_ascii, g.names))
        names = f"[\n    {names}\n  ]" if g.names else "[]"
        edges = "[\n" + ",\n".join(edges) + "\n  ]" if edges else "[]"
        return f'{{\n  "n": {g.n},\n  "names": {names},\n  "edges": {edges}\n}}\n'
    if fmt == "adjlist":
        lines = [f"{name}: " + " ".join(row) for name, row in zip(g.names, rows)]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r} (use dot, json, or adjlist)")


def graph_from_json(obj) -> DirectedGraph:
    """Rebuild a graph exported with fmt='json' (accepts dict or text)."""
    if isinstance(obj, str):
        obj = loads_json(obj, "graph JSON")
    if not isinstance(obj, dict):
        raise ValueError("graph JSON must be an object")
    for key in ("n", "edges"):
        if key not in obj:
            raise ValueError(f"graph JSON missing key {key!r}")
    names = obj.get("names")
    return DirectedGraph(obj["n"], as_list(obj["edges"], "edges must be a list of [u, v] pairs"),
                         names=None if names is None else as_list(names, "names must be a list"))


# -- the integer quandle window ----------------------------------------------


def takasaki_z_edge(a: int, c: int) -> bool:
    """Whether c is reachable from a in one step of a |> b = 2b - a over Z.

    Solvable for integer b exactly when a and c have the same parity.
    Works elementwise on numpy arrays too.
    """
    return (a + c) % 2 == 0


def takasaki_z_window(w: int) -> DirectedGraph:
    """The induced edge relation on the integer window [-w, w], w >= 0.

    Vertex i stands for the integer i - w; names are the integers.
    """
    w = as_integer(w, "window radius w")
    values = np.arange(-w, w + 1)
    m = takasaki_z_edge(values[:, None], values[None, :])
    return DirectedGraph._of_matrix(m, names=[str(v) for v in values.tolist()])
