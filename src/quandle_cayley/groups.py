"""Finite groups as dense multiplication tables.

Elements are the integers 0..n-1.  A group is its n x n table plus
display names; everything downstream (subgroups, cosets, automorphisms)
works on plain indices so it stays cheap and deterministic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

SYMMETRIC_CAP = 6
AUTOMORPHISM_CAP = 16

# keep the cube scans' scratch arrays below ~16 MB
_ASSOC_CHUNK_CELLS = 2_000_000


def first_mismatch(n: int, lhs, rhs) -> tuple | None:
    """Compare two sides of an identity over every triple (x, y, z) in 0..n-1.

    lhs(xs) and rhs(xs) evaluate the sides for the x values in xs, as arrays
    of shape (len(xs), n, n).  The cube is scanned in slabs of consecutive x
    small enough to stay under _ASSOC_CHUNK_CELLS.  Returns the
    lexicographically first (x, y, z) where the sides differ, or None.
    """
    chunk = max(1, _ASSOC_CHUNK_CELLS // (n * n))
    for start in range(0, n, chunk):
        xs = np.arange(start, min(start + chunk, n))
        diff = lhs(xs) != rhs(xs)
        if diff.any():
            x, y, z = np.argwhere(diff)[0]
            return int(xs[x]), int(y), int(z)
    return None


def breadth_first(sources, step, limit: int | None = None) -> list[list]:
    """Breadth-first search over hashable vertices.

    step(u) yields the out-neighbours of u.  Returns the layers in discovery
    order: layer 0 is the sources (duplicates dropped), layer k the vertices
    first reached in k steps, each listed in the order found.  Raises
    ValueError as soon as more than `limit` vertices have been seen.
    """
    layer = list(dict.fromkeys(sources))
    seen = set(layer)
    layers = []
    while layer:
        layers.append(layer)
        nxt = []
        for u in layer:
            for v in step(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if limit is not None and len(seen) > limit:
                        raise ValueError(f"search passed {limit} vertices")
        layer = nxt
    return layers


def _as_table(table, what: str) -> np.ndarray:
    arr = np.asarray(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square table, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise ValueError(f"{what} must not be empty")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"{what} entries must lie in 0..{n - 1}")
    return arr


class FiniteGroup:
    """A finite group given by its full multiplication table.

    mul[x, y] is the product x*y.  The constructor locates the identity,
    computes inverses and checks the whole table (associativity, identity,
    two-sided inverses, cancellation), so an instance is always a group.
    """

    def __init__(self, mul, label: str = "G", element_names=None):
        self.mul = _as_table(mul, "multiplication table")
        self.order = int(self.mul.shape[0])
        self.label = label
        if element_names is None:
            element_names = [str(i) for i in range(self.order)]
        if len(element_names) != self.order:
            raise ValueError("element_names length must equal the group order")
        if len(set(element_names)) != self.order:
            raise ValueError("element names must be distinct")
        self.element_names = [str(s) for s in element_names]
        self._index = {s: i for i, s in enumerate(self.element_names)}
        self.identity = self._find_identity()
        self.inv = self._find_inverses()
        self._check_latin()
        self._check_associative()
        self._abelian: bool | None = None

    # -- validation ------------------------------------------------------

    def _find_identity(self) -> int:
        idx = np.arange(self.order)
        rows = np.nonzero((self.mul == idx[None, :]).all(axis=1))[0]
        for e in rows:
            if (self.mul[:, e] == idx).all():
                return int(e)
        raise ValueError("table has no two-sided identity")

    def _find_inverses(self) -> np.ndarray:
        n = self.order
        inv = np.full(n, -1, dtype=np.int64)
        xs, ys = np.nonzero(self.mul == self.identity)
        inv[xs] = ys
        if (inv < 0).any():
            missing = int(np.nonzero(inv < 0)[0][0])
            raise ValueError(f"element {missing} has no right inverse")
        if not (self.mul[inv, np.arange(n)] == self.identity).all():
            raise ValueError("left and right inverses disagree")
        return inv

    def _check_latin(self) -> None:
        n = self.order
        idx = np.arange(n)
        if not (np.sort(self.mul, axis=1) == idx[None, :]).all():
            raise ValueError("some row is not a permutation (right cancellation fails)")
        if not (np.sort(self.mul, axis=0) == idx[:, None]).all():
            raise ValueError("some column is not a permutation (left cancellation fails)")

    def _check_associative(self) -> None:
        mul = self.mul
        bad = first_mismatch(self.order, lambda xs: mul[mul[xs], :],
                             lambda xs: mul[xs[:, None, None], mul[None, :, :]])
        if bad is not None:
            raise ValueError(f"associativity fails at {bad}")

    # -- basic queries ----------------------------------------------------

    def op(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def conjugate(self, x: int, by: int) -> int:
        """by^-1 * x * by."""
        return int(self.mul[self.mul[self.inv[by], x], by])

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = int(self.mul[acc, x])
            k += 1
        return k

    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool((self.mul == self.mul.T).all())
        return self._abelian

    def name(self, x: int) -> str:
        return self.element_names[x]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{self.label} has no element named {name!r}") from None

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


# -- constructors ----------------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    """Integers mod n under addition."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(mul, label=f"Z{n}", element_names=[str(i) for i in range(n)])


def _tuple_name(a: str, b: str) -> str:
    return f"({a},{b})"


def make_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs; index of (x, y) is x*|b| + y."""
    na, nb = a.order, b.order
    ia = np.arange(na * nb) // nb
    ib = np.arange(na * nb) % nb
    mul = a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]
    names = [_tuple_name(a.element_names[x], b.element_names[y])
             for x in range(na) for y in range(nb)]
    return FiniteGroup(mul, label=f"{a.label}x{b.label}", element_names=names)


def make_abelian(factors) -> FiniteGroup:
    """Direct sum of cyclic groups Z_d for d in factors, with flat tuple names."""
    factors = [int(d) for d in factors]
    if not factors:
        g = make_cyclic(1)
        g.label = "Z1"
        return g
    if any(d < 1 for d in factors):
        raise ValueError("cyclic factors must be >= 1")
    if len(factors) == 1:
        return make_cyclic(factors[0])
    n = 1
    for d in factors:
        n *= d
    coords = np.empty((n, len(factors)), dtype=np.int64)
    rem = np.arange(n)
    for j in range(len(factors) - 1, -1, -1):
        coords[:, j] = rem % factors[j]
        rem //= factors[j]
    # componentwise addition, re-encoded in the same mixed radix
    summed = (coords[:, None, :] + coords[None, :, :]) % np.array(factors)
    mul = np.zeros((n, n), dtype=np.int64)
    for j, d in enumerate(factors):
        mul = mul * d + summed[:, :, j]
    names = ["(" + ",".join(str(c) for c in row) + ")" for row in coords]
    label = "x".join(f"Z{d}" for d in factors)
    return FiniteGroup(mul, label=label, element_names=names)


def make_dihedral(m: int) -> FiniteGroup:
    """Symmetries of a regular m-gon: m rotations r^i, m reflections r^i s.

    Index layout: 0..m-1 are r^i, m..2m-1 are r^i s.  Relations:
    r^m = s^2 = e and s r s = r^-1.
    """
    if m < 1:
        raise ValueError("dihedral group needs m >= 1")
    n = 2 * m
    mul = np.empty((n, n), dtype=np.int64)
    i = np.arange(m)
    rot, ref = i[:, None], i[:, None]
    j = i[None, :]
    mul[:m, :m] = (rot + j) % m                 # r^i r^j
    mul[:m, m:] = (rot + j) % m + m             # r^i (r^j s)
    mul[m:, :m] = (ref - j) % m + m             # (r^i s) r^j
    mul[m:, m:] = (ref - j) % m                 # (r^i s)(r^j s)
    names = []
    for i_ in range(m):
        names.append("e" if i_ == 0 else ("r" if i_ == 1 else f"r^{i_}"))
    for i_ in range(m):
        names.append("s" if i_ == 0 else ("r s" if i_ == 1 else f"r^{i_} s"))
    return FiniteGroup(mul, label=f"D{m}", element_names=names)


def _perm_cycle_name(p) -> str:
    seen, parts = set(), []
    for s in range(len(p)):
        if s in seen or p[s] == s:
            continue
        cyc = [s]
        seen.add(s)
        t = p[s]
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = p[t]
        parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "id"


def make_symmetric(n: int, cap: int = SYMMETRIC_CAP) -> FiniteGroup:
    """All permutations of {1..n} under composition (apply right factor first).

    Elements are listed in lexicographic order of their image tuples, so the
    identity comes first.  Names use cycle notation, e.g. "(12)(34)".
    """
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n > cap:
        raise ValueError(f"symmetric group capped at n <= {cap} (got {n})")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mul = np.empty((size, size), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(n))]
    names = [_perm_cycle_name(p) for p in perms]
    return FiniteGroup(mul, label=f"S{n}", element_names=names)


# -- automorphisms ---------------------------------------------------------


class Automorphism:
    """A group automorphism stored as its image array.

    mapping[x] is the image of x; the constructor rejects anything that is
    not a bijective homomorphism fixing the identity.
    """

    def __init__(self, group: FiniteGroup, mapping):
        self.group = group
        arr = np.asarray(mapping, dtype=np.int64)
        if arr.shape != (group.order,):
            raise ValueError("automorphism image list has wrong length")
        if arr.min() < 0 or arr.max() >= group.order:
            raise ValueError("automorphism images out of range")
        if not (np.sort(arr) == np.arange(group.order)).all():
            raise ValueError("automorphism must be a bijection")
        lhs = arr[group.mul]
        rhs = group.mul[arr[:, None], arr[None, :]]
        if not (lhs == rhs).all():
            x, y = np.argwhere(lhs != rhs)[0]
            raise ValueError(
                f"not multiplicative at ({group.name(int(x))}, {group.name(int(y))})"
            )
        self.mapping = arr

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if other.group is not self.group:
            raise ValueError("automorphisms act on different groups")
        return Automorphism(self.group, self.mapping[other.mapping])

    def inverse(self) -> "Automorphism":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.group.order)
        return Automorphism(self.group, inv)

    def is_identity(self) -> bool:
        return bool((self.mapping == np.arange(self.group.order)).all())

    def order(self) -> int:
        k, acc = 1, self.mapping
        idx = np.arange(self.group.order)
        while not (acc == idx).all():
            acc = self.mapping[acc]
            k += 1
        return k

    def key(self) -> tuple:
        return tuple(int(v) for v in self.mapping)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Automorphism)
                and other.group is self.group
                and (other.mapping == self.mapping).all())

    def __hash__(self) -> int:
        return hash((id(self.group), self.key()))

    def __repr__(self) -> str:
        return f"Automorphism({self.group.label}, {list(map(int, self.mapping))})"


def identity_automorphism(g: FiniteGroup) -> Automorphism:
    return Automorphism(g, np.arange(g.order))


def inner_automorphism(g: FiniteGroup, h: int) -> Automorphism:
    """Conjugation x -> h x h^-1."""
    if not 0 <= h < g.order:
        raise ValueError("conjugating element out of range")
    return Automorphism(g, g.mul[g.mul[h, :], g.inv[h]])


def negation_automorphism(g: FiniteGroup) -> Automorphism:
    """x -> x^-1, an automorphism exactly when the group is abelian."""
    if not g.is_abelian():
        raise ValueError("inversion is only an automorphism of abelian groups")
    return Automorphism(g, g.inv.copy())


def matrix_automorphism(g: FiniteGroup, rows) -> Automorphism:
    """2x2 integer matrix acting on a product of two cyclic groups of order n.

    The group must have order n^2 with the make_abelian([n, n]) index layout
    (element (x, y) at index x*n + y).  The matrix [[a, b], [c, d]] sends
    (x, y) to (a x + b y, c x + d y) mod n, and must be invertible mod n.
    """
    mat = [[int(v) for v in row] for row in rows]
    if len(mat) != 2 or any(len(r) != 2 for r in mat):
        raise ValueError("matrix automorphism expects a 2x2 matrix")
    n = int(round(g.order ** 0.5))
    if n * n != g.order:
        raise ValueError(f"{g.label} is not a product of two equal cyclic groups")
    (a, b), (c, d) = mat
    det = (a * d - b * c) % n
    if math.gcd(det, n) != 1:
        raise ValueError(f"matrix determinant {det} is not invertible mod {n}")
    idx = np.arange(g.order)
    x, y = idx // n, idx % n
    images = ((a * x + b * y) % n) * n + (c * x + d * y) % n
    return Automorphism(g, images)


def _greedy_generators(g: FiniteGroup) -> list[int]:
    gens: list[int] = []
    closed = {g.identity}
    for x in range(g.order):
        if x in closed:
            continue
        gens.append(x)
        layers = breadth_first(closed | {x}, lambda u: g.mul[u, gens].tolist())
        closed = {v for layer in layers for v in layer}
        if len(closed) == g.order:
            break
    return gens


def _bfs_recipe(g: FiniteGroup, gens: list[int]) -> list[tuple[int, int, int]]:
    """Discovery order (element, parent, generator slot) with x = parent*gens[slot]."""
    first_edge: dict[int, tuple[int, int]] = {}

    def step(u: int):
        for slot, w in enumerate(g.mul[u, gens].tolist()):
            first_edge.setdefault(w, (u, slot))   # the edge that discovers w
            yield w

    layers = breadth_first([g.identity], step)
    return [(w, *first_edge[w]) for layer in layers[1:] for w in layer]


def enumerate_automorphisms(g: FiniteGroup, cap: int = AUTOMORPHISM_CAP) -> list[Automorphism]:
    """All automorphisms, by backtracking over generator images.

    Candidate images are filtered by element order; each full assignment is
    expanded to a map along a BFS word recipe and then checked in one shot.
    Results are sorted by image tuple, so the order is reproducible.
    """
    if g.order > cap:
        raise ValueError(
            f"automorphism enumeration capped at order <= {cap} (got {g.order})"
        )
    gens = _greedy_generators(g)
    if not gens:  # trivial group
        return [identity_automorphism(g)]
    recipe = _bfs_recipe(g, gens)
    orders = [g.element_order(x) for x in range(g.order)]
    candidates = [[x for x in range(g.order) if orders[x] == orders[gen]] for gen in gens]
    idx = np.arange(g.order)
    found = []
    for images in itertools.product(*candidates):
        phi = np.full(g.order, -1, dtype=np.int64)
        phi[g.identity] = g.identity
        for elem, parent, slot in recipe:
            phi[elem] = g.mul[phi[parent], images[slot]]
        seen = np.zeros(g.order, dtype=bool)
        seen[phi] = True
        if not seen.all():
            continue
        lhs = phi[g.mul]
        rhs = g.mul[phi[:, None], phi[None, :]]
        if (lhs == rhs).all():
            found.append(phi)
    found.sort(key=lambda p: tuple(p))
    return [Automorphism(g, p) for p in found]


def fixed_point_subgroup(g: FiniteGroup, phi: Automorphism) -> "Subgroup":
    """Elements with phi(x) = x; always a subgroup."""
    if phi.group is not g:
        raise ValueError("automorphism belongs to a different group")
    members = np.nonzero(phi.mapping == np.arange(g.order))[0]
    return Subgroup(g, members)


def image_id_minus_t(g: FiniteGroup, t: Automorphism) -> "Subgroup":
    """Image of x -> x - t(x) on an abelian group (written additively).

    In table terms this is { x * t(x)^-1 }, which is a subgroup exactly
    because the group is abelian and t is an endomorphism.
    """
    if not g.is_abelian():
        raise ValueError("image of (id - t) needs an abelian group")
    if t.group is not g:
        raise ValueError("automorphism belongs to a different group")
    idx = np.arange(g.order)
    values = g.mul[idx, g.inv[t.mapping]]
    return Subgroup(g, np.unique(values))


# -- subgroups, cosets, classes --------------------------------------------


def _mask(n: int, members) -> np.ndarray:
    """Boolean membership mask over 0..n-1."""
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    return inside


def _blocks_by_label(labels: np.ndarray) -> tuple:
    """Group 0..n-1 by integer label: each block sorted, blocks ordered by
    their minimum."""
    blocks: dict[int, list[int]] = {}
    # x ascends, so every block fills in sorted order and the blocks
    # appear in the order of their least members
    for x, label in enumerate(labels.tolist()):
        blocks.setdefault(label, []).append(x)
    return tuple(tuple(blk) for blk in blocks.values())


class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        arr = np.unique(np.asarray(members, dtype=np.int64).ravel())
        if not arr.size:
            raise ValueError("subgroup cannot be empty")
        if arr[0] < 0 or arr[-1] >= parent.order:
            raise ValueError("subgroup members out of range")
        inside = _mask(parent.order, arr)
        if not inside[parent.identity]:
            raise ValueError("subgroup must contain the identity")
        closed = inside[parent.mul[arr[:, None], arr]]
        if not closed.all():
            a, b = np.argwhere(~closed)[0]
            raise ValueError(
                f"not closed: {parent.name(int(arr[a]))} * {parent.name(int(arr[b]))} escapes"
            )
        if not inside[parent.inv[arr]].all():
            raise ValueError("not closed under inverses")
        self.members = tuple(arr.tolist())

    @property
    def order(self) -> int:
        return len(self.members)

    def index(self) -> int:
        return self.parent.order // self.order

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __contains__(self, x: int) -> bool:
        return int(x) in self.member_set()

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


@dataclass(frozen=True)
class CosetPartition:
    subgroup: Subgroup
    side: str
    blocks: tuple = field(default_factory=tuple)

    def block_of(self, x: int) -> tuple:
        for blk in self.blocks:
            if x in blk:
                return blk
        raise ValueError(f"element {x} not in any block")

    def as_sets(self) -> set:
        return {frozenset(b) for b in self.blocks}


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    """Closure of a generating set under multiplication (breadth-first)."""
    gens = [int(x) for x in gens]
    for x in gens:
        if not 0 <= x < g.order:
            raise ValueError("generator out of range")
    layers = breadth_first([g.identity], lambda u: g.mul[u, gens].tolist())
    # gens themselves are reachable (identity * gen), so closure has them all
    return Subgroup(g, sorted(v for layer in layers for v in layer))


def cosets(g: FiniteGroup, s: Subgroup, side: str = "left") -> CosetPartition:
    """Partition of g into cosets of s; left cosets x*S by default."""
    if s.parent is not g:
        raise ValueError("subgroup belongs to a different group")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mem = np.array(s.members)
    # every element is labelled by the least member of its coset
    if side == "left":
        labels = g.mul[:, mem].min(axis=1)
    else:
        labels = g.mul[mem, :].min(axis=0)
    return CosetPartition(subgroup=s, side=side, blocks=_blocks_by_label(labels))


def is_normal(g: FiniteGroup, s: Subgroup) -> bool:
    if s.parent is not g:
        raise ValueError("subgroup belongs to a different group")
    mem = np.array(s.members)
    idx = np.arange(g.order)
    conj = g.mul[g.mul[g.inv[:, None], mem], idx[:, None]]   # conj[h, m] = h^-1 m h
    return bool(_mask(g.order, mem)[conj].all())


def commutator_subgroup_with(g: FiniteGroup, h: int) -> Subgroup:
    """Subgroup generated by all [h, x] = h x h^-1 x^-1."""
    if not 0 <= h < g.order:
        raise ValueError("element out of range")
    idx = np.arange(g.order)
    comms = g.mul[g.mul[g.mul[h, idx], g.inv[h]], g.inv[idx]]
    return subgroup_generated(g, np.unique(comms))


def conjugacy_classes(g: FiniteGroup) -> list[tuple]:
    """Conjugacy classes ordered by smallest member."""
    idx = np.arange(g.order)
    conj = g.mul[g.mul[g.inv[None, :], idx[:, None]], idx[None, :]]   # conj[x, h] = h^-1 x h
    return list(_blocks_by_label(conj.min(axis=1)))


# -- catalogue of abelian types ---------------------------------------------


def _invariant_chains(m: int, max_last: int | None = None) -> list[list[int]]:
    """Chains d1 | d2 | ... | dk with product m (dk also dividing max_last)."""
    if m == 1:
        return [[]]
    out = []
    for d in range(2, m + 1):
        if m % d != 0:
            continue
        if max_last is not None and max_last % d != 0:
            continue
        for rest in _invariant_chains(m // d, d):
            out.append(rest + [d])
    return out


def abelian_group_types(max_order: int) -> list[FiniteGroup]:
    """One group per isomorphism type of abelian group of order <= max_order.

    Types are the invariant-factor chains d1 | d2 | ... | dk; each is built
    as the corresponding product of cyclic groups.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    groups = []
    for m in range(1, max_order + 1):
        for chain in sorted(_invariant_chains(m)):
            groups.append(make_abelian(chain) if chain else make_cyclic(1))
    return groups
