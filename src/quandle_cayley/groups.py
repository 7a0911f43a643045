"""Finite groups as dense multiplication tables.

Elements are the integers 0..n-1.  A group is its n x n table plus
display names; everything downstream (subgroups, cosets, automorphisms)
works on plain indices so it stays cheap and deterministic.
"""
from __future__ import annotations

import array
import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

SYMMETRIC_CAP = 6
AUTOMORPHISM_CAP = 16

# keep the cube scans' scratch arrays below ~16 MB
_ASSOC_CHUNK_CELLS = 2_000_000
# cells per chunk of an automorphism family's arrays, in enumeration and
# in verify's sweep; peak memory grows with it
_FAMILY_CHUNK_CELLS = 1 << 18


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


def _generating_set(op: np.ndarray, limit: int | None = None,
                    classes: np.ndarray | None = None) -> np.ndarray:
    """A generating set for the binary operation table op[x, y], picked
    greedily: each generator is the least element outside the closure, under
    op, of those picked before it.  Stops early once more than `limit`
    generators are picked.

    classes maps each element y to the least element of its class, an
    equivalence under which op[:, y] depends only on y's class; without it
    each element is its own class.  The closure also takes in the whole
    class of every element that joins it, and needs only one right operand
    per class.  _reduced_scan puts y and y' in one class when their right
    translations are equal, and the set of elements whose right
    translation is an automorphism is closed under both steps.

    The closure grows semi-naively: the elements that join it in one round
    are combined with every member, both ways round, so every ordered pair
    of members is combined once and the whole search costs O(n^2) lookups
    (O(n k) with k classes).
    """
    n = op.shape[0]
    if classes is None:
        classes = np.arange(n)
    outside = np.ones(n, dtype=bool)
    members = np.empty(n, dtype=np.intp)    # every element inside, as left operands
    right = np.empty(n, dtype=np.intp)      # one element per class inside, as right operands
    count = rcount = 0
    gens = []
    for x in range(n):
        if not outside[x]:
            continue
        gens.append(x)
        if limit is not None and len(gens) > limit:
            break
        fresh = np.zeros(n, dtype=bool)
        fresh[x] = True                         # x is the least of its class
        while True:
            fresh = fresh[classes]              # each marked least member takes in its class
            fresh &= outside
            new = fresh.nonzero()[0]
            if not new.size:
                break
            outside ^= fresh
            members[count:count + new.size] = new
            count += new.size
            rnew = new[classes[new] == new]
            right[rcount:rcount + rnew.size] = rnew
            rcount += rnew.size
            fresh = np.zeros(n, dtype=bool)
            for prods in (op[new[:, None], right[:rcount]],                 # new op any
                          op[members[:count - new.size, None], rnew]):      # old op new
                fresh[classes[prods]] = True
    return np.array(gens, dtype=np.intp)


def _is_integer(v) -> bool:
    """A Python or numpy integer, but not a bool, which is an int to Python."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def as_integer(value, what: str, lo: int | None = 0, hi: int | None = None) -> int:
    """An untrusted count or element index as an int, the scalar counterpart
    of as_index_array: a Python or numpy integer, not a bool, in lo..hi-1
    (None: unbounded).  Nothing is rounded; anything else raises one
    ValueError, "<what> must be an integer in lo..hi-1, got <value>"."""
    if _is_integer(value) and (lo is None or value >= lo) and (hi is None or value < hi):
        return int(value)
    if hi is None:
        allowed = "" if lo is None else f" >= {lo}"
    else:
        allowed = f" < {hi}" if lo is None else f" in {lo}..{hi - 1}"
    raise ValueError(f"{what} must be an integer{allowed}, got {value!r}")


def as_index_array(values, what: str, ndim: int = 2) -> np.ndarray:
    """Untrusted data as an int64 array with `ndim` sides of one length
    n >= 1 (a square table, or for ndim 1 an image list), every entry an
    integer in 0..n-1.  Nothing is rounded: float entries are refused, and
    so are bools, which numpy reads as 0 and 1 inside a list of ints
    (np.asarray([0, True]) is int64)."""
    kind = "a square table" if ndim == 2 else "a list"
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int64, copy=False) if values.dtype.kind in "iu" else None
    else:
        try:
            rows = list(values)
            flat = rows if ndim == 1 else list(itertools.chain.from_iterable(rows))
            # array("q") takes the Python and numpy integers, bools among them
            arr = np.frombuffer(array.array("q", flat), dtype=np.int64)
            if ndim == 2 and all(len(row) == len(rows) for row in rows):
                arr = arr.reshape(len(rows), len(rows))
        except (TypeError, OverflowError):
            arr = None
        if arr is not None and any(type(flat[i]) is bool for i in np.flatnonzero(arr <= 1)):
            arr = None
    if arr is None:
        raise ValueError(f"{what} must be {kind} of integers")
    if arr.ndim != ndim or len(set(arr.shape)) != 1:
        raise ValueError(f"{what} must be {kind}, got shape {arr.shape}")
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
        self._init(as_index_array(mul, "multiplication table"), label, element_names)
        self._check_latin()
        self._check_associative()

    @classmethod
    def _of_checked(cls, mul: np.ndarray, label: str, element_names,
                    identity: int | None = None, inv: np.ndarray | None = None) -> "FiniteGroup":
        """Wrap an int64 table this module built from a group law.  It is a
        group by construction, so cancellation and associativity are not
        scanned.  The identity and inverses are located, unless the law
        gives them."""
        g = cls.__new__(cls)
        g._init(mul, label, element_names, identity, inv)
        return g

    def _init(self, mul: np.ndarray, label: str, element_names,
              identity: int | None = None, inv: np.ndarray | None = None) -> None:
        self.mul = mul
        self.order = int(mul.shape[0])
        self.label = label
        if element_names is None:
            element_names = [str(i) for i in range(self.order)]
        if len(element_names) != self.order:
            raise ValueError("element_names length must equal the group order")
        if len(set(element_names)) != self.order:
            raise ValueError("element names must be distinct")
        self.element_names = [str(s) for s in element_names]
        self._index = {s: i for i, s in enumerate(self.element_names)}
        self.identity = self._find_identity() if identity is None else identity
        self.inv = self._find_inverses() if inv is None else inv
        self._abelian: bool | None = None
        self._orders: np.ndarray | None = None

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

    def _element(self, x) -> int:
        return as_integer(x, "element", 0, self.order)

    def op(self, x: int, y: int) -> int:
        return int(self.mul[self._element(x), self._element(y)])

    def inverse(self, x: int) -> int:
        return int(self.inv[self._element(x)])

    def conjugate(self, x: int, by: int) -> int:
        """by^-1 * x * by."""
        return self.op(self.op(self.inverse(by), x), by)

    def element_order(self, x: int) -> int:
        return int(_element_orders(self)[self._element(x)])

    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool((self.mul == self.mul.T).all())
        return self._abelian

    def name(self, x: int) -> str:
        return self.element_names[self._element(x)]

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
    """Integers mod n under addition, n >= 1."""
    n = as_integer(n, "cyclic group n", lo=1)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup._of_checked(mul, f"Z{n}", [str(i) for i in range(n)],
                                   identity=0, inv=(-idx) % n)


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
    return FiniteGroup._of_checked(mul, f"{a.label}x{b.label}", names,
                                   identity=a.identity * nb + b.identity,
                                   inv=a.inv[ia] * nb + b.inv[ib])


def make_abelian(factors) -> FiniteGroup:
    """Direct sum of cyclic groups Z_d for d in factors: make_direct_product
    folded over make_cyclic(d), so (c1, ..., ck) sits at its mixed-radix
    index and the label is Zd1x...xZdk.  Two or more factors get the flat
    names "(c1,...,ck)"; one factor is make_cyclic(d), and none is Z1."""
    factors = [as_integer(d, "cyclic factor", lo=1) for d in factors] or [1]
    group = functools.reduce(make_direct_product, map(make_cyclic, factors))
    if len(factors) == 1:
        return group
    names = ["(" + ",".join(map(str, c)) + ")" for c in itertools.product(*map(range, factors))]
    return FiniteGroup._of_checked(group.mul, group.label, names,
                                   identity=group.identity, inv=group.inv)


def make_dihedral(m: int) -> FiniteGroup:
    """Symmetries of a regular m-gon, m >= 1: m rotations r^i, m reflections r^i s.

    Index layout: 0..m-1 are r^i, m..2m-1 are r^i s.  Relations:
    r^m = s^2 = e and s r s = r^-1.
    """
    m = as_integer(m, "dihedral group m", lo=1)
    n = 2 * m
    mul = np.empty((n, n), dtype=np.int64)
    i = np.arange(m)
    mod = np.concatenate([i, i])                # mod[k] = k mod m for 0 <= k < 2m
    plus, minus = mod[i[:, None] + i], mod[i[:, None] - i + m]     # i + j, i - j mod m
    mul[:m, :m] = plus                          # r^i r^j
    mul[:m, m:] = plus + m                      # r^i (r^j s)
    mul[m:, :m] = minus + m                     # (r^i s) r^j
    mul[m:, m:] = minus                         # (r^i s)(r^j s)
    rotations = ["e", "r"] + [f"r^{k}" for k in range(2, m)]
    names = rotations[:m] + [f"{r} s" if k else "s" for k, r in enumerate(rotations[:m])]
    # r^i has inverse r^-i, and every reflection is its own
    inv = np.concatenate([(-i) % m, i + m])
    return FiniteGroup._of_checked(mul, f"D{m}", names, identity=0, inv=inv)


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
    """All permutations of {1..n}, 1 <= n <= cap, under composition (right factor first).

    Elements are listed in lexicographic order of their image tuples, so the
    identity comes first.  Names use cycle notation, e.g. "(12)(34)".
    """
    n = as_integer(n, "symmetric group n", lo=1)
    if n > cap:
        raise ValueError(f"symmetric group capped at n <= {cap} (got {n})")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    # a permutation's base-n code rises with its lexicographic rank, and
    # perms[:, perms][i, j] is the composite p_i . p_j
    code = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    mul = np.searchsorted(perms @ code, perms[:, perms] @ code)
    names = [_perm_cycle_name(p) for p in perms.tolist()]
    return FiniteGroup._of_checked(mul, f"S{n}", names)


# -- automorphisms ---------------------------------------------------------


class Automorphism:
    """A group automorphism stored as its image array.

    mapping[x] is the image of x; the constructor rejects anything that is
    not a bijective homomorphism fixing the identity.
    """

    def __init__(self, group: FiniteGroup, mapping):
        self.group = group
        arr = as_index_array(mapping, "automorphism image list", ndim=1)
        if arr.shape != (group.order,):
            raise ValueError("automorphism image list has wrong length")
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

    @classmethod
    def _of_checked(cls, group: FiniteGroup, mapping: np.ndarray) -> "Automorphism":
        """Wrap an image array this module has already checked, or derived
        from a group law or from other automorphisms."""
        a = cls.__new__(cls)
        a.group = group
        a.mapping = mapping
        return a

    def __call__(self, x: int) -> int:
        return int(self.mapping[self.group._element(x)])

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if other.group is not self.group:
            raise ValueError("automorphisms act on different groups")
        return Automorphism._of_checked(self.group, self.mapping[other.mapping])

    def inverse(self) -> "Automorphism":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.group.order)
        return Automorphism._of_checked(self.group, inv)

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
    return Automorphism._of_checked(g, np.arange(g.order))


def inner_automorphism(g: FiniteGroup, h: int) -> Automorphism:
    """Conjugation x -> h x h^-1, for an element index h of g."""
    h = as_integer(h, "conjugating element", 0, g.order)
    return Automorphism._of_checked(g, g.mul[g.mul[h, :], g.inv[h]])


def negation_automorphism(g: FiniteGroup) -> Automorphism:
    """x -> x^-1, an automorphism exactly when the group is abelian."""
    if not g.is_abelian():
        raise ValueError("inversion is only an automorphism of abelian groups")
    return Automorphism._of_checked(g, g.inv.copy())


def matrix_automorphism(g: FiniteGroup, rows) -> Automorphism:
    """2x2 integer matrix acting on a product of two cyclic groups of order n.

    The group must have order n^2 with the make_abelian([n, n]) index layout
    (element (x, y) at index x*n + y).  The matrix [[a, b], [c, d]] sends
    (x, y) to (a x + b y, c x + d y) mod n, and must be invertible mod n.
    The entries must be integers: floats are not rounded, and bools, which
    are ints to Python, are refused.
    """
    sequence = (list, tuple, np.ndarray)
    if (not isinstance(rows, sequence) or len(rows) != 2
            or any(not isinstance(r, sequence) or len(r) != 2 for r in rows)):
        raise ValueError("matrix automorphism expects a 2x2 matrix")
    if not all(_is_integer(v) for r in rows for v in r):
        raise ValueError("matrix automorphism entries must be integers")
    mat = [[int(v) for v in r] for r in rows]
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
    """Greedy group generators: in a finite group the closure of a set is
    the subgroup it generates, and an identity pick generates nothing."""
    return [int(x) for x in _generating_set(g.mul) if x != g.identity]


def _bfs_recipe(g: FiniteGroup, gens: list[int]) -> list[tuple[int, int, int]]:
    """Discovery order (element, parent, generator slot) with x = parent*gens[slot]."""
    first_edge: dict[int, tuple[int, int]] = {}

    def step(u: int):
        for slot, w in enumerate(g.mul[u, gens].tolist()):
            first_edge.setdefault(w, (u, slot))   # the edge that discovers w
            yield w

    layers = breadth_first([g.identity], step)
    return [(w, *first_edge[w]) for layer in layers[1:] for w in layer]


def enumerate_automorphisms(g: FiniteGroup, cap: int = AUTOMORPHISM_CAP) -> np.ndarray:
    """All automorphisms, as the rows of a (k, n) int64 array of image
    arrays in lexicographic order: the chunks of _automorphism_chunks,
    concatenated."""
    return np.concatenate(list(_automorphism_chunks(g, cap)))


def _automorphism_chunks(g: FiniteGroup, cap: int = AUTOMORPHISM_CAP):
    """The rows enumerate_automorphisms returns, yielded as a stream of
    (rows, n) int64 chunks in the same order, by a sweep over generator
    images, so a sweep over a large family never holds it whole.

    Candidate images are filtered by element order.  The candidate tuples
    are decoded in chunks of _FAMILY_CHUNK_CELLS // n, and each chunk is
    expanded along a BFS word recipe into an (n, chunk) array, one row per
    element and one column per tuple.  A column is kept when no
    non-identity element maps to the identity, and then when it passes the
    d n generator edges phi(x s_j) = phi(x) phi(s_j) for every x and
    greedy generator s_j.  The n - 1 edges (parent, slot) of the recipe
    hold by construction, phi(elem) = phi(parent) phi(s_slot), so only the
    others are tested.  A chunk that keeps no column yields nothing.

    The edges make phi a homomorphism.  phi(s_j) is the tuple's image of
    s_j, because s_j is reached from the identity in the first BFS layer.
    By induction on the length of a positive word w in the generators,
    phi(x w) = phi(x) phi(w):
    phi(x w s_j) = phi(x w) phi(s_j) = phi(x) phi(w) phi(s_j) = phi(x) phi(w s_j),
    the last step being the edge at w.  In a finite group every element is
    such a word, so phi is a homomorphism.

    The kernel test makes it bijective.  A homomorphism with trivial
    kernel is injective, as phi(x) = phi(y) gives phi(x y^-1) = e and so
    x = y, and an injective map of a finite set onto itself is a bijection.
    So a kept column is an automorphism.  Conversely an automorphism maps
    only the identity to the identity and respects every edge, so each one
    is kept.  The kernel test is the cheaper of the two, so it runs first
    and thins the columns the edges see.

    On an abelian group whose greedy generators s_1..s_d have orders
    o_1..o_d with o_1 ... o_d = n, no edge is tested: every column is
    already a homomorphism.  The map Z_o1 x ... x Z_od -> g sending
    (a_1, ..., a_d) to s_1^a_1 ... s_d^a_d is a homomorphism, as g is
    abelian, and onto, as the s_j generate g; both sides have n elements,
    so it is an isomorphism and the s_j form a basis.  So g has the
    presentation <s_j | s_j^o_j, [s_i, s_j]>.  Images c_j of orders o_j
    satisfy every relation in the abelian group g, so by von Dyck's
    theorem they extend to a homomorphism h with h(s_j) = c_j.  The
    column is h: both send the identity to the identity, and along the
    recipe phi(elem) = phi(parent) c_slot while
    h(elem) = h(parent s_slot) = h(parent) c_slot.  A group whose greedy
    generators are not a basis (Z2xZ4 labelled so that the greedy picks two
    elements of order 4), and every non-abelian group, keeps its edges.

    The rows come out in lexicographic order without a sort.  Take two kept
    tuples that first differ at generator j.  The greedy rule picked gens[j]
    as the least element outside <gens[:j]>, so every element below gens[j]
    lies in <gens[:j]>, where the two maps agree.  So the rows first differ
    at element gens[j], in the order of the two images of gens[j].  Those
    are candidates, which ascend, so the rows are in the order of the
    tuples, and the tuples are decoded in itertools.product order.  The
    working arrays are int32, since n^2 is far below 2^31.
    """
    if g.order > cap:
        raise ValueError(
            f"automorphism enumeration capped at order <= {cap} (got {g.order})"
        )
    n = g.order
    gens = _greedy_generators(g)
    if not gens:  # trivial group
        yield np.arange(n, dtype=np.int64)[None, :]
        return
    recipe = _bfs_recipe(g, gens)
    orders = _element_orders(g)
    candidates = [np.flatnonzero(orders == orders[gen]).astype(np.int32) for gen in gens]
    sizes = [c.size for c in candidates]
    total = math.prod(sizes)
    edges = []                          # none when the generators are a basis (below)
    if not (g.is_abelian() and math.prod(orders[gens].tolist()) == n):
        built = {(parent, slot) for _, parent, slot in recipe}
        # the edges phi(x s_j) = phi(x) phi(s_j) the recipe does not make true
        edges = [np.array([x for x in range(n) if (x, j) not in built], dtype=np.intp)
                 for j in range(len(gens))]
    law = (candidates, g.mul.ravel().astype(np.int32), g.mul[:, gens], recipe, edges)
    per = max(1, _FAMILY_CHUNK_CELLS // n)
    for start in range(0, total, per):
        rows = _kept_rows(g, law, start, min(start + per, total))
        if len(rows):
            yield rows
        # the consumer holds the chunk now; drop this frame's hold on it
        # before the next one is decoded
        del rows


def _kept_rows(g: FiniteGroup, law: tuple, start: int, stop: int) -> np.ndarray:
    """The automorphisms among candidate tuples start..stop-1, as int64
    rows (_automorphism_chunks).  A helper of its own, so that the chunk's
    working arrays are gone once it returns and the suspended generator
    holds only what it yields."""
    candidates, flat, right, recipe, edges = law
    n = g.order
    # tuple numbers in itertools.product order -> their generator images
    digits = np.unravel_index(np.arange(start, stop), [c.size for c in candidates])
    images = np.stack([c[d] for c, d in zip(candidates, digits)])
    del digits
    phi = np.empty((n, images.shape[1]), dtype=np.int32)
    phi[g.identity] = g.identity
    for elem, parent, slot in recipe:
        phi[elem] = np.take(flat, phi[parent] * n + images[slot])
    # the identity is the only element sent to the identity; uint8 counts
    # are exact up to 255
    hits = (phi == g.identity).sum(axis=0, dtype=np.uint8 if n < 256 else np.intp)
    trivial_kernel = hits == 1
    phi = phi[:, trivial_kernel]
    if edges:
        images = images[:, trivial_kernel]
        hom = np.ones(phi.shape[1], dtype=bool)
        for j, xs in enumerate(edges):
            hom &= (phi[right[xs, j]] == np.take(flat, phi[xs] * n + images[j])).all(axis=0)
        phi = phi[:, hom]
    return phi.T.astype(np.int64)


def _element_orders(g: FiniteGroup) -> np.ndarray:
    """The order of every element, as a read-only array found once per group."""
    if g._orders is None:
        mul, orders = g.mul.tolist(), []
        for x in range(g.order):
            k, power = 1, x
            while power != g.identity:
                power, k = mul[power][x], k + 1
            orders.append(k)
        g._orders = np.array(orders)
        g._orders.flags.writeable = False
    return g._orders


def _abelian_automorphism_count(g: FiniteGroup) -> int:
    """|Aut(g)| for a finite abelian group, by the closed form of Hillar and
    Rhea ("Automorphisms of finite abelian groups", Amer. Math. Monthly
    114, 2007), independent of enumerate_automorphisms.

    Aut(g) is the product of the Sylow subgroups' automorphism groups.
    Each Sylow p-subgroup's type e_1 <= ... <= e_m is read from g: the
    elements of order dividing p^i number p^(sum_j min(e_j, i)), so the
    step from i - 1 to i counts the e_j >= i.  With d_k the last and c_k
    the first position holding the value e_k, that subgroup has
    prod_k (p^d_k - p^(k-1)) * prod_k p^(e_k (m - d_k)) * prod_k p^((e_k - 1)(m - c_k + 1))
    automorphisms (positions 1-based)."""
    if not g.is_abelian():
        raise ValueError("the automorphism count formula needs an abelian group")
    tally = collections.Counter(_element_orders(g).tolist())
    count, rest, p = 1, g.order, 2
    while rest > 1:
        if rest % p:
            p += 1
            continue
        while rest % p == 0:
            rest //= p
        # at_least[i - 1] = how many e_j >= i, from the p^i-torsion sizes p^logs[i]
        at_least, logs = [], [0]
        while True:
            size = sum(c for o, c in tally.items() if p ** len(logs) % o == 0)
            log = 0
            while p ** log < size:
                log += 1
            if log == logs[-1]:
                break
            at_least.append(log - logs[-1])
            logs.append(log)
        e = sorted(sum(1 for r in at_least if r > j) for j in range(at_least[0]))
        m = len(e)
        for k, v in enumerate(e, start=1):
            first = e.index(v) + 1                      # c_k
            last = m - e[::-1].index(v)                 # d_k
            count *= (p ** last - p ** (k - 1)) * p ** (v * (m - last))
            count *= p ** ((v - 1) * (m - first + 1))
    return count


def fixed_point_subgroup(g: FiniteGroup, phi: Automorphism) -> "Subgroup":
    """Elements with phi(x) = x; always a subgroup."""
    if phi.group is not g:
        raise ValueError("automorphism belongs to a different group")
    return Subgroup._of_checked(g, np.flatnonzero(phi.mapping == np.arange(g.order)))


def image_id_minus_t(g: FiniteGroup, t: Automorphism) -> "Subgroup":
    """Image of x -> x - t(x) on an abelian group (written additively):
    the set { x * t(x)^-1 }, already a subgroup, that twist_subgroup closes."""
    if not g.is_abelian():
        raise ValueError("image of (id - t) needs an abelian group")
    return twist_subgroup(g, t)


# -- subgroups, cosets, classes --------------------------------------------


def _mask(n: int, members) -> np.ndarray:
    """Boolean membership mask over 0..n-1."""
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    return inside


def _blocks_by_label(labels) -> tuple:
    """Group 0..n-1 by label, given as a list or array of n integers (any
    integers serve): each block sorted, blocks ordered by their least member."""
    blocks: dict[int, list[int]] = {}
    # x ascends, so every block fills in sorted order and the blocks
    # appear in the order of their least members
    for x, label in enumerate(np.asarray(labels).tolist()):
        blocks.setdefault(label, []).append(x)
    return tuple(tuple(blk) for blk in blocks.values())


def _block_of(blocks: tuple, x, what: str) -> tuple:
    """The block of a partition that holds x, an integer index >= 0."""
    x = as_integer(x, what)
    for blk in blocks:
        if x in blk:
            return blk
    raise ValueError(f"{what} {x} not in any block")


class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple.  The
    constructor checks range (as_integer), identity, closure and inverses."""

    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        arr = np.unique([as_integer(x, "subgroup member", 0, parent.order) for x in members])
        if not arr.size:
            raise ValueError("subgroup cannot be empty")
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

    @classmethod
    def _of_checked(cls, parent: FiniteGroup, members) -> "Subgroup":
        """Wrap the ascending, distinct members of a set this module derived
        as a subgroup (a fixed-point set, an image of id - t, a closure)."""
        s = cls.__new__(cls)
        s.parent = parent
        s.members = tuple(np.asarray(members, dtype=np.int64).tolist())
        return s

    @property
    def order(self) -> int:
        return len(self.members)

    def index(self) -> int:
        return self.parent.order // self.order

    @functools.cached_property
    def _member_set(self) -> frozenset:
        return frozenset(self.members)      # members never change, so once

    def member_set(self) -> frozenset:
        return self._member_set

    def __contains__(self, x: int) -> bool:
        return _is_integer(x) and int(x) in self.member_set()

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
        return _block_of(self.blocks, x, "element")

    def as_sets(self) -> set:
        return {frozenset(b) for b in self.blocks}


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    """Closure of a set of element indices under multiplication (breadth-first),
    a subgroup because in a finite group such a closure is one."""
    gens = [as_integer(x, "generator", 0, g.order) for x in gens]
    layers = breadth_first([g.identity], lambda u: g.mul[u, gens].tolist())
    # gens themselves are reachable (identity * gen), so closure has them all
    return Subgroup._of_checked(g, sorted(v for layer in layers for v in layer))


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


def twist_subgroup(g: FiniteGroup, phi: Automorphism) -> Subgroup:
    """N_phi = <phi(y)^-1 y : y in g>: im(id - t) on an abelian group, and
    <[h, x]> for conjugation by h, whose phi(y)^-1 y is [h, y^-1]."""
    if phi.group is not g:
        raise ValueError("automorphism belongs to a different group")
    return Subgroup._of_checked(g, np.flatnonzero(twist_masks(g, phi.mapping[None])[0]))


def twist_masks(g: FiniteGroup, maps: np.ndarray) -> np.ndarray:
    """The (k, n) bool masks of N_phi = <phi(y)^-1 y : y in g>, one row per
    automorphism phi in the rows of the (k, n) image array maps.

    Each row starts as the set S of the twists phi(y)^-1 y, which holds the
    identity (y = e), and is replaced by S S until no row changes.  S S is
    the union of the translates x S for x in S, and v is in x S exactly
    when x^-1 v is in S, so each member x of each row contributes one
    gathered row, and the rows are OR-ed per set: |S| n cells a row.  With
    the identity in S, S is inside S S, and after r rounds S holds every
    product of 2^r twists, so a row settles within ceil(log2 |N|) + 1
    rounds, at the subgroup the twists generate (in a finite group a
    closure under products is one).  The rounds run on slabs of
    _FAMILY_CHUNK_CELLS // n^2 rows, so no gather passes that many cells."""
    k, n = maps.shape
    masks = np.zeros((k, n), dtype=bool)
    masks[np.arange(k)[:, None], g.mul[g.inv[maps], np.arange(n)]] = True
    left = g.mul[g.inv]                 # left[x, v] = x^-1 v
    per = max(1, _FAMILY_CHUNK_CELLS // (n * n))
    for start in range(0, k, per):
        slab = masks[start:start + per]
        while True:
            rows, xs = np.nonzero(slab)     # row-major, so each set's members are adjacent
            first = np.searchsorted(rows, np.arange(len(slab)))   # every set holds e
            # cell (i, v) of the gather is slab[rows[i], x^-1 v], x = xs[i], read flat
            grown = np.logical_or.reduceat(np.take(slab, left[xs] + (rows * n)[:, None]),
                                           first, axis=0)
            if (grown == slab).all():
                break
            slab[:] = grown
    return masks


def fixed_point_indices(g: FiniteGroup, maps: np.ndarray) -> np.ndarray:
    """[G : Fix(phi)] for each automorphism phi in the rows of the (k, n)
    image array maps: n over the count of x with phi(x) = x, as int64."""
    return g.order // np.count_nonzero(maps == np.arange(g.order), axis=1)


def commutator_subgroup_with(g: FiniteGroup, h: int) -> Subgroup:
    """Subgroup generated by all [h, x] = h x h^-1 x^-1, h an element index."""
    h = as_integer(h, "element h", 0, g.order)
    return twist_subgroup(g, inner_automorphism(g, h))


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
    as the corresponding product of cyclic groups; max_order must be >= 1.
    """
    max_order = as_integer(max_order, "max_order", lo=1)
    groups = []
    for m in range(1, max_order + 1):
        for chain in sorted(_invariant_chains(m)):
            groups.append(make_abelian(chain))
    return groups
