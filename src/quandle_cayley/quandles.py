"""Finite quandles as dense operation tables.

A quandle is a set with a binary operation x |> y satisfying, for all
x, y, z:

    x |> x = x                      (idempotency)
    y -> x |> y ... each column of the table is a bijection
                                    (right translations invert)
    (x |> y) |> z = (x |> z) |> (y |> z)
                                    (self-distributivity)

Tables are numpy arrays indexed rhd[x, y] = x |> y over elements 0..n-1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .groups import (Automorphism, FiniteGroup, _generating_set, as_index_array,
                     as_integer, as_list, as_names, breadth_first, first_mismatch, loads_json)

INNER_GROUP_CAP = 64
INNER_CLOSURE_CAP = 1_000_000


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three-axiom scan, with a witness for each failure.

    Witnesses: idempotency gives the offending x; right invertibility gives
    (y, x1, x2) with x1 |> y = x2 |> y; distributivity gives the triple
    (x, y, z) where the two sides differ.
    """

    idempotent: bool
    right_invertible: bool
    self_distributive: bool
    idempotency_witness: int | None = None
    invertibility_witness: tuple | None = None
    distributivity_witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.idempotent and self.right_invertible and self.self_distributive


def _full_scan(rhd: np.ndarray) -> tuple | None:
    """Lexicographically first (x, y, z) with (x|>y)|>z != (x|>z)|>(y|>z),
    over the whole cube; None when the table is self-distributive."""
    return first_mismatch(
        rhd.shape[0],
        lambda xs: rhd[rhd[xs], :],                          # (x|>y) |> z
        lambda xs: rhd[rhd[xs][:, None, :], rhd[None, :, :]],  # (x|>z) |> (y|>z)
    )


# cells in one slab of the generator proof's gathers; each cell costs
# about 20 bytes of scratch
_PAIR_CHUNK_CELLS = 1 << 15


def _columns(rhd: np.ndarray) -> tuple:
    """(cols, rep) for a gated table: cols[y] = R_y, the right translation
    x -> x |> y, as one transposed copy (int32 while n^2 fits it), and
    rep[y] the least y' with R_y' = R_y.  Columns are told apart by their
    bytes, so rep is exact."""
    n = rhd.shape[0]
    cols = np.ascontiguousarray(rhd.T, dtype=np.int32 if n < 46341 else np.int64)
    least = {}
    rep = np.array([least.setdefault(col.tobytes(), y) for y, col in enumerate(cols)])
    return cols, rep


def _reduced_scan(rhd: np.ndarray, columns: tuple | None = None) -> tuple | None:
    """_full_scan for a right-invertible table, proved on a generating set.

    Write R_z for the right translation x -> x |> z.  Self-distributivity
    at z says R_z(x |> y) = R_z(x) |> R_z(y): R_z is a homomorphism.  In a
    right-invertible table every R_z is a bijection, so the axiom says
    that S = {z : R_z is an automorphism} is all of Q.  S is closed under
    |> (Joyce, "A classifying invariant of knots, the knot quandle",
    J. Pure Appl. Algebra 23, 1982): if R_y is an automorphism, then for
    every w

        R_y(R_y^-1(w) |> x) = w |> (x |> y),  so  R_{x |> y} = R_y R_x R_y^-1,

    an automorphism whenever R_x is one too.  S also holds every c with
    R_c = R_s for some s in S.  So if every generator of Q, under |> and
    under taking in whole classes of equal columns (_columns,
    groups._generating_set), lies in S, all of Q lies in S, and the table
    is self-distributive.  On an Alexander quandle of an abelian G, R_y =
    R_y' exactly when (1 - t)(y - y') = 0, so there are [G : Fix(t)]
    classes.

    At generator z, column y compares R_z R_y with R_{R_z(y)} R_z, n cells
    that read only the columns y and R_z(y), so one y per distinct pair
    (class of y, class of R_z(y)) settles all y.  If R_z is an automorphism,
    R_{R_z(y)} = R_z R_y R_z^-1, so the class of R_z(y) depends only on the
    class of y: a table where it does not is no quandle.  Otherwise the
    pairs are the k classes, and their representatives are checked against
    all generators at once, in slabs of about _PAIR_CHUNK_CELLS cells: k n
    cells per generator instead of n^2.

    When a class or a pair fails, or the set has more than n/2 elements,
    the full scan runs unchanged on the table as given, so the witness is
    still the lexicographically first failing triple.  columns is
    _columns(rhd), computed here unless given.
    """
    n = rhd.shape[0]
    cols, rep = _columns(rhd) if columns is None else columns
    gens = _generating_set(rhd, limit=n // 2, classes=rep)
    if 2 * gens.size <= n:
        image = rep[cols[gens]]                 # image[i, y]: class of R_z(y), z = gens[i]
        if (image != image[:, rep]).any():
            return _full_scan(rhd)
        ys = (rep == np.arange(n)).nonzero()[0]
        step = max(1, _PAIR_CHUNK_CELLS // (gens.size * n))
        if not any(_translation_mismatch(cols, gens, ys[s:s + step]).any()
                   for s in range(0, ys.size, step)):
            return None
    return _full_scan(rhd)


def verify_quandle_axioms(table) -> AxiomReport:
    """Exhaustively scan a candidate table against the three quandle axioms.

    Right invertibility is checked once per distinct column, and
    self-distributivity is proved on a generating set for every
    right-invertible table, whatever its order (see _reduced_scan); the
    whole n^3 cube is scanned when that proof does not settle it, and for
    tables with a repeated column entry.  Either way the witness is the
    lexicographically first failing triple.
    """
    return _axiom_report(as_index_array(table, "operation table"))


def _axiom_report(rhd: np.ndarray) -> AxiomReport:
    """verify_quandle_axioms for a table that passed as_index_array."""
    n = rhd.shape[0]
    idx = np.arange(n)

    diag = rhd.diagonal()
    idem_ok = bool((diag == idx).all())
    idem_wit = None
    if not idem_ok:
        idem_wit = int(np.nonzero(diag != idx)[0][0])

    columns = _columns(rhd)
    cols, rep = columns
    leads = np.flatnonzero(rep == idx)  # the least column of each class
    distinct = cols[leads]
    seen = np.zeros(distinct.shape, dtype=bool)
    seen[np.arange(len(distinct))[:, None], distinct] = True  # seen[c, v]: v in column c
    inv_ok = bool(seen.all())
    inv_wit = None
    if not inv_ok:
        # equal columns fail together, so the first failing column leads its class
        y = int(leads[np.argmin(seen.all(axis=1))])
        col = rhd[:, y]
        dup = np.argmax(np.bincount(col, minlength=n) > 1)     # the least repeated value
        x1, x2 = np.flatnonzero(col == dup)[:2]
        inv_wit = (y, int(x1), int(x2))

    dist_wit = _reduced_scan(rhd, columns) if inv_ok else _full_scan(rhd)
    dist_ok = dist_wit is None

    return AxiomReport(
        idempotent=idem_ok,
        right_invertible=inv_ok,
        self_distributive=dist_ok,
        idempotency_witness=idem_wit,
        invertibility_witness=inv_wit,
        distributivity_witness=dist_wit,
    )


class AxiomViolation(ValueError):
    """Raised when a table offered as a quandle fails an axiom."""

    def __init__(self, report: AxiomReport, label: str = "table"):
        self.report = report
        bits = []
        if not report.idempotent:
            bits.append(f"idempotency fails at x={report.idempotency_witness}")
        if not report.right_invertible:
            y, x1, x2 = report.invertibility_witness
            bits.append(f"column {y} repeats: {x1}|>{y} == {x2}|>{y}")
        if not report.self_distributive:
            bits.append(f"self-distributivity fails at {report.distributivity_witness}")
        super().__init__(f"{label} is not a quandle: " + "; ".join(bits))


class Quandle:
    """A finite quandle: validated operation table plus display names.

    The constructor scans the table against the three axioms.  The family
    constructors below apply formulas that give a quandle for every valid
    group and automorphism (Joyce, "A classifying invariant of knots, the
    knot quandle", J. Pure Appl. Algebra 23, 1982), so they skip the scan.
    """

    def __init__(self, rhd, label: str = "Q", element_names=None, provenance=None):
        table = as_index_array(rhd, "operation table")
        report = verify_quandle_axioms(table)
        if not report.ok:
            raise AxiomViolation(report, label)
        self._init(table, label, element_names, provenance)

    @classmethod
    def _of_checked(cls, rhd: np.ndarray, label: str, element_names=None,
                    provenance=None) -> "Quandle":
        """Wrap an int64 table a family formula built (axioms unscanned)."""
        q = cls.__new__(cls)
        q._init(rhd, label, element_names, provenance)
        return q

    def _init(self, table: np.ndarray, label: str, element_names, provenance) -> None:
        self.rhd = table
        self.order = int(table.shape[0])
        self.label = label
        self.element_names = as_names(element_names, self.order)
        self.provenance = dict(provenance) if provenance else {"family": "raw"}

    def op(self, x: int, y: int) -> int:
        n = self.order
        return int(self.rhd[as_integer(x, "element", 0, n), as_integer(y, "element", 0, n)])

    def name(self, x: int) -> str:
        return self.element_names[as_integer(x, "element", 0, self.order)]

    def index_of(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise ValueError(f"{self.label} has no element named {name!r}") from None

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Quandle({self.label}, order={self.order})"


# -- constructors ----------------------------------------------------------


def trivial_quandle(n: int) -> Quandle:
    """x |> y = x for all y, on n >= 1 elements."""
    n = as_integer(n, "trivial quandle n", lo=1)
    rhd = np.repeat(np.arange(n)[:, None], n, axis=1)
    return Quandle._of_checked(rhd, f"T{n}", provenance={"family": "trivial", "n": n})


def conjugation_quandle(g: FiniteGroup) -> Quandle:
    """x |> y = y^-1 x y on the underlying set of g."""
    idx = np.arange(g.order)
    left = g.mul[g.inv[idx][None, :], idx[:, None]]   # left[x, y] = y^-1 x
    rhd = g.mul[left, idx[None, :]]
    return Quandle._of_checked(
        rhd,
        f"Conj({g.label})",
        element_names=g.element_names,
        provenance={"family": "conj", "group": g.label},
    )


def core_quandle(g: FiniteGroup) -> Quandle:
    """x |> y = y x^-1 y."""
    idx = np.arange(g.order)
    yx = g.mul[idx[None, :], g.inv[idx][:, None]]     # yx[x, y] = y x^-1
    rhd = g.mul[yx, idx[None, :]]
    return Quandle._of_checked(
        rhd,
        f"Core({g.label})",
        element_names=g.element_names,
        provenance={"family": "core", "group": g.label},
    )


def dihedral_quandle(n: int) -> Quandle:
    """Residues mod n with a |> b = 2b - a, for n >= 1."""
    n = as_integer(n, "dihedral quandle n", lo=1)
    idx = np.arange(n)
    rhd = (2 * idx[None, :] - idx[:, None]) % n
    return Quandle._of_checked(rhd, f"R{n}", provenance={"family": "dihedral", "n": n})


def alexander_quandle(g: FiniteGroup, t: Automorphism) -> Quandle:
    """x |> y = t(x) + y - t(y) on an abelian group."""
    if not g.is_abelian():
        raise ValueError("Alexander quandles need an abelian group")
    if t.group is not g:
        raise ValueError("automorphism belongs to a different group")
    tx = t.mapping
    rhd = g.mul[g.mul[tx[:, None], np.arange(g.order)[None, :]], g.inv[tx][None, :]]
    return Quandle._of_checked(
        rhd,
        f"Alex({g.label})",
        element_names=g.element_names,
        provenance={
            "family": "alexander",
            "group": g.label,
            "automorphism": [int(v) for v in t.mapping],
        },
    )


def difference_sets(g: FiniteGroup, maps) -> np.ndarray:
    """Masks d[k, v] of the sets D_k = {phi_k(z) z^-1 : z in G}, one per row
    of the (k, n) stack of automorphism image arrays: one n-cell scatter
    each."""
    maps = np.asarray(maps, dtype=np.int64)
    k, n = maps.shape
    # cells[k, z]: the flat index of phi_k(z) z^-1 in row k of d; one flat
    # gather and one flat scatter run far faster than their 2-D forms
    cells = maps * n
    cells += g.inv
    cells = g.mul.ravel()[cells]
    cells += np.arange(0, k * n, n)[:, None]
    d = np.zeros(k * n, dtype=bool)
    d[cells.ravel()] = True
    return d.reshape(k, n)


def alexander_adjacency(g: FiniteGroup, maps) -> np.ndarray:
    """Stacked Cayley adjacency matrices adj[k, x, v], True when v = x |> y
    for some y in the generalized Alexander quandle x |> y = phi_k(x y^-1) y,
    one per row of the (k, n) stack of automorphism image arrays.  On an
    abelian group the table is t_k(x) + y - t_k(y).

    Row x is D x, where D = {phi(z) z^-1 : z in G} (difference_sets): put
    z = x y^-1, so that y = z^-1 x and phi(x y^-1) y = phi(z) z^-1 x, and z
    runs over G as y does.  So the matrix depends on D alone, and one
    gather gives adj[k, x, v] = D_k[v x^-1].  The tables are
    generalized_alexander_quandle's, a quandle for every automorphism
    (Joyce 1982, as in the Quandle docstring), so none is scanned.
    alexander_quandle and generalized_alexander_quandle keep their own
    copies of the formula, so the per-instance checkers do not share code
    with the stacked sweep."""
    idx = np.arange(g.order)
    vx = g.mul[idx[None, :], g.inv[idx][:, None]]     # vx[x, v] = v x^-1
    return np.take(difference_sets(g, maps), vx, axis=1)


def generalized_alexander_quandle(g: FiniteGroup, phi: Automorphism) -> Quandle:
    """x |> y = phi(x y^-1) y on any group, abelian or not."""
    if phi.group is not g:
        raise ValueError("automorphism belongs to a different group")
    idx = np.arange(g.order)
    xyinv = g.mul[idx[:, None], g.inv[idx][None, :]]
    rhd = g.mul[phi.mapping[xyinv], idx[None, :]]
    return Quandle._of_checked(
        rhd,
        f"GAlex({g.label})",
        element_names=g.element_names,
        provenance={
            "family": "gen_alexander",
            "group": g.label,
            "automorphism": phi.mapping.tolist(),
        },
    )


# -- translations and the inner action --------------------------------------


def _translation_mismatch(cols: np.ndarray, zs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bool mask m[i, j, x] of (x |> y) |> z != (x |> z) |> (y |> z) for
    z = zs[i], y = ys[j]: where R_z R_y and R_{R_z(y)} R_z differ.

    cols is the C-contiguous transposed table, cols[y, x] = x |> y, of an
    integer dtype that holds n^2 (_columns' int32 below n = 46341).  R_z R_y
    is one gather along the rows R_z; R_w R_z gathers from the flat table
    at w n + R_z(x)."""
    n = cols.shape[1]
    rz = cols[zs]
    rhs = rz[:, None, :] + rz[:, ys, None] * n
    return np.take(rz, cols[ys], axis=1) != np.take(cols.ravel(), rhs)


class PermGroup:
    """A permutation group on 0..degree-1, stored as the full member set."""

    def __init__(self, degree: int, members):
        self.degree = degree
        self.members = tuple(sorted({tuple(int(v) for v in p) for p in members}))
        ident = tuple(range(degree))
        if ident not in set(self.members):
            raise ValueError("permutation group must contain the identity")

    @property
    def order(self) -> int:
        return len(self.members)

    def orbit(self, x: int) -> tuple:
        return tuple(sorted({p[x] for p in self.members}))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def inner_group(q: Quandle, cap: int = INNER_GROUP_CAP,
                closure_cap: int = INNER_CLOSURE_CAP) -> PermGroup:
    """Group generated by all right translations, closed under composition.

    Breadth-first closure under composition; inverses come for free in a
    finite setting.  closure_cap bounds the member count as a safety net.
    """
    if q.order > cap:
        raise ValueError(f"inner group computation capped at order <= {cap}")
    gens = list(dict.fromkeys(map(tuple, q.rhd.T.tolist())))   # distinct columns
    try:
        layers = breadth_first([tuple(range(q.order))],
                               lambda p: (tuple(gph[v] for v in p) for gph in gens),
                               limit=closure_cap)
    except ValueError:
        raise ValueError("inner group closure exceeded the safety cap") from None
    return PermGroup(q.order, [p for layer in layers for p in layer])


def _orbit_labels(rhd: np.ndarray) -> np.ndarray:
    """Label every element with the least member of its forward orbit.

    Each column R_y of a right-invertible table is a permutation, so x is
    R_y^k(x |> y) for some k: every edge lies on a cycle, and the forward
    orbits are the weak components of the Cayley graph.  The labels form
    stars, each element pointing to the least element of its tree; a
    round (_hook) merges trees joined by an edge, and a round that changes
    nothing leaves no edge between trees.  Within two rounds every tree
    that is not yet an orbit merges with another, so, however the elements
    are numbered, at most 2 ceil(log2 k) + 1 rounds run when the largest
    orbit has k elements.
    """
    lab = np.arange(rhd.shape[0], dtype=np.int32)
    while True:
        new = _hook(lab, rhd)
        if (new == lab).all():
            return lab
        lab = new


def _hook(lab: np.ndarray, rhd: np.ndarray) -> np.ndarray:
    """One round of _orbit_labels.  Each root r takes the least root that
    an edge from its tree reaches, the greatest root that an edge from x
    reaches takes lab[x], and pointers jump until the trees are stars.  A
    tree with an edge out of it either reaches a root below r and merges,
    or its greatest reached root s > r takes r or less: r merges the two,
    and less leaves the tree a root below r to take next round."""
    near = np.take(lab, rhd)                      # near[x, y] = root of x |> y
    new = lab.copy()
    np.minimum.at(new, lab, near.min(axis=1))
    np.minimum.at(new, near.max(axis=1), lab)
    while not (new[new] == new).all():
        new = new[new]
    return new


def forward_orbit(q: Quandle, x: int) -> tuple:
    """All elements reachable from element x by repeatedly applying |> (any operand)."""
    x = as_integer(x, "element x", 0, q.order)
    lab = _orbit_labels(q.rhd)
    return tuple(np.flatnonzero(lab == lab[x]).tolist())


def is_involutory(q: Quandle) -> bool:
    """True when (x |> y) |> y = x for all x, y."""
    idx = np.arange(q.order)
    twice = q.rhd[q.rhd, idx[None, :]]
    return bool((twice == idx[:, None]).all())


# -- serialization -----------------------------------------------------------


def quandle_to_json(q: Quandle) -> dict:
    """Plain-dict form: order, names, row-major table, provenance."""
    return {
        "order": q.order,
        "names": list(q.element_names),
        "rhd": [int(v) for v in q.rhd.ravel()],
        "provenance": dict(q.provenance),
    }


def quandle_from_json(obj: dict) -> Quandle:
    """Rebuild a quandle from its dict form (order >= 1, table re-verified).
    rhd is a list, or the int64 array loads_quandle_json decodes.  The table
    passes as_index_array once, and the axiom proof reads it as gated."""
    if not isinstance(obj, dict):
        raise ValueError("quandle JSON must be an object")
    for key in ("order", "names", "rhd"):
        if key not in obj:
            raise ValueError(f"quandle JSON missing key {key!r}")
    n = as_integer(obj["order"], "order", lo=1)
    flat = obj["rhd"]
    if not isinstance(flat, np.ndarray):
        flat = as_list(flat, "rhd must be a list of integers")
    if len(flat) != n * n:
        raise ValueError(f"rhd must hold {n * n} entries, got {len(flat)}")
    rows = (flat.reshape(n, n) if isinstance(flat, np.ndarray)
            else [flat[i:i + n] for i in range(0, n * n, n)])
    table = as_index_array(rows, "rhd")
    names = as_list(obj["names"], "names must be a list")
    prov = obj.get("provenance") or {"family": "raw"}
    if not isinstance(prov, dict):
        raise ValueError("provenance must be an object")
    label = str(prov.get("label", prov.get("family", "raw")))
    report = _axiom_report(table)
    if not report.ok:
        raise AxiomViolation(report, label)
    return Quandle._of_checked(table, label, element_names=names, provenance=prov)


# bytes of an rhd list body that _decode_naturals reads at once
_RHD_CHUNK = 1 << 15
_JSON_SPACE = " \t\n\r"


def loads_quandle_json(text: str):
    """json.loads(text), except that the rhd list of a quandle file comes
    back as an int64 array when the file is in the strict subset below.

    The subset: no backslash and no non-ASCII character in text, the
    string "rhd" exactly once, followed by ':' and '[' (JSON whitespace
    between), and the body up to the first ']' a comma-separated list of
    plain decimals (_chunk_naturals).  Removing that body must leave a
    text json.loads reads as an object whose "rhd" is [], so the key is
    the top-level one and the rest of the document is json.loads' own.
    Any other text, and any remainder json.loads refuses, is parsed whole
    by groups.loads_json, so its result and its errors are exactly that one's.
    """
    span = _rhd_body(text)
    if span is not None:
        start, end = span
        try:
            obj = json.loads(text[:start] + text[end:])
        except (ValueError, RecursionError):
            obj = None
        if type(obj) is dict and obj.get("rhd") == []:
            values = _decode_naturals(text, start, end)
            if values is not None:
                obj["rhd"] = values
                return obj
    return loads_json(text, "quandle JSON")


def _rhd_body(text: str) -> tuple | None:
    """(start, end) of the text between the '[' after the one "rhd" key
    and the first ']' after it, or None when text leaves the subset of
    loads_quandle_json."""
    if "\\" in text or not text.isascii() or text.count('"rhd"') != 1:
        return None
    at = text.index('"rhd"') + len('"rhd"')
    for mark in ":[":
        while at < len(text) and text[at] in _JSON_SPACE:
            at += 1
        if not text.startswith(mark, at):
            return None
        at += 1
    end = text.find("]", at)
    return None if end < 0 else (at, end)


def _decode_naturals(text: str, start: int, end: int) -> np.ndarray | None:
    """The comma-separated decimals of text[start:end] as int64, or None
    when the body is not such a list.  The body is read in chunks, each
    cut at the first comma at least _RHD_CHUNK bytes on, so the kernel's
    temporaries stay a few times the chunk in size."""
    parts = []
    while start < end:
        cut = text.find(",", min(start + _RHD_CHUNK, end), end)
        cut = end if cut < 0 else cut
        # a space each side puts every run of digits inside the bytes
        chunk = (" " + text[start:cut] + " ").encode("ascii")
        values = _chunk_naturals(np.frombuffer(chunk, np.uint8))
        if values is None:
            return None
        parts.append(values)
        start = cut + 1
    # start stops at end, not past it, when the body is empty or ends in a comma
    return np.concatenate(parts) if start > end else None


def _chunk_naturals(b: np.ndarray) -> np.ndarray | None:
    """The values of the ASCII bytes b when they read
    ws* D ws* (',' ws* D ws*)*, with ws a JSON whitespace byte and D a
    decimal of 1 to 18 digits with no sign and no leading zero (so every
    value fits int64); None otherwise.  b begins and ends with a space."""
    digit = b - np.uint8(48)                # wraps every byte below '0'
    isdigit = digit < 10
    comma = b == 44
    if not (isdigit | comma | (b == 32) | (b == 10) | (b == 13) | (b == 9)).all():
        return None
    # the maximal digit runs, and one comma strictly between each two
    bounds = np.flatnonzero(isdigit[1:] != isdigit[:-1]) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    commas = np.flatnonzero(comma)
    if starts.size != commas.size + 1:
        return None
    lens = ends - starts
    width = int(lens.max())
    if (width > 18 or (ends[:-1] > commas).any() or (commas >= starts[1:]).any()
            or ((lens > 1) & (digit[starts] == 0)).any()):
        return None
    # each run's digits from its last, the k-th from the end scaled by 10^k
    # in int64 (numpy < 2 would keep a uint8 digit times 100 in uint8)
    last = ends - 1
    values = digit[last].astype(np.int64)
    for k in range(1, width):
        values += np.multiply(digit[last - k] * (lens > k), 10 ** k, dtype=np.int64)
    return values
