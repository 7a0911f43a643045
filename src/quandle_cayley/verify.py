"""Mechanical verification of structural facts about quandle Cayley graphs.

Each checker builds the relevant quandle(s) and graph(s) from scratch,
computes the predicted structure by an independent route (cosets, orbits,
conjugacy classes, explicit formulas), and compares the two exhaustively.
A checker never assumes what it is checking; a failed comparison comes
back as a report with a concrete witness.

The suite sweeps the generalized Alexander quandles of whole families of
automorphisms, each family an array of image rows or a stream of row
chunks (sweep_alexander): every automorphism of each abelian group, its
count checked against a closed form, and the inner automorphisms of
each registry group (regularity and orbit_coset).
A Cayley graph of phi(x y^-1) y depends only on the set
D = {phi(z) z^-1}, so the sweep builds one adjacency matrix per distinct
D.  The coset checks predict from one subgroup, N = <phi(y)^-1 y> = <D>:
im(id - t) in the paper's abelian theorems, <[h, x]> in its inner one.
Its mask, its coset block matrix, orbit_coset's normality test and
translations, and each [G : Fix(phi)] come from whole-array operations
over the family's rows (groups.twist_masks, groups.fixed_point_indices);
the sweep builds no Subgroup.
alexander_components and orbit_coset give one verdict per D class.
z -> phi(z) z^-1 takes one value on each left coset of Fix(phi), so
|D| = [G : Fix(phi)], though Fix(phi) itself can differ inside a class;
regularity judges each automorphism against its own index, since one
per class would assume the theorem being checked.
Like the family constructors, the sweep takes its tables to be quandles,
as phi(x y^-1) y is for every automorphism, and does not scan them again.
The per-instance checkers stay the tests' reference for the sweep, and
the sweep reports its failures in their witness form.

Four claims say that a Cayley graph is the disjoint union of the complete
digraphs on a predicted partition: the conjugacy classes (conjugation),
the parity classes (dihedral, takasaki) and the cosets of im(id - t)
(alexander_components).  Each is one comparison of the adjacency matrix
with the partition's block matrix (_block_mismatch), whose witness is the
first differing cell.  dihedral_inner and s4_example are likewise one
comparison each (_cell_mismatch), with their predicted matrices: directed
cycles, and the golden A4 block with its translate onto the other coset.
A graph here is its boolean adjacency matrix; no check searches for
components.
"""
from __future__ import annotations

import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import graphs as gr
from . import groups as G
from . import quandles as Q
from . import specs

CHECK_IDS = (
    "axioms",
    "trivial_edgeless",
    "conjugation",
    "dihedral",
    "takasaki",
    "alexander_components",
    "alexander_iso",
    "regularity",
    "orbit_coset",
    "dihedral_inner",
    "s4_example",
)

# unordered automorphism pairs are swept only below this Aut-group size
_ISO_PAIR_AUT_CAP = 100
# the most automorphisms, summed over the abelian types, one suite run
# enumerates: abelian_order_cap 63 asks for 10.1 million, 64 for 20.2 billion
_AUT_BUDGET = 1 << 24
# the checks sweep_alexander runs over any family, in suite order; its
# fourth, orbit_coset, takes the inner family only
_SWEPT = ("alexander_components", "alexander_iso", "regularity")


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    instance: str
    passed: bool
    witness: object = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "passed": self.passed,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6),
        }


def _report(tid: str, instance: str, start: float, failures: list) -> VerificationReport:
    return VerificationReport(
        theorem_id=tid,
        instance=instance,
        passed=not failures,
        witness=failures[0] if failures else None,
        elapsed=time.perf_counter() - start,
    )


class _Clock:
    """Splits a sweep's time among its check ids.  Each lap, from the
    previous charge (or the clock's start) to this one, goes in equal
    shares to the ids charged, so the ids' totals sum to the time from
    the start to the last charge."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.spent: dict = {}

    def charge(self, *tids) -> None:
        now = time.perf_counter()
        for tid in tids:
            self.spent[tid] = self.spent.get(tid, 0.0) + (now - self.last) / len(tids)
        self.last = now


def _block_matrix(blocks, n: int) -> np.ndarray:
    """m[x, y] is True exactly when x and y share a block; the blocks
    partition range(n)."""
    label = np.empty(n, dtype=np.int64)
    for b, blk in enumerate(blocks):
        label[list(blk)] = b
    return label[:, None] == label[None, :]


def _cell_mismatch(m: np.ndarray, want: np.ndarray, key: str, **detail) -> list[dict]:
    """No failure when the matrices m and want are equal, else one: the
    first differing cell in row-major order under `key`, plus `detail`."""
    bad = np.argwhere(m != want)
    return [{key: tuple(int(v) for v in bad[0]), **detail}] if bad.size else []


def _block_mismatch(m: np.ndarray, blocks, **detail) -> list[dict]:
    """No failure when the adjacency matrix m is the block matrix of
    `blocks`, else one: the first differing cell, plus `detail`.  Equality
    makes the graph the disjoint union of the complete digraphs on the
    blocks, which fixes its strong components, their count, their
    completeness and the graph's symmetry."""
    return _cell_mismatch(m, _block_matrix(blocks, len(m)), "block_mismatch", **detail)


# -- individual checkers -----------------------------------------------------


def check_axioms(label: str, table) -> VerificationReport:
    """The three quandle axioms, by one scan (Q.verify_quandle_axioms).

    The same scan decides that every right translation x -> x |> b is an
    automorphism: right invertibility makes it a bijection, and it is a
    homomorphism exactly when (x |> y) |> b == (x |> b) |> (y |> b) for
    all x and y, which is self-distributivity at b (Q._reduced_scan)."""
    start = time.perf_counter()
    report = Q.verify_quandle_axioms(table)
    failures = [] if report.ok else [{
        "axioms": {
            "idempotent": report.idempotent,
            "right_invertible": report.right_invertible,
            "self_distributive": report.self_distributive,
        },
        "witness": next(w for w in (report.idempotency_witness,
                                    report.invertibility_witness,
                                    report.distributivity_witness)
                        if w is not None),
    }]
    return _report("axioms", label, start, failures)


def check_trivial_edgeless(n: int) -> VerificationReport:
    """Loops-only is exactly triviality: T_n edgeless, non-trivial peers not
    (R_n is trivial only when n divides 2, and S3 and S4 are non-abelian)."""
    start = time.perf_counter()
    failures = []
    triv = Q.trivial_quandle(n)
    if not gr.is_edgeless(gr.build_cayley_graph(triv)):
        failures.append({"trivial_not_edgeless": n})
    candidates = []
    if n >= 3:
        candidates.append(Q.dihedral_quandle(n))
    if n == 6:
        candidates.append(Q.conjugation_quandle(G.make_symmetric(3)))
    if n == 24:
        candidates.append(Q.conjugation_quandle(G.make_symmetric(4)))
    for q in candidates:
        if gr.is_edgeless(gr.build_cayley_graph(q)):
            failures.append({"nontrivial_but_edgeless": q.label})
    return _report("trivial_edgeless", f"n={n}", start, failures)


def check_conjugation_components(g: G.FiniteGroup) -> VerificationReport:
    """Conj(g): the disjoint union of the complete digraphs on the
    conjugacy classes."""
    start = time.perf_counter()
    graph = gr.build_cayley_graph(Q.conjugation_quandle(g))
    failures = _block_mismatch(graph.matrix(), G.conjugacy_classes(g))
    return _report("conjugation", f"Conj({g.label})", start, failures)


def check_dihedral_quandle(n: int) -> VerificationReport:
    """R_n: K_n for odd n; two K_{n/2} on the parity classes for even n."""
    start = time.perf_counter()
    graph = gr.build_cayley_graph(Q.dihedral_quandle(n))
    blocks = [range(n)] if n % 2 else [range(0, n, 2), range(1, n, 2)]
    return _report("dihedral", f"n={n}", start, _block_mismatch(graph.matrix(), blocks))


def check_takasaki_window(w: int) -> VerificationReport:
    """Window [-w, w] of the integer quandle: the edge predicate matches
    direct solvability of c = 2b - a, and the graph is the disjoint union
    of the complete digraphs on the parity classes."""
    start = time.perf_counter()
    vals = np.arange(-w, w + 1)
    b = np.arange(-3 * w, 3 * w + 1)
    # direct[i, j]: some b in [-3w, 3w] has 2b - a = c, for a = vals[i], c = vals[j]
    direct = (2 * b - vals[:, None, None] == vals[None, :, None]).any(axis=2)
    mismatch = np.argwhere(direct != gr.takasaki_z_edge(vals[:, None], vals[None, :]))
    failures = [{"edge_mismatch": (a, c)} for a, c in (mismatch - w).tolist()]
    parity = [np.flatnonzero(vals % 2 == r) for r in (0, 1)]
    failures += _block_mismatch(gr.takasaki_z_window(w).matrix(), parity)
    return _report("takasaki", f"w={w}", start, failures)


def check_alexander_components(g: G.FiniteGroup, t: G.Automorphism) -> VerificationReport:
    """A_t(g): the disjoint union of the complete digraphs on the left
    cosets of im(id - t), which fixes the components, their completeness
    and their count |g| / |im(id - t)|."""
    start = time.perf_counter()
    graph = gr.build_cayley_graph(Q.alexander_quandle(g, t))
    part = G.cosets(g, G.image_id_minus_t(g, t), side="left")
    return _report("alexander_components", f"{g.label}", start,
                   _block_mismatch(graph.matrix(), part.blocks, t=t.mapping.tolist()))


def check_alexander_iso_corollary(g: G.FiniteGroup, t1: G.Automorphism,
                                  t2: G.Automorphism) -> VerificationReport:
    """Graphs of A_t1(g) and A_t2(g) are isomorphic iff the images of
    id - t1 and id - t2 have equal size.  Both directions checked."""
    start = time.perf_counter()
    failures = []
    ga = gr.build_cayley_graph(Q.alexander_quandle(g, t1))
    gb = gr.build_cayley_graph(Q.alexander_quandle(g, t2))
    size1 = G.image_id_minus_t(g, t1).order
    size2 = G.image_id_minus_t(g, t2).order
    iso = gr.is_isomorphic(ga, gb)
    if iso != (size1 == size2):
        failures.append({"iso": iso, "image_sizes": (size1, size2),
                         "t1": t1.mapping.tolist(), "t2": t2.mapping.tolist()})
    return _report("alexander_iso", f"{g.label}", start, failures)


def check_generalized_regularity(g: G.FiniteGroup, phi: G.Automorphism) -> VerificationReport:
    """Every vertex of the twisted graph has in- and out-degree equal to the
    index of the fixed-point subgroup of phi."""
    start = time.perf_counter()
    failures = []
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))
    expected = G.fixed_point_subgroup(g, phi).index()
    degs = gr.degrees(graph)
    for v, (o, i) in enumerate(degs):
        if o != expected or i != expected:
            failures.append({"vertex": v, "degree": (o, i), "expected": expected,
                             "phi": phi.mapping.tolist()})
            break
    return _report("regularity", f"{g.label}", start, failures)


# -- batched sweeps over families of automorphisms ----------------------------


def _iso_classes(matrices: list) -> np.ndarray:
    """Isomorphism class id of each adjacency matrix in a list of distinct
    ones.

    The matrices, in order, are searched against the class representatives
    in turn; a mapping counts only if it carries every edge and non-edge
    onto the representative's, and an unmatched matrix starts a new class.
    """
    reps: list[gr.DirectedGraph] = []
    class_of = np.empty(len(matrices), dtype=np.intp)
    for i, m in enumerate(matrices):
        graph = gr.DirectedGraph._of_matrix(m)
        for c, rep in enumerate(reps):
            p = gr.find_isomorphism(graph, rep)
            if p is not None and (m == rep.matrix()[np.ix_(p, p)]).all():
                class_of[i] = c
                break
        else:
            class_of[i] = len(reps)
            reps.append(graph)
    return class_of


class _ClassTable:
    """Numbers the distinct rows of a stream of 2-D bool chunks in order of
    first appearance over the whole stream, from a table keyed by their
    packed words."""

    def __init__(self):
        self.ids: dict = {}             # packed row -> class id

    def number(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The int32 class id of each row of this chunk, and the row index
        of the first member of each class the chunk is the first to meet,
        in id order."""
        # packbits runs far faster on a flat array than along an axis, so the
        # rows are padded to whole 64-bit words, packed once and read as one
        # key per word by the sort, the runs and the table alike
        k, n = rows.shape
        padded = np.zeros((k, -(-n // 64) * 64), dtype=bool)
        padded[:, :n] = rows
        keys = np.packbits(padded.ravel()).view(np.uint64).reshape(k, -1)
        order = np.lexsort(keys.T)        # stable: each run of equal rows starts at its first
        run = np.ones(k, dtype=bool)
        run[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
        first = order[run]
        appear = np.argsort(first)        # the runs in order of first appearance
        label = np.empty(k, dtype=np.intp)
        label[order] = np.argsort(appear)[np.cumsum(run) - 1]
        first = first[appear]
        count = len(self.ids)
        # the chunk's classes in order of first appearance, so the ids the
        # stream has not met are handed out in that order too
        ids = np.array([self.ids.setdefault(key.tobytes(), len(self.ids))
                        for key in keys[first]], dtype=np.int32)
        return ids[label], first[ids >= count]


def sweep_alexander(g: G.FiniteGroup, maps, check_ids,
                    clock: _Clock | None = None) -> dict:
    """alexander_components, alexander_iso, regularity and orbit_coset over
    the generalized Alexander quandles of a family of automorphisms: the
    rows of the (k, n) image array maps, or of the chunks of such rows an
    iterable maps yields in turn (groups._automorphism_chunks), so a large
    family is read as a stream and never held whole.  alexander_components
    and alexander_iso are abelian theorems; regularity takes any group.
    alexander_iso gives one verdict per pair, so keep the family small for
    it.  orbit_coset reads row h as conjugation by h, so maps must be the
    inner family g.mul[g.mul, g.inv[:, None]], as one array.

    Row x of the adjacency matrix is D x, with D = {phi(z) z^-1}
    (quandles.alexander_adjacency), so the matrix depends on the mask of D
    alone.  Each chunk's D masks are packed into 64-bit words once, and
    the dedupe and a running table keyed by those words (_ClassTable)
    number the classes in order of first appearance over the whole stream.
    Per automorphism the sweep keeps its D class id (int32) and its
    verdicts; per class, what its first member's row gave, while the chunk
    holding that row is read.  quandles.alexander_adjacency builds one
    matrix per D class, when the class first appears (67 for the 20,160
    automorphisms of Z2^4), as many at a time as fit in
    groups._FAMILY_CHUNK_CELLS cells.  Their tables are
    generalized_alexander_quandle's, quandles for every automorphism, so
    their axioms are not scanned.
    alexander_components, alexander_iso and orbit_coset read one
    prediction, the mask of N = <phi(y)^-1 y>, closed from those elements
    without the D mask; N = <D>, so groups.twist_masks closes it once per
    D class, for all of a chunk's new classes in one batch.  v is in x N
    exactly when x^-1 v is in N, so the block matrix of N's left cosets is
    the gather mask[x^-1 v], built beside each slab of adjacency matrices.
    alexander_components: the matrix equals the coset block matrix, so the
    graph is the disjoint union of the complete digraphs on the cosets,
    which fixes its strong components, their count |G| / |N| and their
    completeness.
    alexander_iso: the distinct matrices are sorted into isomorphism
    classes (_iso_classes), and each pair i <= j, in row-major order, is
    isomorphic when its graphs share a class; that verdict must agree with
    whether |N|, the mask's count, is equal, which the classes never read.
    regularity: every in- and out-degree is [G : Fix(phi)], which
    groups.fixed_point_indices counts for a whole chunk at once, and each
    automorphism is judged against its own (the module docstring).  The
    sweep keeps one degree per D class, the common one or 0 when the class
    is not regular; every class a chunk holds has it once that chunk's new
    classes are built, so each chunk is judged as it is read, and the
    witness rebuilds the first failing automorphism's matrix from its row.
    orbit_coset: N is normal, the reachability closure of the matrix
    (forward orbits) is the coset block matrix, and right multiplication
    by u^-1 v carries coset 0 onto each other coset, edges and non-edges
    alike (u and v the cosets' least members), each judged by whole-array
    steps on a slab of D classes.  A non-normal N fails by itself, so the
    translations matter only for a normal N.

    The D classes are numbered in order of first appearance and are built
    in class order, so the first failing class the sweep meets holds the
    first failing automorphism, its first member.  A per-D check builds
    its witness there, once, from that class's matrix.

    Returns, per check id, the verdicts (one bool per automorphism, or per
    pair for alexander_iso) and the witness for the first failure, in the
    per-instance checker's form: the first cell or vertex where the
    comparison failed, or for orbit_coset the first of normality, orbits
    and translations to fail, or for alexander_iso the failing pair's
    verdict, image sizes and maps.

    A clock, when given, is charged each check's own predictions and
    tests, and an equal share of the steps the checks share: reading the
    next chunk (for a stream, enumerating it), the difference sets, their
    dedupe and the adjacency matrices; the coset block matrices go in
    equal shares to alexander_components and orbit_coset.
    """
    n = g.order
    clock = clock or _Clock()
    if "orbit_coset" in check_ids and (
            not isinstance(maps, np.ndarray) or maps.shape != (n, n)
            or (maps != g.mul[g.mul, g.inv[:, None]]).any()):
        raise ValueError("orbit_coset sweeps the inner family only")
    d_table = _ClassTable()
    d_ids = []                         # per chunk: each automorphism's D class
    ok_d = {tid: [] for tid in check_ids            # per block of D classes
            if tid in ("alexander_components", "orbit_coset")}
    witness: dict = {}                 # per check: its first failing automorphism's
    coset_tids = [c for c in check_ids if c != "regularity"]     # the checks that read N
    left = g.mul[g.inv]                # left[x, v] = x^-1 v, in N exactly when v is in x N
    right = g.mul.T[g.inv]             # right[x, v] = v x^-1, in N exactly when v is in N x
    sizes = []                         # for alexander_iso: per chunk, |N| of its new D classes
    firsts = []                        # for alexander_iso: per chunk, its new D classes' first rows
    commons = []                       # per block of D classes: the common degree, or 0
    regular_ok = []                    # per chunk: regularity's verdicts
    matrices = []                      # for alexander_iso: per D class
    rows = max(1, G._FAMILY_CHUNK_CELLS // (n * n))
    for chunk in ((maps,) if isinstance(maps, np.ndarray) else maps):
        ids, d_new = d_table.number(Q.difference_sets(g, chunk))
        d_ids.append(ids)
        clock.charge(*check_ids)
        reps = chunk[d_new]            # the first member of each new D class
        if coset_tids:
            masks = G.twist_masks(g, reps)          # per new D class: its N
            if "alexander_iso" in check_ids:
                firsts.append(reps)
                sizes.append(np.count_nonzero(masks, axis=1))
            clock.charge(*coset_tids)
        for c0 in range(0, len(reps), rows):
            adj = Q.alexander_adjacency(g, reps[c0:c0 + rows])
            if "alexander_iso" in check_ids:
                matrices.extend(adj)
            clock.charge(*check_ids)
            if ok_d:
                slab = masks[c0:c0 + len(adj)]
                want = np.take(slab, left, axis=1)      # the coset block matrices
                clock.charge(*ok_d)
            if "alexander_components" in check_ids:
                ok = (adj == want).all(axis=(1, 2))
                ok_d["alexander_components"].append(ok)
                if not ok.all() and "alexander_components" not in witness:
                    c = int(np.argmin(ok))
                    witness["alexander_components"] = _cell_mismatch(
                        adj[c], want[c], "block_mismatch", t=reps[c0 + c].tolist())[0]
                clock.charge("alexander_components")
            if "regularity" in check_ids:
                # uint8 counts are exact up to 255, and einsum adds them fastest
                cells = adj.view(np.uint8) if n < 256 else adj.astype(np.intp)
                outs, ins = np.einsum("kxv->kx", cells), np.einsum("kxv->kv", cells)
                common = outs[:, :1]
                # a class's common degree, or 0, which no index is, when it is not regular
                commons.append(np.where(((outs == common) & (ins == common)).all(axis=1),
                                        common[:, 0], 0))
                clock.charge("regularity")
            if "orbit_coset" in check_ids:
                # N is normal exactly when every left coset x N is the right coset N x
                normal = (np.take(slab, right, axis=1) == want).all(axis=(1, 2))
                # row x of the reachability closure is the forward orbit of x
                orbits = gr._reachability(adj)
                stray = (orbits != want).any(axis=2)
                # the cosets are numbered by the rank of their least members,
                # so coset 0 holds 0.  For a normal N, back[x] = x v^-1 u, with
                # v the least member of x N and u that of coset 0, inverts the
                # translation by u^-1 v from coset 0, which keeps every edge and
                # non-edge exactly when no cell of its coset is torn
                least = want.argmax(axis=2)
                back = g.mul[g.mul[np.arange(n), g.inv[least]], least[:, :1]]
                flat = (np.arange(len(adj))[:, None, None] * n + back[:, :, None]) * n
                torn = want & (np.take(adj, flat + back[:, None, :]) != adj)
                ok = normal & ~stray.any(axis=1) & ~torn.any(axis=(1, 2))
                ok_d["orbit_coset"].append(ok)
                if not ok.all() and "orbit_coset" not in witness:
                    c = int(np.argmin(ok))
                    if not normal[c]:
                        found = {"not_normal": np.flatnonzero(slab[c]).tolist()}
                    elif stray[c].any():
                        x = int(np.argmax(stray[c]))
                        found = {"orbit_mismatch": {"x": x, "orbit": np.flatnonzero(orbits[c, x]).tolist(),
                                                    "coset": np.flatnonzero(want[c, x]).tolist()}}
                    else:
                        v = least[c][torn[c].any(axis=1)].min()
                        found = {"translation_not_isomorphism":
                                 (0, int(np.searchsorted(np.unique(least[c]), v)))}
                    witness["orbit_coset"] = found
                clock.charge("orbit_coset")
        if "regularity" in check_ids:
            # every class this chunk holds has its degree now, so its
            # automorphisms are judged while their rows are at hand
            commons = [np.concatenate(commons)]
            expected = G.fixed_point_indices(g, chunk)
            ok = commons[0][ids] == expected
            regular_ok.append(ok)
            if not ok.all() and "regularity" not in witness:
                # the matrix depends on D alone, so automorphism i's is its class's
                i = int(np.argmin(ok))
                m = Q.alexander_adjacency(g, chunk[i:i + 1])[0]
                outs, ins = m.sum(axis=1), m.sum(axis=0)
                v = int(np.argmax((outs != expected[i]) | (ins != expected[i])))
                witness["regularity"] = {"vertex": v, "degree": (int(outs[v]), int(ins[v])),
                                         "expected": int(expected[i]), "phi": chunk[i].tolist()}
            clock.charge("regularity")
        # a stream decodes its next chunk when the loop asks for it, so this
        # chunk's rows and matrices are let go first
        chunk = adj = want = None
    d_of = np.concatenate(d_ids)
    out = {tid: (np.concatenate(oks)[d_of], witness.get(tid)) for tid, oks in ok_d.items()}
    clock.charge(*check_ids)
    if "regularity" in check_ids:
        out["regularity"] = (np.concatenate(regular_ok), witness.get("regularity"))
    if "alexander_iso" in check_ids:
        size = np.concatenate(sizes)[d_of]
        cls = _iso_classes(matrices)[d_of]
        first, second = np.triu_indices(len(d_of))
        ok = (cls[first] == cls[second]) == (size[first] == size[second])
        # a pair's verdict depends only on its two D classes, symmetrically,
        # so in the first failing pair (a, b), a <= b, each is its class's
        # first member: an earlier first member a' of a's class would fail
        # (a', b) before it, and one b' of b's class (a, b') or (b', a)
        p = int(np.argmin(ok))          # the first failing pair, read only on a failure
        a, b = int(first[p]), int(second[p])
        t1, t2 = np.concatenate(firsts)[d_of[[a, b]]].tolist()
        out["alexander_iso"] = (ok, None if ok.all() else {
            "iso": bool(cls[a] == cls[b]), "image_sizes": (int(size[a]), int(size[b])),
            "t1": t1, "t2": t2})
        clock.charge("alexander_iso")
    return out


def _translation_iso_ok(graph: gr.DirectedGraph, g: G.FiniteGroup,
                        src: tuple, dst: tuple) -> bool:
    """Does x -> x * (u^-1 v) map src onto dst preserving edges both ways?"""
    u, v = src[0], dst[0]
    shift = g.op(g.inverse(u), v)
    image = g.mul[list(src), shift]
    if sorted(image.tolist()) != sorted(dst):
        return False
    m = graph.matrix()
    return bool((m[np.ix_(src, src)] == m[np.ix_(image, image)]).all())


def check_orbit_coset(g: G.FiniteGroup, h: int) -> VerificationReport:
    """For the inner twist by h: forward orbits are the left cosets of the
    subgroup N generated by all [h, x]; N is normal; the components are
    exactly those cosets; and coset translation is a graph isomorphism
    between any two components.

    Translations are checked from component 0 only: the one from i to j is
    the one from 0 to j after the inverse of the one from 0 to i, so every
    pair passes exactly when row 0 does, and row 0 holds the first failing
    pair in row-major order."""
    start = time.perf_counter()
    failures = []
    phi = G.inner_automorphism(g, h)
    q = Q.generalized_alexander_quandle(g, phi)
    graph = gr.build_cayley_graph(q)
    big_n = G.commutator_subgroup_with(g, h)
    if not G.is_normal(g, big_n):
        failures.append({"not_normal": list(big_n.members)})
    # row x of the reachability closure is the forward orbit of x
    orbits = gr._reachability(graph.matrix())
    blocks = G.cosets(g, big_n, side="left").blocks
    cosets = _block_matrix(blocks, g.order)
    bad = np.flatnonzero((orbits != cosets).any(axis=1))
    if bad.size:
        x = int(bad[0])
        failures.append({"orbit_mismatch": {"x": x, "orbit": np.flatnonzero(orbits[x]).tolist(),
                                            "coset": np.flatnonzero(cosets[x]).tolist()}})
    else:
        # every orbit is its coset, so the cosets are the strong components
        base, *others = blocks
        for j, comp in enumerate(others, start=1):
            if not _translation_iso_ok(graph, g, base, comp):
                failures.append({"translation_not_isomorphism": (0, j)})
                break
    return _report("orbit_coset", f"({g.label}, h={g.name(h)})", start, failures)


def _dihedral_inner_matrix(m: int) -> np.ndarray:
    """The predicted Cayley matrix of D_m twisted by r: a loop at every
    vertex and i -> (i + 2) mod m inside each coset of <r>, the rotations
    0..m-1 and the reflections m..2m-1."""
    v = np.arange(2 * m)
    pred = np.eye(2 * m, dtype=bool)
    pred[v, v - v % m + (v + 2) % m] = True
    return pred


def _s4_example_matrix(g: G.FiniteGroup, golden: dict) -> np.ndarray:
    """The predicted Cayley matrix of S4 (g) twisted by (12): on the golden
    vertices, A4, a loop at each and both directions of each golden edge;
    on the other coset, that block's translate under x -> x (12), since
    (12) lies outside A4 and every right translation keeps the edges:
    x -> v is an edge exactly when v x^-1 is in D
    (quandles.alexander_adjacency)."""
    at = g.index_of
    base = np.array([at(v) for v in golden["vertices"]])
    a, b = np.array([[at(u), at(v)] for u, v in golden["undirected_edges"]]).T
    pred = np.zeros((g.order, g.order), dtype=bool)
    pred[base, base] = pred[a, b] = pred[b, a] = True
    moved = g.mul[base, at("(12)")]
    pred[np.ix_(moved, moved)] = pred[np.ix_(base, base)]
    return pred


def check_dihedral_inner_example(m: int) -> VerificationReport:
    """The inner twist of D_m by r, m >= 2: one comparison of the Cayley matrix
    with the predicted one (_dihedral_inner_matrix), whose witness is the
    first differing cell.

    Equality fixes the rest.  Off the loops the graph is the permutation
    i -> i + 2 mod m inside each coset of <r>, so its strong components
    are that permutation's cycles: for even m four directed cycles of
    length m/2 (two parity classes per coset), for odd m two of length m
    (2 is a unit mod m).  A directed cycle of length L with its loops has
    diameter L - 1.  The edge i -> i + 2 has its reverse exactly when
    i + 4 = i mod m, so the graph is symmetric exactly when m divides 4."""
    start = time.perf_counter()
    m = G.as_integer(m, "dihedral example m", lo=2)
    g = G.make_dihedral(m)
    phi = G.inner_automorphism(g, g.index_of("r"))
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))
    failures = _cell_mismatch(graph.matrix(), _dihedral_inner_matrix(m), "cell_mismatch")
    return _report("dihedral_inner", f"m={m}", start, failures)


def check_s4_example() -> VerificationReport:
    """The inner twist of S4 by (12): its fixed subgroup is
    {id, (12), (34), (12)(34)}, N = <[(12), x]> is the stored golden vertex
    set (A4), and the Cayley matrix is one comparison with the predicted
    one (_s4_example_matrix), whose witness is the first differing cell.

    Equality fixes the rest.  Each golden vertex has five golden neighbours
    and its loop, and the translate keeps degrees, so every in- and
    out-degree is six; no edge leaves A4 or its coset, and each block is
    strongly connected, so the components are the two cosets of twelve;
    the identity block is the golden edge set; and neither block is
    complete."""
    start = time.perf_counter()
    failures = []
    g = G.make_symmetric(4)
    h = g.index_of("(12)")
    phi = G.inner_automorphism(g, h)
    fixed = G.fixed_point_subgroup(g, phi)
    expected_fixed = {g.index_of(s) for s in ("id", "(12)", "(34)", "(12)(34)")}
    if fixed.member_set() != frozenset(expected_fixed):
        failures.append({"fixed_subgroup": [g.name(x) for x in fixed.members]})
    path = importlib.resources.files("quandle_cayley.data").joinpath("s4_component_edges.json")
    golden = json.loads(path.read_text())
    big_n = G.commutator_subgroup_with(g, h)
    if big_n.member_set() != frozenset(map(g.index_of, golden["vertices"])):
        failures.append({"N": [g.name(x) for x in big_n.members]})
    graph = gr.build_cayley_graph(Q.generalized_alexander_quandle(g, phi))
    failures += _cell_mismatch(graph.matrix(), _s4_example_matrix(g, golden), "cell_mismatch")
    return _report("s4_example", "S4, phi=inner:(12)", start, failures)


# -- the suite ---------------------------------------------------------------


@dataclass
class SuiteConfig:
    """What the suite sweeps; integer and list fields pass groups.as_integer and as_list.
    The JSON form uses the same field names."""

    abelian_order_cap: int = 16
    nonabelian_registry: tuple = ("S3", "S4", "D2", "D3", "D4", "D5", "D6", "D7", "D8")
    dihedral_range: tuple = (2, 50)
    takasaki_window: int = 20
    checks: tuple | None = None
    extra_quandles: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.abelian_order_cap = G.as_integer(self.abelian_order_cap, "abelian_order_cap", lo=1)
        def listed(name):
            return G.as_list(getattr(self, name), "suite config value of the wrong type: "
                             f"{name} must be a list, got {{!r}}")
        self.nonabelian_registry = tuple(str(s) for s in listed("nonabelian_registry"))
        rng = listed("dihedral_range")
        if len(rng) != 2:
            raise ValueError("dihedral_range must be [lo, hi] with 1 <= lo <= hi")
        lo = G.as_integer(rng[0], "dihedral_range lo", lo=1)
        self.dihedral_range = (lo, G.as_integer(rng[1], "dihedral_range hi", lo=lo))
        self.takasaki_window = G.as_integer(self.takasaki_window, "takasaki_window")
        if self.checks is not None:
            checks = tuple(str(c) for c in listed("checks"))
            if not checks:
                raise ValueError("checks must name at least one check id")
            unknown = [c for c in checks if c not in CHECK_IDS]
            if unknown:
                raise ValueError(f"unknown check ids: {', '.join(unknown)}")
            self.checks = checks
        self.extra_quandles = tuple(
            (str(lbl), G.as_index_array(tbl, f"extra_quandles table {lbl!r}").tolist())
            for lbl, tbl in self.extra_quandles)

    @staticmethod
    def from_json(obj) -> "SuiteConfig":
        if isinstance(obj, str):
            obj = G.loads_json(obj, "suite config")
        if not isinstance(obj, dict):
            raise ValueError("suite config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(SuiteConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        kwargs = dict(obj)
        items = kwargs.get("extra_quandles", [])
        if not isinstance(items, list) or not all(
                isinstance(item, dict) and "label" in item and "rhd" in item for item in items):
            raise ValueError("extra_quandles must be a list of objects with 'label' and 'rhd'")
        kwargs["extra_quandles"] = tuple((item["label"], item["rhd"]) for item in items)
        return SuiteConfig(**kwargs)

    def wants(self, check_id: str) -> bool:
        return self.checks is None or check_id in self.checks


def _sweep_reports(g: G.FiniteGroup, maps, check_ids, instances=None,
                   clock: _Clock | None = None, predicted: int | None = None) -> dict:
    """sweep_alexander as one merged report per check id, each timed by
    its share of the clock (started here unless given): its own
    predictions and tests, and an equal share of the rest.  The instance
    is instances[check id], else the group with its count of automorphisms
    (or pairs, for alexander_iso).  A failing report's witness is the
    first failure's sub-instance (the group, or for orbit_coset the group
    and h) and detail, with the counts failed and of.

    With a predicted count of automorphisms, a family of any other size
    fails every report, with witness {"automorphisms": k, "predicted": p}:
    the sweep read some automorphism twice, or missed one."""
    clock = clock or _Clock()
    results = sweep_alexander(g, maps, check_ids, clock)
    clock.charge(*check_ids)
    # the family's size k: the count of any per-automorphism verdicts, or
    # from alexander_iso's k (k + 1) / 2 pairs
    tid, (ok, _) = next(iter(results.items()))
    count = ok.size if tid != "alexander_iso" else (math.isqrt(8 * ok.size + 1) - 1) // 2
    out = {}
    for tid, (ok, detail) in results.items():
        unit = "pairs" if tid == "alexander_iso" else "automorphisms"
        instance = (instances or {}).get(tid, f"{g.label} ({ok.size} {unit})")
        failed = int(np.count_nonzero(~ok))
        witness = None
        if predicted is not None and count != predicted:
            witness = {"automorphisms": count, "predicted": predicted}
        elif failed:
            sub = g.label
            if tid == "orbit_coset":
                sub = f"({g.label}, h={g.name(int(np.argmin(ok)))})"
            witness = {"sub_instance": sub, "detail": detail, "failed": failed, "of": ok.size}
        out[tid] = VerificationReport(tid, instance, witness is None, witness, clock.spent[tid])
    return out


def run_suite(config: SuiteConfig | None = None) -> list[VerificationReport]:
    """Run the configured checks over the configured families, in a fixed
    deterministic order.  Big parameter sweeps come back as one merged
    report per group, with the first failing sub-instance as witness.

    Each abelian group's |Aut(G)| is predicted before any check runs, by a
    closed form (groups._abelian_automorphism_count), and a run whose
    predictions sum to more than _AUT_BUDGET raises ValueError.  A group
    with at most _ISO_PAIR_AUT_CAP automorphisms gets pair verdicts, a
    larger one none.  Every family is swept as a stream of row chunks
    (groups._automorphism_chunks), never held whole, and the number swept
    must equal the prediction, or every swept report of that group fails
    with witness {"automorphisms": k, "predicted": p}."""
    config = config or SuiteConfig()
    reports: list[VerificationReport] = []
    lo, hi = config.dihedral_range
    swept = tuple(c for c in _SWEPT if config.wants(c))
    abelian = []                # (group, its predicted |Aut|), for the swept checks
    if swept:
        abelian = [(g, G._abelian_automorphism_count(g))
                   for g in G.abelian_group_types(config.abelian_order_cap)]
        total = sum(count for _, count in abelian)
        if total > _AUT_BUDGET:
            raise ValueError(
                f"abelian_order_cap {config.abelian_order_cap} asks for {total:,} "
                f"automorphisms, over the budget of {_AUT_BUDGET:,}")
    registry = []
    if any(map(config.wants, ("axioms", "conjugation", "regularity", "orbit_coset"))):
        registry = [specs.group_from_string(label) for label in config.nonabelian_registry]

    if config.wants("axioms"):
        samples: list[tuple[str, np.ndarray]] = []
        for n in range(1, 5):
            samples.append((f"T{n}", Q.trivial_quandle(n).rhd))
        for n in range(max(2, lo), min(hi, 12) + 1):
            samples.append((f"R{n}", Q.dihedral_quandle(n).rhd))
        for g in registry:
            if g.order <= 24:
                samples.append((f"Conj({g.label})", Q.conjugation_quandle(g).rhd))
                phi = G.inner_automorphism(g, 1 % g.order)
                samples.append((f"GAlex({g.label})",
                                Q.generalized_alexander_quandle(g, phi).rhd))
        for m in range(3, 9):
            samples.append((f"Core(Z{m})", Q.core_quandle(G.make_cyclic(m)).rhd))
        for label, table in config.extra_quandles:
            samples.append((label, np.asarray(table)))
        for label, table in samples:
            reports.append(check_axioms(label, table))

    if config.wants("trivial_edgeless"):
        for n in range(1, config.abelian_order_cap + 1):
            reports.append(check_trivial_edgeless(n))

    if config.wants("conjugation"):
        for g in registry:
            reports.append(check_conjugation_components(g))

    if config.wants("dihedral"):
        for n in range(lo, hi + 1):
            reports.append(check_dihedral_quandle(n))

    if config.wants("takasaki"):
        for w in range(1, config.takasaki_window + 1):
            reports.append(check_takasaki_window(w))

    # one sweep per abelian group serves all three swept checks, and one
    # per registry group the inner twists' regularity and orbit_coset; the
    # reports keep their places in the suite order
    inner_tids = tuple(c for c in ("regularity", "orbit_coset") if config.wants(c))
    merged: dict[str, list] = {tid: [] for tid in swept + ("orbit_coset",)}
    for g, predicted in abelian:
        # no pair verdicts for groups with many automorphisms (Z2^4: 20,160)
        tids = tuple(c for c in swept
                     if c != "alexander_iso" or predicted <= _ISO_PAIR_AUT_CAP)
        if not tids:
            continue
        clock = _Clock()        # started first, so the sweep's reports include the enumeration
        maps = G._automorphism_chunks(g, cap=config.abelian_order_cap)
        for tid, report in _sweep_reports(g, maps, tids, clock=clock,
                                          predicted=predicted).items():
            merged[tid].append(report)
    for g in registry if inner_tids else []:
        inner = g.mul[g.mul, g.inv[:, None]]      # inner[h, x] = h x h^-1
        instances = {"regularity": f"{g.label} (inner, all h)",
                     "orbit_coset": f"{g.label} (all h)"}
        for tid, report in _sweep_reports(g, inner, inner_tids, instances).items():
            merged[tid].append(report)
    for tid in merged:
        reports.extend(merged[tid])

    if config.wants("dihedral_inner"):
        for m in range(max(2, lo), hi + 1):
            reports.append(check_dihedral_inner_example(m))

    if config.wants("s4_example"):
        reports.append(check_s4_example())

    return reports


def format_reports(reports: list[VerificationReport], show_timing: bool = False) -> str:
    """Text rendering, one line per report.  Timing is off by default so
    the same reports always render to the same bytes."""
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        line = f"[{tag}] {r.theorem_id:22s} {r.instance}"
        if show_timing:
            line += f"  ({r.elapsed:.3f}s)"
        if not r.passed:
            line += f"\n       witness: {r.witness}"
        lines.append(line)
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines) + "\n"
