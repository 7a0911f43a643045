"""Seeded inputs for the benchmark, built from plain numpy formulas.

Nothing here imports quandle_cayley: the tables are written straight from
the group and quandle formulas, relabelled by a seeded random permutation,
and saved as the raw quandle JSON the CLI reads.  The expected answers
(label-invariant graph facts, isomorphism verdicts) are computed here too,
by routes that share no code with the library.  `make_inputs` is the entry
point: the same workload and seed always give the same files.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

# -- groups as multiplication tables -------------------------------------------


def cyclic(k: int) -> np.ndarray:
    i = np.arange(k)
    return (i[:, None] + i[None, :]) % k


def dihedral(m: int) -> np.ndarray:
    """D_m of order 2m: index i < m is r^i, index m + i is r^i s."""
    i = np.arange(m)[:, None]
    j = np.arange(m)[None, :]
    mul = np.empty((2 * m, 2 * m), dtype=np.int64)
    mul[:m, :m] = (i + j) % m
    mul[:m, m:] = (i + j) % m + m
    mul[m:, :m] = (i - j) % m + m
    mul[m:, m:] = (i - j) % m
    return mul


def symmetric(k: int) -> np.ndarray:
    perms = list(itertools.permutations(range(k)))
    index = {p: n for n, p in enumerate(perms)}
    return np.array([[index[tuple(p[v] for v in q)] for q in perms] for p in perms])


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct product; the pair (x, y) has index x * |b| + y."""
    nb = b.shape[0]
    idx = np.arange(a.shape[0] * nb)
    ia, ib = idx // nb, idx % nb
    return a[np.ix_(ia, ia)] * nb + b[np.ix_(ib, ib)]


def inverses(mul: np.ndarray) -> np.ndarray:
    ident = int(np.nonzero((mul == np.arange(len(mul))).all(axis=1))[0][0])
    return np.argmax(mul == ident, axis=1)


GROUPS = {
    "D24": lambda: dihedral(24),
    "D30": lambda: dihedral(30),
    "D32": lambda: dihedral(32),
    "S4xZ2": lambda: product(symmetric(4), cyclic(2)),
    "D12xZ2": lambda: product(dihedral(12), cyclic(2)),
    "D16xZ2": lambda: product(dihedral(16), cyclic(2)),
    "D8xZ4": lambda: product(dihedral(8), cyclic(4)),
    "S3xD5": lambda: product(symmetric(3), dihedral(5)),
}

# -- quandle tables: rhd[x, y] = x |> y --------------------------------------


def dihedral_quandle(n: int) -> np.ndarray:
    i = np.arange(n)
    return (2 * i[None, :] - i[:, None]) % n


def alexander_z2(k: int, t) -> np.ndarray:
    """x |> y = t(x - y) + y on Z_k x Z_k, (a, b) at index a * k + b."""
    (a, b), (c, d) = t
    idx = np.arange(k * k)
    x1, x2 = idx[:, None] // k, idx[:, None] % k
    y1, y2 = idx[None, :] // k, idx[None, :] % k
    u, v = x1 - y1, x2 - y2
    return ((a * u + b * v + y1) % k) * k + (c * u + d * v + y2) % k


def core(mul: np.ndarray) -> np.ndarray:
    """x |> y = y x^-1 y."""
    inv = inverses(mul)
    i = np.arange(len(mul))
    return mul[mul[i[None, :], inv[i][:, None]], i[None, :]]


def conj(mul: np.ndarray) -> np.ndarray:
    """x |> y = y^-1 x y."""
    inv = inverses(mul)
    i = np.arange(len(mul))
    return mul[mul[inv[i][None, :], i[:, None]], i[None, :]]


def inner_twist(mul: np.ndarray, h: int) -> np.ndarray:
    """x |> y = h (x y^-1) h^-1 y, the twist by conjugation with h."""
    inv = inverses(mul)
    i = np.arange(len(mul))
    xyinv = mul[i[:, None], inv[i][None, :]]
    return mul[mul[mul[h, xyinv], inv[h]], i[None, :]]


# The raw_large tables, orders 120..384.  The Alexander twists use
# unipotent matrices, so their components are the cosets of a small
# cyclic subgroup and the diameter search stays cheap.
RAW_TABLES = (
    ("conj_S5", lambda: conj(symmetric(5))),
    ("core_D60", lambda: core(dihedral(60))),
    ("alex_Z11", lambda: alexander_z2(11, ((1, 1), (0, 1)))),
    ("dihedral_128", lambda: dihedral_quandle(128)),
    ("alex_Z13", lambda: alexander_z2(13, ((1, 0), (3, 1)))),
    ("core_D96", lambda: core(dihedral(96))),
    ("dihedral_150", lambda: dihedral_quandle(150)),
    ("alex_Z16", lambda: alexander_z2(16, ((1, 2), (0, 1)))),
    ("core_D144", lambda: core(dihedral(144))),
    ("alex_Z19", lambda: alexander_z2(19, ((1, 0), (1, 1)))),
    ("core_D192", lambda: core(dihedral(192))),
)

# -- relabelling and the raw JSON form ----------------------------------------


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same quandle with element x renamed perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def write_raw(path: Path, table: np.ndarray) -> None:
    n = len(table)
    obj = {"order": n, "names": [f"v{i}" for i in range(n)],
           "rhd": table.ravel().tolist()}
    path.write_text(json.dumps(obj))


# -- label-invariant facts, computed without the library ----------------------


def adjacency(table: np.ndarray) -> np.ndarray:
    """Edge x -> x |> y for every y."""
    n = len(table)
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n)[:, None], table] = True
    return adj


def _step(reach: np.ndarray, adj: np.ndarray) -> np.ndarray:
    return reach | (reach.astype(np.float32) @ adj.astype(np.float32) > 0)


def strong_components(adj: np.ndarray) -> list[np.ndarray]:
    """Classes of mutual reachability, from the transitive closure."""
    n = len(adj)
    reach = adj | np.eye(n, dtype=bool)
    while True:
        nxt = _step(reach, reach)
        if (nxt == reach).all():
            break
        reach = nxt
    mutual = reach & reach.T
    seen = np.zeros(n, dtype=bool)
    comps = []
    for v in range(n):
        if not seen[v]:
            comp = np.nonzero(mutual[v])[0]
            seen[comp] = True
            comps.append(comp)
    return comps


def diameter(sub: np.ndarray) -> int:
    """Largest shortest-path length in a strongly connected digraph."""
    reach = np.eye(len(sub), dtype=bool)
    k = 0
    while not reach.all():
        reach = _step(reach, sub)
        k += 1
    return k


def invariants(table: np.ndarray) -> dict:
    """The label-invariant part of `analyze --json` for this table."""
    n = len(table)
    idx = np.arange(n)
    adj = adjacency(table)
    outs, ins = adj.sum(axis=1), adj.sum(axis=0)
    off = adj & ~np.eye(n, dtype=bool)
    comps = []
    for c in strong_components(adj):
        sub = adj[np.ix_(c, c)]
        comps.append([len(c), bool(sub.all()), diameter(sub)])
    return {
        "order": n,
        "involutory": bool((table[table, idx[None, :]] == idx[:, None]).all()),
        "edges": int(adj.sum()),
        "edgeless": not off.any(),
        "symmetric": bool((adj == adj.T).all()),
        "complete": bool(adj.all()),
        "degrees": {"out": [int(outs.min()), int(outs.max())],
                    "in": [int(ins.min()), int(ins.max())]},
        "component_count": len(comps),
        "components": sorted(comps),
    }


def valid_isomorphism(adj_a: np.ndarray, adj_b: np.ndarray, mapping) -> bool:
    """True when mapping is a bijection carrying every edge and non-edge of
    a onto b, checked edge by edge."""
    n = len(adj_a)
    if mapping is None or len(mapping) != n or len(adj_b) != n:
        return False
    m = np.asarray(mapping, dtype=np.int64)
    if m.min() < 0 or m.max() >= n or len(set(m.tolist())) != n:
        return False
    return bool((adj_b[np.ix_(m, m)] == adj_a).all())


def _class_reps(mul: np.ndarray) -> list[int]:
    """Smallest member of each conjugacy class."""
    inv = inverses(mul)
    seen: set = set()
    reps = []
    for h in range(len(mul)):
        if h not in seen:
            reps.append(h)
            seen.update(mul[mul[inv, h], np.arange(len(mul))].tolist())
    return reps


NONISO_PER_GROUP = 8


def _raw_large(rng, dest: Path) -> list[dict]:
    items = []
    for name, build in RAW_TABLES:
        table = build()
        table = relabel(table, rng.permutation(len(table)))
        path = dest / f"{name}.json"
        write_raw(path, table)
        export = dest / f"{name}.edges.json"
        items.append({
            "name": name,
            "argv": ["analyze", "--family", "raw", "--raw-path", str(path),
                     "--json", "--export", "json", "--out", str(export)],
            "table": str(path), "export": str(export),
            "expected": invariants(table),
        })
    return items


def _iso_pairs(rng, dest: Path) -> list[dict]:
    """Per group: each non-central class rep h against a relabelled twist by
    a random conjugate of h (isomorphic by construction: conjugation by g
    carries one twist onto the other), then up to NONISO_PER_GROUP pairs of
    equal-degree twists whose label-invariant facts differ (so they are
    not isomorphic)."""
    items = []
    for gname, build in GROUPS.items():
        mul = build()
        n = len(mul)
        inv = inverses(mul)
        twists = {h: inner_twist(mul, h) for h in _class_reps(mul)}
        facts = {h: invariants(t) for h, t in twists.items()}
        reps = [h for h in twists if facts[h]["degrees"]["out"] != [1, 1]]
        pairs = []
        for h in reps:
            g = int(rng.integers(n))
            conj_g = mul[mul[g, np.arange(n)], inv[g]]       # x -> g x g^-1
            pairs.append((h, int(conj_g[h]), True, conj_g))
        noniso = [(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]
                  if facts[a]["degrees"] == facts[b]["degrees"] and facts[a] != facts[b]]
        picks = np.linspace(0, len(noniso) - 1, min(len(noniso), NONISO_PER_GROUP))
        pairs += [(*noniso[int(round(i))], False, None) for i in picks]
        for k, (ha, hb, iso, conj_g) in enumerate(pairs):
            pa, pb = rng.permutation(n), rng.permutation(n)
            ta = relabel(twists[ha], pa)
            tb = relabel(inner_twist(mul, hb), pb)
            if iso:
                # the witness A -> B: undo pa, conjugate by g, apply pb
                witness = pb[conj_g[np.argsort(pa)]]
                if not valid_isomorphism(adjacency(ta), adjacency(tb), witness):
                    raise AssertionError(f"{gname}: conjugation witness failed")
            path_a = dest / f"{gname}_{k:02d}_a.json"
            path_b = dest / f"{gname}_{k:02d}_b.json"
            write_raw(path_a, ta)
            write_raw(path_b, tb)
            items.append({
                "name": f"{gname}_{k:02d}",
                "argv": ["isomorphic", f"raw:{path_a}", f"raw:{path_b}", "--json"],
                "table_a": str(path_a), "table_b": str(path_b),
                "expected": iso,
            })
    return items


def make_inputs(workload: str, seed: int, dest: Path) -> list[dict]:
    """Write the workload's input files under dest; return its items, each
    with the CLI argv to run and the expected answer."""
    rng = np.random.default_rng(seed)
    if workload == "suite_default":
        expected = Path(__file__).parent / "expected" / "suite_default.txt"
        return [{"name": "verify", "argv": ["verify"], "expected": str(expected)}]
    if workload == "raw_large":
        return _raw_large(rng, dest)
    if workload == "iso_pairs":
        return _iso_pairs(rng, dest)
    raise ValueError(f"unknown workload {workload!r}")
