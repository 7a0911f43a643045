import itertools
import math

import numpy as np
import pytest

from quandle_cayley import groups as G
from quandle_cayley import quandles as Q


def columns_to_table(cols):
    n = len(cols[0])
    return np.array([[cols[y][x] for y in range(n)] for x in range(n)])


class TestAxiomScan:
    def test_dihedral_table_passes(self):
        report = Q.verify_quandle_axioms(Q.dihedral_quandle(5).rhd)
        assert report.ok
        assert report.idempotent and report.right_invertible and report.self_distributive

    @pytest.mark.parametrize("table", [[[0.0, 0.0], [1.0, 1.0]], [[0, 0], [True, 1]],
                                       np.array([[0.0, 0.0], [1.0, 1.0]])])
    def test_rejects_non_integer_tables(self, table):
        with pytest.raises(ValueError, match="integers"):
            Q.verify_quandle_axioms(table)
        with pytest.raises(ValueError, match="integers"):
            Q.Quandle(table)

    def test_idempotency_witness(self):
        report = Q.verify_quandle_axioms(np.array([[1, 0], [1, 0]]))
        assert not report.idempotent
        assert report.idempotency_witness == 0

    def test_invertibility_witness(self):
        table = np.array([
            [0, 0, 0],
            [1, 1, 0],
            [2, 2, 2],
        ])
        report = Q.verify_quandle_axioms(table)
        assert report.idempotent
        assert not report.right_invertible
        y, x1, x2 = report.invertibility_witness
        assert y == 2
        assert table[x1, y] == table[x2, y]

    def test_repeat_in_the_last_column_of_a_relabelled_core(self):
        # Core(D96), order 192, relabelled, with 5 |> 191 set to 1 |> 191:
        # the report the sort-based column check gave for this table
        table = _relabelled(Q.core_quandle(G.make_dihedral(96)).rhd, 96)
        table[5, 191] = table[1, 191]
        assert Q.verify_quandle_axioms(table) == Q.AxiomReport(
            idempotent=True, right_invertible=False, self_distributive=False,
            invertibility_witness=(191, 1, 5), distributivity_witness=(0, 5, 191))

    def test_right_invertibility_matches_sorted_columns(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            table = np.array(rng.permuted(np.tile(np.arange(n), (n, 1)).T, axis=0))
            if rng.random() < 0.5:
                table[rng.integers(n), rng.integers(n)] = rng.integers(n)
            bijective = (np.sort(table, axis=0) == np.arange(n)[:, None]).all()
            assert Q.verify_quandle_axioms(table).right_invertible == bijective, table

    def test_distributivity_witness(self):
        # columns fix the diagonal and are bijective; (0|>1)|>2 = 2 but
        # (0|>2)|>(1|>2) = 1
        table = columns_to_table([[0, 1, 2], [2, 1, 0], [1, 0, 2]])
        report = Q.verify_quandle_axioms(table)
        assert report.idempotent and report.right_invertible
        assert not report.self_distributive
        x, y, z = report.distributivity_witness
        assert table[table[x, y], z] != table[table[x, z], table[y, z]]

    def test_distributivity_witness_in_a_later_chunk(self):
        # T_160 with two entries of row 157 changed: every triple with
        # x != 157 still satisfies self-distributivity, so the first failure
        # lies in the last slab of the chunked scan
        n = 160
        table = Q.trivial_quandle(n).rhd.copy()
        table[157, 1], table[157, 4] = 2, 9
        chunk = G._ASSOC_CHUNK_CELLS // (n * n)
        assert 2 * chunk <= 157 < n             # three slabs; row 157 in the last
        report = Q.verify_quandle_axioms(table)
        assert report.idempotent and not report.self_distributive
        t = table.astype(np.int16)                  # unchunked full-cube oracle
        diff = t[t] != t[t[:, None, :], t[None, :, :]]
        first = tuple(int(v) for v in np.argwhere(diff)[0])
        assert report.distributivity_witness == first
        assert first[0] == 157

    def test_constructor_raises_with_witness_text(self):
        with pytest.raises(Q.AxiomViolation, match="idempotency"):
            Q.Quandle(np.array([[1, 0], [1, 0]]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Q.verify_quandle_axioms(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            Q.verify_quandle_axioms(np.array([[0, 5], [1, 1]]))


def _scatter(table):
    """The Cayley adjacency matrix of an operation table: m[x, x |> y]."""
    n = len(table)
    m = np.zeros((n, n), dtype=bool)
    m[np.arange(n)[:, None], table] = True
    return m


class TestStackedAdjacency:
    """alexander_adjacency, the stacked matrices sweep_alexander builds
    from the set {phi(z) z^-1} without a table: each is the scatter of its
    family constructor's table, which TestFamilyConstructorsMatchTheAxiomScan
    puts through the scan."""

    def test_alexander_adjacency_matches_constructors(self, abelian_sweep, registry_groups):
        # every automorphism of the 25 abelian types of order <= 16, Z2^4 included
        for g, autos in abelian_sweep:
            stack = Q.alexander_adjacency(g, np.stack([t.mapping for t in autos]))
            for m, t in zip(stack, autos):
                assert (m == _scatter(Q.alexander_quandle(g, t).rhd)).all(), g.label
                assert (m == _scatter(Q.generalized_alexander_quandle(g, t).rhd)).all()
        # the generalized table phi(x y^-1) y on nonabelian groups, every
        # automorphism, inner and outer
        for g in registry_groups:
            maps = G.enumerate_automorphisms(g, cap=24)
            stack = Q.alexander_adjacency(g, maps)
            assert stack.shape == (len(maps), g.order, g.order)
            assert stack.dtype == bool
            assert stack.flags["C_CONTIGUOUS"], g.label
            for m, row in zip(stack, maps):
                phi = G.Automorphism._of_checked(g, row)
                assert (m == _scatter(Q.generalized_alexander_quandle(g, phi).rhd)).all(), g.label


def _cube_witnesses(stack):
    """Unchunked int16 full-cube oracle over a (k, n, n) stack of tables:
    per table the first failing (x, y, z), or None."""
    t = np.asarray(stack).astype(np.int16)
    k, n = t.shape[:2]
    b = np.arange(k)[:, None, None, None]
    lhs = t[b, t[:, :, :, None], np.arange(n)]           # (x|>y) |> z
    rhs = t[b, t[:, :, None, :], t[:, None, :, :]]       # (x|>z) |> (y|>z)
    diff = (lhs != rhs).reshape(k, -1)
    first = np.unravel_index(diff.argmax(axis=1), (n, n, n))
    return [tuple(int(v[i]) for v in first) if diff[i].any() else None
            for i in range(k)]


def _closure(table, gens, rep=None):
    """Naive |>-closure: add every product of members, and with rep every
    element whose class (rep[y], its least member) meets the members,
    until none is new."""
    members = set(int(g) for g in gens)
    while True:
        new = {int(table[a, b]) for a in members for b in members}
        if rep is not None:
            hit = {int(rep[y]) for y in members | new}
            new |= {y for y in range(len(table)) if int(rep[y]) in hit}
        new -= members
        if not new:
            return members
        members |= new


def _alexander(orders, matrix):
    g = G.make_abelian(orders)
    return Q.alexander_quandle(g, G.matrix_automorphism(g, matrix)).rhd


def _least_equal_columns(table):
    """rep[y]: the least y' whose column equals column y, by brute force."""
    cols = [tuple(c) for c in np.asarray(table).T.tolist()]
    return np.array([cols.index(c) for c in cols])


def _generators_pass(table):
    """Whether every generator's right translation is a homomorphism."""
    cols = np.ascontiguousarray(table.T)
    return not Q._translation_mismatch(cols, Q._generating_set(table), np.arange(len(table))).any()


def _relabelled(table, seed):
    perm = np.random.default_rng(seed).permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _bfs_orbit(table, x):
    """The forward orbit of x by a plain breadth-first search over rows."""
    seen, queue = {x}, [x]
    for u in queue:
        for v in table[u].tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return tuple(sorted(seen))


def _twist_by_r(m):
    """D_m twisted by conjugation with r: its orbits are the cycles of
    i -> i + 2, not complete graphs."""
    g = G.make_dihedral(m)
    return Q.generalized_alexander_quandle(g, G.inner_automorphism(g, g.index_of("r")))


def _column_permutation_tables(n, fix_diagonal):
    perms = [[p for p in itertools.permutations(range(n)) if not fix_diagonal or p[y] == y]
             for y in range(n)]
    return [np.array(cols).T for cols in itertools.product(*perms)]


class TestReducedDistributivityScan:
    """_reduced_scan against the full scan.  The helpers are called
    directly, so every table is checked both ways."""

    @staticmethod
    def _agree(tables, reference=None):
        """Reduced and full scans give the same witness, and the check on
        the generating set alone gives the full scan's verdict.  The
        reference is the library's full scan unless given."""
        if reference is None:
            reference = [Q._full_scan(t) for t in tables]
        for t, full in zip(tables, reference):
            assert Q._reduced_scan(t) == full
            assert _generators_pass(t) == (full is None)
        return [full is None for full in reference]

    def test_every_column_permutation_table_of_order_3(self):
        tables = _column_permutation_tables(3, fix_diagonal=False)
        assert len(tables) == 216
        verdicts = self._agree(tables)
        assert 0 < sum(verdicts) < len(tables)

    def test_every_idempotent_right_invertible_table_of_order_4(self):
        tables = _column_permutation_tables(4, fix_diagonal=True)
        assert len(tables) == 1296
        assert sum(self._agree(tables)) == 36      # the labelled quandles of order 4

    def test_seeded_sample_of_orders_4_and_5(self):
        rng = np.random.default_rng(20260)
        passed = 0
        for n in (4, 5):
            stack = np.argsort(rng.random((10_000, n, n)), axis=1)  # columns bijective
            for t in stack[::2]:                                    # half idempotent
                for y in range(n):
                    x = int(np.nonzero(t[:, y] == y)[0][0])
                    t[[x, y], y] = t[[y, x], y]
            passed += sum(self._agree(stack, _cube_witnesses(stack)))
        assert 0 < passed < 20_000

    def test_generating_set_is_greedy_and_generates(self):
        tables = (_column_permutation_tables(3, fix_diagonal=False)
                  + _column_permutation_tables(4, fix_diagonal=True)
                  + [_relabelled(Q.core_quandle(G.make_dihedral(24)).rhd, 1),
                     Q.trivial_quandle(6).rhd])
        for t in tables:
            gens = Q._generating_set(t).tolist()
            assert _closure(t, gens) == set(range(len(t)))
            for i, g in enumerate(gens):
                outside = set(range(len(t))) - _closure(t, gens[:i])
                assert g == min(outside)
            assert Q._generating_set(t, limit=1).tolist() == gens[:2]

    def test_generating_set_without_classes_is_unchanged(self):
        # pinned outputs: the lexicographic order of the automorphism
        # enumeration rests on the group case
        z13 = G.make_abelian([13, 13])
        tables = {
            "S4": (G.make_symmetric(4).mul, [0, 1, 2, 6]),
            "Core(D96)": (_relabelled(Q.core_quandle(G.make_dihedral(96)).rhd, 0),
                          [0, 1, 3, 4]),
            "Alex(Z13^2)": (_relabelled(Q.alexander_quandle(
                z13, G.matrix_automorphism(z13, [[1, 0], [3, 1]])).rhd, 1),
                [0, 1, 2, 3, 4, 5, 7, 8, 10, 14, 16, 19, 33]),
            "R150": (_relabelled(Q.dihedral_quandle(150).rhd, 2), [0, 1, 2, 3]),
            "Conj(S5)": (Q.conjugation_quandle(G.make_symmetric(5)).rhd,
                         [0, 1, 2, 3, 6, 7, 9, 24, 27, 33]),
        }
        for label, (t, want) in tables.items():
            gens = Q._generating_set(t)
            assert gens.dtype == np.intp and gens.tolist() == want, label
            assert Q._generating_set(t, limit=3).tolist() == want[:4], label
            assert (Q._generating_set(t, classes=None) == gens).all(), label

    def test_generating_set_with_classes_is_greedy_and_generates(self):
        tables = (_column_permutation_tables(3, fix_diagonal=False)
                  + _column_permutation_tables(4, fix_diagonal=True)
                  + [_relabelled(Q.core_quandle(G.make_dihedral(12)).rhd, 1),
                     _relabelled(Q.dihedral_quandle(20).rhd, 2),
                     Q.trivial_quandle(6).rhd])
        for t in tables:
            cols, rep = Q._columns(t)
            assert (_least_equal_columns(t) == rep).all()
            assert (cols == t.T).all() and cols.flags["C_CONTIGUOUS"]
            gens = Q._generating_set(t, classes=rep).tolist()
            assert _closure(t, gens, rep) == set(range(len(t)))
            for i, g in enumerate(gens):
                outside = set(range(len(t))) - _closure(t, gens[:i], rep)
                assert g == min(outside)
            assert Q._generating_set(t, limit=1, classes=rep).tolist() == gens[:2]
            # taking in classes never needs more generators
            assert len(gens) <= Q._generating_set(t).size

    def test_column_classes_count_the_index_of_fix(self):
        # R_y = R_y' exactly when (1 - t)(y - y') = 0: [G : Fix(t)] classes
        for m, matrix, classes in ((16, [[1, 2], [0, 1]], 8), (19, [[1, 0], [1, 1]], 19)):
            g = G.make_abelian([m, m])
            t = G.matrix_automorphism(g, matrix)
            table = _relabelled(Q.alexander_quandle(g, t).rhd, m)
            _, rep = Q._columns(table)
            assert len(set(rep.tolist())) == classes
            assert classes == g.order // len(G.fixed_point_subgroup(g, t).members)
            assert Q._generating_set(table, classes=rep).size == classes
            assert Q._generating_set(table).size >= classes
        # Core(D_m), m even: R_y = R_{y c} for the central involution c
        _, rep = Q._columns(Q.core_quandle(G.make_dihedral(48)).rhd)
        assert len(set(rep.tolist())) == 48

    def test_a_generator_that_splits_a_class(self, monkeypatch):
        # R_z sends two equal columns' elements to unequal columns: no
        # quandle does that, so the full scan runs before any pair is checked
        table = _relabelled(Q.dihedral_quandle(40).rhd, 6)
        n = len(table)
        _, rep = Q._columns(table)
        z = int(Q._generating_set(table, classes=rep)[0])
        y = next(y for y in range(n) if y != z and rep[y] != y)     # y ~ rep[y]
        r = next(r for r in range(n) if r not in (z, y, rep[y])
                 and rep[table[r, z]] != rep[table[y, z]])
        bad = table.copy()
        bad[[y, r], z] = bad[[r, y], z]         # idempotent, right-invertible
        _, rep = Q._columns(bad)
        assert rep[y] == rep[rep[y]] and rep[bad[y, z]] != rep[bad[rep[y], z]]
        assert 2 * Q._generating_set(bad, classes=rep).size <= n
        pairs = []
        kernel = Q._translation_mismatch
        monkeypatch.setattr(Q, "_translation_mismatch",
                            lambda cols, zs, ys: pairs.append(len(zs)) or kernel(cols, zs, ys))
        want = _cube_witnesses(bad[None])[0]
        assert Q.verify_quandle_axioms(bad) == Q.AxiomReport(
            True, True, False, distributivity_witness=want)
        assert pairs == []

    @pytest.fixture(scope="class")
    def large_quandles(self):
        z13 = G.make_abelian([13, 13])
        return {
            "Core(D96)": Q.core_quandle(G.make_dihedral(96)).rhd,
            "Alex(Z13^2)": Q.alexander_quandle(
                z13, G.matrix_automorphism(z13, [[1, 0], [3, 1]])).rhd,
            "R150": Q.dihedral_quandle(150).rhd,
        }

    def test_large_quandles_pass_on_their_generators(self, large_quandles, monkeypatch):
        def no_full_scan(rhd):
            raise AssertionError("the full scan ran")

        monkeypatch.setattr(Q, "_full_scan", no_full_scan)
        for seed, table in enumerate(large_quandles.values()):
            t = _relabelled(table, seed)
            assert 2 * Q._generating_set(t).size <= len(t)
            assert Q.verify_quandle_axioms(t) == Q.AxiomReport(True, True, True)

    @pytest.mark.parametrize("generator", [True, False])
    def test_planted_faults_match_the_full_cube(self, large_quandles, generator):
        table = _relabelled(large_quandles["Core(D96)"], 7)
        n = len(table)
        gens = Q._generating_set(table).tolist()
        z = gens[1] if generator else min(set(range(n)) - set(gens))
        rng = np.random.default_rng(z)
        for _ in range(2):
            # swap two off-diagonal entries of column z: still idempotent
            # and right-invertible, but R_z is no longer a homomorphism
            r1, r2 = rng.choice(np.delete(np.arange(n), z), size=2, replace=False)
            bad = table.copy()
            bad[[r1, r2], z] = bad[[r2, r1], z]
            want = _cube_witnesses(bad[None])[0]
            assert want is not None
            assert not _generators_pass(bad)
            assert Q.verify_quandle_axioms(bad) == Q.AxiomReport(
                True, True, False, distributivity_witness=want)

    def test_trivial_quandle_is_proved_on_one_generator(self, monkeypatch):
        table = Q.trivial_quandle(200).rhd
        calls = []
        full_scan = Q._full_scan
        monkeypatch.setattr(Q, "_full_scan", lambda rhd: calls.append(len(rhd)) or full_scan(rhd))
        assert Q._generating_set(table).size == 200
        _, rep = Q._columns(table)
        assert (rep == 0).all()                 # every column is the identity
        assert Q._generating_set(table, classes=rep).tolist() == [0]
        assert Q.verify_quandle_axioms(table).ok
        assert calls == []
        # columns 3 and 5 swap two rows each: R_5 no longer respects |> 3
        bad = table.copy()
        bad[[5, 9], 3] = bad[[9, 5], 3]
        bad[[3, 7], 5] = bad[[7, 3], 5]
        want = _cube_witnesses(bad[None])[0]
        assert want is not None
        assert Q.verify_quandle_axioms(bad) == Q.AxiomReport(
            True, True, False, distributivity_witness=want)
        assert calls == [200]

    @pytest.mark.parametrize("build", [
        lambda: Q.core_quandle(G.make_dihedral(12)).rhd,
        lambda: Q.dihedral_quandle(40).rhd,
        lambda: _alexander([5, 5], [[2, 0], [0, 1]]),      # Z5^2 / Fix(t) is Alex(Z5, 2)
    ])
    def test_a_fault_in_a_class_without_a_generator(self, build):
        # every column of one class changes the same way, so the classes
        # stay as they were and the proof reads only one of them
        table = _relabelled(build(), 5)
        n = len(table)
        _, rep = Q._columns(table)
        gens = set(Q._generating_set(table, classes=rep).tolist())
        planted = 0
        for c in sorted(set(rep.tolist())):
            members = np.flatnonzero(rep == c)
            if members.size < 2 or gens & set(members.tolist()):
                continue
            rows = np.delete(np.arange(n), members)[[0, -1]]
            bad = table.copy()
            bad[np.ix_(rows, members)] = bad[np.ix_(rows[::-1], members)]
            assert (Q._columns(bad)[1] == rep).all()
            want = _cube_witnesses(bad[None])[0]
            if want is None:
                continue
            assert Q.verify_quandle_axioms(bad) == Q.AxiomReport(
                True, True, False, distributivity_witness=want)
            planted += 1
        assert planted > 0

    def test_every_right_invertible_table_takes_the_reduced_scan(self, monkeypatch):
        # no order threshold: 125^3 cells fit in one slab of the full scan,
        # 126^3 do not, and R3 is tiny
        seen, full = [], []
        reduced_scan, full_scan = Q._reduced_scan, Q._full_scan
        monkeypatch.setattr(Q, "_reduced_scan",
                            lambda rhd, *a: seen.append(len(rhd)) or reduced_scan(rhd, *a))
        monkeypatch.setattr(Q, "_full_scan", lambda rhd: full.append(len(rhd)) or full_scan(rhd))
        tables = [Q.dihedral_quandle(n).rhd for n in (3, 125, 126)]
        for table in tables:
            assert Q.verify_quandle_axioms(table).ok
        assert seen == [3, 125, 126]
        assert full == [3]          # R3's generators {0, 1} are more than half of it
        # a table with a repeated column entry takes the full scan only
        table = tables[2].copy()
        table[0, 5] = table[1, 5]
        assert not Q.verify_quandle_axioms(table).right_invertible
        assert seen == [3, 125, 126]
        assert full == [3, 126]

    @pytest.fixture(scope="class")
    def orders_120_121(self):
        """Quandles just below 126, the order at which the generator proof
        used to start."""
        z11 = G.make_abelian([11, 11])
        return {
            "Conj(S5)": Q.conjugation_quandle(G.make_symmetric(5)).rhd,
            "Core(D60)": Q.core_quandle(G.make_dihedral(60)).rhd,
            "Alex(Z11^2)": Q.alexander_quandle(
                z11, G.matrix_automorphism(z11, [[1, 1], [0, 1]])).rhd,
        }

    def test_orders_120_121_match_the_full_scan(self, orders_120_121):
        for label, table in orders_120_121.items():
            n = len(table)
            gens = Q._generating_set(table)
            assert 2 * gens.size <= n, label        # the proof settles them
            z = int(min(set(range(n)) - set(gens.tolist())))
            r1, r2 = np.random.default_rng(n + z).choice(
                np.delete(np.arange(n), z), size=2, replace=False)
            bad = table.copy()
            bad[[r1, r2], z] = bad[[r2, r1], z]     # a column swap keeps both other axioms
            for t in (table, bad):
                want = Q._full_scan(t)
                assert Q.verify_quandle_axioms(t) == Q.AxiomReport(
                    True, True, want is None, distributivity_witness=want), label
                assert (want is None) == (t is table), label
                # the kernel on int32 columns, as _reduced_scan passes them, and on the table's dtype
                for cols in (np.ascontiguousarray(t.T, dtype=np.int32), np.ascontiguousarray(t.T)):
                    for col in range(n):
                        perm = t[:, col]
                        fancy = perm[t] != t[perm[:, None], perm[None, :]]
                        got = Q._translation_mismatch(cols, np.array([col]), np.arange(n))
                        assert (got[0].T == fancy).all(), (label, col, cols.dtype)


class TestConstructions:
    def test_trivial(self):
        q = Q.trivial_quandle(4)
        assert (q.rhd == np.arange(4)[:, None]).all()

    def test_dihedral_table(self):
        q = Q.dihedral_quandle(4)
        expected = np.array([
            [0, 2, 0, 2],
            [3, 1, 3, 1],
            [2, 0, 2, 0],
            [1, 3, 1, 3],
        ])
        assert (q.rhd == expected).all()
        assert q.provenance == {"family": "dihedral", "n": 4}

    def test_conjugation_of_abelian_is_trivial(self):
        g = G.make_cyclic(5)
        assert (Q.conjugation_quandle(g).rhd == Q.trivial_quandle(5).rhd).all()

    def test_conjugation_s3(self):
        g = G.make_symmetric(3)
        q = Q.conjugation_quandle(g)
        # (123) |> (12) = (12)^-1 (123) (12) = (132)
        x = g.index_of("(123)")
        y = g.index_of("(12)")
        assert g.name(q.rhd[x, y]) == "(132)"
        assert not Q.is_involutory(q)

    def test_core_of_cyclic_is_dihedral(self):
        for n in (3, 5, 8):
            g = G.make_cyclic(n)
            assert (Q.core_quandle(g).rhd == Q.dihedral_quandle(n).rhd).all()

    def test_core_always_involutory(self):
        assert Q.is_involutory(Q.core_quandle(G.make_symmetric(3)))
        assert Q.is_involutory(Q.core_quandle(G.make_dihedral(4)))

    def test_alexander_negation_is_dihedral(self):
        g = G.make_cyclic(8)
        q = Q.alexander_quandle(g, G.negation_automorphism(g))
        assert (q.rhd == Q.dihedral_quandle(8).rhd).all()

    def test_alexander_requires_abelian(self):
        g = G.make_symmetric(3)
        with pytest.raises(ValueError, match="abelian"):
            Q.alexander_quandle(g, G.identity_automorphism(g))

    def test_generalized_with_identity_is_trivial(self):
        g = G.make_dihedral(3)
        q = Q.generalized_alexander_quandle(g, G.identity_automorphism(g))
        assert (q.rhd == Q.trivial_quandle(6).rhd).all()

    def test_generalized_agrees_with_alexander_on_abelian(self):
        g = G.make_abelian([4, 4])
        t = G.matrix_automorphism(g, [[0, 1], [3, 2]])
        assert (Q.generalized_alexander_quandle(g, t).rhd
                == Q.alexander_quandle(g, t).rhd).all()

    def test_all_constructors_satisfy_axioms(self):
        """The constructors skip the scan; it passes on what they build."""
        g = G.make_dihedral(6)
        s4 = G.make_symmetric(4)
        quandles = [
            Q.trivial_quandle(7),
            Q.dihedral_quandle(9),
            Q.conjugation_quandle(s4),
            Q.core_quandle(g),
            Q.generalized_alexander_quandle(g, G.inner_automorphism(g, g.index_of("r"))),
        ]
        for q in quandles:
            assert Q.verify_quandle_axioms(q.rhd).ok

    def test_involutory_alexander_iff_t_squared_identity(self):
        g = G.make_abelian([4, 4])
        t_a = G.matrix_automorphism(g, [[0, 1], [3, 2]])
        t_b = G.matrix_automorphism(g, [[1, 2], [2, 1]])
        assert not t_a.compose(t_a).is_identity()
        assert t_b.compose(t_b).is_identity()
        assert not Q.is_involutory(Q.alexander_quandle(g, t_a))
        assert Q.is_involutory(Q.alexander_quandle(g, t_b))


class TestFamilyConstructorsMatchTheAxiomScan:
    """The six family constructors skip the axiom scan that Quandle(...)
    runs; the scan accepts every table they build."""

    def test_constructors_skip_the_scan(self, monkeypatch):
        def refuse(table):
            raise AssertionError("a derived table was scanned")

        monkeypatch.setattr(Q, "verify_quandle_axioms", refuse)
        g = G.make_cyclic(4)
        Q.trivial_quandle(3)
        Q.dihedral_quandle(5)
        Q.conjugation_quandle(g)
        Q.core_quandle(g)
        Q.alexander_quandle(g, G.negation_automorphism(g))
        Q.generalized_alexander_quandle(g, G.identity_automorphism(g))
        with pytest.raises(AssertionError, match="scanned"):
            Q.Quandle(Q.dihedral_quandle(5).rhd)

    def test_sized_families(self):
        for n in range(1, 51):
            assert Q.verify_quandle_axioms(Q.trivial_quandle(n).rhd).ok, n
            assert Q.verify_quandle_axioms(Q.dihedral_quandle(n).rhd).ok, n

    def test_conjugation_and_core(self, built_groups):
        for g in built_groups:
            for q in (Q.conjugation_quandle(g), Q.core_quandle(g)):
                assert Q.verify_quandle_axioms(q.rhd).ok, q.label

    def test_every_automorphism_up_to_order_16(self, built_groups, abelian_sweep,
                                               registry_groups):
        # the abelian types include Z1-Z16 and every abelian group built;
        # S4 and the registry's D2 complete the groups a default sweep covers
        wrap = lambda g, cap=16: [G.Automorphism._of_checked(g, row)
                                  for row in G.enumerate_automorphisms(g, cap=cap)]
        cases = list(abelian_sweep) + [(g, wrap(g)) for g in built_groups
                                       if g.order <= 16 and not g.is_abelian()]
        cases += [(g, wrap(g, 24)) for g in registry_groups if g.label in ("S4", "D2")]
        assert len(cases) == 25 + 7 + 2       # and D3-D8, S3, then S4, D2
        for g, autos in cases:
            for t in autos:
                q = Q.generalized_alexander_quandle(g, t)
                if g.is_abelian():
                    # the same table, so one scan covers both constructors
                    assert (Q.alexander_quandle(g, t).rhd == q.rhd).all()
                assert Q.verify_quandle_axioms(q.rhd).ok, (g.label, t.key())

    def test_inner_twists_of_dihedral_groups(self):
        for m in range(2, 51):
            g = G.make_dihedral(m)
            q = Q.generalized_alexander_quandle(g, G.inner_automorphism(g, g.index_of("r")))
            assert Q.verify_quandle_axioms(q.rhd).ok, m


class TestTranslationsAndInnerGroup:
    def test_inner_group_orders(self):
        assert Q.inner_group(Q.dihedral_quandle(3)).order == 6
        assert Q.inner_group(Q.dihedral_quandle(4)).order == 4
        assert Q.inner_group(Q.trivial_quandle(5)).order == 1

    def test_inner_group_orbits_match_forward_orbits(self):
        for q in (Q.dihedral_quandle(4), Q.dihedral_quandle(7),
                  Q.conjugation_quandle(G.make_symmetric(3))):
            inner = Q.inner_group(q)
            for x in range(q.order):
                assert tuple(sorted(inner.orbit(x))) == Q.forward_orbit(q, x)

    def test_inner_group_cap(self):
        with pytest.raises(ValueError):
            Q.inner_group(Q.trivial_quandle(65))

    def test_inner_group_closure_cap(self):
        assert Q.inner_group(Q.dihedral_quandle(5), closure_cap=10).order == 10
        with pytest.raises(ValueError, match="safety cap"):
            Q.inner_group(Q.dihedral_quandle(5), closure_cap=9)

    def test_forward_orbit_matches_breadth_first(self, registry_groups):
        quandles = [Q.trivial_quandle(n) for n in range(1, 9)]
        quandles += [Q.dihedral_quandle(n) for n in range(2, 21)]
        quandles += [f(g) for g in registry_groups
                     for f in (Q.conjugation_quandle, Q.core_quandle)]
        quandles += [_twist_by_r(m) for m in range(2, 21)]
        quandles += [Q.Quandle(_relabelled(q.rhd, seed)) for seed, q in enumerate(quandles)]
        for q in quandles:
            for x in range(q.order):
                assert Q.forward_orbit(q, x) == _bfs_orbit(q.rhd, x), (q.label, x)

    def test_orbit_label_rounds_stay_logarithmic(self, registry_groups, monkeypatch):
        # D_m twisted by r, numbered along its cycles i -> i + 2: lowering
        # each label to the least in its row alone takes about m/2 rounds
        tables = [_twist_by_r(m).rhd for m in (6, 24, 48, 96, 192)]
        tables += [f(g).rhd for g in registry_groups
                   for f in (Q.conjugation_quandle, Q.core_quandle)]
        tables += [Q.dihedral_quandle(128).rhd, Q.trivial_quandle(200).rhd]
        tables += [_relabelled(t, seed) for seed, t in enumerate(tables)]
        rounds, hook = [], Q._hook
        monkeypatch.setattr(Q, "_hook", lambda lab, rhd: rounds.append(lab) or hook(lab, rhd))
        for t in tables:
            rounds.clear()
            labels = Q._orbit_labels(t)
            largest = int(np.bincount(labels).max())
            assert len(rounds) <= 2 * math.ceil(math.log2(largest)) + 1, (len(t), len(rounds))
            for least in np.unique(labels).tolist():
                assert tuple(np.flatnonzero(labels == least).tolist()) == _bfs_orbit(t, least)

    def test_forward_orbit_dihedral(self):
        q = Q.dihedral_quandle(6)
        assert Q.forward_orbit(q, 0) == (0, 2, 4)
        assert Q.forward_orbit(q, 1) == (1, 3, 5)
        with pytest.raises(ValueError):
            Q.forward_orbit(q, 6)


class TestSerialization:
    def test_round_trip(self):
        g = G.make_symmetric(3)
        q = Q.conjugation_quandle(g)
        obj = Q.quandle_to_json(q)
        back = Q.quandle_from_json(obj)
        assert (back.rhd == q.rhd).all()
        assert back.element_names == q.element_names
        assert back.provenance == q.provenance

    def test_json_shape(self):
        obj = Q.quandle_to_json(Q.dihedral_quandle(3))
        assert obj["order"] == 3
        assert obj["rhd"] == [0, 2, 1, 2, 1, 0, 1, 0, 2]

    def test_rejects_names_equal_as_strings(self):
        # stored as ['1', '1']
        with pytest.raises(ValueError, match="distinct"):
            Q.Quandle(Q.trivial_quandle(2).rhd, element_names=[1, "1"])

    def test_rejects_tampered_table(self):
        obj = Q.quandle_to_json(Q.dihedral_quandle(3))
        obj["rhd"][0] = 1
        with pytest.raises(Q.AxiomViolation):
            Q.quandle_from_json(obj)

    @pytest.mark.parametrize("rhd", [[0.9, 0.2, 1.7, 1.0], [0, 1.0, 0, 1],
                                     [0, True, 0, 1], [False, 0, 1, 1]])
    def test_rejects_non_integer_entries(self, rhd):
        # the first truncates to the trivial quandle of order 2, the others
        # read as quandles too
        with pytest.raises(ValueError, match="integers"):
            Q.quandle_from_json({"order": 2, "names": ["a", "b"], "rhd": rhd})

    @pytest.mark.parametrize("order", [2.0, True, 0, "2"])
    def test_rejects_a_non_integer_order(self, order):
        with pytest.raises(ValueError):
            Q.quandle_from_json({"order": order, "names": ["a", "b"], "rhd": [0, 0, 1, 1]})

    def test_rejects_malformed_object(self):
        with pytest.raises(ValueError):
            Q.quandle_from_json({"order": 2})
