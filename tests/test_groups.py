import itertools
import math

import numpy as np
import pytest

from quandle_cayley import graphs as gr
from quandle_cayley import groups as G
from quandle_cayley import quandles as Q
from quandle_cayley import specs


# a loop of order 5: two-sided identity and inverses, Latin, but
# (1*1)*2 = 2 while 1*(1*2) = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestFiniteGroup:
    def test_cyclic_basics(self):
        g = G.make_cyclic(6)
        assert g.order == 6
        assert g.identity == 0
        assert g.op(4, 5) == 3
        assert g.inverse(2) == 4
        assert g.element_order(2) == 3
        assert g.element_order(5) == 6
        assert g.is_abelian()
        assert g.name(3) == "3"
        assert g.index_of("3") == 3

    def test_rejects_names_equal_as_strings(self):
        # index_of("0") was 1 while name(0) was "0"
        with pytest.raises(ValueError, match="distinct"):
            G.FiniteGroup(G.make_cyclic(2).mul, element_names=[0, "0"])

    def test_rejects_non_associative_loop(self):
        with pytest.raises(ValueError, match="associat"):
            G.FiniteGroup(np.array(NONASSOC_LOOP))

    def test_rejects_table_without_identity(self):
        # subtraction mod 3 is Latin but has no two-sided identity
        sub = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(ValueError):
            G.FiniteGroup(np.array(sub))

    @pytest.mark.parametrize("table", [
        [[0.4, 1.6], [1.2, 0.0]],           # numpy would truncate these to Z2
        [[0, 1], [1, 0.0]],
        [[False, True], [True, False]],
        [[0, True], [1, 0]],                # numpy reads this as int64
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False, True], [True, False]]),
        [["0", "1"], ["1", "0"]],
    ])
    def test_rejects_non_integer_entries(self, table):
        with pytest.raises(ValueError, match="integers"):
            G.FiniteGroup(table)

    # [[0], [1, 1, 0]] holds 2 x 2 entries, but in ragged rows
    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0], [1, 1, 0]], [0, 1], [],
                                       [[0, 2], [2, 0]]])
    def test_rejects_ragged_empty_or_out_of_range_tables(self, table):
        with pytest.raises(ValueError):
            G.FiniteGroup(table)

    def test_takes_integer_lists_and_arrays(self):
        for table in ([[0, 1], [1, 0]], ((0, 1), (1, 0)), [np.array([0, 1]), np.array([1, 0])],
                      np.array([[0, 1], [1, 0]], dtype=np.uint8)):
            assert G.FiniteGroup(table).mul.dtype == np.int64
        g = G.make_cyclic(2)
        assert G.Automorphism(g, [np.int64(0), np.int64(1)]).is_identity()

    def test_rejects_non_latin_table(self):
        with pytest.raises(ValueError):
            G.FiniteGroup(np.array([[0, 0], [1, 1]]))

    def test_dihedral_structure(self):
        g = G.make_dihedral(4)
        assert g.order == 8
        assert not g.is_abelian()
        r, s = g.index_of("r"), g.index_of("s")
        assert g.element_order(r) == 4
        assert g.element_order(s) == 2
        assert g.inverse(r) == g.index_of("r^3")
        # s r s = r^-1
        assert g.op(g.op(s, r), s) == g.index_of("r^3")

    def test_dihedral_small_cases(self):
        assert G.make_dihedral(1).order == 2
        d2 = G.make_dihedral(2)
        assert d2.order == 4
        assert d2.is_abelian()

    def test_symmetric_composition_convention(self):
        """Products apply the right factor first: (12)(13) maps 1 to 3."""
        g = G.make_symmetric(3)
        assert g.order == 6
        assert g.name(g.identity) == "id"
        prod = g.op(g.index_of("(12)"), g.index_of("(13)"))
        assert g.name(prod) == "(132)"

    def test_symmetric_table_matches_a_loop(self):
        # the oracle composes each pair of permutation tuples in turn
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            index = {p: i for i, p in enumerate(perms)}
            want = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
            g = G.make_symmetric(n)
            assert g.mul.dtype == np.int64 and g.mul.tolist() == want, n

    def test_symmetric_cap(self):
        with pytest.raises(ValueError):
            G.make_symmetric(7)

    def test_direct_product(self):
        g = G.make_direct_product(G.make_cyclic(2), G.make_cyclic(3))
        assert g.order == 6
        assert g.is_abelian()
        x = g.index_of("(1,1)")
        assert g.element_order(x) == 6

    def test_make_abelian_mixed_radix(self):
        g = G.make_abelian([2, 8])
        assert g.label == "Z2xZ8"
        assert g.order == 16
        assert g.element_order(g.index_of("(0,1)")) == 8
        assert g.element_order(g.index_of("(1,0)")) == 2

    def test_make_abelian_checks_every_factor_before_any_product(self, monkeypatch):
        # a bad last factor once raised only after the 90,000-order Z300xZ300
        def refuse(a, b):
            raise AssertionError("a product was built before the factors were checked")

        monkeypatch.setattr(G, "make_direct_product", refuse)
        with pytest.raises(ValueError, match="integer"):
            G.make_abelian([300, 300, 0])


class TestAutomorphisms:
    def test_identity_and_negation(self):
        g = G.make_cyclic(5)
        ident = G.identity_automorphism(g)
        assert ident.is_identity()
        neg = G.negation_automorphism(g)
        assert list(neg.mapping) == [0, 4, 3, 2, 1]
        assert neg.order() == 2
        assert neg.compose(neg).is_identity()
        assert neg.inverse().key() == neg.key()

    def test_negation_requires_abelian(self):
        with pytest.raises(ValueError):
            G.negation_automorphism(G.make_symmetric(3))

    def test_rejects_non_multiplicative_mapping(self):
        g = G.make_cyclic(3)
        with pytest.raises(ValueError):
            G.Automorphism(g, [1, 0, 2])

    def test_inner_automorphism(self):
        g = G.make_symmetric(3)
        phi = G.inner_automorphism(g, g.index_of("(12)"))
        assert g.name(phi.mapping[g.index_of("(13)")]) == "(23)"
        assert phi.order() == 2

    def test_matrix_automorphism(self):
        g = G.make_abelian([4, 4])
        t = G.matrix_automorphism(g, [[0, 1], [3, 2]])
        # (1,0) -> (0,3)
        assert t.mapping[g.index_of("(1,0)")] == g.index_of("(0,3)")
        with pytest.raises(ValueError):
            G.matrix_automorphism(g, [[2, 0], [0, 1]])  # det 2, not a unit mod 4

    def test_matrix_entries_are_reduced_before_the_array_product(self):
        # 2**62 * 2 wraps in int64, so unreduced entries once mapped (2,0)
        # and (1,0) both to (1,0); 2**70 does not fit int64 at all
        g = G.make_abelian([3, 3])
        identity = G.identity_automorphism(g)
        assert G.matrix_automorphism(g, [[2**62, 0], [0, 1]]) == identity
        assert G.matrix_automorphism(g, [[1 + 3 * 2**70, -3], [3 * 2**70, -2]]) == identity
        assert G.matrix_automorphism(g, np.array([[2**62, 0], [0, 1]])) == identity

    def test_matrix_needs_square_shape(self):
        with pytest.raises(ValueError):
            G.matrix_automorphism(G.make_cyclic(6), [[1, 0], [0, 1]])

    @pytest.mark.parametrize("label", ["Z4", "S3xS3"])
    def test_matrix_refuses_a_square_order_group_that_is_not_zn_x_zn(self, label):
        # Z4 once got x -> -x from [[1,1],[0,1]], and S3xS3 a table read
        # as Z6 x Z6's
        g = specs.group_from_string(label)
        with pytest.raises(ValueError, match=f"^{label} is not Zn x Zn"):
            G.matrix_automorphism(g, [[1, 1], [0, 1]])

    def test_matrix_on_d2_swaps_its_factors(self):
        # D2's table is Z2 x Z2's law: e, r, s, r s at (0,0), (0,1), (1,0), (1,1)
        g = G.make_dihedral(2)
        assert G.matrix_automorphism(g, [[0, 1], [1, 0]]).mapping.tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize("factors,count", [
        ([2], 1), ([3], 2), ([4], 2), ([5], 4), ([6], 2), ([8], 4), ([9], 6),
        ([16], 8), ([2, 2], 6), ([2, 4], 8), ([3, 3], 48), ([2, 2, 2], 168),
    ])
    def test_automorphism_counts(self, factors, count):
        """Totients for cyclic groups, GL(k, p) orders for elementary
        abelian ones, and the standard values in between."""
        g = G.make_abelian(factors)
        maps = G.enumerate_automorphisms(g)
        assert len(maps) == count
        assert maps.shape == (count, g.order) and maps.dtype == np.int64
        assert maps.flags["C_CONTIGUOUS"]
        keys = set(map(tuple, maps.tolist()))
        assert len(keys) == count

    def test_trivial_group(self):
        maps = G.enumerate_automorphisms(G.make_cyclic(1))
        assert maps.shape == (1, 1) and maps.dtype == np.int64

    def test_automorphism_group_closed(self):
        g = G.make_abelian([2, 4])
        autos = [G.Automorphism._of_checked(g, row) for row in G.enumerate_automorphisms(g)]
        keys = {a.key() for a in autos}
        for a in autos:
            assert a.inverse().key() in keys
            for b in autos:
                assert a.compose(b).key() in keys

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            G.enumerate_automorphisms(G.make_abelian([2, 2, 2, 2, 2]))

    def test_fixed_point_subgroup(self):
        g = G.make_symmetric(4)
        phi = G.inner_automorphism(g, g.index_of("(12)"))
        h = G.fixed_point_subgroup(g, phi)
        assert h.order == 4
        assert {g.name(x) for x in h.members} == {"id", "(12)", "(34)", "(12)(34)"}
        assert h.index() == 6

    def test_image_id_minus_t(self):
        g = G.make_cyclic(6)
        img = G.image_id_minus_t(g, G.negation_automorphism(g))
        assert set(img.members) == {0, 2, 4}
        g5 = G.make_cyclic(5)
        assert G.image_id_minus_t(g5, G.negation_automorphism(g5)).order == 5

    def test_image_requires_abelian(self):
        g = G.make_symmetric(3)
        with pytest.raises(ValueError):
            G.image_id_minus_t(g, G.identity_automorphism(g))


class TestTrustedConstructorsMatchTheFullCheck:
    """make_* and the derived automorphisms skip the validation scans; the
    public constructors, which run them, accept everything they build."""

    def test_make_functions_skip_the_scans(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a derived table was scanned")

        monkeypatch.setattr(G.FiniteGroup, "_check_latin", refuse)
        monkeypatch.setattr(G.FiniteGroup, "_check_associative", refuse)
        G.make_direct_product(G.make_dihedral(4), G.make_symmetric(3))
        G.make_abelian([2, 4])
        assert len(G.abelian_group_types(8)) == 11
        with pytest.raises(AssertionError, match="scanned"):
            G.FiniteGroup(G.make_cyclic(3).mul)

    def test_full_check_accepts_every_built_group(self, built_groups):
        assert len(built_groups) == 50 + 50 + 5 + 25 + 2
        for g in built_groups:
            checked = G.FiniteGroup(g.mul, g.label, g.element_names)
            assert checked.identity == g.identity, g.label
            assert (checked.inv == g.inv).all(), g.label

    def test_dihedral_identity_and_inverses_by_formula(self, monkeypatch):
        # make_dihedral hands _of_checked the identity 0 and the inverses
        # r^i -> r^-i, reflections self-inverse, without searching the table
        groups = [G.make_dihedral(m) for m in range(1, 65)]
        for m, g in enumerate(groups, start=1):
            assert g.identity == g._find_identity() == 0, m
            assert g.inv.dtype == np.int64 and np.array_equal(g.inv, g._find_inverses()), m

        def refuse(self):
            raise AssertionError("a group law's table was searched")

        monkeypatch.setattr(G.FiniteGroup, "_find_identity", refuse)
        monkeypatch.setattr(G.FiniteGroup, "_find_inverses", refuse)
        assert G.make_dihedral(64).order == 128
        # make_cyclic, make_direct_product and make_abelian hand theirs over
        # too; test_full_check_accepts_every_built_group compares them
        assert G.make_direct_product(G.make_dihedral(3), G.make_abelian([2, 4])).order == 48

    def test_full_check_accepts_every_derived_automorphism(self, built_groups):
        for g in built_groups:
            autos = [G.identity_automorphism(g)]
            autos += [G.inner_automorphism(g, h) for h in range(g.order)]
            if g.is_abelian():
                autos.append(G.negation_automorphism(g))
            autos += [a.compose(b) for a, b in zip(autos, autos[::-1])]
            autos += [a.inverse() for a in autos]
            for a in autos:
                assert G.Automorphism(g, a.mapping) == a, g.label
        # matrix_automorphism wraps its images unchecked: every invertible
        # matrix over Z2xZ2, Z3xZ3 and Z4xZ4 (|GL2(Zn)| = 6, 48, 96)
        counts = {}
        for g in built_groups:
            if g.label not in ("Z2xZ2", "Z3xZ3", "Z4xZ4"):
                continue
            n = math.isqrt(g.order)
            for a, b, c, d in itertools.product(range(n), repeat=4):
                if math.gcd((a * d - b * c) % n, n) == 1:
                    phi = G.matrix_automorphism(g, [[a, b], [c, d]])
                    assert G.Automorphism(g, phi.mapping) == phi, (g.label, a, b, c, d)
                    counts[g.label] = counts.get(g.label, 0) + 1
        assert counts == {"Z2xZ2": 6, "Z3xZ3": 48, "Z4xZ4": 96}


    def test_make_abelian_matches_the_mixed_radix_formula(self):
        chains = [c for m in range(1, 32) for c in G._invariant_chains(m)]
        for factors in chains + [[2, 3, 5], [4, 2], [1, 3], []]:
            n = int(np.prod(factors, dtype=np.int64))
            coords = np.empty((n, len(factors)), dtype=np.int64)
            rem = np.arange(n)
            for j in range(len(factors) - 1, -1, -1):
                coords[:, j] = rem % factors[j]
                rem //= factors[j]

            def encode(c):
                # componentwise result re-encoded in the same mixed radix
                out = np.zeros(c.shape[:-1], dtype=np.int64)
                for j, d in enumerate(factors):
                    out = out * d + c[..., j] % d
                return out

            g = G.make_abelian(factors)
            assert (g.mul == encode(coords[:, None, :] + coords[None, :, :])).all(), factors
            if len(factors) >= 2:
                names = ["(" + ",".join(str(c) for c in row) + ")" for row in coords]
            else:
                names = [str(i) for i in range(n)]
            assert g.element_names == names, factors
            assert g.label == ("x".join(f"Z{d}" for d in factors) or "Z1"), factors
            assert g.identity == 0, factors
            assert (g.inv == encode(-coords)).all(), factors

    def test_full_check_accepts_every_derived_subgroup(self, built_groups):
        for g in built_groups:
            autos = [G.identity_automorphism(g)]
            autos += [G.inner_automorphism(g, h) for h in range(g.order)]
            derived = [G.commutator_subgroup_with(g, h) for h in range(g.order)]
            if g.is_abelian():
                autos.append(G.negation_automorphism(g))
                if g.order <= 12:
                    autos += [G.Automorphism._of_checked(g, row)
                              for row in G.enumerate_automorphisms(g)]
                derived += [G.image_id_minus_t(g, a) for a in autos]
            derived += [G.fixed_point_subgroup(g, a) for a in autos]
            for s in derived:
                assert G.Subgroup(g, s.members).members == s.members, g.label

    def test_derived_subgroups_skip_the_full_check(self, monkeypatch):
        def refuse(self, parent, members):
            raise AssertionError("a derived subgroup was re-checked")

        z2z4, s3 = G.make_abelian([2, 4]), G.make_symmetric(3)
        neg = G.negation_automorphism(z2z4)
        monkeypatch.setattr(G.Subgroup, "__init__", refuse)
        assert G.fixed_point_subgroup(z2z4, neg).members == (0, 2, 4, 6)
        assert G.image_id_minus_t(z2z4, neg).members == (0, 2)
        assert G.subgroup_generated(s3, [s3.index_of("(12)")]).order == 2
        assert G.commutator_subgroup_with(s3, s3.index_of("(12)")).order == 3
        with pytest.raises(AssertionError, match="re-checked"):
            G.Subgroup(s3, [s3.identity])


class TestSubgroupsAndClasses:
    def test_subgroup_generated(self):
        g = G.make_cyclic(6)
        assert set(G.subgroup_generated(g, [2]).members) == {0, 2, 4}
        s4 = G.make_symmetric(4)
        gens = [s4.index_of("(12)"), s4.index_of("(1234)")]
        assert G.subgroup_generated(s4, gens).order == 24

    def test_member_set_is_built_once(self):
        s = G.subgroup_generated(G.make_symmetric(4), [1, 2])
        assert s.member_set() is s.member_set() == frozenset(s.members)
        assert all(x in s for x in s.members) and 23 not in s and "1" not in s

    def test_subgroup_validation(self):
        g = G.make_cyclic(6)
        with pytest.raises(ValueError):
            G.Subgroup(g, [0, 2])  # not closed: misses 4

    @pytest.mark.parametrize("order, members", [
        (6, [0, 3.7]), (6, [0, 3.0]), (2, [0, True]), (2, [np.True_, 0]), (6, [0, "3"]),
        (6, [0, 6]), (6, [-1, 0]),
    ])
    def test_subgroup_refuses_non_integer_or_out_of_range_members(self, order, members):
        # int() read [0, 3.7] as <3> = (0, 3) and [0, True] as Z2 itself
        with pytest.raises(ValueError, match=r"^subgroup member must be an integer in 0\.\."):
            G.Subgroup(G.make_cyclic(order), members)

    def test_cosets(self):
        g = G.make_cyclic(6)
        h = G.subgroup_generated(g, [3])
        part = G.cosets(g, h)
        assert part.as_sets() == {frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})}
        assert part.block_of(4) == (1, 4)

    def test_left_and_right_cosets_differ_when_not_normal(self):
        g = G.make_symmetric(3)
        h = G.subgroup_generated(g, [g.index_of("(12)")])
        assert not G.is_normal(g, h)
        left = G.cosets(g, h, side="left").as_sets()
        right = G.cosets(g, h, side="right").as_sets()
        assert left != right

    def test_normality(self):
        g = G.make_symmetric(3)
        rot = G.subgroup_generated(g, [g.index_of("(123)")])
        assert G.is_normal(g, rot)

    def test_commutator_subgroup_with(self):
        s4 = G.make_symmetric(4)
        n = G.commutator_subgroup_with(s4, s4.index_of("(12)"))
        assert n.order == 12
        assert G.is_normal(s4, n)
        d4 = G.make_dihedral(4)
        n2 = G.commutator_subgroup_with(d4, d4.index_of("r"))
        assert {d4.name(x) for x in n2.members} == {"e", "r^2"}

    def test_commutator_with_identity_is_trivial(self):
        g = G.make_symmetric(3)
        assert G.commutator_subgroup_with(g, g.identity).order == 1

    @pytest.mark.parametrize("builder,sizes", [
        (lambda: G.make_symmetric(3), [1, 2, 3]),
        (lambda: G.make_symmetric(4), [1, 3, 6, 6, 8]),
        (lambda: G.make_dihedral(4), [1, 1, 2, 2, 2]),
        (lambda: G.make_cyclic(6), [1, 1, 1, 1, 1, 1]),
    ])
    def test_conjugacy_class_sizes(self, builder, sizes):
        g = builder()
        classes = G.conjugacy_classes(g)
        assert sorted(len(c) for c in classes) == sizes
        assert sorted(x for c in classes for x in c) == list(range(g.order))

    def test_conjugacy_classes_are_closed_under_conjugation(self):
        g = G.make_dihedral(5)
        for cls in G.conjugacy_classes(g):
            members = set(cls)
            for x in cls:
                for h in range(g.order):
                    assert g.conjugate(x, h) in members


def _closure(g, gens):
    """The subgroup the element indices gens generate, as sorted members:
    right multiplication by gens from the identity until nothing is new."""
    mul = g.mul.tolist()
    seen, todo = {g.identity}, [g.identity]
    while todo:
        u = todo.pop()
        for s in gens:
            if mul[u][s] not in seen:
                seen.add(mul[u][s])
                todo.append(mul[u][s])
    return tuple(sorted(seen))


class TestTwistSubgroup:
    """twist_subgroup, N_phi = <phi(y)^-1 y>, against the two closed forms
    it replaced, and the component statement it predicts for every
    automorphism."""

    def test_abelian_case_is_the_image_of_id_minus_t(self, abelian_sweep):
        # the image {x t(x)^-1} by np.unique; Z2^4's 20,160 automorphisms
        # are represented by the first of each of its 67 difference sets
        checked = 0
        for g, autos in abelian_sweep:
            if g.label == "Z2xZ2xZ2xZ2":
                maps = np.stack([t.mapping for t in autos])
                _, first = np.unique(Q.difference_sets(g, maps), axis=0, return_index=True)
                assert len(first) == 67
                autos = [autos[i] for i in first]
            for t in autos:
                image = np.unique(g.mul[np.arange(g.order), g.inv[t.mapping]])
                assert G.twist_subgroup(g, t).members == tuple(image.tolist()), g.label
                checked += 1
        assert checked > 67

    def test_inner_case_is_the_commutator_closure(self, registry_groups):
        extra = [specs.group_from_string(s) for s in ("S3xS3", "D4xZ2", "D16")]
        for g in registry_groups + extra:
            for h in range(g.order):
                comms = {g.op(g.op(g.op(h, x), g.inverse(h)), g.inverse(x))
                         for x in range(g.order)}
                want = _closure(g, sorted(comms))
                assert G.twist_subgroup(g, G.inner_automorphism(g, h)).members == want, \
                    (g.label, h)

    def test_twist_masks_match_subgroup_generated(self, abelian_sweep, registry_groups,
                                                  monkeypatch):
        # every row of each family against the breadth-first closure of its
        # twists phi(y)^-1 y, found once per distinct twist set: every
        # automorphism of the abelian types of order <= 16, every registry
        # group's inner family and all of S4's.  4,096 cells make slabs of
        # 16 rows at order 16 and 7 at order 24, so the larger families
        # close in several slabs
        s4 = next(g for g in registry_groups if g.label == "S4")
        families = [(g, np.stack([t.mapping for t in autos])) for g, autos in abelian_sweep]
        families += [(g, g.mul[g.mul, g.inv[:, None]]) for g in registry_groups]
        families.append((s4, G.enumerate_automorphisms(s4, cap=24)))
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 4096)
        rows = 0
        for g, maps in families:
            masks = G.twist_masks(g, maps)
            assert masks.shape == maps.shape and masks.dtype == bool, g.label
            closures = {}
            for row, mask in zip(g.mul[g.inv[maps], np.arange(g.order)], masks):
                twists = tuple(np.unique(row).tolist())
                if twists not in closures:
                    closures[twists] = G.subgroup_generated(g, twists).members
                assert tuple(np.flatnonzero(mask).tolist()) == closures[twists], g.label
            rows += len(maps)
        assert rows == 20786 + 100 + 24

    def test_components_are_the_cosets_for_every_automorphism(self):
        # beyond the paper: any automorphism, neither abelian-case nor
        # inner.  N_phi is normal, and the forward orbits of the twisted
        # graph are its left cosets: x reaches y exactly when x^-1 y is in N
        labels = ("S3", "S4", "D4", "D5", "D6", "S3xZ3", "D4xZ2", "S3xS3",
                  "Z2xZ2xZ2", "Z4xZ4", "Z2xZ2xZ4")
        swept = 0
        for g in map(specs.group_from_string, labels):
            maps = G.enumerate_automorphisms(g, cap=g.order)
            orbits = gr._reachability(Q.alexander_adjacency(g, maps))
            left = g.mul[g.inv[:, None], np.arange(g.order)[None, :]]     # x^-1 y
            for row, orbit in zip(maps, orbits):
                n_phi = G.twist_subgroup(g, G.Automorphism._of_checked(g, row))
                assert G.is_normal(g, n_phi), (g.label, row)
                inside = np.zeros(g.order, dtype=bool)
                inside[list(n_phi.members)] = True
                assert (orbit == inside[left]).all(), (g.label, row)
            swept += len(maps)
        assert swept == 674

    def test_difference_set_size_is_the_fixed_point_index(self):
        # z -> phi(z) z^-1 takes one value on each left coset of Fix(phi), so
        # |D| = [G : Fix(phi)]: equal D gives equal index, while Fix(phi)
        # itself may differ
        labels = ("Z2xZ2xZ4", "Z4xZ4", "Z2xZ2xZ2xZ2", "Z3xZ3", "S4", "D6", "D8",
                  "S3xS3", "D4xZ2")
        swept = 0
        for g in map(specs.group_from_string, labels):
            maps = G.enumerate_automorphisms(g, cap=g.order)
            assert (Q.difference_sets(g, maps).sum(axis=1)
                    == G.fixed_point_indices(g, maps)).all(), g.label
            swept += len(maps)
        assert swept == 20700


# Element-by-element loops that cosets, conjugacy_classes, is_normal and the
# Subgroup constructor once used; the array kernels must agree with them
# exactly, block order and error messages included.


def _loop_cosets(g, s, side):
    mem = np.array(s.members)
    assigned = np.zeros(g.order, dtype=bool)
    blocks = []
    for x in range(g.order):
        if assigned[x]:
            continue
        blk = np.unique(g.mul[x, mem] if side == "left" else g.mul[mem, x])
        assigned[blk] = True
        blocks.append(tuple(int(v) for v in blk))
    return tuple(blocks)


def _loop_conjugacy_classes(g):
    assigned = np.zeros(g.order, dtype=bool)
    out = []
    idx = np.arange(g.order)
    for x in range(g.order):
        if assigned[x]:
            continue
        cls = np.unique(g.mul[g.mul[g.inv[idx], x], idx])
        assigned[cls] = True
        out.append(tuple(int(v) for v in cls))
    return out


def _loop_is_normal(g, s):
    mem = set(s.members)
    return all(g.conjugate(m, h) in mem for h in range(g.order) for m in mem)


def _loop_subgroup_error(g, members):
    """The message the Subgroup constructor raises for members, or None."""
    mem = sorted({int(x) for x in members})
    if not mem:
        return "subgroup cannot be empty"
    if mem[0] < 0 or mem[-1] >= g.order:
        return "subgroup members out of range"
    if g.identity not in mem:
        return "subgroup must contain the identity"
    for a in mem:
        for b in mem:
            if g.op(a, b) not in mem:
                return f"not closed: {g.name(a)} * {g.name(b)} escapes"
    if any(g.inverse(a) not in mem for a in mem):
        return "not closed under inverses"
    return None


def _distinct(subgroups):
    return list({s.members: s for s in subgroups}.values())


def _abelian_kernel_subgroups(g, autos):
    """The subgroups the suite builds on an abelian group, plus the cyclic ones."""
    subs = [G.image_id_minus_t(g, t) for t in autos]
    subs += [G.fixed_point_subgroup(g, t) for t in autos]
    subs += [G.subgroup_generated(g, [x]) for x in range(g.order)]
    subs += [G.commutator_subgroup_with(g, x) for x in range(g.order)]
    return _distinct(subs)


def _registry_kernel_subgroups(g):
    subs = [G.fixed_point_subgroup(g, G.inner_automorphism(g, h)) for h in range(g.order)]
    subs += [G.commutator_subgroup_with(g, h) for h in range(g.order)]
    subs += [G.subgroup_generated(g, pair)
             for pair in itertools.combinations_with_replacement(range(g.order), 2)]
    return _distinct(subs)


class TestPartitionKernelsMatchLoops:
    def _check(self, g, subgroups):
        for s in subgroups:
            for side in ("left", "right"):
                part = G.cosets(g, s, side=side)
                assert part.blocks == _loop_cosets(g, s, side), (g.label, s.members, side)
            assert G.is_normal(g, s) == _loop_is_normal(g, s), (g.label, s.members)
        assert G.conjugacy_classes(g) == _loop_conjugacy_classes(g), g.label

    def test_abelian_types_up_to_16(self, abelian_sweep):
        assert len(abelian_sweep) == 25
        for g, autos in abelian_sweep:
            self._check(g, _abelian_kernel_subgroups(g, autos))

    def test_registry_groups(self, registry_groups):
        normal = non_normal = 0
        for g in registry_groups:
            subs = _registry_kernel_subgroups(g)
            self._check(g, subs)
            normal += sum(G.is_normal(g, s) for s in subs)
            non_normal += sum(not G.is_normal(g, s) for s in subs)
        # both answers of is_normal, and so left != right cosets, are covered
        assert normal > 0 and non_normal > 0

    def test_non_closed_set_keeps_first_escaping_pair(self):
        # (34) * (12), (34) * (123), (12) * (123), (123) * (123), ... all
        # escape; the message names the first pair in row-major order of
        # the sorted members
        s4 = G.make_symmetric(4)
        members = [s4.index_of(x) for x in ("(123)", "(34)", "id", "(12)", "(12)")]
        with pytest.raises(ValueError, match=r"^not closed: \(34\) \* \(12\) escapes$"):
            G.Subgroup(s4, members)
        with pytest.raises(ValueError, match=r"^not closed: \(23\) \* \(12\) escapes$"):
            G.Subgroup(s4, [s4.index_of(x) for x in ("(23)", "id", "(12)")])

    @pytest.mark.parametrize("builder", [lambda: G.make_symmetric(3),
                                         lambda: G.make_dihedral(4)])
    def test_subgroup_constructor_matches_loop_on_every_subset(self, builder):
        g = builder()
        accepted = 0
        for bits in range(1 << g.order):
            members = [x for x in range(g.order) if bits >> x & 1]
            expected = _loop_subgroup_error(g, members)
            if expected is None:
                assert G.Subgroup(g, members).members == tuple(members)
                accepted += 1
            else:
                with pytest.raises(ValueError) as info:
                    G.Subgroup(g, members)
                assert str(info.value) == expected, members
        # S3 has 6 subgroups, D4 has 10
        assert accepted == {6: 6, 8: 10}[g.order]


def _loop_enumerate_automorphisms(g):
    """One candidate tuple at a time, as enumerate_automorphisms once ran."""
    gens = G._greedy_generators(g)
    if not gens:
        return [tuple(range(g.order))]
    recipe = G._bfs_recipe(g, gens)
    orders = [g.element_order(x) for x in range(g.order)]
    candidates = [[x for x in range(g.order) if orders[x] == orders[gen]] for gen in gens]
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
        if (phi[g.mul] == g.mul[phi[:, None], phi[None, :]]).all():
            found.append(tuple(int(v) for v in phi))
    return sorted(found)


def _loop_greedy_generators(g):
    """Greedy generators by breadth-first closure, as _greedy_generators
    once ran: the least element outside the subgroup generated so far."""
    gens, closed = [], {g.identity}
    for x in range(g.order):
        if x in closed:
            continue
        gens.append(x)
        layers = G.breadth_first(closed | {x}, lambda u: g.mul[u, gens].tolist())
        closed = {v for layer in layers for v in layer}
    return gens


class TestGreedyGenerators:
    def test_match_the_closure_loop(self, abelian_sweep, registry_groups):
        extra = [specs.group_from_string(s) for s in ("S5", "D12xZ2")]
        # S4 relabelled so that the identity is not 0
        s4 = G.make_symmetric(4)
        perm = np.random.default_rng(0).permutation(24)
        back = np.argsort(perm)
        moved = G.FiniteGroup(perm[s4.mul[back][:, back]], label="S4'")
        assert moved.identity != 0
        groups = [g for g, _ in abelian_sweep] + list(registry_groups) + extra + [moved]
        for g in groups:
            assert G._greedy_generators(g) == _loop_greedy_generators(g), g.label

    def test_one_generating_set_routine(self):
        assert Q._generating_set is G._generating_set


class TestBatchedAutomorphismsMatchLoop:
    def test_abelian_types_up_to_16(self, abelian_sweep):
        for g, autos in abelian_sweep:
            assert [a.key() for a in autos] == _loop_enumerate_automorphisms(g), g.label

    def test_registry_groups_up_to_16(self, registry_groups):
        small = [g for g in registry_groups if g.order <= 16]
        assert len(small) == 8                    # every registry group but S4
        for g in small:
            got = list(map(tuple, G.enumerate_automorphisms(g).tolist()))
            assert got == _loop_enumerate_automorphisms(g), g.label

    def test_nonabelian_order_24(self, registry_groups):
        # against the full n^2 homomorphism test: S4 on three greedy
        # involutions, and S3xZ4 on generators of orders 4, 2 and 2
        s4 = next(g for g in registry_groups if g.label == "S4")
        s3z4 = G.make_direct_product(G.make_symmetric(3), G.make_cyclic(4))
        assert [s4.element_order(s) for s in G._greedy_generators(s4)] == [2, 2, 2]
        assert [s3z4.element_order(s) for s in G._greedy_generators(s3z4)] == [4, 2, 2]
        for g in (s4, s3z4):
            got = list(map(tuple, G.enumerate_automorphisms(g, cap=24).tolist()))
            assert got == _loop_enumerate_automorphisms(g), g.label

    def test_small_chunks_keep_the_list(self, monkeypatch):
        # Z3xZ3 has 8 * 8 candidate tuples; 45 cells hold 5 columns of 9
        # images, so the last chunk is a partial one of 4
        g = G.make_abelian([3, 3])
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 45)
        got = list(map(tuple, G.enumerate_automorphisms(g).tolist()))
        assert len(got) == 48
        assert got == _loop_enumerate_automorphisms(g)

    def test_relabelled_groups(self):
        # the kernel test must find the identity's row wherever it is: S4
        # and Z2xZ2xZ4 relabelled so that the identity is not 0
        for base, seed, cap in ((G.make_symmetric(4), 0, 24), (G.make_abelian([2, 2, 4]), 1, 16)):
            perm = np.random.default_rng(seed).permutation(base.order)
            back = np.argsort(perm)
            moved = G.FiniteGroup(perm[base.mul[back][:, back]], label=base.label + "'")
            assert moved.identity != 0
            got = list(map(tuple, G.enumerate_automorphisms(moved, cap=cap).tolist()))
            assert got == _loop_enumerate_automorphisms(moved), moved.label
            assert len(got) == len(G.enumerate_automorphisms(base, cap=cap)), moved.label

    def test_edges_run_unless_the_generators_are_a_basis(self, monkeypatch):
        # Z2xZ4 relabelled so that index 1 is (1,1) and index 2 is (0,1):
        # the greedy generators both have order 4, 4 * 4 = 16 is not |G| = 8,
        # so the edge tests still run, and they keep its 8 automorphisms.
        # In the standard labelling the generators (0,1) and (1,0) are a
        # basis, and no edge is tested
        base = G.make_abelian([2, 4])
        perm = np.array([0, 2, 3, 4, 5, 1, 6, 7])      # old index -> new
        back = np.argsort(perm)
        moved = G.FiniteGroup(perm[base.mul[back][:, back]], label="Z2xZ4'")
        assert [base.name(int(back[x])) for x in (1, 2)] == ["(1,1)", "(0,1)"]
        real, edges = G._kept_rows, {}
        monkeypatch.setattr(G, "_kept_rows", lambda group, law, start, stop: (
            edges.setdefault(group.label, law[4]), real(group, law, start, stop))[1])
        for g, orders in ((moved, [4, 4]), (base, [4, 2])):
            assert [g.element_order(s) for s in G._greedy_generators(g)] == orders
            got = list(map(tuple, G.enumerate_automorphisms(g).tolist()))
            assert got == _loop_enumerate_automorphisms(g) and len(got) == 8, g.label
        # the d n = 16 edges less the n - 1 = 7 the recipe builds
        assert [len(xs) for xs in edges["Z2xZ4'"]] == [5, 4]
        assert edges["Z2xZ4"] == []

    def test_results_are_automorphisms(self):
        g = G.make_abelian([2, 4])
        for row in G.enumerate_automorphisms(g):
            assert G.Automorphism(g, row) == G.Automorphism._of_checked(g, row)


def _strictly_increasing(rows):
    """Every row below the first is lexicographically greater than the one
    before it."""
    before, after = rows[:-1], rows[1:]
    differ = before != after
    col = differ.argmax(axis=1)
    at = np.arange(len(before))
    return bool(differ.any(axis=1).all() and (before[at, col] < after[at, col]).all())


class TestEnumerationOrder:
    """enumerate_automorphisms returns its rows in lexicographic order
    without sorting them; its docstring proves it from the prefix property
    of the greedy generators."""

    @staticmethod
    def _groups(abelian_sweep, registry_groups):
        s3z4 = G.make_direct_product(G.make_symmetric(3), G.make_cyclic(4))
        return ([(g, 16) for g, _ in abelian_sweep] + [(g, 24) for g in registry_groups]
                + [(s3z4, 27), (G.make_abelian([3, 3, 3]), 27)])

    def test_rows_strictly_increase(self, abelian_sweep, registry_groups):
        for g, cap in self._groups(abelian_sweep, registry_groups):
            maps = G.enumerate_automorphisms(g, cap=cap)
            assert len(maps) == 1 or _strictly_increasing(maps), g.label

    def test_rows_equal_the_loop_at_order_27(self):
        # 11,232 automorphisms of Z3^3, |GL(3, 3)|
        g = G.make_abelian([3, 3, 3])
        got = list(map(tuple, G.enumerate_automorphisms(g, cap=27).tolist()))
        assert len(got) == 11232
        assert got == _loop_enumerate_automorphisms(g)

    def test_greedy_prefix_property(self, abelian_sweep, registry_groups):
        # every element below gens[j] lies in <gens[:j]>
        s4 = G.make_symmetric(4)
        perm = np.random.default_rng(0).permutation(24)
        back = np.argsort(perm)
        moved = G.FiniteGroup(perm[s4.mul[back][:, back]], label="S4'")
        groups = [g for g, _ in self._groups(abelian_sweep, registry_groups)] + [moved]
        for g in groups:
            gens = G._greedy_generators(g)
            for j, gen in enumerate(gens):
                below = G.subgroup_generated(g, gens[:j]).member_set()
                assert set(range(gen)) <= below, (g.label, j)


def _totient(m):
    return sum(1 for k in range(1, m + 1) if np.gcd(k, m) == 1)


class TestAutomorphismCount:
    """groups._abelian_automorphism_count, the closed form of Hillar and
    Rhea (Amer. Math. Monthly 114, 2007), against the enumeration it
    checks and against values written by hand."""

    def test_equals_the_enumeration_up_to_order_31(self):
        types = G.abelian_group_types(31)
        assert len(types) == 48
        for g in types:
            assert G._abelian_automorphism_count(g) == len(
                G.enumerate_automorphisms(g, cap=31)), g.label

    @pytest.mark.parametrize("factors, count", [
        ([4, 4], 96),                    # 6 matrices mod 2, each lifted 16 ways
        ([2, 2, 2, 4], 21504),
        ([2, 2, 2, 2, 2], 9999360),      # |GL(5, 2)| = 31 * 30 * 28 * 24 * 16
        ([1], 1), ([7], 6), ([3, 3], 48), ([2, 2, 2], 168), ([2, 4, 3], 16),
    ])
    def test_hand_written_values(self, factors, count):
        assert G._abelian_automorphism_count(G.make_abelian(factors)) == count

    def test_type_is_read_from_the_table(self):
        # the same group under a shuffled numbering keeps its count
        g = G.make_abelian([2, 4, 4])
        perm = np.random.default_rng(3).permutation(g.order)
        back = np.argsort(perm)
        moved = G.FiniteGroup(perm[g.mul[back][:, back]], label="moved")
        assert G._abelian_automorphism_count(moved) == G._abelian_automorphism_count(g)

    def test_refuses_a_nonabelian_group(self):
        with pytest.raises(ValueError, match="abelian"):
            G._abelian_automorphism_count(G.make_symmetric(3))

    @pytest.mark.parametrize("m", range(3, 13))
    def test_dihedral_counts(self, m):
        # |Aut(D_m)| = m phi(m): r -> r^a, s -> r^b s with a a unit mod m
        assert len(G.enumerate_automorphisms(G.make_dihedral(m), cap=24)) == m * _totient(m)

    def test_symmetric_counts(self):
        assert len(G.enumerate_automorphisms(G.make_symmetric(3))) == 6
        assert len(G.enumerate_automorphisms(G.make_symmetric(4), cap=24)) == 24


class TestAutomorphismChunks:
    """groups._automorphism_chunks, the stream enumerate_automorphisms
    concatenates."""

    @staticmethod
    def _groups():
        return ([(g, 16) for g in G.abelian_group_types(16)]
                + [(G.make_symmetric(4), 24), (G.make_dihedral(8), 16)])

    def test_small_chunks_concatenate_to_the_array(self, monkeypatch):
        whole = {g.label: G.enumerate_automorphisms(g, cap=cap) for g, cap in self._groups()}
        # 64 candidate tuples per chunk at order 16, 42 at order 24
        monkeypatch.setattr(G, "_FAMILY_CHUNK_CELLS", 1024)
        split = []
        for g, cap in self._groups():
            chunks = list(G._automorphism_chunks(g, cap=cap))
            if len(chunks) > 1:
                split.append(g.label)
            assert all(c.ndim == 2 and len(c) and c.dtype == np.int64 for c in chunks), g.label
            assert np.array_equal(np.concatenate(chunks), whole[g.label]), g.label
            assert np.array_equal(G.enumerate_automorphisms(g, cap=cap), whole[g.label]), g.label
            # a chunk keeps at most the tuples it decodes
            assert max(map(len, chunks)) <= 1024 // g.order, g.label
        assert split == ["Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z2xZ2xZ4", "Z4xZ4", "S4"]

    def test_z2_4_streams_in_four_chunks(self):
        # 15^4 = 50,625 candidate tuples at 2^18 // 16 = 16,384 per chunk
        g = G.make_abelian([2, 2, 2, 2])
        sizes = [len(c) for c in G._automorphism_chunks(g)]
        assert len(sizes) == 4 and sum(sizes) == 20160

    def test_the_cap_is_checked(self):
        with pytest.raises(ValueError, match="capped"):
            next(G._automorphism_chunks(G.make_abelian([2, 2, 2, 2, 2])))


class TestAbelianTypes:
    def test_count_up_to_16(self):
        types = G.abelian_group_types(16)
        assert len(types) == 25
        labels = [g.label for g in types]
        assert len(set(labels)) == 25
        for g in types:
            assert g.is_abelian()
            assert g.order <= 16

    def test_order_16_partition(self):
        labels = {g.label for g in G.abelian_group_types(16) if g.order == 16}
        assert labels == {"Z16", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4", "Z2xZ2xZ2xZ2"}

    def test_invariant_factor_chains_divide(self):
        for g in G.abelian_group_types(16):
            parts = [int(p[1:]) for p in g.label.split("x")]
            for a, b in zip(parts, parts[1:]):
                assert b % a == 0
