import itertools

import numpy as np
import pytest

from quandle_cayley import groups as G


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

    def test_rejects_non_associative_loop(self):
        with pytest.raises(ValueError, match="associat"):
            G.FiniteGroup(np.array(NONASSOC_LOOP))

    def test_rejects_table_without_identity(self):
        # subtraction mod 3 is Latin but has no two-sided identity
        sub = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(ValueError):
            G.FiniteGroup(np.array(sub))

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

    def test_matrix_needs_square_shape(self):
        with pytest.raises(ValueError):
            G.matrix_automorphism(G.make_cyclic(6), [[1, 0], [0, 1]])

    @pytest.mark.parametrize("factors,count", [
        ([2], 1), ([3], 2), ([4], 2), ([5], 4), ([6], 2), ([8], 4), ([9], 6),
        ([16], 8), ([2, 2], 6), ([2, 4], 8), ([3, 3], 48), ([2, 2, 2], 168),
    ])
    def test_automorphism_counts(self, factors, count):
        """Totients for cyclic groups, GL(k, p) orders for elementary
        abelian ones, and the standard values in between."""
        g = G.make_abelian(factors)
        autos = G.enumerate_automorphisms(g)
        assert len(autos) == count
        keys = {a.key() for a in autos}
        assert len(keys) == count

    def test_automorphism_group_closed(self):
        g = G.make_abelian([2, 4])
        autos = G.enumerate_automorphisms(g)
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


class TestSubgroupsAndClasses:
    def test_subgroup_generated(self):
        g = G.make_cyclic(6)
        assert set(G.subgroup_generated(g, [2]).members) == {0, 2, 4}
        s4 = G.make_symmetric(4)
        gens = [s4.index_of("(12)"), s4.index_of("(1234)")]
        assert G.subgroup_generated(s4, gens).order == 24

    def test_subgroup_validation(self):
        g = G.make_cyclic(6)
        with pytest.raises(ValueError):
            G.Subgroup(g, [0, 2])  # not closed: misses 4

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
