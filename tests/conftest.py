import pytest

from quandle_cayley import groups as G
from quandle_cayley import specs

REGISTRY = ("S3", "S4", "D2", "D3", "D4", "D5", "D6", "D7", "D8")


@pytest.fixture(scope="session")
def abelian_sweep():
    """Every abelian isomorphism type of order <= 16 with its full
    automorphism group, each row of the image array wrapped once.
    Computed once; the Z2^4 case dominates."""
    return [(g, [G.Automorphism._of_checked(g, row) for row in G.enumerate_automorphisms(g)])
            for g in G.abelian_group_types(16)]


@pytest.fixture(scope="session")
def registry_groups():
    return [specs.group_from_string(label) for label in REGISTRY]


@pytest.fixture(scope="session")
def built_groups():
    """The outputs of every make_* constructor the oracle tests cover:
    Z1-Z50, D1-D50, S1-S5, the 25 abelian types of order <= 16, and the
    products S3xZ4 and D4xZ3."""
    groups = [G.make_cyclic(n) for n in range(1, 51)]
    groups += [G.make_dihedral(m) for m in range(1, 51)]
    groups += [G.make_symmetric(n) for n in range(1, 6)]
    groups += G.abelian_group_types(16)
    groups += [G.make_direct_product(G.make_symmetric(3), G.make_cyclic(4)),
               G.make_direct_product(G.make_dihedral(4), G.make_cyclic(3))]
    return groups
