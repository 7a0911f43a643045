"""Finite quandles from finite groups, their directed Cayley graphs, and
exhaustive verification of the structural facts relating the two.

The package has four layers: group tables (`groups`), quandle tables built
from them (`quandles`), the directed graph of right translations (`graphs`),
and checkers that compare computed graph structure against independently
computed algebraic predictions (`verify`).  `specs` holds the small text
grammar the command line uses to name groups, automorphisms, and quandles.
"""

from types import ModuleType as _ModuleType

from .groups import (
    AUTOMORPHISM_CAP,
    Automorphism,
    CosetPartition,
    FiniteGroup,
    Subgroup,
    abelian_group_types,
    commutator_subgroup_with,
    conjugacy_classes,
    cosets,
    enumerate_automorphisms,
    fixed_point_subgroup,
    image_id_minus_t,
    inner_automorphism,
    is_normal,
    make_abelian,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_symmetric,
    matrix_automorphism,
    negation_automorphism,
    subgroup_generated,
)
from .quandles import (
    AxiomReport,
    AxiomViolation,
    Quandle,
    alexander_quandle,
    conjugation_quandle,
    core_quandle,
    dihedral_quandle,
    forward_orbit,
    generalized_alexander_quandle,
    is_involutory,
    quandle_from_json,
    quandle_to_json,
    trivial_quandle,
    verify_quandle_axioms,
)
from .graphs import (
    ComponentDecomposition,
    DirectedGraph,
    build_cayley_graph,
    component_diameter,
    degrees,
    export_graph,
    find_isomorphism,
    graph_from_json,
    induced_subgraph,
    is_complete,
    is_edgeless,
    is_isomorphic,
    is_symmetric,
    strongly_connected_components,
    takasaki_z_edge,
    takasaki_z_window,
    weakly_connected_components,
)
from .specs import (
    GroupSpec,
    QuandleSpec,
    SpecParseError,
    build_group,
    build_quandle,
    group_from_string,
    make_quandle_spec,
    parse_group_spec,
    parse_quandle_string,
    resolve_automorphism,
)

# the suite's names load verify, the largest module, on first use, so that
# importing the package for groups, quandles and graphs does not compile it
_FROM_VERIFY = ("CHECK_IDS", "SuiteConfig", "VerificationReport", "format_reports",
                "run_suite")


def __getattr__(name):
    if name in _FROM_VERIFY:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# the public names the imports above bind, less the submodules they bind
# with them (groups, quandles, ...), and the suite's names
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_FROM_VERIFY))
