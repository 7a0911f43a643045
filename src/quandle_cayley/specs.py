"""Text specs for groups, automorphisms, and quandles.

Grammar for groups:  atom ('x' atom)*  where atom is Zn, Dm, or Sn,
e.g. "Z4xZ4", "D6", "S4", "Z2xZ3xZ5".  Case-sensitive, no spaces.

Automorphism specs:
    inner:<element-name>     conjugation by a named element
    matrix:[[a,b],[c,d]]     2x2 matrix mod n on a ZnxZn group
    perm:[i0,i1,...]         explicit image list
    neg                      x -> -x (abelian only)

Quandle specs bundle a family with whatever parameters it needs; the
compact one-line form used by the CLI is  family:args , e.g.
"dihedral:7", "conj:S4", "gen_alexander:S4:inner:(12)".
"""
from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

from . import groups as G
from . import quandles as Q


class SpecParseError(ValueError):
    """Parse failure carrying the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        super().__init__(f"bad spec {text!r} at position {pos}: {reason}")


_ATOM_RE = re.compile(r"([ZDS])([0-9]+)")


@dataclass(frozen=True)
class GroupSpec:
    """Parsed group expression: a product of (kind, n) atoms."""

    atoms: tuple

    def canonical(self) -> str:
        return "x".join(f"{k}{n}" for k, n in self.atoms)


def parse_group_spec(text: str) -> GroupSpec:
    if not text:
        raise SpecParseError(text, 0, "empty group spec")
    atoms = []
    pos = 0
    while True:
        m = _ATOM_RE.match(text, pos)
        if not m:
            raise SpecParseError(text, pos, "expected Zn, Dm, or Sn")
        kind, num = m.group(1), int(m.group(2))
        if num < 1:
            raise SpecParseError(text, pos, "parameter must be >= 1")
        atoms.append((kind, num))
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != "x":
            raise SpecParseError(text, pos, "expected 'x' between factors")
        pos += 1
    return GroupSpec(atoms=tuple(atoms))


def build_group(spec: GroupSpec) -> G.FiniteGroup:
    """Evaluate a parsed group spec to a concrete group."""
    if all(kind == "Z" for kind, _ in spec.atoms):
        # all-cyclic products get flat tuple names
        return G.make_abelian([n for _, n in spec.atoms])
    make = {"Z": G.make_cyclic, "D": G.make_dihedral, "S": G.make_symmetric}
    return functools.reduce(G.make_direct_product, [make[kind](n) for kind, n in spec.atoms])


def group_from_string(text: str) -> G.FiniteGroup:
    return build_group(parse_group_spec(text))


def _json_argument(text: str, prefix: str, what: str):
    """The JSON value after prefix; a syntax error names its position in text."""
    try:
        return G.loads_json(text[len(prefix):], what)
    except json.JSONDecodeError as exc:
        raise SpecParseError(text, len(prefix) + exc.pos, f"{what} is not valid JSON") from None


def resolve_automorphism(g: G.FiniteGroup, text: str) -> G.Automorphism:
    """Evaluate an automorphism spec against a concrete group."""
    if not text:
        raise SpecParseError(text, 0, "empty automorphism spec")
    if text == "neg":
        return G.negation_automorphism(g)
    if text.startswith("inner:"):
        name = text[len("inner:"):]
        if not name:
            raise SpecParseError(text, len("inner:"), "missing element name")
        return G.inner_automorphism(g, g.index_of(name))
    if text.startswith("matrix:"):
        return G.matrix_automorphism(g, _json_argument(text, "matrix:", "matrix"))
    if text.startswith("perm:"):
        images = _json_argument(text, "perm:", "image list")
        if not isinstance(images, list):
            raise SpecParseError(text, len("perm:"), "image list must be a JSON array")
        return G.Automorphism(g, images)
    raise SpecParseError(text, 0, "expected inner:<name>, matrix:[[..]], perm:[..], or neg")


# the parameters each family takes, in the order of its compact form;
# make_quandle_spec refuses any other
_TAKES = {"trivial": ("n",), "conj": ("group",), "core": ("group",),
          "dihedral": ("n",), "alexander": ("group", "automorphism"),
          "gen_alexander": ("group", "automorphism"), "raw": ("raw_path",)}
_FAMILIES = tuple(_TAKES)
_FLAGS = {"n": "--n", "group": "--group", "automorphism": "--phi", "raw_path": "--raw-path"}
# what a compact string lacks when its family's parameters are not all there
_LACKS = {("n",): "an integer size", ("group",): "a group spec",
          ("group", "automorphism"): "group and automorphism specs",
          ("raw_path",): "a file path"}


@dataclass(frozen=True)
class QuandleSpec:
    family: str
    n: int | None = None
    group: GroupSpec | None = None
    automorphism: str | None = None
    raw_path: str | None = None

    def describe(self) -> str:
        return ":".join([self.family] + [
            self.group.canonical() if param == "group" else str(getattr(self, param))
            for param in _TAKES[self.family]])


def make_quandle_spec(family: str, n=None, group=None, automorphism=None,
                      raw_path=None) -> QuandleSpec:
    """Validate the family and its parameters (n >= 1) before building
    anything; a parameter the family does not take is refused."""
    if family not in _FAMILIES:
        raise SpecParseError(str(family), 0,
                             f"unknown family (expected one of {', '.join(_FAMILIES)})")
    given = {"n": n, "group": group, "automorphism": automorphism, "raw_path": raw_path}
    for param, value in given.items():
        if value is not None and param not in _TAKES[family]:
            raise SpecParseError(family, 0, f"{family} takes no {_FLAGS[param]}")
    for param in _TAKES[family]:
        value = given[param]
        if value is None or (param in ("automorphism", "raw_path") and not value):
            raise SpecParseError(family, 0, f"{family} needs {_FLAGS[param]}")
        if param == "n":
            given[param] = G.as_integer(value, f"{family} --n", lo=1)
        elif param == "group":
            given[param] = value if isinstance(value, GroupSpec) else parse_group_spec(str(value))
        else:
            given[param] = str(value)
    return QuandleSpec(family, **given)


def parse_quandle_string(text: str) -> QuandleSpec:
    """Compact form: family:param[:param], the family's parameters in order;
    the last keeps its colons (an automorphism spec, a file path)."""
    head, colon, rest = text.partition(":")
    if head not in _FAMILIES:
        raise SpecParseError(text, 0,
                             f"unknown family (expected one of {', '.join(_FAMILIES)})")
    takes = _TAKES[head]
    parts = rest.split(":", len(takes) - 1)
    if len(parts) < len(takes) or not all(parts) or ("n" in takes and not rest.isdigit()):
        # just past the colon, or at the end of a head with none
        raise SpecParseError(text, len(head) + len(colon), f"{head} needs {_LACKS[takes]}")
    return make_quandle_spec(head, **{param: int(part) if param == "n" else part
                                      for param, part in zip(takes, parts)})


def build_quandle(spec: QuandleSpec) -> Q.Quandle:
    """Evaluate a quandle spec; raw tables are loaded and re-verified."""
    if spec.family == "trivial":
        return Q.trivial_quandle(spec.n)
    if spec.family == "dihedral":
        return Q.dihedral_quandle(spec.n)
    if spec.family == "raw":
        with open(spec.raw_path) as fh:
            text = fh.read()
        return Q.quandle_from_json(Q.loads_quandle_json(text))
    g = build_group(spec.group)
    if spec.family == "conj":
        return Q.conjugation_quandle(g)
    if spec.family == "core":
        return Q.core_quandle(g)
    phi = resolve_automorphism(g, spec.automorphism)
    if spec.family == "alexander":
        return Q.alexander_quandle(g, phi)
    return Q.generalized_alexander_quandle(g, phi)
