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
        body = text[len("matrix:"):]
        try:
            rows = json.loads(body)
        except json.JSONDecodeError as exc:
            raise SpecParseError(text, len("matrix:") + exc.pos, "matrix is not valid JSON") from None
        return G.matrix_automorphism(g, rows)
    if text.startswith("perm:"):
        body = text[len("perm:"):]
        try:
            images = json.loads(body)
        except json.JSONDecodeError as exc:
            raise SpecParseError(text, len("perm:") + exc.pos, "image list is not valid JSON") from None
        if not isinstance(images, list):
            raise SpecParseError(text, len("perm:"), "image list must be a JSON array")
        return G.Automorphism(g, images)
    raise SpecParseError(text, 0, "expected inner:<name>, matrix:[[..]], perm:[..], or neg")


# the flags each family takes; make_quandle_spec refuses any other
_TAKES = {"trivial": ("--n",), "conj": ("--group",), "core": ("--group",),
          "dihedral": ("--n",), "alexander": ("--group", "--phi"),
          "gen_alexander": ("--group", "--phi"), "raw": ("--raw-path",)}
_FAMILIES = tuple(_TAKES)


@dataclass(frozen=True)
class QuandleSpec:
    family: str
    n: int | None = None
    group: GroupSpec | None = None
    automorphism: str | None = None
    raw_path: str | None = None

    def describe(self) -> str:
        if self.family in ("trivial", "dihedral"):
            return f"{self.family}:{self.n}"
        if self.family == "raw":
            return f"raw:{self.raw_path}"
        base = f"{self.family}:{self.group.canonical()}"
        if self.automorphism:
            base += f":{self.automorphism}"
        return base


def make_quandle_spec(family: str, n=None, group=None, automorphism=None,
                      raw_path=None) -> QuandleSpec:
    """Validate the family and its parameters (n >= 1) before building
    anything; a parameter the family does not take is refused."""
    if family not in _FAMILIES:
        raise SpecParseError(str(family), 0,
                             f"unknown family (expected one of {', '.join(_FAMILIES)})")
    given = {"--n": n, "--group": group, "--phi": automorphism, "--raw-path": raw_path}
    for flag, value in given.items():
        if value is not None and flag not in _TAKES[family]:
            raise SpecParseError(family, 0, f"{family} takes no {flag}")
    if family in ("trivial", "dihedral"):
        if n is None:
            raise SpecParseError(family, 0, f"{family} needs --n")
        return QuandleSpec(family=family, n=G.as_integer(n, f"{family} --n", lo=1))
    if family == "raw":
        if not raw_path:
            raise SpecParseError(family, 0, "raw needs --raw-path")
        return QuandleSpec(family=family, raw_path=str(raw_path))
    if group is None:
        raise SpecParseError(family, 0, f"{family} needs --group")
    gspec = group if isinstance(group, GroupSpec) else parse_group_spec(str(group))
    if family in ("alexander", "gen_alexander"):
        if not automorphism:
            raise SpecParseError(family, 0, f"{family} needs --phi")
        return QuandleSpec(family=family, group=gspec, automorphism=str(automorphism))
    return QuandleSpec(family=family, group=gspec)


def parse_quandle_string(text: str) -> QuandleSpec:
    """Compact form: family[:arg[:automorphism-spec]]."""
    head, sep, rest = text.partition(":")
    if head in ("trivial", "dihedral"):
        if not sep or not rest.isdigit():
            raise SpecParseError(text, len(head) + 1, f"{head} needs an integer size")
        return make_quandle_spec(head, n=int(rest))
    if head == "raw":
        if not sep or not rest:
            raise SpecParseError(text, len(head) + 1, "raw needs a file path")
        return make_quandle_spec(head, raw_path=rest)
    if head in ("conj", "core"):
        if not sep or not rest:
            raise SpecParseError(text, len(head) + 1, f"{head} needs a group spec")
        return make_quandle_spec(head, group=rest)
    if head in ("alexander", "gen_alexander"):
        gtext, sep2, auto = rest.partition(":")
        if not sep or not gtext or not sep2 or not auto:
            raise SpecParseError(text, len(head) + 1,
                                 f"{head} needs group and automorphism specs")
        return make_quandle_spec(head, group=gtext, automorphism=auto)
    raise SpecParseError(text, 0,
                         f"unknown family (expected one of {', '.join(_FAMILIES)})")


def build_quandle(spec: QuandleSpec) -> Q.Quandle:
    """Evaluate a quandle spec; raw tables are loaded and re-verified."""
    if spec.family == "trivial":
        return Q.trivial_quandle(spec.n)
    if spec.family == "dihedral":
        return Q.dihedral_quandle(spec.n)
    if spec.family == "raw":
        with open(spec.raw_path) as fh:
            return Q.quandle_from_json(json.load(fh))
    g = build_group(spec.group)
    if spec.family == "conj":
        return Q.conjugation_quandle(g)
    if spec.family == "core":
        return Q.core_quandle(g)
    phi = resolve_automorphism(g, spec.automorphism)
    if spec.family == "alexander":
        return Q.alexander_quandle(g, phi)
    return Q.generalized_alexander_quandle(g, phi)
