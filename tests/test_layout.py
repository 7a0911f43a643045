"""Every module-level function and class of the package has a use: a
reference elsewhere in src/, an import in __init__.py, or a place in
bench/tracing.py's LAYERS, which wraps the per-instance checkers the tests
and the traced benchmark call.  A definition with none of the three is dead
code."""
import ast
import importlib
import re
from pathlib import Path

import pytest
from test_tracing import _load_tracing

import quandle_cayley
from quandle_cayley import groups as G
from quandle_cayley.verify import CHECK_IDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quandle_cayley"


def _used_names(node) -> set:
    """The names and attributes a syntax tree reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_module_level_definition_has_a_use():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    traced = {f"{module}.{f}" for module, funcs in _load_tracing().LAYERS.values() for f in funcs}
    # the names each top-level statement reads, so a definition's own body
    # does not count as a use of it
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    reads = [(node, _used_names(node)) for _, node in statements]
    dead = []
    for module, node in statements:
        # a dunder, such as __init__'s module __getattr__, is a hook Python calls
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        used = any(node.name in names for other, names in reads if other is not node)
        if not (used or node.name in exported or f"{module}.{node.name}" in traced):
            dead.append(f"{module}.{node.name}")
    assert dead == []


def test_only_groups_defines_input_checks():
    # the checks of outside lists, indices and names (as_list, as_integer,
    # as_integer_array, as_index_array, as_names) live once, in groups
    stray = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "groups"
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith(("as_", "_as_"))]
    assert stray == []


def test_readme_check_table_lists_the_check_ids():
    # README's table of check ids, row by row, is CHECK_IDS in order
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    table = readme.split("| id | claim checked |\n")[1].split("\n\n")[0]
    assert tuple(re.findall(r"^\| `(\w+)` \|", table, re.M)) == CHECK_IDS


def test_all_is_the_imported_names_and_the_suite_names():
    # the names the package's own imports bind, each once, beside the ones
    # its __getattr__ loads from verify, sorted
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    names = imported + list(quandle_cayley._FROM_VERIFY)
    assert len(set(names)) == len(names)
    assert quandle_cayley.__all__ == sorted(names)


@pytest.mark.parametrize("module, name", [("groups", "identity_automorphism"),
                                          ("quandles", "PermGroup"),
                                          ("quandles", "inner_group"),
                                          ("graphs", "complete_graph")])
def test_unlisted_names_stay_in_their_modules(module, name):
    # left out of the package's surface; bench/tracing.py and the tests'
    # oracles reach them through their modules
    assert name not in quandle_cayley.__all__ and not hasattr(quandle_cayley, name)
    assert callable(getattr(importlib.import_module(f"quandle_cayley.{module}"), name))


def test_symmetric_cap_is_read_when_the_group_is_built(monkeypatch):
    assert G.make_symmetric(4).order == 24
    monkeypatch.setattr(G, "SYMMETRIC_CAP", 3)
    with pytest.raises(ValueError, match=r"^symmetric group capped at n <= 3 \(got 4\)$"):
        G.make_symmetric(4)
    assert G.make_symmetric(3).order == 6


def _call_graph() -> dict:
    """Every function and method of the package, by bare name, mapped to
    the bare names it calls (f(...) and obj.f(...)).  Definitions that share
    a name share one entry, so the graph can only over-reach."""
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls.setdefault(node.name, set()).update(
                    c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                    for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, (ast.Name, ast.Attribute)))
    return calls


def test_per_instance_constructors_share_no_code_with_the_sweep():
    # the per-instance checkers build their quandles and graphs through these
    # roots, and the sweep builds whole families through the five names below;
    # a checker comparing the two is a check only while neither reaches the
    # other's code.  The oracle checkers are not roots: check_alexander_components
    # reaches twist_masks through image_id_minus_t, which the planted-fault
    # tests rely on
    calls = _call_graph()
    roots = ["alexander_quandle", "generalized_alexander_quandle", "build_cayley_graph"]
    assert all(root in calls for root in roots)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [c for c in calls[name] if c in calls]
    sweep = {"difference_sets", "alexander_adjacency", "twist_masks", "fixed_point_indices",
             "sweep_alexander"}
    assert reached & sweep == set()
