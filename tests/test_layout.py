"""Every module-level function and class of the package has a use: a
reference elsewhere in src/, an import in __init__.py, or a place in
bench/tracing.py's LAYERS, which wraps the per-instance checkers the tests
and the traced benchmark call.  A definition with none of the three is dead
code."""
import ast
from pathlib import Path

from test_tracing import _load_tracing

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
