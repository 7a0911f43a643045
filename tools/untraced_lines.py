"""List the lines of the package that the tier-1 tests never run.

    python tools/untraced_lines.py

Runs the tier-1 suite (pytest -q --continue-on-collection-errors) in this
process under a sys.settrace / threading.settrace collector that records
only frames of src/quandle_cayley.  A line counts when the compiled
module has bytecode on it (co_lines over every nested code object).  Each
such line that never ran is printed as path:line.  Exits 1 when the tests
fail or when a line outside __main__.py never ran, which `python -m
quandle_cayley` reaches only in a subprocess.  Nothing is written under
the checkout: no pytest cache and no bytecode files.  Standard library and
pytest only; the trace roughly doubles the suite's time.
"""
from __future__ import annotations

import collections
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quandle_cayley"
EXEMPT = {PACKAGE / "__main__.py"}


def code_lines(path: Path) -> set:
    """The line numbers that carry bytecode in the module at path."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def run_traced(args: list) -> tuple[int, dict]:
    """pytest.main(args) under the collector: its exit code, and the lines
    that ran, as a set per resolved file path of the package."""
    ran = collections.defaultdict(set)
    owner = {}              # a code object's file name: its path in the package, or None

    def local(frame, event, arg):
        ran[owner[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            path = Path(name).resolve()
            owner[name] = path if path.is_relative_to(PACKAGE) else None
        if owner[name] is None:
            return None
        return local(frame, event, arg)     # the call event: a def line's RESUME

    import pytest
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    code, ran = run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    missing = [(path, line) for path in sorted(PACKAGE.rglob("*.py"))
               for line in sorted(code_lines(path) - ran[path])]
    for path, line in missing:
        print(f"{path.relative_to(ROOT)}:{line}")
    outside = [m for m in missing if m[0] not in EXEMPT]
    print(f"{len(missing)} untraced lines, {len(outside)} outside __main__.py; pytest exit {code}")
    return 1 if code or outside else 0


if __name__ == "__main__":
    sys.exit(main())
