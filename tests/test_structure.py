"""Guards on how the library's modules depend on one another, read from
their source with ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "engelkit"


def private_imports(source: str, filename: str) -> list[str]:
    """Each ``from <engelkit module> import _name`` in the source, one
    line per name with a single leading underscore (dunders are public)."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and not module.startswith("engelkit"):
            continue
        found += [f"{filename}:{node.lineno} imports {alias.name} from {module}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_the_guard_names_a_private_import():
    source = ("from .flow import RHO, _tail_bound\n"
              "from engelkit.poly import _VARS\n"
              "from . import __version__\n")
    assert private_imports(source, "m.py") == [
        "m.py:1 imports _tail_bound from .flow",
        "m.py:2 imports _VARS from engelkit.poly",
    ]


def test_no_module_imports_another_modules_private_name():
    # A module's underscored names are its own: a decision two modules need
    # belongs to a public name of one of them.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = [line for path in paths
             for line in private_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []
