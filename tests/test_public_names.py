"""Every public function of ``src/koszul`` has a use in the package: a helper only the tests call
belongs in ``tests/_util.py``, not in ``src``."""

import ast
from pathlib import Path

import koszul

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "koszul").glob("*.py"))


def _names_used(node) -> set[str]:
    """Every name ``node`` reads, as a bare name or as an attribute; imports are not uses."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unused_public_functions() -> list[str]:
    """``module.name`` of each public module-level function that no other top-level statement of the package
    reads by name and ``koszul.__all__`` does not list."""
    statements = [(path.stem, node) for path in SOURCES for node in ast.parse(path.read_text(), str(path)).body]
    unused = []
    for module, node in statements:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in koszul.__all__:
            continue
        if not any(node.name in _names_used(other) for _, other in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_function_is_used_in_the_package_or_exported():
    assert unused_public_functions() == []
