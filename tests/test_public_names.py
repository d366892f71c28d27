"""Every public function of ``src/koszul`` has a use in the package: a helper only the tests call
belongs in ``tests/_util.py``, not in ``src``.  And every parameter of a public function or method is
read: a parameter that restates what the other arguments already say has no place in the API."""

import ast
from pathlib import Path

import koszul

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "koszul").glob("*.py"))


def _names_used(node) -> set[str]:
    """Every bare name ``node`` reads; imports are not uses.  An attribute read such as ``x.wedge`` is not
    one either, as it may name a method of the same name: every function of the package is imported by
    name where it is used."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


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


def _public_callables():
    """(``module.name`` or ``module.Class.name``, node) of each public module-level function and each public
    method of a public class."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def unused_parameters() -> list[str]:
    """``where(parameter)`` of each parameter of a public function or method, ``self`` and ``cls`` aside,
    that its body never reads: a caller would pass a value that changes nothing."""
    unused = []
    for where, node in _public_callables():
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = set().union(*(_names_used(statement) for statement in node.body))
        unused += [f"{where}({p.arg})" for p in params if p.arg not in ("self", "cls") and p.arg not in read]
    return unused


def test_every_parameter_of_a_public_function_is_read():
    assert unused_parameters() == []
