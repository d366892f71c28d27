"""Every public name of ``src/koszul`` has a use in the package: a helper only the tests call belongs in
``tests/_util.py``, not in ``src``.  A public function is read by name, a public method as an attribute,
and an exported function that no program path reads is listed below with the reason it stays.  And every
parameter of a public function or method is read: a parameter that restates what the other arguments
already say has no place in the API."""

import ast
from pathlib import Path

import koszul

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "koszul").glob("*.py"))

# exported functions that no program path reads -> why the library keeps them
LIBRARY_ONLY = {
    "alt_m": "the paper's alternating map; the program computes k alt_m as brackets._alt_sum, which the tests "
             "compare with it",
    "omega1_bracket": "the paper's bracket on 1-forms; its tests show that ker delta is central and that it is "
                      "the symplectic l_2",
    "symplectic_obstruction_witness": "the paper's 2-form witness W with obstruction = delta(W); the campaign "
                                      "checks 3 W through symplectic_witness_residual",
    "parse_polynomial": "the grammar's reader of a function, beside parse_form",
}


def _statements():
    """(module stem, top-level statement) of every source file of the package."""
    return [(path.stem, node) for path in SOURCES for node in ast.parse(path.read_text(), str(path)).body]


def _names_used(node) -> set[str]:
    """Every bare name ``node`` reads; imports are not uses.  An attribute read such as ``x.wedge`` is not
    one either, as it may name a method of the same name: every function of the package is imported by
    name where it is used."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_public_functions() -> list[str]:
    """``module.name`` of each public module-level function that no other top-level statement of the package
    reads by name."""
    statements = _statements()
    unused = []
    for module, node in statements:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        if not any(node.name in _names_used(other) for _, other in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_function_is_used_in_the_package_or_exported():
    # the list is exact: a name that gains a program caller, or stops being exported, leaves it
    assert sorted(name.rpartition(".")[2] for name in unused_public_functions()) == sorted(LIBRARY_ONLY)
    assert set(LIBRARY_ONLY) <= set(koszul.__all__)


def _attributes_read(node, outside) -> set[str]:
    """Every attribute name read in ``node``, leaving out the subtree ``outside``."""
    read, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is not outside:
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            stack.extend(ast.iter_child_nodes(n))
    return read


def unread_public_methods() -> list[str]:
    """``module.Class.name`` of each public method of a class of the package, private base classes included and
    dunders aside, that the package never reads as an attribute outside the method's own body."""
    statements = _statements()
    unread = []
    for module, node in statements:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                if not any(item.name in _attributes_read(other, item) for _, other in statements):
                    unread.append(f"{module}.{node.name}.{item.name}")
    return unread


def test_every_public_method_is_read_in_the_package():
    assert unread_public_methods() == []


def _public_callables():
    """(``module.name`` or ``module.Class.name``, node) of each public module-level function and each public
    method of a public class."""
    for module, node in _statements():
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


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
