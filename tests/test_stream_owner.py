"""``koszul.cli.main`` is the one owner of the process's exit and of its standard streams."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "koszul"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
OWNED = {"print", "sys.exit", "os.dup2", "sys.stdout", "sys.stderr"}


def _owned_uses(path):
    """(line, name) for every use of a name in OWNED: a bare name, ``module.attr`` or ``from module import attr``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name in OWNED)


@pytest.mark.parametrize("path", OTHERS, ids=[p.name for p in OTHERS])
def test_only_cli_prints_exits_or_touches_a_stream(path):
    assert list(_owned_uses(path)) == []


def test_cli_redirects_a_failed_stream_in_main_alone():
    # one rule for an unwritable stream: main's exit flush, not one copy per writer
    cli = SRC / "cli.py"
    main = next(node for node in ast.parse(cli.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    dup2 = [line for line, name in _owned_uses(cli) if name == "os.dup2"]
    assert len(dup2) == 1 and main.lineno <= dup2[0] <= main.end_lineno, dup2
