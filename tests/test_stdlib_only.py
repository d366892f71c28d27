"""The package runs on the standard library alone: ``dependencies = []`` stays empty."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "koszul").glob("*.py"))


def _foreign_imports(path):
    """(line, module) for every absolute import whose top-level package is not in the standard library."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_imports_only_the_standard_library(path):
    assert list(_foreign_imports(path)) == []


def test_project_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_cli_and_campaign_load_neither_dataclasses_nor_typing():
    # plain-class records keep dataclasses, and the inspect, ast, dis and tokenize it loads, out of every run
    code = "import sys, koszul.cli, koszul.campaign; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & set(out.split()) == set()
