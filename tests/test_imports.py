"""Every module-level import of a test or kernel file is used in that file."""

import ast
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
SRC_FILES = sorted((Path(__file__).parents[1] / "src" / "qsuper").glob("*.py"))

# (file, name) -> why the unused import stays bound
ALLOWED_UNUSED = {
    ("basis.py", "_global_candidates"): "qbench/tracing.py rebinds it",
    ("glq.py", "solve_in_span"): "qbench/tracing.py rebinds it",
    ("actions.py", "solve_in_span"): "qbench/tracing.py rebinds it",
}


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", TEST_FILES + SRC_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = {entry.split()[0] for entry in unused_imports(path.read_text())}
    assert unused == {name for (file, name) in ALLOWED_UNUSED if file == path.name}


def test_checker_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from math import pi, tau as turn\n"
        "import qsuper.glq\n"
        "def f():\n"
        "    return pi + qsuper.glq.ONE\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 2)", "turn (line 3)"]
