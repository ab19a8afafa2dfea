"""Every module-level import of a test or kernel file is used in that file,
every top-level definition and class method of the kernel is read
somewhere, and every kernel name that the benchmark's tracer wraps still
exists."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
SRC_FILES = sorted((ROOT / "src" / "qsuper").glob("*.py"))
# the files whose reads keep a kernel definition alive
READER_FILES = sorted(
    p for d in ("src", "tests", "qbench") for p in (ROOT / d).rglob("*.py")
)
# (file, name) -> why the definition needs no reader
ENTRY_POINTS = {("cli.py", "main"): "the pyproject.toml console script"}

# (file, name) -> why the unused import stays bound
ALLOWED_UNUSED = {
    ("basis.py", "_global_candidates"): "qbench/tracing.py rebinds it",
    ("basis.py", "bar_local"): "qbench/tracing.py rebinds it",
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


def reads(source: str) -> set:
    """Names read by an ast.Name, an ast.Attribute or an import alias,
    except a top-level definition's reads of its own name."""
    out = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name != own:
                out.add(name)
    return out


def unread_definitions(source: str, read: set) -> list:
    """Top-level functions and classes of source whose name is not in read."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [f"{node.name} (line {node.lineno})" for node in ast.parse(source).body
            if isinstance(node, defs) and node.name not in read]


def test_every_kernel_definition_is_read():
    read = set().union(*(reads(p.read_text()) for p in READER_FILES))
    unread = {
        (path.name, entry.split()[0])
        for path in SRC_FILES
        for entry in unread_definitions(path.read_text(), read)
    }
    assert unread - set(ENTRY_POINTS) == set()


def test_checker_finds_unread_definitions():
    module = (
        "import os\n"
        "def used(): return os.sep\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Lonely:\n"
        "    def make(self): return Lonely()\n"
        "def attr(): return 1\n"
        "def imported(): return 2\n"
        "def caller(): return used()\n"
    )
    other = "from mod import imported\nimport mod\nmod.attr()\ncaller = 3\n"
    read = reads(module) | reads(other)
    assert unread_definitions(module, read) == [
        "recursive (line 3)", "Lonely (line 4)", "caller (line 8)"]


def attribute_reads(source: str) -> set:
    """Attribute names read in source, and the strings that could name one
    (a getattr target such as qbench/tracing.py's), except a function's
    reads of its own name."""
    out = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = own
        if name != own:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(source), None)
    return out


def unread_methods(source: str, read: set) -> list:
    """Non-dunder methods of the top-level classes of source whose name is
    not in read."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [f"{cls.name}.{node.name} (line {node.lineno})"
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, defs) and node.name not in read
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_kernel_method_is_read():
    read = set().union(*(attribute_reads(p.read_text()) for p in READER_FILES))
    unread = [f"{path.name}: {entry}" for path in SRC_FILES
              for entry in unread_methods(path.read_text(), read)]
    assert unread == []


def test_checker_finds_unread_methods():
    module = (
        "class Thing:\n"
        "    def __add__(self, other): return self\n"
        "    def used(self): return 1\n"
        "    def named(self): return 2\n"
        "    def recursive(self, n): return self.recursive(n - 1) if n else 0\n"
        "    def lonely(self): return 3\n"
        "    @property\n"
        "    def size(self): return 4\n"
        "def used(): return 5\n"
        "def helper(thing): return thing.size\n"
    )
    other = "import mod\nmod.Thing().used()\ngetattr(mod.Thing, 'named')\nlonely = 6\n"
    read = attribute_reads(module) | attribute_reads(other)
    assert unread_methods(module, read) == [
        "Thing.recursive (line 5)", "Thing.lonely (line 6)"]


def load_tracer():
    """qbench/tracing.py loaded from its path, with nothing installed."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "qbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve():
    # the names the tracer wraps, the caches it reads and the four functions
    # it hooks without a span, read without installing anything
    tracing = load_tracer()
    missing = [(name, attr) for name, bindings in tracing.SPAN_BINDINGS.items()
               for owner, attr in bindings if not hasattr(owner, attr)]
    assert missing == []
    assert all(hasattr(fn, "cache_info") for fn in tracing.CACHES.values())
    hooked = [(tracing.glq, "_candidates"), (tracing.basis, "_global_candidates"),
              (tracing.actions, "window_indices"), (tracing.basis, "solve_bar_equation")]
    assert all(callable(getattr(owner, attr, None)) for owner, attr in hooked)


def test_benchmark_tracer_binds_to_the_kernel():
    # qbench/tracing.py wraps kernel names it looks up with getattr, so a
    # refactor that deletes or renames one breaks the benchmark's traced runs
    code = (
        "import tracing\n"
        "tracing.install_spans(tracing.Tracer())\n"
        "tracing.install_laurent_counts(tracing.Tracer())\n"
        "tracing.cache_stats()\n"
    )
    path = os.pathsep.join(str(ROOT / d) for d in ("qbench", "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
