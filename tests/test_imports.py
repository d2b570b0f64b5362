"""Every module of the package and of its tests uses each name it imports,
every private helper of the package has a reader, only the CLI writes text,
and the report text layer loads no other layer."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "adiasearch").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import *" binds nothing to check.
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom a import b as c\nos.sep\n"
    assert unused_imports(source) == ["line 2: json", "line 4: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(statement: ast.stmt) -> list[str]:
    """The module-level names a function definition or an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level _name functions and constants that no statement of the
    sources reads, other than the one that defines them."""
    private, read = [], set()
    for source in sources:
        for statement in ast.parse(source).body:
            names = [n for n in defined_names(statement) if n.startswith("_") and not n.startswith("__")]
            private += names
            read |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            } - set(names)
    return [name for name in private if name not in read]


def test_unread_private_names_are_found():
    helpers = "_TOL = 1\n_cache = None\n__all__ = []\ndef _unused(n):\n    return _unused(n - 1)\ndef _used():\n    return _TOL\n"
    reader = "import m\nfrom m import _used\nm._cache\n_used()\n"
    assert unread_private_names([helpers, reader]) == ["_unused"]


def test_every_private_helper_has_a_reader():
    assert unread_private_names([path.read_text(encoding="utf-8") for path in PACKAGE]) == []


def text_writes(source: str) -> list[str]:
    """Calls of print, and reads of sys.stdout or sys.stderr, in the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{a.name}") for a in node.names if a.name in ("stdout", "stderr")]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_text_writes_are_found():
    source = (
        "import sys\nfrom sys import argv, stderr\nprint('a')\n"
        "sys.stdout.write('b')\nout = sys.stderr\nsys.argv\nlog.print('c')\n"
    )
    assert text_writes(source) == ["line 2: sys.stderr", "line 3: print", "line 4: sys.stdout", "line 5: sys.stderr"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_the_cli_writes_text(path):
    # The library returns what it finds; the CLI decides what a user reads.
    assert text_writes(path.read_text(encoding="utf-8")) == []


def test_reporting_loads_no_other_layer():
    # The report text layer names no type of another layer, so a fresh import
    # of it loads the error types alone, and no numpy.
    script = (
        "import sys\n"
        "import adiasearch.reporting\n"
        "print(*sorted(m for m in sys.modules if m.startswith('adiasearch')), 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["adiasearch", "adiasearch.errors", "adiasearch.reporting", "False"]
