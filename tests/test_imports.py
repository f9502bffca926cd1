"""Every module of the package uses what it imports, and the package reads
every private name it defines.

A deletion can leave an import or a helper behind; this finds, with the
stdlib ``ast``, each imported name a module never reads, and each private
top-level name (``_name``, not ``__name__``) that no module of the package
reads.  ``__init__.py`` is skipped for imports, as it imports names to
re-export them.  An import kept on purpose carries ``# noqa: F401`` on the
line of its name, as for flake8.
"""

import ast
from pathlib import Path

import pytest

import citestats

SOURCES = sorted(Path(citestats.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each name ``source`` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,  # noqa: F401  re-exported\n"
        "    pi as PI,\n"
        ")\n"
        "x: PI = gcd(1, 2)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> dict[str, int]:
    """Each private name ``source`` defines at top level, with its line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name (line N)`` for each private top-level name that no
    source reads; importing a name is not reading it."""
    read = set().union(*map(read_names, sources.values()))
    return [f"{module}: {name} (line {line})" for module, source in sources.items()
            for name, line in private_names(source).items() if name not in read]


def test_finds_unread_private_names():
    sources = {
        "a.py": "_LIMIT = 3\n_spare: int = 4\ndef _used(): return _LIMIT\nclass _Gone: pass\n",
        "b.py": "from a import _Gone, _spare, _used\n__all__ = []\n_used(_spare)\n",
    }
    assert unread_private_names(sources) == ["a.py: _Gone (line 4)"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []
