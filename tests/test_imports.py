"""Every module of the package uses what it imports.

A deletion can leave an import behind; this finds, with the stdlib ``ast``,
each imported name a module never reads.  ``__init__.py`` is skipped, as it
imports names to re-export them.  An import kept on purpose carries
``# noqa: F401`` on the line of its name, as for flake8.
"""

import ast
from pathlib import Path

import pytest

import citestats

MODULES = sorted(
    path for path in Path(citestats.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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
