"""Every name a package module imports is used in that module.

``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import ridgeline

MODULES = sorted(p for p in Path(ridgeline.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in ("annotations", "*"):
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom math import inf, comb\nx = comb(3, 2)\n"
    assert _unused_imports(source) == [(2, "os"), (3, "inf")]
