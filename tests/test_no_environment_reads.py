"""No package module reads the process environment.

A setting read from the environment is not recorded in any report, so the
same command would give different results in different shells. Every
option is an argument instead.
"""

import ast
from pathlib import Path

import pytest

import ridgeline

MODULES = sorted(Path(ridgeline.__file__).parent.glob("*.py"))


def _environment_reads(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "os" for alias in node.names):
                found.append((node.lineno, "import os"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "os":
                found.append((node.lineno, "from os"))
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    assert _environment_reads(path.read_text()) == []


def test_environment_read_is_caught():
    source = ("import os, sys\nx = os.environ.get('A')\nfrom os import getenv\n"
              "y = os.getenv('B')\nimport os.path\nz = sys.argv\n")
    assert _environment_reads(source) == [(1, "import os"), (2, "environ"), (3, "from os"),
                                          (4, "getenv"), (5, "import os")]
