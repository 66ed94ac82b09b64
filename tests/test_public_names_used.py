"""Every public name of ``ridgeline`` has a use outside its own tests.

A name that ``ridgeline/__init__.py`` imports must be read by another
definition of the package, by the benchmark (``perfbench/*.py``) or by the
acceptance tests, or be named in ``README.md``. Code whose only caller is its
own test is deleted or merged instead of being kept public.
"""

import ast
import re
from pathlib import Path

import ridgeline

SRC = Path(ridgeline.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# names waiting for the callers that ROADMAP items 2 and 8 give them
ALLOWED = {
    "line_graph_of_graph",  # ROADMAP item 2 (the d = 2 census row) and item 8
    "realizability_search",  # ROADMAP item 2 (the realizability census) and item 8
}


def _exported() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _names_read(source: str) -> set:
    """Names a module reads outside the definition of the name itself: bare
    names, attributes of the package (``rl.x``), and string constants, by
    which the benchmark's span hooks name their targets. A method such as
    ``", ".join`` is not a read of ``join``."""
    uses = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("rl", "ridgeline")):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                uses.add(name)
    return uses


def _unused(exported, sources, readme) -> list:
    read = set().union(*map(_names_read, sources))
    return sorted(name for name in exported - ALLOWED - read
                  if not re.search(rf"\b{re.escape(name)}\b", readme))


def test_every_public_name_has_a_use_outside_its_tests():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    sources = [p.read_text() for p in paths]
    assert _unused(_exported(), sources, (ROOT / "README.md").read_text()) == []


def test_unused_public_name_is_caught():
    source = ("import ridgeline as rl\n\nHOOKS = ('hooked',)\n\n\n"
              "def used():\n    return helper() + rl.attr + ', '.join([])\n\n\n"
              "def helper():\n    return helper()\n\n\n"
              "def lonely():\n    return lonely()\n")
    public = {"used", "helper", "attr", "hooked", "join", "lonely", "documented"}
    assert _unused(public, [source], "see `documented` and `lonely_hearts`") == [
        "join", "lonely", "used"]
