"""Every public name of ``ridgeline`` has a use outside its own tests.

A name that ``ridgeline/__init__.py`` imports, and each public method and
property of an exported class, must be read by another definition of the
package, by the benchmark (``perfbench/*.py``) or by the acceptance tests, or
be named in ``README.md``. Code whose only caller is its own test is deleted
or merged instead of being kept public.

A private helper (a top-level ``_name`` of a package module) must be read by
a package module or by the benchmark; a reader in the tests does not count.
"""

import ast
import re
from pathlib import Path
from types import FunctionType

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


def _members() -> dict:
    """``{"Class.member": "member"}`` for each public method and property
    of an exported class."""
    out = {}
    for name in _exported():
        cls = getattr(ridgeline, name)
        if isinstance(cls, type):
            for member, value in vars(cls).items():
                if not member.startswith("_") and isinstance(
                        value, (FunctionType, property, classmethod, staticmethod)):
                    out[f"{name}.{member}"] = member
    return out


def _reads(source: str, pick) -> set:
    """The names ``pick`` finds in the nodes of a module, each outside every
    definition, at any depth, that bears the name itself."""
    uses = set()

    def walk(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = pick(node)
        if name is not None and name not in own:
            uses.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    walk(ast.parse(source), frozenset())
    return uses


def _name_of(node):
    """A bare name, an attribute of the package (``rl.x``), or a string
    constant, by which the benchmark's span hooks name their targets. A
    method such as ``", ".join`` is not a read of ``join``."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("rl", "ridgeline")):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _member_of(node):
    """An attribute of any object, or the last part of a dotted string
    constant, as in the span target ``"VerifyReport.to_json"``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _private_of(node):
    """A loaded name or attribute of any object, or the last part of a
    dotted string constant, as in the span target ``"_rational_ranks"``.
    The target of an assignment is not a read."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return _member_of(node) if isinstance(node, ast.Constant) else None


def _private_definitions(source: str) -> set:
    """The top-level functions, classes and assigned names of a module whose
    names start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _unused(public, sources, readme, pick=_name_of) -> list:
    """The keys of ``public``, a dict of reported name to the name its
    readers use, that no source reads and README does not name."""
    read = set().union(*(_reads(source, pick) for source in sources))
    return sorted(key for key, name in public.items()
                  if key not in ALLOWED and name not in read
                  and not re.search(rf"\b{re.escape(name)}\b", readme))


def _sources() -> list:
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return [p.read_text() for p in paths]


def test_every_public_name_has_a_use_outside_its_tests():
    exported = {name: name for name in _exported()}
    assert _unused(exported, _sources(), (ROOT / "README.md").read_text()) == []


def test_every_public_method_has_a_use_outside_its_tests():
    assert _unused(_members(), _sources(), (ROOT / "README.md").read_text(), _member_of) == []


def test_unused_public_name_is_caught():
    source = ("import ridgeline as rl\n\nHOOKS = ('hooked',)\n\n\n"
              "def used():\n    return helper() + rl.attr + ', '.join([])\n\n\n"
              "def helper():\n    return helper()\n\n\n"
              "def lonely():\n    return lonely()\n")
    public = {name: name for name in
              ("used", "helper", "attr", "hooked", "join", "lonely", "documented")}
    assert _unused(public, [source], "see `documented` and `lonely_hearts`") == [
        "join", "lonely", "used"]


def test_unused_public_method_is_caught():
    source = ("HOOKS = ('Thing.hooked',)\n\n\n"
              "class Thing:\n"
              "    def used(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return self.helper()\n\n"
              "    def lonely(self):\n        return self.lonely()\n\n\n"
              "def caller(thing):\n    return thing.used()\n")
    public = {f"Thing.{m}": m for m in ("used", "helper", "hooked", "lonely", "documented")}
    assert _unused(public, [source], "see `documented`", _member_of) == ["Thing.lonely"]
    # methods, classmethods and properties of exported classes are all checked
    assert {"Graph.degree", "Graph.from_adj", "SimplicialComplex.is_empty"} <= set(_members())


def test_every_private_helper_has_a_reader_outside_the_tests():
    modules = sorted(SRC.glob("*.py"))
    private = {f"{path.stem}.{name}": name
               for path in modules for name in _private_definitions(path.read_text())}
    readers = [p.read_text() for p in modules + sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unused(private, readers, "", _private_of) == []


def test_unread_private_helper_is_caught():
    source = ("HOOKS = ('mod._hooked',)\n_CAP = 3\n_LONE: int = 4\n__all__ = ()\n\n\n"
              "def public(rows):\n    return _helper(rows) + _CAP + rows._attr\n\n\n"
              "def _helper(rows):\n    return _helper(rows)\n\n\n"
              "def _int_rank(rows):\n    return _int_rank(rows)\n\n\n"
              "def _hooked():\n    pass\n\n\n"
              "class _Lonely:\n    pass\n")
    private = {name: name for name in _private_definitions(source)}
    assert sorted(private) == ["_CAP", "_LONE", "_Lonely", "_helper", "_hooked", "_int_rank"]
    assert _unused(private, [source], "", _private_of) == ["_LONE", "_Lonely", "_int_rank"]
