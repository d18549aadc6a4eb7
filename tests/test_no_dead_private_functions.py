"""A refactor can leave a private helper that nothing calls any more; every
module-level private function or class of the package must be referenced
(as a name, an attribute or an imported name) by some package module.
References from tests do not count, and neither does a helper's reference
to itself."""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

import sympcliff

PACKAGE = pathlib.Path(sympcliff.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node) -> Counter:
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.split(".")[-1]] += 1
    return refs


def dead_private_defs(sources: dict[str, str]) -> list[str]:
    """module.name of each unreferenced private top-level definition, for
    sources mapping module names to their text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return ["%s.%s" % (mod, node.name)
            for mod, tree in trees.items() for node in tree.body
            if isinstance(node, DEFS) and node.name.startswith("_")
            and not node.name.startswith("__")
            and refs[node.name] == _references(node)[node.name]]


def test_check_sees_a_dead_private_definition():
    a = ("def _used(): pass\n"
         "def _dead(n): return _dead(n - 1) if n else 0\n"
         "class _Gone: pass\n"
         "def _imported(): pass\n"
         "def _attribute(): pass\n"
         "def public(): return _used()\n")
    b = "import a\nfrom a import _imported as other\na._attribute()\n"
    assert dead_private_defs({"a": a, "b": b}) == ["a._dead", "a._Gone"]


def test_package_modules_reference_every_private_definition():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert dead_private_defs(sources) == []
