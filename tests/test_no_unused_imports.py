"""A deletion leaves the imports of what it deleted behind; every module of
the package except __init__.py (which re-exports) must use each name it
imports."""

from __future__ import annotations

import ast
import pathlib

import sympcliff

PACKAGE = pathlib.Path(sympcliff.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in bound.items() if name not in used]


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") \
        == ["os (line 1)", "b (line 2)"]


def test_package_modules_use_every_import():
    found = ["%s: %s" % (path.name, name)
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"
             for name in unused_imports(path.read_text())]
    assert found == []
