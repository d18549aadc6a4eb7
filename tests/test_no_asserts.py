"""Checks that guard a result must survive `python -O`, which strips every
`assert` statement, so the package itself may contain none."""

from __future__ import annotations

import ast
import pathlib

import sympcliff

PACKAGE = pathlib.Path(sympcliff.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
