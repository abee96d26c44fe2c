"""Checks on the package source itself."""

import ast
import os

import sliceobs

PACKAGE_DIR = os.path.dirname(sliceobs.__file__)


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; load-bearing checks raise explicitly
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{line}" for line in sorted(
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert))]
    assert not found, f"assert statements in sliceobs: {', '.join(found)}"
