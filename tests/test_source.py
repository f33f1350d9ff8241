"""Rules on the package's source text."""

import ast
from pathlib import Path

import ngn

PACKAGE = Path(ngn.__file__).resolve().parent


def test_no_assert_statements():
    # preconditions raise, so they still fire under `python -O`
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 8  # every module, not an empty glob
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
