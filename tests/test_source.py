"""Rules on the package's source text."""

import ast
import sys
from pathlib import Path

import ngn

PACKAGE = Path(ngn.__file__).resolve().parent


def modules() -> list[tuple[Path, ast.Module]]:
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 8  # every module, not an empty glob
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_assert_statements():
    # preconditions raise, so they still fire under `python -O`
    found = [f"{path.name}:{node.lineno}" for path, tree in modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_imports_only_stdlib_numpy_and_ngn():
    # numpy is the one runtime dependency in pyproject.toml; scipy is for tests only
    allowed = set(sys.stdlib_module_names) | {"numpy", "ngn"}
    found = []
    for path, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, found
