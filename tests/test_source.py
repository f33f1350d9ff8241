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


def test_no_nonlocal_statements():
    # state that outlives a call lives on an object, not in a closure's cells
    found = [f"{path.name}:{node.lineno}" for path, tree in modules()
             for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)]
    assert not found, found


def test_step_loop_has_no_type_tests_or_filled_arrays():
    # the runner's one step loop: no isinstance special cases, and no
    # zero- or value-filled arrays allocated per step
    (tree,) = [tree for path, tree in modules() if path.name == "runner.py"]
    (run,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Run"]
    (advance,) = [node for node in run.body
                  if isinstance(node, ast.FunctionDef) and node.name == "advance"]
    (loop,) = [node for node in ast.walk(advance) if isinstance(node, ast.For)
               and isinstance(node.target, ast.Name) and node.target.id == "j"]
    found = []
    for node in ast.walk(loop):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance":
            found.append(f"runner.py:{node.lineno} isinstance")
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == "np" and func.attr in ("zeros", "full")):
            found.append(f"runner.py:{node.lineno} np.{func.attr}")
    assert not found, found


def test_only_objectives_reaches_past_eval_many_and_full_many():
    # wrapping FiniteSumObjective.eval_many and full_many sees every evaluation
    private = {"batch_evaluator", "_evaluator", "_full"}
    found = [f"{path.name}:{node.lineno} {node.attr}" for path, tree in modules()
             if path.name != "objectives.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, found


def test_no_run_is_built_in_a_loop():
    # a grid of parameter values is the rows of one Run, not a Run per value:
    # no Run(...) call sits in a for or while body or in a comprehension
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path, tree in modules():
        for loop in ast.walk(tree):
            if not isinstance(loop, loops):
                continue
            # a for's iterable is evaluated once: `for chunk in Run(...)` builds one run
            parts = loop.body + loop.orelse if isinstance(loop, (ast.For, ast.While)) else [loop]
            found += [f"{path.name}:{node.lineno}" for part in parts for node in ast.walk(part)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "Run"]
    assert not found, found
