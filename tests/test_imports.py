"""Every import in the package and its tests is used.

Neither pyflakes nor ruff is a dependency, so this parses each module
with ``ast`` and fails on a name an import binds that the module never
reads. A ``from __future__`` import and any import on a line marked
``# noqa`` (one kept for its side effect) are exempt, and so is a
package's ``__init__.py``, whose imports are its public names; a name
listed in ``__all__`` or read inside a string annotation counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in [*ROOT.glob("src/gawm/*.py"), *ROOT.glob("tests/*.py")]
                 if path.name != "__init__.py")


def _bound_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with its line, except the exempt ones."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" in lines[alias.lineno - 1] or "# noqa" in lines[node.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = alias.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code, in ``__all__`` or in a string annotation."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    bound = _bound_names(tree, source.splitlines())
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import_and_honours_its_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from typing import Sequence\n"
        "__all__ = ['loads']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return np.sum(x)\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 5: dumps"]
