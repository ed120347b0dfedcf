"""Every module-level import in ``src/steadydim`` is used by its module.

The check reads each module's syntax tree, so it needs no linter.  A
name counts as used when the module's code (string annotations included)
refers to it, or when the module lists it in its ``__all__``, as the
package's ``__init__`` does for its re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import steadydim

MODULES = sorted(Path(steadydim.__file__).parent.glob("*.py"))


def _names(node: ast.AST) -> set[str]:
    """The names that ``node`` refers to, and those in its string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        annotations = []
        if isinstance(sub, ast.arg):
            annotations.append(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(sub.returns)
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _names(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s module-level imports bind and it never uses."""
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = _names(tree) | exported
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import combinations, count\n"
        "from typing import Optional as Opt\n"
        "__all__ = ['count']\n"
        "def f(x: 'Opt[int]'):\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["os", "combinations"]
