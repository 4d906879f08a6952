"""Every name a package module imports is used in that module, and none is
another module's private name (stdlib ast only)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qseidel"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing reads.

    A name counts as read when it appears as an expression name anywhere in
    the module (annotations included) or as a string in __all__. __future__
    imports bind no name.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from a package module, relatively or
    as qseidel.<module>."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "qseidel")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Optional, Callable\n"
              "from .affine import central_inv as inv\n"
              "x: Callable = os.sep\n"
              "__all__ = ['Kept']\n"
              "from .weyl import Kept\n")
    assert unused_imports(source) == ["line 3: Optional", "line 4: inv"]


def test_the_check_sees_a_private_import():
    source = ("from __future__ import annotations\n"
              "from functools import _lru_cache_wrapper\n"
              "from .qh import _seidel_term, seidel_table\n"
              "from qseidel.weyl import _apply as apply\n"
              "from .rootsys import dot\n")
    assert private_imports(source) == ["line 3: _seidel_term", "line 4: _apply"]
