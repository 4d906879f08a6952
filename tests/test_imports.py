"""Every name a package module imports is used in that module, none is
another module's private name, only rootsys imports fractions, no module
builds a Weyl element from simple-root images, only rootsys and affine
read the level of an affine root, and every suite check passes its failure
message as a lambda (stdlib ast only)."""

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


def fractions_imports(source: str) -> list[str]:
    """Absolute imports of the fractions module or of names from it."""
    return [f"line {node.lineno}: fractions" for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "fractions" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and not node.level
                and (node.module or "").split(".")[0] == "fractions")]


def weylelt_calls(source: str) -> list[str]:
    """Calls WeylElt(...) or <module>.WeylElt(...)."""
    return [f"line {node.lineno}: WeylElt" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "WeylElt" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def level_reads(source: str) -> list[str]:
    """Attribute reads <expr>.level, as of AffineRoot.level."""
    return [f"line {node.lineno}: level" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "level"]


def eager_check_messages(source: str) -> list[str]:
    """Calls <expr>.check(cond, msg) whose message is not a lambda, so it would
    be formatted on every pass."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "check":
            msgs = node.args[1:2] + [k.value for k in node.keywords if k.arg == "msg"]
            if not msgs or not all(isinstance(m, ast.Lambda) for m in msgs):
                out.append(f"line {node.lineno}: check")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_only_rootsys_imports_fractions():
    # The package is integer-only; rootsys keeps one rational view,
    # coweight_to_coroot, for the benchmark's micro timing.
    importers = {p.name for p in SRC.glob("*.py")
                 if fractions_imports(p.read_text(encoding="utf-8"))}
    assert importers <= {"rootsys.py"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_weyl_element_built_from_images(path):
    # elements are built from root permutations through weyl._elt
    assert weylelt_calls(path.read_text(encoding="utf-8")) == []


def test_only_rootsys_and_affine_read_affine_root_levels():
    # affine decides every affine-root sign through its sign rule; other
    # modules ask affine rather than reading a level themselves
    readers = {p.name for p in SRC.glob("*.py")
               if level_reads(p.read_text(encoding="utf-8"))}
    assert readers <= {"rootsys.py", "affine.py"}


def test_suite_checks_build_their_messages_lazily():
    # a failing check formats its message; a passing one must not pay for it
    source = (SRC / "suites.py").read_text(encoding="utf-8")
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "check"]
    assert len(calls) == source.count(".check(") > 0
    assert eager_check_messages(source) == []


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


def test_the_check_sees_a_fractions_import():
    source = ("import os, fractions as fr\n"
              "from fractions import Fraction\n"
              "from .fractions import half\n"
              "from decimal import Decimal\n"
              "import fractions.sub\n")
    assert fractions_imports(source) == ["line 1: fractions", "line 2: fractions",
                                         "line 5: fractions"]


def test_the_check_sees_a_weyl_element_built_from_images():
    source = ("w = WeylElt(rs, cols, inv_cols)\n"
              "v = weyl.WeylElt(rs, cols, inv_cols)\n"
              "ok = isinstance(w, WeylElt)\n"
              "u = object.__new__(WeylElt)\n"
              "t = WeylEltFactory(rs)\n")
    assert weylelt_calls(source) == ["line 1: WeylElt", "line 2: WeylElt"]


def test_the_check_sees_a_level_read():
    source = ("level = alpha.level + dot(lam, beta)\n"
              "from . import level\n"
              "ok = rs.affine_simple(i).level > 0\n"
              "n = getattr(root, 'level')\n"
              "AffineRoot(gamma, level=0)\n")
    assert level_reads(source) == ["line 1: level", "line 3: level"]


def test_the_check_sees_an_eager_check_message():
    source = ("res.check(ok, f'{rs.name()} w={reduced_word(w)}')\n"
              "res.check(ok, lambda: f'{rs.name()}')\n"
              "res.check(ok, 'plain')\n"
              "res.check(ok, msg=lambda: 'late')\n"
              "res.check(ok, msg=build())\n"
              "res.check(ok)\n"
              "checker.run(ok, 'not a check')\n")
    assert eager_check_messages(source) == ["line 1: check", "line 3: check",
                                             "line 5: check", "line 6: check"]
