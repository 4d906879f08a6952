"""Every name a package module imports is used in that module, none is
another module's private name, only rootsys imports fractions, no module
builds a Weyl element from simple-root images, only weyl calls
ParabolicSet(...), only rootsys and affine read the level of an affine
root, every suite check passes its failure message as a lambda, only
rootsys compiles code, only RunConfig and run_suites decide which types a
suite runs on, the node rule is written only in its homes, the package's
memos are exactly the pinned inventory, the checked value constructors are
called only where pinned (stdlib ast only), and the README's API sentence
names exactly qseidel.__all__."""

import ast
import re
from pathlib import Path

import pytest

import qseidel

SRC = Path(__file__).resolve().parent.parent / "src" / "qseidel"
README = SRC.parent.parent / "README.md"


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


def class_calls(source: str, name: str) -> list[str]:
    """Calls name(...) or <module>.name(...)."""
    return [f"line {node.lineno}: {name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def call_scopes(source: str, name: str) -> list[str]:
    """The innermost definition enclosing each call that class_calls finds,
    dotted as in SPoly.const and empty at module level, in source order."""
    spans = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                spans.append((child.lineno, child.end_lineno, ".".join(inner)))
            visit(child, inner)

    visit(ast.parse(source), ())
    lines = sorted(int(site.split()[1].rstrip(":")) for site in class_calls(source, name))
    # nested definitions start after the ones around them
    return [max((span for span in spans if span[0] <= line <= span[1]),
                default=(0, 0, ""))[2] for line in lines]


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


def code_generation_calls(source: str) -> list[str]:
    """Calls of the builtins exec, eval and compile, by name or as
    builtins.<name>."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "builtins":
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name in ("exec", "eval", "compile"):
            out.append(f"line {node.lineno}: {name}")
    return out


# The definitions in suites.py that may read a config's types or max_rank, or
# build a root system: the scope of every suite is decided there alone.
SCOPE_DECIDERS = {"RunConfig", "run_suites"}


def scope_reads(source: str) -> list[str]:
    """Attribute reads <expr>.types and <expr>.max_rank, and each use of
    build_root_system by name or as <module>.build_root_system, outside the
    top-level definitions named in SCOPE_DECIDERS, in source order."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in SCOPE_DECIDERS:
            continue
        for node in ast.walk(top):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if (name == "build_root_system"
                    or isinstance(node, ast.Attribute) and name in ("types", "max_rank")):
                found.append((node.lineno, node.col_offset, name))
    return [f"line {line}: {name}" for line, _, name in sorted(found)]


# Where the node rule may be written, as (module, enclosing definition, rule):
# a node in range is checked by RootSystem.node and a node set by
# ParabolicSet, a minuscule node by weyl.v_element; everything else asks them.
NODE_RULE_HOMES = {
    ("rootsys", "RootSystem.node", "range"),
    ("weyl", "ParabolicSet.__post_init__", "range"),
    ("weyl", "v_element", "minuscule"),
}


def node_rule_sites(source: str) -> list[tuple[int, str, str]]:
    """(line, enclosing definition, rule) for each comparison that writes out
    the node rule: a chained comparison with an operand <expr>.rank ("range",
    as in 1 <= i <= rs.rank) and a membership test against
    <expr>.minuscule_nodes ("minuscule"). The definition is dotted, as in
    RootSystem.node, and empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                if len(child.ops) > 1 and any(getattr(o, "attr", None) == "rank"
                                              for o in operands):
                    found.append((child.lineno, ".".join(scope), "range"))
                if any(isinstance(op, (ast.In, ast.NotIn))
                       and getattr(right, "attr", None) == "minuscule_nodes"
                       for op, right in zip(child.ops, child.comparators)):
                    found.append((child.lineno, ".".join(scope), "minuscule"))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(found)


# The element types and the monomial exponents whose memo entries grow with
# the inputs a run reaches, as annotated on the memoised functions.
ELEMENT_ANNOTATIONS = {"WeylElt", "ExtAffElt", "tuple[int, ...]"}


def memo_inventory(source: str) -> dict[str, str]:
    """Each use of functools.lru_cache or functools.cache, by any imported
    name, mapped to its key kind: the decorated function's name to "per
    element" when a parameter is annotated with one of ELEMENT_ANNOTATIONS,
    else "per parabolic" when one is a ParabolicSet, else "per type" when it
    has parameters (a root system, its name, nodes or roots) and "per
    process" when it has none. A use that decorates no function (as in
    lru_cache()(f)) is listed as "line N" with kind "unnamed"."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(a.asname or a.name for a in node.names
                         if a.name in ("lru_cache", "cache"))
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")

    def is_memo(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and getattr(node.value, "id", None) in modules)

    def kind(fn) -> str:
        notes = {ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
        if notes & ELEMENT_ANNOTATIONS:
            return "per element"
        if "ParabolicSet" in notes:
            return "per parabolic"
        return "per type" if fn.args.args else "per process"

    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                decorated[id(dec.func if isinstance(dec, ast.Call) else dec)] = node
    out = {}
    for node in ast.walk(tree):
        if is_memo(node):
            fn = decorated.get(id(node))
            if fn is None:
                out[f"line {node.lineno}"] = "unnamed"
            else:
                out[fn.name] = kind(fn)
    return out


# Every memo of the package and its key kind (see memo_inventory). Each is
# reused by some benchmark workload or contract suite; the per-element ones
# grow with the inputs of a run and are never emptied.
MEMOS = {
    ("rootsys", "build_root_system"): "per type",
    ("weyl", "identity"): "per type",
    ("weyl", "simple_reflection"): "per type",
    ("weyl", "reflection"): "per type",
    ("weyl", "_right_simple"): "per type",
    ("weyl", "enumerate_weyl"): "per type",
    ("weyl", "involution"): "per type",
    ("weyl", "v_element"): "per type",
    ("affine", "identity_aff"): "per type",
    ("affine", "affine_simple_ext"): "per type",
    ("weyl", "enumerate_minreps"): "per parabolic",
    ("affine", "_levi"): "per parabolic",
    ("qh", "_chevalley_data"): "per parabolic",
    ("weyl", "reduced_word"): "per element",
    ("weyl", "coset_reduce"): "per element",
    ("affine", "pi_P"): "per element",
    ("affine", "peterson_decompose"): "per element",
    ("nilhecke", "_weight_images"): "per element",
    ("nilhecke", "_letter_rows"): "per element",
    ("nilhecke", "_split"): "per element",
    ("nilhecke", "embed_group"): "per element",
    ("qh", "_seidel_term"): "per element",
    ("qh", "_chevalley_row"): "per element",
    ("cli", "build_parser"): "per process",
}


# Where src/ calls a checked value constructor, by (module, class): builders
# that take a caller's values. Every builder whose terms are well formed by
# construction wraps them with the trusted _of, so a hot path that re-checks
# what it just built shows up here.
CHECKED_CONSTRUCTORS = ("SPoly", "QHClass", "NilHeckeElt")
CONSTRUCTOR_CALLS = {
    ("poly", "SPoly"): ["SPoly.zero", "SPoly.const", "SPoly.var", "SPoly.from_json"],
    ("nilhecke", "SPoly"): ["_letter_rows"],
    ("nilhecke", "NilHeckeElt"): ["nh_basis"],
    ("qh", "QHClass"): ["qh_from_json"],
}


def constructor_calls(sources: dict[str, str]) -> dict[tuple[str, str], list[str]]:
    """call_scopes of each checked constructor over modules given by name,
    keyed by (module, class), modules without such a call left out."""
    return {(module, name): scopes for module, source in sources.items()
            for name in CHECKED_CONSTRUCTORS if (scopes := call_scopes(source, name))}


def package_memos(sources: dict[str, str]) -> dict[tuple[str, str], str]:
    """memo_inventory over modules given by name, keyed by (module, function)."""
    return {(module, name): kind for module, source in sources.items()
            for name, kind in memo_inventory(source).items()}


def readme_api_names(readme: str) -> list[str]:
    """The backticked names of the README sentence "`import qseidel` exposes
    ...", which ends at the first period followed by white space."""
    tail = readme[readme.index("`import qseidel` exposes "):]
    sentence = re.match(r"`import qseidel` exposes (.*?)\.\s", tail, re.S).group(1)
    return re.findall(r"`([^`]+)`", sentence)


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}


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
    assert class_calls(path.read_text(encoding="utf-8"), "WeylElt") == []


def test_only_weyl_builds_a_parabolic_set():
    # ParabolicSet holds the node rules, and weyl.parabolic is the one way
    # the other modules build one
    builders = {p.name for p in SRC.glob("*.py")
                if class_calls(p.read_text(encoding="utf-8"), "ParabolicSet")}
    assert builders == {"weyl.py"}


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


def test_only_run_suites_scopes_the_suites():
    # run_suites gives each suite the types its SUITES entry allows; a suite
    # that read --types or built a root system itself could run outside them
    assert scope_reads((SRC / "suites.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_suite_choosing_its_own_types():
    source = ("class RunConfig:\n"
              "    def __post_init__(self):\n"
              "        build_root_system(self.types[0]), self.max_rank\n"
              "def run_suites(cfg):\n"
              "    return [build_root_system(n) for n in cfg.types if cfg.max_rank]\n"
              "def suite_table(cfg, res, types):\n"
              "    rs = build_root_system('A2')\n"
              "    if 'A1' in cfg.types and cfg.max_rank > 1:\n"
              "        make = rootsys.build_root_system\n"
              "    types = [rs for rs in types if rs.rank <= cfg.radius]\n")
    assert scope_reads(source) == ["line 7: build_root_system", "line 8: types",
                                   "line 8: max_rank", "line 9: build_root_system"]
    # the real module with the table built on A2 whatever the types
    real = (SRC / "suites.py").read_text(encoding="utf-8")
    seeded = real.replace('    for rs in _named(types, "A2"):\n        p = parabolic(rs, (1,))',
                          '    for rs in [build_root_system("A2")]:\n'
                          '        p = parabolic(rs, (1,))', 1)
    assert seeded != real and len(scope_reads(seeded)) == 1


def test_the_node_rule_is_written_only_in_its_homes():
    # a copy of the rule elsewhere drifts from it: five entry points once
    # skipped it and two memos served True as node 1
    sites = {(module, scope, rule) for module, source in _package_sources().items()
             for _, scope, rule in node_rule_sites(source)}
    assert sites == NODE_RULE_HOMES


def test_the_check_sees_a_copy_of_the_node_rule():
    source = ("class RootSystem:\n"
              "    def node(self, i, low=1):\n"
              "        return low <= i <= self.rank\n"
              "def letter(rs, i):\n"
              "    if 1 <= i <= rs.rank:\n"
              "        return i not in rs.minuscule_nodes\n"
              "ok = 0 < p.rs.rank < 9 and i in p.nodes and rs.rank > 1\n"
              "for i in rs.minuscule_nodes:\n"
              "    pass\n")
    assert node_rule_sites(source) == [(3, "RootSystem.node", "range"),
                                       (5, "letter", "range"),
                                       (6, "letter", "minuscule"),
                                       (7, "", "range")]
    # the real module with from_word checking its letters itself
    real = (SRC / "weyl.py").read_text(encoding="utf-8")
    seeded = real.replace("    for i in word:\n",
                          "    for i in word:\n"
                          "        if not 1 <= i <= rs.rank:\n"
                          "            raise ValueError(i)\n", 1)
    sites = [{site[1:] for site in node_rule_sites(text)} for text in (real, seeded)]
    assert seeded != real and sites[1] - sites[0] == {("from_word", "range")}


def test_only_rootsys_generates_code():
    # the compiled kernels are built from integers in one place
    callers = {p.name for p in SRC.glob("*.py")
               if code_generation_calls(p.read_text(encoding="utf-8"))}
    assert callers == {"rootsys.py"}


def test_the_memos_are_the_pinned_inventory():
    # a change that adds, drops or rekeys a memo updates MEMOS too
    assert package_memos(_package_sources()) == MEMOS
    assert sum(kind != "per process" for kind in MEMOS.values()) == 23


def test_the_inventory_sees_an_unlisted_memo():
    source = ("import functools\n"
              "import functools as ft\n"
              "from functools import lru_cache as memo, cache, partial\n"
              "@memo(maxsize=None)\n"
              "def cold(rs: RootSystem, i: int): ...\n"
              "@ft.cache\n"
              "def coset(p: ParabolicSet): ...\n"
              "@functools.lru_cache\n"
              "def row(j: int, w: WeylElt, p: ParabolicSet): ...\n"
              "@cache\n"
              "def parser(): ...\n"
              "@partial(print)\n"
              "def plain(x: ExtAffElt): ...\n"
              "square = functools.lru_cache(maxsize=None)(lambda x: x * x)\n")
    assert memo_inventory(source) == {"cold": "per type", "coset": "per parabolic",
                                      "row": "per element", "parser": "per process",
                                      "line 14": "unnamed"}
    sources = _package_sources()
    sources["weyl"] += ("\n\n@lru_cache(maxsize=None)\n"
                        "def inverse(a: WeylElt) -> WeylElt:\n"
                        "    return w_inv(a)\n")
    assert package_memos(sources) != MEMOS


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
    assert class_calls(source, "WeylElt") == ["line 1: WeylElt", "line 2: WeylElt"]


def test_the_check_sees_a_parabolic_set_built_outside_weyl():
    source = ("p = ParabolicSet(rs, (1,))\n"
              "q = weyl.ParabolicSet(rs, [2, 1])\n"
              "def f(p: ParabolicSet) -> ParabolicSet:\n"
              "    return parabolic(p.rs, p.nodes), isinstance(p, ParabolicSet)\n")
    assert class_calls(source, "ParabolicSet") == ["line 1: ParabolicSet",
                                                   "line 2: ParabolicSet"]
    # the real module with RunConfig building its sets directly
    real = (SRC / "suites.py").read_text(encoding="utf-8")
    seeded = real.replace("                parabolic(rs, nodes)\n",
                          "                ParabolicSet(rs, nodes)\n", 1)
    assert seeded != real and len(class_calls(seeded, "ParabolicSet")) == 1


def test_checked_constructors_are_called_only_where_pinned():
    # a builder of well-formed terms pays for no check: it uses _of
    assert constructor_calls(_package_sources()) == CONSTRUCTOR_CALLS


def test_the_check_sees_a_new_checked_constructor_call():
    source = ("def f(p):\n"
              "    return QHClass(p, {})\n"
              "class SPoly:\n"
              "    def zero(n):\n"
              "        def inner():\n"
              "            return poly.SPoly(n)\n"
              "        return SPoly._of(n, {}), SPoly(n)\n"
              "x = QHClass._of(p, {}) or QHClass(p)\n")
    assert call_scopes(source, "QHClass") == ["f", ""]
    assert call_scopes(source, "SPoly") == ["SPoly.zero.inner", "SPoly.zero"]
    # the real module with seidel_multiply re-checking its product
    sources = _package_sources()
    real = sources["qh"]
    sources["qh"] = real.replace("    return QHClass._of(p, add_terms(pairs))\n",
                                 "    return QHClass(p, add_terms(pairs))\n", 1)
    assert sources["qh"] != real
    assert constructor_calls(sources)[("qh", "QHClass")] == ["seidel_multiply",
                                                             "qh_from_json"]


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


def test_the_check_sees_code_generation():
    source = ("exec(src, scope)\n"
              "f = eval('1 + 1')\n"
              "code = compile(src, '<x>', 'exec')\n"
              "builtins.exec(src)\n"
              "pattern = re.compile('a+')\n"
              "result = run.eval(x)\n")
    assert code_generation_calls(source) == ["line 1: exec", "line 2: eval",
                                             "line 3: compile", "line 4: exec"]


def test_the_readme_names_the_public_api():
    # the Python API sentence lists each public name once, and no other
    names = readme_api_names(README.read_text(encoding="utf-8"))
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(qseidel.__all__)


def test_the_check_sees_a_stale_readme_api_name():
    text = ("Intro.\n\n`import qseidel` exposes `pi_P`, `retired_name` and\n"
            "`psi_P`. Everything else is reached through `qseidel.weyl`.\n")
    assert readme_api_names(text) == ["pi_P", "retired_name", "psi_P"]
    # the real README with a name added to or dropped from its sentence
    head, sep, tail = README.read_text(encoding="utf-8").partition("`import qseidel` exposes ")
    for stale in (tail.replace("`pi_P`,", "`pi_P`, `retired_name`,", 1),
                  tail.replace("`psi_P`, ", "", 1)):
        assert stale != tail
        assert sorted(readme_api_names(head + sep + stale)) != sorted(qseidel.__all__)
