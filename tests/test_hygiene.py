"""Source hygiene: every imported name, parameter and definition is used,
definitions only tests use are listed, every library exception class is
raised somewhere, no function keeps a functools cache, the derandomizers
leave coin fixing to rounding, the expectation oracle builds no Fraction,
no value is brought to a common denominator, graph searches are left to
``Graph.bfs_distances``, and only ``lp_init`` imports scipy, the one
dependency, calling HiGHS directly rather than through ``linprog``."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "congestds"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))
ALL_SOURCES = sorted(SRC.glob("*.py")) + TEST_MODULES


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def unused_parameters(source: str):
    """``function(parameter)`` for each parameter its function never reads."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out.extend(
            f"{fn.name}({a.arg})"
            for a in params
            if a.arg not in ("self", "cls") and a.arg not in read
        )
    return sorted(out)


def cached_functions(source: str):
    """Functions decorated with ``functools.lru_cache`` or ``functools.cache``,
    called or bare, qualified or imported by name."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Call):
                dec = dec.func
            name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
            if name in ("lru_cache", "cache"):
                out.append(fn.name)
    return sorted(out)


def definitions(source: str):
    """Top-level functions and classes, and non-dunder methods, by name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.append(node.name)
            out.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return out


def referenced_names(sources):
    """Every Name, Attribute and identifier-like string constant."""
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                if n.value.isidentifier():
                    names.add(n.value)
    return names


def unreferenced_definitions(defining, referencing):
    """Definitions in *defining* that no source in *referencing* names."""
    names = referenced_names(referencing)
    return sorted(
        d
        for source in defining
        for d in definitions(source)
        if d.rsplit(".", 1)[-1] not in names
    )


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.stem if p.parent == SRC else f"tests.{p.stem}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_unused_parameter():
    src = (
        "class P:\n"
        "    def f(self, a, b, *args, c=1):\n"
        "        return a + len(args)\n"
        "def g(x):\n"
        '    """Docstring only."""\n'
    )
    assert unused_parameters(src) == ["f(b)", "f(c)", "g(x)"]


def test_detects_unused_name():
    src = "from typing import Dict, List\nimport math\n\ndef f(x: List[int]): return x\n"
    assert unused_imports(src) == ["Dict", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_functools_caches(path):
    assert cached_functions(path.read_text(encoding="utf-8")) == []


def test_detects_cache_decorator():
    src = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(g): return g\n"
        "@lru_cache\n"
        "def b(g): return g\n"
        "class K:\n"
        "    @functools.cache\n"
        "    def c(self): return 1\n"
        "    @cache\n"
        "    def d(self): return 2\n"
        "    @staticmethod\n"
        "    def e(): return 3\n"
    )
    assert cached_functions(src) == ["a", "b", "c", "d"]


def test_no_unreferenced_definitions():
    sources = [p.read_text(encoding="utf-8") for p in ALL_SOURCES]
    defining = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced_definitions(defining, sources) == []


def test_detects_unreferenced_definition():
    defining = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def by_string(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
    )
    referencing = "used()\nK().method()\nsetattr(m, 'by_string', None)\n"
    assert unreferenced_definitions([defining], [defining, referencing]) == [
        "K.orphan", "unused"
    ]


#: library definitions that only tests reference, each kept on purpose
TEST_ONLY = {
    # the exact reference that tests check the cluster scheme against
    "single_cluster_decomposition",
    # helpers that tests build and inspect graphs with
    "Graph.distance",
    "complete",
    # the expected output size for a plain dict of fixes, which tests replay
    # coin fixes with; derandomize reads it from the CoinState it keeps
    "expected_output_size",
}


def test_no_test_only_definitions():
    """A definition that only tests call (a charge formula left behind, say)
    is dead library code unless it is listed in ``TEST_ONLY``."""
    library = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    defining = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced_definitions(defining, library) == sorted(TEST_ONLY)


def test_detects_test_only_definition():
    stage = (
        "def run(): return formula()\n"
        "def formula(): return 1\n"
        "def left_behind(): return 2\n"
        "class K:\n"
        "    def method(self): pass\n"
    )
    caller = "run()\nK().method()\n"
    tests = "left_behind()\nK().method()\n"
    library = [stage, caller]
    assert unreferenced_definitions([stage], library) == ["left_behind"]
    assert unreferenced_definitions([stage], library + [tests]) == []


def raised_names(source: str):
    """Names of the exceptions *source* raises, as ``raise E(...)``,
    ``raise E`` or ``raise module.E(...)``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def dead_exception_classes(errors_source: str, library):
    """Classes *errors_source* defines, other than the base class
    ``CongestDSError``, that no source in *library* raises."""
    raised = set().union(*(raised_names(source) for source in library))
    return sorted(
        node.name
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
        and node.name != "CongestDSError"
        and node.name not in raised
    )


def test_no_dead_exception_classes():
    """An error class that nothing raises is an exit code and an export that
    no run can reach."""
    library = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    errors = (SRC / "errors.py").read_text(encoding="utf-8")
    assert dead_exception_classes(errors, library) == []


def test_detects_dead_exception_class():
    errors = (
        "class CongestDSError(Exception): pass\n"
        "class Called(CongestDSError): pass\n"
        "class Qualified(CongestDSError): pass\n"
        "class Bare(CongestDSError): pass\n"
        "class Caught(CongestDSError): pass\n"
        "class Dead(CongestDSError): pass\n"
    )
    library = (
        "from . import errors\n"
        "from .errors import Bare, Called, Caught, Dead\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Called('boom')\n"
        "    if x is None:\n"
        "        raise errors.Qualified('boom') from None\n"
        "    raise Bare\n"
        "def g():\n"
        "    try:\n"
        "        f(1)\n"
        "    except Caught:\n"
        "        raise\n"
    )
    assert dead_exception_classes(errors, [errors, library]) == ["Caught", "Dead"]


#: the coin-fixing machinery, which only rounding.derandomize may drive
COIN_FIXING = {
    "CoinState", "branch_sum", "conditional_expected_value",
    "expected_output_size", "rounded_output",
}


def imported_names(source: str):
    """Every name imported, under its original name."""
    return {
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }


@pytest.mark.parametrize("name", ["derand_cluster", "derand_color"])
def test_derandomizers_only_order_coins(name):
    source = (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert sorted(imported_names(source) & COIN_FIXING) == []


def fraction_calls(source: str, name: str):
    """Lines on which the top-level function *name* calls ``Fraction(...)``
    or ``<module>.Fraction(...)``."""
    return sorted(
        call.lineno
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name == name
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == "Fraction"
             or getattr(call.func, "attr", None) == "Fraction")
    )


def test_expectation_oracle_builds_no_fraction():
    """``conditional_expected_value`` runs 2|N[v]| times per coin; it
    returns an integer numerator and a power-of-two shift, and no caller
    builds a Fraction per read."""
    source = (SRC / "rounding.py").read_text(encoding="utf-8")
    assert fraction_calls(source, "conditional_expected_value") == []


def test_detects_fraction_call():
    src = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "def oracle(a, b):\n"
        "    if a:\n"
        "        return Fraction(a, b)\n"
        "    return fractions.Fraction(b)\n"
        "def caller(a, b):\n"
        "    return Fraction(*oracle(a, b))\n"
    )
    assert fraction_calls(src, "oracle") == [5, 6]
    assert fraction_calls(src, "caller") == [8]
    assert fraction_calls(src, "missing") == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def loop_lines(source: str, name: str):
    """Lines on which the top-level function *name* holds a ``for`` or
    ``while`` loop or a comprehension."""
    return sorted(
        node.lineno
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef) and fn.name == name
        for node in ast.walk(fn)
        if isinstance(node, LOOPS)
    )


def test_expectation_oracle_has_no_loop():
    """``conditional_expected_value`` reads one node's coin state in O(1);
    a loop in it would mean a rescan of N[u] has come back."""
    source = (SRC / "rounding.py").read_text(encoding="utf-8")
    assert loop_lines(source, "conditional_expected_value") == []


def test_detects_loop_in_oracle():
    src = (
        "def oracle(state, u):\n"
        "    for w in state.closed(u):\n"
        "        pass\n"
        "    while u:\n"
        "        u -= 1\n"
        "    return sum(w for w in state.own), [w for w in state.k]\n"
        "def caller(state, nodes):\n"
        "    return {u: oracle(state, u) for u in nodes}\n"
    )
    assert loop_lines(src, "oracle") == [2, 4, 6, 6]
    assert loop_lines(src, "caller") == [8]
    assert loop_lines(src, "missing") == []


def lcm_calls(source: str):
    """Lines that call ``lcm(...)`` or ``<module>.lcm(...)``."""
    return sorted(
        call.lineno
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == "lcm"
             or getattr(call.func, "attr", None) == "lcm")
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_common_denominators(path):
    """Every value is an integer count of units 2**-iota; a common-denominator
    pass would mean a second value format has come back."""
    assert lcm_calls(path.read_text(encoding="utf-8")) == []


def test_detects_lcm_call():
    src = (
        "import math\n"
        "from math import lcm\n"
        "def f(a, b):\n"
        "    den = math.lcm(a, b)\n"
        "    return lcm(*[a, b]) + den\n"
        "def g(lcm_of):\n"
        "    return lcm_of\n"
    )
    assert lcm_calls(src) == [4, 5]


def adjacency_while_loops(source: str):
    """Functions holding a ``while`` loop that reads an ``.adj`` attribute:
    a hand-written graph search."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While)
        and any(isinstance(n, ast.Attribute) and n.attr == "adj"
                for n in ast.walk(loop))
    })


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graph.py"], ids=lambda p: p.stem
)
def test_only_graph_searches_adjacency(path):
    assert adjacency_while_loops(path.read_text(encoding="utf-8")) == []


def test_detects_adjacency_while_loop():
    src = (
        "def grow(graph, src):\n"
        "    frontier = [src]\n"
        "    while frontier:\n"
        "        frontier = [w for u in frontier for w in graph.adj[u]]\n"
        "def scan(graph, nodes):\n"
        "    for u in nodes:\n"
        "        for w in graph.adj[u]:\n"
        "            pass\n"
        "    while nodes:\n"
        "        nodes.pop()\n"
    )
    assert adjacency_while_loops(src) == ["grow"]


def imported_packages(source: str):
    """Top-level package of every absolute import."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_lp_init_imports_scipy(path):
    """The covering LP is the library's one use of scipy, and numpy is not a
    dependency."""
    allowed = {"scipy"} if path.name == "lp_init.py" else set()
    packages = imported_packages(path.read_text(encoding="utf-8"))
    assert packages & {"numpy", "scipy"} <= allowed


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_linprog(path):
    assert "linprog" not in path.read_text(encoding="utf-8")


def test_detects_scipy_import():
    src = (
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from scipy.optimize import linprog\n"
        "from .graph import Graph\n"
        "from os import path\n"
    )
    assert imported_packages(src) == {"numpy", "scipy", "os"}
