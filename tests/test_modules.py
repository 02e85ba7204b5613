"""Source-level checks of the ``pms`` modules, with the standard library only."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pms").glob("*.py"))
# the test-side reference code, held to the same use checks as the modules
REFERENCES = [ROOT / "tests" / name
              for name in ("oracles.py", "symbolic_reference.py")]
# every test file, held to the same import check as the modules
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the trees whose code may call a pms function
CALLERS = ("src", "tests", "perfbench")
# the fields of LaurentPoly that only laurent_core may touch
LAURENT_REPRESENTATION = {"_terms", "_den"}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read, as attributes too, or imported anywhere in ``tree``.

    A reference inside a function's own body (recursion) does not count for
    that function's name.
    """
    found = set()

    def visit(node, inside: frozenset):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name.rsplit(".", 1)[-1]
            else:
                name = None
            if name is not None and name not in inside:
                found.add(name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside | {child.name})
            else:
                visit(child, inside)

    visit(tree, frozenset())
    return found


def unreferenced_functions(defined: ast.Module, sources) -> list[str]:
    """Module-level defs of ``defined`` that no tree in ``sources`` names."""
    names = {node.name: node.lineno for node in defined.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    used = set().union(*(referenced_names(tree) for tree in sources))
    return sorted(f"{name} (line {line})" for name, line in names.items()
                  if name not in used)


def test_unused_import_finder_flags_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\n"
        "from fractions import Fraction\nfrom math import gcd, lcm\n"
        "def f(x: Fraction) -> int:\n    return gcd(x, 2) + len(os.sep)\n"
    )
    assert unused_imports(tree) == ["lcm (line 5)", "regex (line 3)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def representation_reads(tree: ast.Module) -> list[str]:
    """Attribute accesses of ``LaurentPoly``'s private representation."""
    return sorted(f"{node.attr} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in LAURENT_REPRESENTATION)


def test_representation_finder_flags_attribute_reads():
    tree = ast.parse(
        "def f(p, _terms):\n    q = p._terms\n"
        "    return p._den + len(_terms) + p.terms + q.den\n"
    )
    assert representation_reads(tree) == ["_den (line 3)", "_terms (line 2)"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "laurent_core.py"],
    ids=lambda p: p.name,
)
def test_laurent_representation_stays_in_laurent_core(path):
    """Only ``laurent_core`` keeps the numerator/denominator invariant."""
    assert representation_reads(ast.parse(path.read_text())) == []


def test_unreferenced_function_finder():
    module = ast.parse(
        "import math\n"
        "def power(a, k):\n    return a * power(a, k - 1) if k else 1\n"
        "def helper(x):\n    return math.floor(x)\n"
        "def used_by_attribute():\n    pass\n"
        "def imported():\n    pass\n"
        "class C:\n    def method(self):\n        return helper(1)\n"
    )
    caller = ast.parse(
        "from m import imported\nimport m\nm.used_by_attribute()\n"
    )
    assert unreferenced_functions(module, [module, caller]) == [
        "power (line 2)"
    ]


def test_every_module_function_is_referenced():
    sources = [ast.parse(path.read_text())
               for top in CALLERS for path in (ROOT / top).rglob("*.py")]
    unreferenced = {
        path.name: unreferenced_functions(ast.parse(path.read_text()), sources)
        for path in MODULES + REFERENCES
    }
    assert {k: v for k, v in unreferenced.items() if v} == {}


def public_defs(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The public module-level functions of ``tree``, and the public
    methods of its public classes as ``Class.method``, with their nodes."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs += [(f"{node.name}.{item.name}", item) for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and not item.name.startswith("_")]
    return defs


def public_functions(tree: ast.Module) -> list[str]:
    return [name for name, _ in public_defs(tree)]


def test_public_function_finder_reads_methods_of_public_classes():
    tree = ast.parse(
        "def f():\n    pass\ndef _g():\n    pass\n"
        "class C:\n    def m(self):\n        pass\n"
        "    def _n(self):\n        pass\n    def __eq__(self, o):\n"
        "        pass\n"
        "class _D:\n    def m2(self):\n        pass\n"
    )
    assert public_functions(tree) == ["f", "C.m"]


def program_trees() -> list[ast.Module]:
    """The parsed files of the program and of the benchmark."""
    return [ast.parse(path.read_text())
            for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")]


def readme_words() -> set[str]:
    """The words of README's code spans."""
    readme = (ROOT / "README.md").read_text()
    return {word for span in re.findall(r"`([^`\n]+)`", readme)
            for word in re.findall(r"\w+", span)}


def test_every_public_function_has_a_user():
    """Each public function of ``pms``, and each public method of a public
    class, is called by the program or the benchmark, traced by name, or
    named in README's code spans (where the oracles that only tests call are
    named as such).  A method counts as used when its name is."""
    used = set().union(*map(referenced_names, program_trees()))
    traced = (ROOT / "perfbench" / "tracing.py").read_text()
    used |= set(re.findall(r"\w+", traced))
    used |= readme_words()
    unused = {
        path.name: [name
                    for name in public_functions(ast.parse(path.read_text()))
                    if name.rsplit(".", 1)[-1] not in used]
        for path in MODULES
    }
    assert {k: v for k, v in unused.items() if v} == {}


def defaulted_parameters(name: str, node: ast.FunctionDef) -> list[tuple]:
    """Each parameter of ``node`` with a default, as (name, the position a
    call passes it at, or None when keyword-only).  The position of a
    method's parameter leaves out its self or cls, unless it is static."""
    positional = node.args.posonlyargs + node.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    if "." in name and not static:
        positional = positional[1:]
    first = len(positional) - len(node.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default
            in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None]
    return out


def call_arguments(trees) -> dict[str, list[tuple]]:
    """Per called name, each call's number of positional arguments (None
    when one is a ``*`` splat) and the names it passes by keyword (None for
    a ``**`` splat)."""
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        splat = any(isinstance(arg, ast.Starred) for arg in node.args)
        calls.setdefault(name, []).append(
            (None if splat else len(node.args), {k.arg for k in node.keywords})
        )
    return calls


def unset_parameters(tree: ast.Module, callers, documented) -> list[str]:
    """The defaulted parameters of ``tree``'s public functions and methods
    that no call in ``callers`` passes and whose names ``documented`` lacks,
    as ``function.parameter``."""
    calls = call_arguments(callers)
    unset = []
    for name, node in public_defs(tree):
        for param, position in defaulted_parameters(name, node):
            passed = any(
                param in keywords or None in keywords
                or (position is not None and (count is None or count > position))
                for count, keywords in calls.get(node.name, ())
            )
            if not passed and param not in documented:
                unset.append(f"{name}.{param}")
    return unset


def test_unset_parameter_finder():
    module = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class C:\n    def m(self, k=1, j=2):\n        pass\n"
        "    @staticmethod\n    def s(k=1):\n        pass\n"
        "def _private(z=0):\n    pass\n"
    )
    caller = ast.parse("f(0, 1, d=2)\nC().m(5)\nC.s(**opts)\ng(*args)\n")
    assert unset_parameters(module, [caller], {"e"}) == ["f.c", "C.m.j"]


def test_every_optional_parameter_is_set_by_a_caller():
    """Each defaulted parameter of a public function of ``pms``, or of a
    public method of a public class, is passed by some call in the program
    or the benchmark, by keyword or by position, or named in README's code
    spans: a knob that only tests set is not part of the program."""
    trees, documented = program_trees(), readme_words()
    unset = {path.name: unset_parameters(ast.parse(path.read_text()), trees,
                                         documented)
             for path in MODULES}
    assert {k: v for k, v in unset.items() if v} == {}


def test_traced_private_functions_resolve():
    """The benchmark tracer wraps these private names; each must exist.

    So must every span name its per-layer metrics group (a renamed function
    would read 0 there) and every class method it wraps (a renamed one
    would stop a traced run)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PRIVATE_FUNCTIONS
    for layer, names in tracing.PRIVATE_FUNCTIONS.items():
        module = importlib.import_module(f"pms.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    assert tracing.GROUPS
    for span in {s for spans in tracing.GROUPS.values() for s in spans}:
        layer, *path = span.split(".")
        target = importlib.import_module(f"pms.{layer}")
        for name in path:
            target = getattr(target, name, None)
        assert callable(target), span
    assert tracing.CLASS_METHODS
    for (layer, cls), methods in tracing.CLASS_METHODS.items():
        owner = getattr(importlib.import_module(f"pms.{layer}"), cls)
        for name in methods:
            assert callable(getattr(owner, name, None)), (layer, cls, name)
