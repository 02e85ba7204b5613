"""Source-level checks of the ``pms`` modules, with the standard library only."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pms").glob("*.py"))


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


def test_unused_import_finder_flags_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\n"
        "from fractions import Fraction\nfrom math import gcd, lcm\n"
        "def f(x: Fraction) -> int:\n    return gcd(x, 2) + len(os.sep)\n"
    )
    assert unused_imports(tree) == ["lcm (line 5)", "regex (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_traced_private_functions_resolve():
    """The benchmark tracer wraps these private names; each must exist."""
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
