"""No module of the package imports a name it never uses, no module
defines a private (leading ``_``) module-level name that it never reads,
no module names a hand-written derivative (``HAND_WRITTEN``, then an
underscore): jets are the only source of derivatives, no module imports
anything beyond the standard library, the package itself and the declared
dependencies (``RUNTIME_DEPENDENCIES``), only ``GUARD_READERS`` read a
map's ``domain_guard``, and only ``catalog.build`` calls ``float`` or
``int`` on a catalog parameter.

Stdlib only.  ``symtable`` tells which scopes read a name from the module
namespace, so a local binding of the same name (a parameter, say) does not
hide an unused import.  The modules use ``from __future__ import
annotations``; annotations are then never compiled and ``symtable`` does not
see them, so names inside annotations are collected from the ``ast``.
Names listed in ``__all__`` and the package ``__init__`` re-exports are
exempt.
"""

import ast
import symtable
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dyncert"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def _global_reads(table) -> set:
    """Names that a scope or any scope nested in it reads as globals."""
    names = {s.get_name() for s in table.get_symbols()
             if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _annotation_names(tree) -> set:
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {n.id for root in roots if root is not None
            for n in ast.walk(root) if isinstance(n, ast.Name)}


def _exempt(tree) -> set:
    """``__future__`` features and the names in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def _unread(source: str, filename: str, picked) -> list:
    """Module-level names ``picked(symbol)`` selects that nothing in the
    module reads."""
    table = symtable.symtable(source, filename, "exec")
    tree = ast.parse(source, filename)
    names = {s.get_name() for s in table.get_symbols() if picked(s)}
    used = _global_reads(table) | _annotation_names(tree) | _exempt(tree)
    return sorted(names - used)


def unused_imports(source: str, filename: str = "<module>") -> list:
    return _unread(source, filename, lambda s: s.is_imported())


def unused_private_names(source: str, filename: str = "<module>") -> list:
    """Unread module-level ``_name`` bindings; dunders are exempt."""
    return _unread(source, filename,
                   lambda s: s.get_name().startswith("_")
                   and not s.get_name().endswith("__")
                   and (s.is_assigned() or s.is_imported()))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    path = PACKAGE / module
    assert unused_imports(path.read_text(), str(path)) == []


def test_detector_sees_through_shadowing_and_annotations():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import Callable, Sequence\n"
              "from dataclasses import dataclass, field\n"
              "__all__ = ['dataclass']\n"
              "def integrate(field, x: Sequence) -> float:\n"
              "    return field(x)\n")
    assert unused_imports(source) == ["Callable", "field", "math"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_private_names(module):
    path = PACKAGE / module
    assert unused_private_names(path.read_text(), str(path)) == []


def test_private_name_detector():
    source = ("from __future__ import annotations\n"
              "import math as _math\n"
              "_A = 1\n_B = 2\n_C = 3\n_D = 4\n"
              "x: _D = _A\n"
              "def _f():\n    return _B\n"
              "class _K:\n    __slots__ = ()\n"
              "def g(_C):\n    return _C\n"
              "__all__ = ['x', '_K']\n")
    assert unused_private_names(source) == ["_C", "_f", "_math"]


# the prefix of the derivative fields and arguments that jets replaced
HAND_WRITTEN = "analytic"


def hand_written_names(source: str) -> list:
    """Names, attributes, arguments and keywords with the prefix
    ``HAND_WRITTEN + "_"``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return sorted(n for n in found if n.startswith(HAND_WRITTEN + "_"))


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_hand_written_derivatives(module):
    path = PACKAGE / module
    assert hand_written_names(path.read_text()) == []


def test_hand_written_name_detector():
    p = HAND_WRITTEN + "_"
    source = (f"{p}a = 1\n"
              f"f = SmoothMap(dim=1, forward=g, {p}b=None)\n"
              f"def h(x, {p}c=None):\n    return x.{p}d(x)\n"
              f"def {p}e():\n    pass\n"
              f"x: int = {HAND_WRITTEN}al\n")
    assert hand_written_names(source) == [p + c for c in "abcde"]


# the dependencies that pyproject.toml declares: anything else would be
# imported on every start-up of the CLI, or fail there
RUNTIME_DEPENDENCIES = {"numpy", "click"}


def undeclared_imports(source: str) -> list:
    """Top-level packages of the absolute imports, at any depth, that are
    neither standard library nor a declared dependency."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names)
                  - RUNTIME_DEPENDENCIES)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_imports_only_declared_dependencies(module):
    path = PACKAGE / module
    assert undeclared_imports(path.read_text()) == []


def test_undeclared_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy.linalg as la\n"
              "from . import core\n"
              "from .jets import Jet\n"
              "from click import echo\n"
              "import scipy.linalg\n"
              "def f():\n"
              "    from sympy import Symbol\n"
              "    import mpmath\n"
              "    return Symbol, mpmath\n")
    assert undeclared_imports(source) == ["mpmath", "scipy", "sympy"]


# core applies a map's guard (``core.guarded_images``, ``core.orbit_points``,
# ``SmoothMap.apply``); constructions builds the lift's guard from the base
# map's
GUARD_READERS = {"core.py", "constructions.py"}


def guard_reads(source: str) -> int:
    """Reads of a ``.domain_guard`` attribute."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "domain_guard"
               and isinstance(node.ctx, ast.Load)
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_only_core_reads_the_guard(module):
    path = PACKAGE / module
    assert module in GUARD_READERS or guard_reads(path.read_text()) == 0


def test_guard_read_detector():
    source = ("f = SmoothMap(dim=1, forward=g, domain_guard=h)\n"
              "ok = f.domain_guard(x)\n"
              "guard = f.domain_guard or (lambda x: True)\n"
              "region.guard(x)\n")
    assert guard_reads(source) == 2


# catalog.build parses every catalog parameter, once; a builder or a public
# Lyness function that converts one again would turn a Fraction into a float
PARAMETER_PARSER = "build"


def parameter_conversions(source: str) -> list:
    """``function: float(param)`` for each call of ``float`` or ``int`` on
    a parameter of the function it sits in (nested functions included),
    outside ``PARAMETER_PARSER``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name == PARAMETER_PARSER):
            continue
        args = node.args
        params = {a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None}
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in ("float", "int") and call.args
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in params):
                found.add(f"{node.name}: {call.func.id}({call.args[0].id})")
    return sorted(found)


def test_only_build_converts_catalog_parameters():
    path = PACKAGE / "catalog.py"
    assert parameter_conversions(path.read_text()) == []


def test_parameter_conversion_detector():
    source = ("def build(name, **params):\n"
              "    return {k: float(v) for k, v in params.items()}, int(name)\n"
              "def _build_a(a, b):\n"
              "    a, b = float(a), float(b)\n"
              "def lyness(n, *, a):\n"
              "    if int(n):\n"
              "        def fwd(x):\n"
              "            return float(a) * x[0]\n"
              "        return fwd\n"
              "def blocks(text):\n"
              "    lam = text.split(':')[0]\n"
              "    return float(lam), int(text[0]), str(text)\n")
    assert parameter_conversions(source) == [
        "_build_a: float(a)", "_build_a: float(b)", "lyness: float(a)",
        "lyness: int(n)"]
