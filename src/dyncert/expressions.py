"""Tiny arithmetic expression language for user-supplied structures.

Grammar (infix, left-associative, ``^`` right-associative):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is digits with an optional fraction and exponent (``2``, ``.5``,
``1.5e-3``); ``**`` is an alias of ``^``.  Variables are ``x1..xn`` and
``p1..pn``; functions are exp, log, sin, cos, sqrt (one argument) and pow
(two); constants pi and e.  Python's parser has this precedence and
associativity, so the text is parsed with ``ast`` and every node outside the
grammar is rejected.  Compiled expressions evaluate on floats or jets, so
parsed fields and integrals are differentiable.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable

from . import jets
from .core import IntegrabilityStructure, ScalarField, VectorField

__all__ = ["ExpressionError", "parse_expression", "structure_from_dict"]


class ExpressionError(ValueError):
    pass


_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")

_FUNCTIONS: dict[str, Callable] = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "pow": jets.power,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


class _Grammar(ast.NodeTransformer):
    """Reject every node outside the grammar; fold pi and e, turn numbers
    into floats and ``^`` into ``pow`` calls, so jets go through
    ``jets.power``."""

    def __init__(self, source: str, names: list[str]):
        self.source = source
        self.names = names

    def generic_visit(self, node):
        raise ExpressionError(f"unsupported syntax {ast.unparse(node)!r}")

    def visit_BinOp(self, node):
        if not isinstance(node.op, _BINARY):
            return self.generic_visit(node)
        left, right = self.visit(node.left), self.visit(node.right)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("pow", ast.Load()), [left, right], [])
        node.left, node.right = left, right
        return node

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.UAdd):
            return self.visit(node.operand)
        if not isinstance(node.op, ast.USub):
            return self.generic_visit(node)
        node.operand = self.visit(node.operand)
        return node

    def visit_Name(self, node):
        if node.id in _CONSTANTS:
            return ast.Constant(_CONSTANTS[node.id])
        if node.id not in self.names:
            raise ExpressionError(f"unknown variable {node.id!r}; expected "
                                  f"one of {', '.join(self.names)}")
        return node

    def visit_Constant(self, node):
        text = ast.get_source_segment(self.source, node)
        if not _NUMBER.fullmatch(text):
            raise ExpressionError(f"bad number {text!r}")
        return ast.Constant(float(text))

    def visit_Call(self, node):
        name = getattr(node.func, "id", None)
        if name not in _FUNCTIONS:
            raise ExpressionError(
                f"unknown function {ast.unparse(node.func)!r}")
        arity = 2 if name == "pow" else 1
        if node.keywords or len(node.args) != arity:
            raise ExpressionError(f"{name} takes {arity} positional "
                                  f"argument{'s' if arity > 1 else ''}")
        node.args = [self.visit(a) for a in node.args]
        return node


def parse_expression(text: str, dim: int,
                     momentum: bool = False) -> Callable:
    """Compile an expression over x1..xn (and p1..pn when ``momentum``)
    into a callable on points."""
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {text!r}")
    half = dim // 2 if momentum else dim
    names = [f"x{i + 1}" for i in range(half)]
    if momentum:
        names += [f"p{i + 1}" for i in range(half)]
    source = " ".join(text.split()).replace("^", "**")
    params = ast.arguments(posonlyargs=[], args=[ast.arg(n) for n in names],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    try:
        tree = ast.parse(source, mode="eval")
        body = _Grammar(source, names).visit(tree.body)
        lam = ast.Expression(ast.Lambda(params, body))
        code = compile(ast.fix_missing_locations(lam), "<expression>", "eval")
    except SyntaxError as err:
        raise ExpressionError(f"cannot parse {text!r}: {err.msg}") from err
    except RecursionError as err:
        raise ExpressionError(f"expression nested too deeply: "
                              f"{text[:40]!r}...") from err
    fn = eval(code, {"__builtins__": {}, **_FUNCTIONS})
    k = len(names)
    return lambda point: fn(*point[:k])


def structure_from_dict(data: dict) -> IntegrabilityStructure:
    """Build a structure from {dim, fields: [[expr, ...], ...],
    integrals: [expr, ...], momentum: bool}."""
    try:
        dim = int(data["dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise ExpressionError("structure file needs an integer 'dim'") from err
    momentum = bool(data.get("momentum", False))
    if momentum and dim % 2:
        raise ExpressionError("a momentum structure needs an even 'dim'")
    fields = []
    for i, comps in enumerate(data.get("fields", [])):
        if not isinstance(comps, list) or len(comps) != dim:
            raise ExpressionError(
                f"field {i + 1} must be a list of {dim} expressions")
        evs = [parse_expression(c, dim, momentum) for c in comps]

        def ev(x, _evs=tuple(evs)):
            return [e(x) for e in _evs]

        fields.append(VectorField(dim=dim, func=ev, name=f"X{i + 1}"))
    integrals = []
    for i, expr in enumerate(data.get("integrals", [])):
        ev = parse_expression(expr, dim, momentum)
        integrals.append(ScalarField(dim=dim, func=ev, name=f"F{i + 1}"))
    try:
        return IntegrabilityStructure(dim=dim, fields=tuple(fields),
                                      integrals=tuple(integrals))
    except ValueError as err:  # more fields and integrals than dim
        raise ExpressionError(str(err)) from err
