import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyncert.expressions import (ExpressionError, parse_expression,
                                 structure_from_dict)
from dyncert.jets import fd_jacobian, jet_gradient


class TestParsing:
    def test_arithmetic_precedence(self):
        ev = parse_expression("1 + 2 * 3 - 4 / 2", 1)
        assert ev([0.0]) == 5.0

    def test_power_right_associative(self):
        ev = parse_expression("2 ^ 3 ^ 2", 1)
        assert ev([0.0]) == 512.0

    def test_double_star_alias(self):
        ev = parse_expression("x1 ** 2", 1)
        assert ev([3.0]) == 9.0

    def test_unary_minus(self):
        ev = parse_expression("-x1 + -(2)", 1)
        assert ev([5.0]) == -7.0

    def test_parentheses(self):
        ev = parse_expression("(1 + x1) * (x1 - 1)", 1)
        assert ev([3.0]) == 8.0

    def test_functions_and_constants(self):
        ev = parse_expression("exp(0) + cos(pi) + sqrt(4) + log(e)", 1)
        assert ev([0.0]) == pytest.approx(3.0)

    def test_pow_function(self):
        ev = parse_expression("pow(x1, 3)", 1)
        assert ev([2.0]) == 8.0

    def test_scientific_notation(self):
        ev = parse_expression("1.5e2 + 2.5E-1", 1)
        assert ev([0.0]) == pytest.approx(150.25)

    def test_whitespace_insensitive(self):
        assert parse_expression("x1+x2", 2)([1.0, 2.0]) == \
            parse_expression(" x1 + x2 ", 2)([1.0, 2.0])


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(ExpressionError):
            parse_expression("x1 @ 2", 1)

    def test_trailing_tokens(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse_expression("(x1 + 1", 1)

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            parse_expression("tanh(x1)", 1)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            parse_expression("y1 + 1", 1)

    def test_variable_out_of_range(self):
        with pytest.raises(ExpressionError):
            parse_expression("x3", 2)

    def test_momentum_variable_without_momentum_mode(self):
        with pytest.raises(ExpressionError):
            parse_expression("p1", 2)

    def test_empty_expression(self):
        with pytest.raises(ExpressionError):
            parse_expression("", 1)


class TestEvaluation:
    def test_momentum_split(self):
        ev = parse_expression("p1 * x1 + p2 * x2", 4, momentum=True)
        assert ev([1.0, 2.0, 3.0, 4.0]) == 11.0

    def test_jets_flow_through(self):
        ev = parse_expression("x1^2 * sin(x2)", 2)
        g = jet_gradient(ev, [2.0, 0.5])
        assert g[0] == pytest.approx(4.0 * math.sin(0.5), rel=1e-12)
        assert g[1] == pytest.approx(4.0 * math.cos(0.5), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3))
    def test_matches_python_eval(self, u, v):
        ev = parse_expression("x1*x2 + x1^2 - 3*x2 + 1", 2)
        assert ev([u, v]) == pytest.approx(u * v + u ** 2 - 3 * v + 1,
                                           rel=1e-12, abs=1e-12)


class TestStructureFromDict:
    def test_fields_and_integrals(self):
        s = structure_from_dict({
            "dim": 2,
            "fields": [["-x2", "x1"]],
            "integrals": ["x1^2 + x2^2"],
        })
        assert s.m == 1 and len(s.integrals) == 1
        assert s.fields[0]([1.0, 2.0]) == [-2.0, 1.0]
        assert s.integrals[0]([3.0, 4.0]) == 25.0
        assert np.allclose(s.fields[0].jacobian_at([0.5, 0.5]),
                           [[0, -1], [1, 0]])

    def test_momentum_structure(self):
        s = structure_from_dict({
            "dim": 4,
            "momentum": True,
            "integrals": ["p1", "p2"],
        })
        assert s.integrals[0]([9.0, 9.0, 0.1, 0.2]) == 0.1

    def test_missing_dim(self):
        with pytest.raises(ExpressionError):
            structure_from_dict({"fields": []})

    def test_component_count_mismatch(self):
        with pytest.raises(ExpressionError):
            structure_from_dict({"dim": 2, "fields": [["x1"]]})


REJECTED = ["x1 @ 2", "1 2", "(x1 + 1", "tanh(x1)", "y1", "__import__('os')",
            "(lambda: 1)()", "x1 if x1 else 2", "exp(x=1)", "1_000", "0x10",
            "True", "1j", "exp(x1, 2)", "pow(x1)", "x1[0]", "x1.real",
            "'x1'", "x1 < 2", "-" * 5000 + "x1"]


@pytest.mark.parametrize("text", REJECTED, ids=lambda t: t[:20])
def test_rejected_outside_grammar(text):
    with pytest.raises(ExpressionError):
        parse_expression(text, 2)


# -- property tests over the grammar ----------------------------------------
#
# A generated node is (text, level, reference): ``level`` is the grammar
# rule the text parses as (1 expr, 2 term, 3 factor, 4 power, 5 atom), and
# a child is parenthesised only where the grammar needs it, so the tests
# exercise precedence and associativity.  ``reference`` evaluates the tree
# with ``math`` and raises _Reject when a value leaves [-1e3, 1e3], which
# keeps finite differences accurate.  Arguments of log and sqrt, divisors
# and bases of powers are made positive as ``1 + a^2``.

class _Reject(Exception):
    pass


def _bounded(fn):
    def ref(x):
        v = fn(x)
        if not abs(v) <= 1e3:
            raise _Reject
        return v
    return ref


def _wrap(node, level):
    text, lvl, _ = node
    return text if lvl >= level else f"({text})"


def _positive(node):
    ref = node[2]
    return (f"1 + {_wrap(node, 5)}^2", 1,
            _bounded(lambda x: 1.0 + math.pow(ref(x), 2.0)))


_OPS = {"+": float.__add__, "-": float.__sub__, "*": float.__mul__,
        "/": float.__truediv__}


def _binary(op, a, b):
    if op == "/":
        b = _positive(b)
    level = 1 if op in "+-" else 2
    return (f"{_wrap(a, level)} {op} {_wrap(b, level + 1)}", level,
            _bounded(lambda x: _OPS[op](a[2](x), b[2](x))))


def _negate(a):
    return "-" + _wrap(a, 3), 3, lambda x: -a[2](x)


def _power(a, b):
    base = _positive(a)
    return (f"{_wrap(base, 5)}^{_wrap(b, 3)}", 4,
            _bounded(lambda x: math.pow(base[2](x), b[2](x))))


def _call(name, a, b):
    if name == "pow":
        base = _positive(a)
        return (f"pow({base[0]}, {b[0]})", 5,
                _bounded(lambda x: math.pow(base[2](x), b[2](x))))
    if name in ("log", "sqrt"):
        a = _positive(a)
    fn = getattr(math, name)
    return f"{name}({a[0]})", 5, _bounded(lambda x: fn(a[2](x)))


# a number in one of the grammar's forms, or a named constant; one draw,
# so that variables are half of the leaves
_CONSTANTS = st.tuples(
    st.floats(0.1, 9.9),
    st.sampled_from(["{:.3g}", "{:.0f}", "{:.0f}.", "{:.2e}", "{:.1E}",
                     "pi", "e"]),
).map(lambda t: t[1].format(t[0]))
_NAMED = {"pi": math.pi, "e": math.e}
_LEAVES = st.one_of(
    st.integers(1, 3).map(lambda i: (f"x{i}", 5, lambda x: x[i - 1])),
    _CONSTANTS.map(lambda t: (t, 5, lambda x: _NAMED.get(t) or float(t))))


def _extend(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from("+-*/"), children, children),
        st.builds(_negate, children),
        st.builds(_power, children, children),
        st.builds(_call, st.sampled_from(
            ["exp", "log", "sin", "cos", "sqrt", "pow"]), children, children))


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=8)
POINTS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)


def _reference(node, point):
    try:
        return node[2](point)
    except (_Reject, OverflowError, ValueError):
        assume(False)


class TestGrammarProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(EXPRESSIONS, POINTS)
    def test_value_matches_reference(self, node, point):
        expected = _reference(node, point)
        assert parse_expression(node[0], 3)(point) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(EXPRESSIONS, POINTS)
    def test_jet_gradient_matches_central_differences(self, node, point):
        value = _reference(node, point)
        ev = parse_expression(node[0], 3)
        exact = np.asarray(jet_gradient(ev, point), dtype=float)
        coarse, fine = (np.asarray(fd_jacobian(lambda z: [ev(z)], point,
                                               step=h)[0])
                        for h in (2e-5, 1e-5))
        scale = 1.0 + abs(value) + float(np.max(np.abs(exact)))
        # central differences err by c h^2, so halving h removes 3/4 of the
        # error and |coarse - fine| is three times the error of ``fine``;
        # where they have not converged, they are no reference
        assume(np.max(np.abs(coarse - fine)) <= 1e-3 * scale)
        assert np.all(np.abs(exact - fine)
                      <= np.abs(coarse - fine) + 1e-6 * scale)
