import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import core, jets
from dyncert.catalog import build
from dyncert.constructions import cotangent_lift
from dyncert.jets import (ZERO, DerivativeError, Jet, float_of, jet_gradient,
                          jet_jacobian, seed_jets, solve_linear, transpose)
from helpers import fd_jacobian


def scalar_jet(v, dv=1.0):
    return Jet(v, (dv,))


class TestArithmetic:
    def test_add_sub_constants(self):
        x = scalar_jet(2.0)
        y = x + 3.0 - 1.0
        assert y.value == 4.0
        assert y.partials == (1.0,)

    def test_product_rule(self):
        x, y = seed_jets([3.0, 5.0])
        z = x * y
        assert z.value == 15.0
        assert z.partials == (5.0, 3.0)

    def test_quotient_rule(self):
        x, y = seed_jets([1.0, 4.0])
        z = x / y
        assert z.value == 0.25
        assert z.partials == (0.25, -1.0 / 16.0)

    def test_division_by_zero_value_jet_raises(self):
        x, y = seed_jets([1.0, 0.0])
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            1.0 / y

    def test_integer_power_at_zero_base(self):
        # d/dx x^2 at 0 must be exactly 0, not NaN
        x = scalar_jet(0.0)
        z = x ** 2
        assert z.value == 0.0
        assert z.partials == (0.0,)

    def test_power_zero_exponent(self):
        x = scalar_jet(3.0)
        z = x ** 0
        assert float_of(z) == 1.0
        assert z.partials == (0.0,)

    def test_jet_exponent(self):
        # x^y at (2, 3): d/dx = y x^{y-1} = 12, d/dy = x^y ln x
        x, y = seed_jets([2.0, 3.0])
        z = jets.power(x, y)
        assert float_of(z) == pytest.approx(8.0, rel=1e-14)
        assert float_of(z.partials[0]) == pytest.approx(12.0, rel=1e-14)
        assert float_of(z.partials[1]) == pytest.approx(8.0 * math.log(2.0),
                                                        rel=1e-14)

    def test_mod_keeps_partials(self):
        x = scalar_jet(7.5)
        z = x % (2 * math.pi)
        assert z.value == pytest.approx(7.5 - 2 * math.pi)
        assert z.partials == (1.0,)

    def test_negative_base_jet_exponent_rejected(self):
        x = scalar_jet(3.0)
        with pytest.raises(DerivativeError):
            jets.power(-2.0, x)


class TestElementaryFunctions:
    def test_exp_log_roundtrip(self):
        x = scalar_jet(1.3)
        z = jets.log(jets.exp(x))
        assert float_of(z) == pytest.approx(1.3, rel=1e-14)
        assert z.partials[0] == pytest.approx(1.0, rel=1e-12)

    def test_log_pole(self):
        with pytest.raises(DerivativeError):
            jets.log(scalar_jet(0.0))
        with pytest.raises(DerivativeError):
            jets.log(scalar_jet(-2.0))

    def test_sqrt_negative(self):
        with pytest.raises(DerivativeError):
            jets.sqrt(scalar_jet(-1.0))

    def test_trig_derivatives(self):
        x = scalar_jet(0.7)
        s = jets.sin(x)
        c = jets.cos(x)
        assert s.partials[0] == pytest.approx(math.cos(0.7), rel=1e-14)
        assert c.partials[0] == pytest.approx(-math.sin(0.7), rel=1e-14)

    @pytest.mark.parametrize("fun", [jets.sin, jets.cos])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_trig_of_infinity(self, fun, value):
        # math.sin(inf) raises a ValueError the CLI does not map
        for x in (value, scalar_jet(value)):
            with pytest.raises(DerivativeError):
                fun(x)
        assert math.isnan(fun(math.nan))
        assert math.isnan(float_of(fun(scalar_jet(math.nan))))

    def test_plain_floats_pass_through(self):
        assert jets.exp(0.0) == 1.0
        assert jets.sin(0.0) == 0.0
        assert jets.power(2.0, 10) == 1024.0

    def test_fractional_power_of_negative_value(self):
        for base in (-2.0, scalar_jet(-2.0)):
            with pytest.raises(DerivativeError):
                jets.power(base, 0.5)
        with pytest.raises(DerivativeError):
            scalar_jet(-2.0) ** 1.5
        assert jets.power(-2.0, 2.0) == 4.0
        assert jets.power(-2.0, -1) == -0.5
        y = scalar_jet(-2.0) ** 3.0
        assert (float_of(y), y.partials[0]) == (-8.0, 12.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.2, max_value=2.5))
def test_jet_derivative_matches_finite_differences(u, v):
    def fn(x):
        return [jets.exp(x[0]) * jets.sin(x[1]) + x[0] / jets.sqrt(x[1]),
                jets.log(x[1]) - x[0] * x[1] ** 3]

    exact = np.asarray(jet_jacobian(fn, [u, v]), dtype=float)
    approx = np.asarray(fd_jacobian(fn, [u, v]), dtype=float)
    assert np.max(np.abs(exact - approx)) <= 1e-5 * (1.0 + np.max(np.abs(exact)))


def test_jacobian_of_identity():
    rows = jet_jacobian(lambda x: list(x), [0.4, -1.2, 7.0])
    assert np.allclose(rows, np.eye(3))


def test_jacobian_constant_component_is_zero_row():
    rows = jet_jacobian(lambda x: [x[0] * x[1], 3.0], [2.0, 5.0])
    assert rows[0] == [5.0, 2.0]
    assert rows[1] == [0.0, 0.0]


def test_gradient():
    g = jet_gradient(lambda x: x[0] ** 2 + 3.0 * x[1], [2.0, 1.0])
    assert g == [4.0, 3.0]


def test_nested_jets_second_derivative():
    # d2/dx2 of x^3 at x=2 via a jet whose value is a jet: expect 12
    inner = Jet(2.0, (1.0,))
    outer = Jet(inner, (Jet(1.0, (0.0,)),))
    y = outer ** 3
    first = y.partials[0]       # 3 x^2 as a jet in the inner seed
    assert float_of(y) == 8.0
    assert float_of(first) == 12.0
    assert first.partials[0] == pytest.approx(12.0)  # 6x at x=2


def test_nested_jets_through_elementary_function():
    inner = Jet(0.5, (1.0,))
    outer = Jet(inner, (Jet(1.0, (0.0,)),))
    y = jets.exp(outer)
    assert float_of(y.partials[0]) == pytest.approx(math.exp(0.5), rel=1e-14)
    assert y.partials[0].partials[0] == pytest.approx(math.exp(0.5), rel=1e-14)


class TestLinearSolve:
    def test_float_system(self):
        y = solve_linear([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
        assert y[0] == pytest.approx(1.0)
        assert y[1] == pytest.approx(3.0)

    def test_pivoting(self):
        y = solve_linear([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])
        assert y == [3.0, 2.0]

    def test_singular(self):
        with pytest.raises(DerivativeError):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_jet_entries_differentiate_the_solution(self):
        # solve [[x, 1], [0, 1]] y = [1, 1]: y1 = 0 ... actually
        # y2 = 1, y1 = (1 - 1)/x = 0 with d y1/dx = 0; use b = [2, 1]:
        # y1 = 1/x, d y1/dx = -1/x^2
        x = scalar_jet(2.0)
        y = solve_linear([[x, 1.0], [0.0, 1.0]], [2.0, 1.0])
        assert float_of(y[0]) == pytest.approx(0.5)
        assert y[0].partials[0] == pytest.approx(-0.25)

    def test_ties_pick_the_first_largest_row(self):
        # |a00| = |a10|: keeping row 0 as pivot gives y0 = 1.0333333333333332,
        # swapping in row 1 gives 1.0333333333333334
        a = [[1.0, 0.8], [1.0, 0.2]]
        b = [0.5, 0.9]
        first = [1.0333333333333332, -0.6666666666666666]
        assert solve_linear(a, b) == first
        columns = solve_linear([[np.full(3, v) for v in row] for row in a],
                               [np.full(3, v) for v in b])
        assert [list(y) for y in columns] == [[y] * 3 for y in first]

    def test_transpose(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=2),
       st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=2))
def test_solve_linear_matches_numpy(row_scale, b):
    a = [[4.0 + row_scale[0], 1.0], [1.0, 3.0 + row_scale[1] * 0.1]]
    expected = np.linalg.solve(np.asarray(a), np.asarray(b))
    got = solve_linear(a, list(b))
    assert np.allclose(got, expected, atol=1e-10)


class TestStructuralZeros:
    """A partial that is identically zero stays ``jets.ZERO`` itself."""

    UNARY = [
        lambda t: t + 2.0, lambda t: 2.0 + t, lambda t: t - 2.0,
        lambda t: 2.0 - t, lambda t: -t, lambda t: t * 3.0,
        lambda t: 3.0 * t, lambda t: t / 3.0, lambda t: 3.0 / t,
        lambda t: t ** 2, lambda t: t ** 0.5, lambda t: t ** -1,
        lambda t: t * t, lambda t: t / (t + 1.0), lambda t: t - t * t,
        lambda t: jets.power(t, 1.5), jets.exp, jets.log, jets.sin,
        jets.cos, jets.sqrt,
    ]

    @pytest.mark.parametrize("op", UNARY)
    def test_identity_kept_through_each_operation(self, op):
        x, _ = seed_jets([0.7, 1.3])
        assert x.partials[1] is ZERO
        y = op(x)
        assert y.partials[1] is ZERO
        assert y.partials[0] is not ZERO

    @pytest.mark.parametrize("op", UNARY)
    def test_identity_kept_through_nested_jets(self, op):
        # the outer seed's ZERO stays ZERO, and so does the inner ZERO of
        # an outer partial that is a jet (one that is not is a constant)
        outer = seed_jets(seed_jets([0.7, 1.3]))
        y = op(outer[0])
        assert y.partials[1] is ZERO
        inner = y.partials[0]
        assert not isinstance(inner, Jet) or inner.partials[1] is ZERO

    def test_products_and_quotients_keep_the_nonzero_terms(self):
        x, y, z = seed_jets([0.7, 1.3, -0.4])
        w = (x * y + x / y - y) ** 3
        assert w.partials[2] is ZERO
        assert all(p is not ZERO for p in w.partials[:2])
        assert all(p is ZERO for p in (x ** 0).partials)

    def test_where_of_two_zeros_is_zero(self):
        assert jets._where(np.array([True, False]), ZERO, ZERO) is ZERO

    def test_constant_component_has_zero_partials(self):
        rows = jet_jacobian(lambda x: [x[0], 3.0], [2.0, 5.0])
        assert rows[0][1] is ZERO
        assert all(p is ZERO for p in rows[1])

    def test_infinite_coefficient_on_a_zero_partial(self):
        # the dense rule gave 0 * inf = NaN for d/dx0 of inf * x1; a
        # structural zero keeps the exact derivative
        g = jet_gradient(lambda x: x[0] + math.inf * x[1], [1.0, 2.0])
        assert g == [1.0, math.inf]

    def test_lift_position_block_on_columns_is_zero(self):
        # x' = f(x) does not depend on p: the whole d x'/d p block of the
        # lift's Jacobian stays ZERO on coordinate columns
        f, _, region = build("lyness", n=4)
        points = np.array(core.sample(region, 8, seed=1))
        z = np.hstack([points, np.ones_like(points)])
        rows = cotangent_lift(f).jacobian_at(list(z.T))
        assert all(rows[i][j] is ZERO for i in range(4) for j in range(4, 8))


# programs of (op, operand, operand): each appends one result to the
# registers, which start with the seeded variables.  Coordinate columns
# take the arithmetic only: the elementary functions take one point.
_ARITHMETIC = [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
    lambda a, b: a / (b * b + 1.0), lambda a, b: 1.5 - a,
    lambda a, b: -a, lambda a, b: 0.5 * a, lambda a, b: a / 3.0,
    lambda a, b: 2.0 / (a * a + 1.0), lambda a, b: a ** 2,
    lambda a, b: a ** 0,
]
_ELEMENTARY = [
    lambda a, b: jets.power(a * a + 1.0, 0.5),
    lambda a, b: jets.exp(jets.sin(a)), lambda a, b: jets.log(a * a + 1.0),
    lambda a, b: jets.sin(a), lambda a, b: jets.cos(a),
    lambda a, b: jets.sqrt(a * a + 1.0),
]


def _run_program(program, variables, ops):
    regs = list(variables)
    for op, i, j in program:
        regs.append(ops[op % len(ops)](regs[i % len(regs)],
                                       regs[j % len(regs)]))
    return regs


def _dense_seeds(x):
    # np.float64(0.0) is not ZERO: these seeds take the dense rules
    return [Jet(v, tuple(1.0 if j == i else np.float64(0.0)
                         for j in range(len(x))))
            for i, v in enumerate(x)]


def _assert_same(sparse, dense):
    """Equal values and equal partials, where a number equals a dense jet
    of that value whose partials are all zero."""
    if isinstance(dense, Jet) and not isinstance(sparse, Jet):
        _assert_same(sparse, dense.value)
        for p in dense.partials:
            _assert_same(ZERO, p)
    elif isinstance(sparse, Jet):
        assert isinstance(dense, Jet)
        _assert_same(sparse.value, dense.value)
        for s, d in zip(sparse.partials, dense.partials, strict=True):
            _assert_same(s, d)
    else:
        assert np.all(np.asarray(sparse) == np.asarray(dense))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50),
                          st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=10),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=6,
                max_size=6),
       st.sampled_from(["point", "columns", "nested"]))
def test_sparse_partials_equal_dense_partials(program, coords, mode):
    # three variables, of which the program may use any subset
    ops = _ARITHMETIC + _ELEMENTARY
    if mode == "point":
        x = coords[:3]
    elif mode == "columns":
        x = [np.array(coords[i::3]) for i in range(3)]
        ops = _ARITHMETIC
    else:  # outer seeds over jets: second derivatives
        x = seed_jets(coords[:3])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            dense = _run_program(program, _dense_seeds(x), ops)
        except (ArithmeticError, ValueError):
            return
        sparse = _run_program(program, seed_jets(x), ops)
    for s, d in zip(sparse, dense, strict=True):
        _assert_same(s, d)
