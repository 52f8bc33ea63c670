"""First-order forward-mode differentiation with multi-seed jets.

A :class:`Jet` carries a value together with its derivatives along ``d``
independent seed directions.  Arithmetic follows the exact chain, product
and quotient rules, so derivatives of compositions of the supported
primitives are exact up to floating-point rounding.

Jets nest: the ``value`` slot of a jet may itself be a jet.  This is what
makes it possible to differentiate through code that internally computes a
Jacobian (e.g. the momentum component of a cotangent lift), yielding exact
second derivatives without a dedicated second-order mode.

A partial that is identically zero (a seed's off-diagonal entry, and
whatever the rules make of it) is the one shared float :data:`ZERO`, never
an array or a jet of zeros.  Each operation tests ``a is ZERO`` and skips
the arithmetic on it, the sparsity saving of forward mode.  Values are
unchanged by this; a partial differs from the dense rules only in the sign
of a zero, and where an operand is inf or NaN: dense ``0 * inf`` is NaN,
while a structural zero stays the exact derivative 0.  Any other zero,
``np.float64(0.0)`` included, takes the dense path.

Operations may return an operand's partial object (``x + 1.0`` shares the
partials of ``x``, and ``ZERO + b`` is ``b``), so a partial must never be
written in place.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ZERO",
    "Jet",
    "DerivativeError",
    "seed_jets",
    "float_of",
    "jet_jacobian",
    "jet_gradient",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "power",
    "left_sum",
    "solve_linear",
    "transpose",
]


# the partial that is identically zero; compared by identity
ZERO = 0.0


class DerivativeError(ValueError):
    """Raised when a derivative cannot be produced (pole, bad shape, ...)."""


class Jet:
    __slots__ = ("value", "partials")
    # numpy defers to Jet's operators, so an array of values (one per
    # point) on the left of a jet gives a jet, not an array of jets
    __array_ufunc__ = None

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value,
                       tuple(b if a is ZERO else a if b is ZERO else a + b
                             for a, b in zip(self.partials, other.partials)))
        return Jet(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value,
                       tuple(a if b is ZERO else -b if a is ZERO else a - b
                             for a, b in zip(self.partials, other.partials)))
        return Jet(self.value - other, self.partials)

    def __rsub__(self, other):
        return Jet(other - self.value, _negated(self.partials))

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, v = self.value, other.value
            return Jet(u * v,
                       tuple((b if b is ZERO else u * b) if a is ZERO
                             else a * v if b is ZERO else a * v + u * b
                             for a, b in zip(self.partials, other.partials)))
        return Jet(self.value * other,
                   tuple(a if a is ZERO else a * other for a in self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if _has_zero(other.value):
                raise ZeroDivisionError("jet division by a jet with zero value")
            u, v = self.value, other.value
            return Jet(u / v,
                       tuple((b if b is ZERO else -(u * b) / (v * v))
                             if a is ZERO
                             else a * v / (v * v) if b is ZERO
                             else (a * v - u * b) / (v * v)
                             for a, b in zip(self.partials, other.partials)))
        if _has_zero(other):
            raise ZeroDivisionError("jet division by zero")
        return Jet(self.value / other,
                   tuple(a if a is ZERO else a / other for a in self.partials))

    def __rtruediv__(self, other):
        if _has_zero(self.value):
            raise ZeroDivisionError("jet division by a jet with zero value")
        v = self.value
        return Jet(other / v, tuple(a if a is ZERO else -other * a / (v * v)
                                    for a in self.partials))

    def __neg__(self):
        return Jet(-self.value, _negated(self.partials))

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            return exp(exponent * log(self))
        if exponent == 0:
            return Jet(self.value * 0 + 1.0, (ZERO,) * len(self.partials))
        if isinstance(exponent, int) and exponent > 0:
            # keep integer powers exact at zero base
            out = self
            for _ in range(exponent - 1):
                out = out * self
            return out
        dv = exponent * power(self.value, exponent - 1)
        return Jet(power(self.value, exponent),
                   tuple(a if a is ZERO else dv * a for a in self.partials))

    def __mod__(self, modulus):
        # constant shift per branch; derivative unchanged
        return Jet(self.value % modulus, self.partials)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.partials!r})"


def _negated(partials):
    return tuple(a if a is ZERO else -a for a in partials)


def _base(x):
    """The number or coordinate column underneath a nested jet."""
    while isinstance(x, Jet):
        x = x.value
    return x


def float_of(x) -> float:
    """Plain float underneath an arbitrarily nested jet."""
    return float(_base(x))


def _has_zero(x) -> bool:
    """Whether the value under a jet is zero, at any point of a column."""
    x = _base(x)
    return bool((x == 0.0).any()) if isinstance(x, np.ndarray) else x == 0.0


# -- elementary functions ----------------------------------------------


def _lift(x, fun: Callable[[float], float], dfun: Callable):
    if isinstance(x, Jet):
        d = dfun(x.value)
        return Jet(_lift(x.value, fun, dfun) if isinstance(x.value, Jet) else fun(x.value),
                   tuple(a if a is ZERO else d * a for a in x.partials))
    return fun(x)


def exp(x):
    return _lift(x, math.exp, lambda v: exp(v))


def log(x):
    if float_of(x) <= 0.0:
        raise DerivativeError("log of non-positive value")
    return _lift(x, math.log, lambda v: 1.0 / v)


def sin(x):
    if math.isinf(float_of(x)):
        raise DerivativeError("sin of an infinite value")
    return _lift(x, math.sin, lambda v: cos(v))


def cos(x):
    if math.isinf(float_of(x)):
        raise DerivativeError("cos of an infinite value")
    return _lift(x, math.cos, lambda v: -sin(v))


def sqrt(x):
    if float_of(x) < 0.0:
        raise DerivativeError("sqrt of negative value")
    return _lift(x, math.sqrt, lambda v: 0.5 / sqrt(v))


def power(x, y):
    """x**y for jets or numbers; y may be a jet.  A negative x needs an
    integer y: its fractional powers are not real."""
    if isinstance(x, Jet) or isinstance(y, Jet):
        if isinstance(x, Jet):
            return x ** y
        if x <= 0:
            raise DerivativeError("power with non-positive base and jet exponent")
        return exp(y * math.log(x))
    if x < 0 and not float(y).is_integer():
        raise DerivativeError("fractional power of a negative value")
    return x ** y


def left_sum(terms):
    """0 + t_1 + t_2 + ..., left to right, on floats, arrays and jets alike.
    Builtin ``sum`` compensates a sum of floats since Python 3.12, not one
    of arrays, so it gives a point alone other bits than on its column."""
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


# -- jacobians ----------------------------------------------------------


def seed_jets(x: Sequence) -> list[Jet]:
    """Wrap a point into jets with the identity seed matrix."""
    n = len(x)
    return [Jet(x[i], tuple(1.0 if j == i else ZERO for j in range(n)))
            for i in range(n)]


def jet_jacobian(f: Callable, x: Sequence) -> list[list]:
    """Jacobian rows of ``f`` at ``x`` via forward-mode jets.

    ``f`` takes a sequence and returns a sequence.  Entries of ``x`` may be
    floats or jets (nested differentiation); rows come back as lists whose
    entries are floats or jets accordingly.
    """
    jx = seed_jets(list(x))
    y = f(jx)
    n = len(jx)
    rows = []
    for comp in y:
        if isinstance(comp, Jet):
            rows.append(list(comp.partials))
        else:
            rows.append([ZERO] * n)  # component does not depend on x
    return rows


def jet_gradient(f: Callable, x: Sequence) -> list:
    """Gradient of the scalar ``f`` at ``x``, its Jacobian's one row."""
    return jet_jacobian(lambda v: [f(v)], x)[0]


# -- small generic linear algebra ----------------------------------------

# Gaussian elimination written against the jet arithmetic so that systems
# whose coefficients carry derivative information stay differentiable.


def transpose(rows: list[list]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def _where(mask, x, y):
    """x at the points of ``mask`` and y elsewhere, entry by entry of two
    jets of the same structure."""
    if x is ZERO and y is ZERO:
        return ZERO
    if isinstance(x, Jet) and isinstance(y, Jet):
        return Jet(_where(mask, x.value, y.value),
                   (_where(mask, u, v)
                    for u, v in zip(x.partials, y.partials)))
    if isinstance(x, Jet) or isinstance(y, Jet):
        raise DerivativeError("pivot rows of different jet structure")
    return np.where(mask, x, y)


def solve_linear(a_rows: list[list], b: list) -> list:
    """Solve A y = b with partial pivoting; entries may be jets, and their
    values coordinate columns, each point with its own pivot."""
    n = len(b)
    a = [list(row) + [b[i]] for i, row in enumerate(a_rows)]
    for col in range(n):
        size = [abs(_base(a[r][col])) for r in range(col, n)]
        # one point, or a matrix that is constant over the columns
        if not any(isinstance(v, np.ndarray) for v in size):
            pivot = col + max(range(n - col), key=size.__getitem__)
            if not size[pivot - col]:
                raise DerivativeError("singular linear system")
            a[col], a[pivot] = a[pivot], a[col]
        else:  # each point its own pivot
            size = np.broadcast_arrays(*size)
            pivot = col + np.argmax(size, axis=0)  # the first largest
            if not np.all(np.max(size, axis=0)):
                raise DerivativeError("singular linear system")
            for r in range(col + 1, n):  # swap row col with each pivot row
                at = pivot == r
                if np.all(at):
                    a[col], a[r] = a[r], a[col]
                elif np.any(at):
                    top = [_where(at, u, v) for u, v in zip(a[r], a[col])]
                    a[r] = [_where(at, u, v) for u, v in zip(a[col], a[r])]
                    a[col] = top
        inv = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / inv
            a[r] = [a[r][k] - factor * a[col][k] for k in range(n + 1)]
    y = [None] * n
    for row in range(n - 1, -1, -1):
        acc = a[row][n]
        for k in range(row + 1, n):
            acc = acc - a[row][k] * y[k]
        y[row] = acc / a[row][row]
    return y
