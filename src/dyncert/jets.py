"""First-order forward-mode differentiation with multi-seed jets.

A :class:`Jet` carries a value together with its derivatives along ``d``
independent seed directions.  Arithmetic follows the exact chain, product
and quotient rules, so derivatives of compositions of the supported
primitives are exact up to floating-point rounding.

Jets nest: the ``value`` slot of a jet may itself be a jet.  This is what
makes it possible to differentiate through code that internally computes a
Jacobian (e.g. the momentum component of a cotangent lift), yielding exact
second derivatives without a dedicated second-order mode.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = [
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
    "solve_linear",
    "transpose",
]


class DerivativeError(ValueError):
    """Raised when a derivative cannot be produced (pole, bad shape, ...)."""


class Jet:
    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value,
                       tuple(a + b for a, b in zip(self.partials, other.partials)))
        return Jet(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value,
                       tuple(a - b for a, b in zip(self.partials, other.partials)))
        return Jet(self.value - other, self.partials)

    def __rsub__(self, other):
        return Jet(other - self.value, tuple(-a for a in self.partials))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value * other.value,
                       tuple(a * other.value + self.value * b
                             for a, b in zip(self.partials, other.partials)))
        return Jet(self.value * other, tuple(a * other for a in self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if float_of(other.value) == 0.0:
                raise ZeroDivisionError("jet division by a jet with zero value")
            v = other.value
            return Jet(self.value / v,
                       tuple((a * v - self.value * b) / (v * v)
                             for a, b in zip(self.partials, other.partials)))
        if float_of(other) == 0.0:
            raise ZeroDivisionError("jet division by zero")
        return Jet(self.value / other, tuple(a / other for a in self.partials))

    def __rtruediv__(self, other):
        if float_of(self.value) == 0.0:
            raise ZeroDivisionError("jet division by a jet with zero value")
        v = self.value
        return Jet(other / v, tuple(-other * a / (v * v) for a in self.partials))

    def __neg__(self):
        return Jet(-self.value, tuple(-a for a in self.partials))

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            return exp(exponent * log(self))
        if exponent == 0:
            return Jet(self.value * 0 + 1.0, tuple(a * 0.0 for a in self.partials))
        if isinstance(exponent, int) and exponent > 0:
            # keep integer powers exact at zero base
            out = self
            for _ in range(exponent - 1):
                out = out * self
            return out
        dv = exponent * power(self.value, exponent - 1)
        return Jet(power(self.value, exponent),
                   tuple(dv * a for a in self.partials))

    def __mod__(self, modulus):
        # constant shift per branch; derivative unchanged
        return Jet(self.value % modulus, self.partials)

    def __repr__(self):
        return f"Jet({self.value!r}, {self.partials!r})"


def float_of(x) -> float:
    """Plain float underneath an arbitrarily nested jet."""
    while isinstance(x, Jet):
        x = x.value
    return float(x)


# -- elementary functions ----------------------------------------------


def _lift(x, fun: Callable[[float], float], dfun: Callable):
    if isinstance(x, Jet):
        d = dfun(x.value)
        return Jet(_lift(x.value, fun, dfun) if isinstance(x.value, Jet) else fun(x.value),
                   tuple(d * a for a in x.partials))
    return fun(x)


def exp(x):
    return _lift(x, math.exp, lambda v: exp(v))


def log(x):
    if float_of(x) <= 0.0:
        raise DerivativeError("log of non-positive value")
    return _lift(x, math.log, lambda v: 1.0 / v)


def sin(x):
    return _lift(x, math.sin, lambda v: cos(v))


def cos(x):
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


# -- jacobians ----------------------------------------------------------


def seed_jets(x: Sequence) -> list[Jet]:
    """Wrap a point into jets with the identity seed matrix."""
    n = len(x)
    return [Jet(x[i], tuple(1.0 if j == i else 0.0 for j in range(n)))
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
            rows.append([0.0] * n)  # component does not depend on x
    return rows


def jet_gradient(f: Callable, x: Sequence) -> list:
    jx = seed_jets(list(x))
    y = f(jx)
    if isinstance(y, Jet):
        return list(y.partials)
    return [0.0] * len(jx)


# -- small generic linear algebra ----------------------------------------

# Gaussian elimination written against the jet arithmetic so that systems
# whose coefficients carry derivative information stay differentiable.


def transpose(rows: list[list]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def solve_linear(a_rows: list[list], b: list) -> list:
    """Solve A y = b with partial pivoting; entries may be jets."""
    n = len(b)
    a = [list(row) + [b[i]] for i, row in enumerate(a_rows)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(float_of(a[r][col])))
        if abs(float_of(a[pivot][col])) == 0.0:
            raise DerivativeError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
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
