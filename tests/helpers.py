"""Helpers that only the tests use: a finite-difference Jacobian to check
jets against, and the values of the Lyness integrals at a point."""

from dyncert.catalog import ParameterError, lyness_integrals

_FD_CBRT_EPS = 6.055454452393343e-06  # eps**(1/3)


def fd_jacobian(f, x, step=None) -> list[list]:
    """O(h^2) central-difference Jacobian for black-box callables."""
    x = [float(v) for v in x]
    n = len(x)
    cols = []
    for i in range(n):
        h = step if step is not None else _FD_CBRT_EPS * max(1.0, abs(x[i]))
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        yp = f(xp)
        ym = f(xm)
        cols.append([(a - b) / (2.0 * h) for a, b in zip(yp, ym)])
    return [[cols[j][i] for j in range(n)] for i in range(len(cols[0]))]


def lyness_integral_values(n: int, a: float, x) -> list[float]:
    """Values of every applicable conserved quantity at x."""
    if any(v <= 0 for v in x):
        raise ParameterError("lyness integrals need the positive orthant")
    return [float(g(list(x))) for g in lyness_integrals(n, a)]
