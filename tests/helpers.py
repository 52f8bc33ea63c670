"""Helpers that only the tests use: a finite-difference Jacobian to check
jets against, the values of the Lyness integrals at a point, the
one-candidate-at-a-time sampler that ``core.sample`` must match, the count
of flow blow-ups the certifier skips, and a map whose forward raises
DomainError."""

import numpy as np

from dyncert.catalog import ParameterError, lyness_integrals
from dyncert.core import (SAMPLES, SEED, DomainError, RegionSamplingError,
                          SmoothMap)
from dyncert.jets import float_of

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


def reference_sample(region, count=SAMPLES, seed=SEED) -> list[list[float]]:
    """``core.sample`` one candidate at a time: each is one
    ``Generator.uniform(lo, hi)`` draw from the one Philox stream with key
    ``seed``, the guard sees it alone, and the accepted ones are kept in
    order; the oracle the sampler's rounds must match bit for bit.  It stops
    as the sampler does, checking before each candidate."""
    lo = np.asarray([b[0] for b in region.box])
    hi = np.asarray([b[1] for b in region.box])
    gen = np.random.Generator(np.random.Philox(key=seed))
    points, drawn = [], 0
    while len(points) < count:
        if drawn >= 1000 and 1000 * len(points) < drawn:
            raise RegionSamplingError(
                f"guard accepted fewer than 1 in 1000 of {drawn} candidates "
                f"for sample {len(points)}; the region is misconfigured")
        x = gen.uniform(lo, hi)
        drawn += 1
        if region.guard is None or region.guard(list(x)):
            points.append([float(v) for v in x])
    return points


def blow_ups_by_one(points) -> int:
    """How many ``points`` the flow of x1' = x1^2 / x2, x2' = 0 leaves
    before t = 1 ends: x1(t) = x1 / (1 - t x1 / x2) has its pole at
    t = x2 / x1, so a point blows up iff 0 < x2 / x1 <= 1.  ``2x``, the map
    of ``linear blocks=2:1,2:1``, keeps that ratio, so the image of such a
    point blows up too."""
    return sum(0.0 < x2 / x1 <= 1.0 for x1, x2 in points)


def squaring_past_5() -> SmoothMap:
    """x -> x^2 on the line; forward raises DomainError at x > 5 and, as
    ``float_of`` takes no column, is called one point at a time."""
    def forward(x):
        if float_of(x[0]) > 5.0:
            raise DomainError(f"{float_of(x[0])} is past 5")
        return [x[0] * x[0]]

    return SmoothMap(dim=1, forward=forward, name="squaring")
