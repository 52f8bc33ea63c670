"""Helpers that only the tests use: a finite-difference Jacobian to check
jets against, the values of the Lyness integrals at a point, the
per-point sampler that ``core.sample`` must match, and a map whose forward
raises DomainError."""

import numpy as np

from dyncert.catalog import ParameterError, lyness_integrals
from dyncert.core import DomainError, RegionSamplingError, SmoothMap
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


def reference_sample(region, count=None, seed=None) -> list[list[float]]:
    """``core.sample`` as one Philox generator per point: the oracle the
    batched sampler must match bit for bit."""
    count = region.sample_count if count is None else count
    seed = region.rng_seed if seed is None else seed
    lo = np.asarray([b[0] + region.margin for b in region.box])
    hi = np.asarray([b[1] - region.margin for b in region.box])
    points = []
    for i in range(count):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        for _ in range(1000):
            x = gen.uniform(lo, hi)
            if region.guard is None or region.guard(list(x)):
                points.append([float(v) for v in x])
                break
        else:
            raise RegionSamplingError(
                f"guard rejected 1000 candidates for sample {i}; "
                "the region is misconfigured")
    return points


def squaring_past_5() -> SmoothMap:
    """x -> x^2 on the line; forward raises DomainError at x > 5 and, as
    ``float_of`` takes no column, is called one point at a time."""
    def forward(x):
        if float_of(x[0]) > 5.0:
            raise DomainError(f"{float_of(x[0])} is past 5")
        return [x[0] * x[0]]

    return SmoothMap(dim=1, forward=forward, name="squaring")
