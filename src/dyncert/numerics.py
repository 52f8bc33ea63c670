"""Small dense linear algebra and an adaptive Runge-Kutta flow integrator.

Matrices here are plain ``numpy`` arrays; everything is sized for phase
spaces of dimension <= 16, so backward-stable LAPACK routines (SVD, QR
eigenvalue iteration) are used directly.  ``numerical_rank`` also takes a
stack of matrices, one per sample point, and ranks them in one SVD call.

``integrate_flow`` is Dormand-Prince 5(4) with one tolerance, used as both
the absolute and the relative error bound.  It reuses each accepted step's
last stage as the next step's first, so a step costs six field evaluations.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "IntegrationError",
    "numerical_rank",
    "eigen_moduli",
    "integrate_flow",
]

DEFAULT_RANK_THRESHOLD = 1e-8
FLOW_TOL = 1e-10  # default absolute and relative tolerance of integrate_flow
MAX_STEPS = 10**6  # steps integrate_flow takes before it gives up


class IntegrationError(RuntimeError):
    """Adaptive integration could not reach the requested time."""


def numerical_rank(m, threshold: float = DEFAULT_RANK_THRESHOLD):
    """Rank of a matrix, or of each matrix in a stack, via SVD: the number
    of singular values above ``threshold`` times the largest one."""
    a = np.asarray(m, dtype=float)
    if 0 in a.shape[-2:]:
        raise ValueError("empty matrix")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    sv = np.linalg.svd(a, compute_uv=False)  # descending
    rank = np.count_nonzero(sv > threshold * sv[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank


def eigen_moduli(m) -> np.ndarray:
    """Moduli of all eigenvalues, sorted descending."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigen_moduli needs a square matrix")
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


# Dormand-Prince 5(4) tableau.  Its last row is the fifth-order weights, so
# the seventh stage is the derivative at the fifth-order solution.
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])


def integrate_flow(field, x0, t: float, tol: float = FLOW_TOL) -> np.ndarray:
    """Flow of an autonomous field from ``x0`` for time ``t`` (DOPRI 5(4)).

    ``field`` maps a list of coordinates to the field's components; negative
    ``t`` integrates backwards.  ``tol`` is both the absolute and the
    relative error tolerance per step.  Raises :class:`IntegrationError`
    when the trajectory turns non-finite, when the step no longer advances
    time (finite-time blow-up) or after ``MAX_STEPS`` steps.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    y = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if t == 0.0:
        return y
    if not math.isfinite(t):
        raise ValueError("integration time must be finite")

    def rhs(state):
        return np.asarray(field(list(state)), dtype=float)

    direction = 1.0 if t > 0 else -1.0
    t_abs = abs(t)
    h = t_abs / 100.0
    elapsed = 0.0
    steps = 0
    k = [rhs(y)] + [None] * 6
    while elapsed < t_abs:
        if steps >= MAX_STEPS:
            raise IntegrationError(
                f"step limit {MAX_STEPS} exhausted at t={direction * elapsed:g}")
        steps += 1
        h = min(h, t_abs - elapsed)
        if elapsed + h <= elapsed:
            raise IntegrationError(
                f"step size underflow near t={direction * elapsed:g}")
        hd = direction * h
        for i in range(1, 7):
            yi = y + hd * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(yi)
        y5 = yi  # the last stage's point is the fifth-order solution
        y4 = y + hd * sum(_B4[i] * k[i] for i in range(7))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            y = y5
            k[0] = k[6]
            elapsed += h
            if not np.all(np.isfinite(y)):
                raise IntegrationError(
                    f"trajectory diverged near t={direction * elapsed:g}")
        if err > 0.0:
            factor = 0.9 * (1.0 / err) ** 0.2
        else:  # a zero error grows the step, a NaN one shrinks it
            factor = 5.0 if err == 0.0 else 0.2
        h *= min(5.0, max(0.2, factor))
    return y
