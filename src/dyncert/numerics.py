"""Small dense linear algebra and an adaptive Runge-Kutta flow integrator.

Matrices here are plain ``numpy`` arrays; everything is sized for phase
spaces of dimension <= 16, so backward-stable LAPACK routines (SVD, QR
eigenvalue iteration) are used directly.  ``numerical_rank`` also takes a
stack of matrices, one per sample point, and ranks them in one SVD call.

``integrate_flow`` is Dormand-Prince 5(4) with one tolerance, used as both
the absolute and the relative error bound.  It reuses each accepted step's
last stage as the next step's first, so a step costs six field evaluations.
On a stack of points it calls the field on coordinate columns, but each
row keeps its own step size and ends bit for bit where it would alone.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, on_columns

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
    """Flow of an autonomous field for time ``t`` (DOPRI 5(4)) from a point
    ``x0`` of shape (n,), or from each row of a (points, n) stack.

    Negative ``t`` integrates backwards; ``tol`` is both the absolute and
    the relative error tolerance per step.  The rows of a stack advance in
    lockstep, each with its own step size: every stage calls ``field`` on
    the n coordinate columns of the running rows (``core.on_columns``).  A
    field that fails on columns, for the rest of the integration, and a
    single running row get one list of floats per row.

    A row fails when its step falls below the rounding of ``t`` (a
    finite-time blow-up, or a non-finite state, whose steps are all
    rejected), after ``MAX_STEPS`` steps, or when ``field`` raises
    :class:`DomainError` at one of its points.  A stack returns a failed
    row as NaN; a point raises the error instead, :class:`IntegrationError`
    for the first two.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    single = np.ndim(x0) < 2
    out = np.array(x0, dtype=float, ndmin=2)
    if t == 0.0:
        return out[0] if single else out
    if not math.isfinite(t):
        raise ValueError("integration time must be finite")
    errors = {}  # row -> the error that ended it
    columns = True  # until the field fails on columns

    def rhs(state, rows):  # a row that has failed reads NaN
        nonlocal columns
        if columns and len(rows) > 1:
            values = on_columns(field, state, state.shape[1:])
            if values is not None:
                return values
            columns = False
        values = np.empty_like(state)
        for r, i in enumerate(rows):
            try:
                values[r] = np.nan if i in errors else field(list(state[r]))
            except DomainError as err:
                errors[i] = err
                values[r] = np.nan
        return values

    def fail(mask, message):
        for i, e in zip(rows[mask], elapsed[mask]):
            errors[i] = IntegrationError(f"{message} t={direction * e:g}")

    direction = 1.0 if t > 0 else -1.0
    t_abs = abs(t)
    # the rows still running, and their state, step size and elapsed time;
    # every running row has attempted ``steps`` steps
    rows = np.arange(len(out))
    y = out.copy()
    h = np.full(len(y), t_abs / 100.0)
    elapsed = np.zeros(len(y))
    steps = 0
    first = rhs(y, rows)  # each row's first stage (FSAL)
    while True:
        running = elapsed < t_abs
        if errors:
            running &= [i not in errors for i in rows]
        if steps >= MAX_STEPS:
            fail(running, f"step limit {MAX_STEPS} exhausted at")
            running[:] = False
        under = running & (t_abs + h == t_abs)  # h no longer resolves time
        if under.any():
            fail(under, "step size underflow near")
            running &= ~under
        if not running.all():
            out[rows[~running]] = y[~running]
            rows, y, first, h, elapsed = (
                v[running] for v in (rows, y, first, h, elapsed))
        if not rows.size:
            break
        steps += 1
        last = h >= t_abs - elapsed
        h = np.where(last, t_abs - elapsed, h)
        hd = direction * h[:, None]
        k = [first] + [None] * 6
        for i in range(1, 7):
            yi = y + hd * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(yi, rows)
        # the last stage's point yi is the fifth-order solution
        y4 = y + hd * sum(_B4[i] * k[i] for i in range(7))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(yi))
        err = np.sqrt(np.mean(((yi - y4) / scale) ** 2, axis=1))
        ok = err <= 1.0
        y = np.where(ok[:, None], yi, y)
        first = np.where(ok[:, None], k[6], first)
        elapsed = np.where(ok, np.where(last, t_abs, elapsed + h), elapsed)
        factors = []
        for e in err.tolist():  # Python's **: np.power may round otherwise
            if e > 0.0:
                factor = 0.9 * (1.0 / e) ** 0.2
            else:  # a zero error grows the step, a NaN one shrinks it
                factor = 5.0 if e == 0.0 else 0.2
            factors.append(min(5.0, max(0.2, factor)))
        h = h * factors
    if single and errors:
        raise errors[0]
    out[list(errors)] = np.nan
    return out[0] if single else out
