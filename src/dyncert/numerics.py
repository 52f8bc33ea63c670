"""Small dense linear algebra and an adaptive Runge-Kutta flow integrator.

Matrices here are plain ``numpy`` arrays; everything is sized for phase
spaces of dimension <= 16, so backward-stable LAPACK routines (SVD, QR
eigenvalue iteration) are used directly.  ``numerical_rank`` also takes a
stack of matrices, one per sample point.  A Gram-determinant bound gives
full rank, exactly where the SVD would, to every matrix whose smallest
singular value lies well above the cut; one SVD call ranks the rest.

``integrate_flow`` is Dormand-Prince 5(4) with one tolerance, used as both
the absolute and the relative error bound.  It reuses each accepted step's
last stage as the next step's first, so a step costs six field evaluations.
On a stack of points each stage is one field call on the coordinate columns
of all running rows; each row keeps its own flow time and step size and
ends bit for bit where it would alone, so the flows of one field for
several times are one call.  The state is kept coordinate by coordinate,
so the field gets contiguous columns, and the seven stages of a step are
one stack: each stage sum is one product and one reduction over it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, chunk_length, column_chunks, on_columns

__all__ = [
    "IntegrationError",
    "numerical_rank",
    "eigen_moduli",
    "integrate_flow",
]

DEFAULT_RANK_THRESHOLD = 1e-8
# how far above the rank threshold the Gram screen of numerical_rank
# places sigma_k / sigma_1 before it gives full rank without the SVD
SCREEN_MARGIN = 1e3
FLOW_TOL = 1e-10  # default absolute and relative tolerance of integrate_flow
MAX_STEPS = 10**6  # steps integrate_flow takes before it gives up


class IntegrationError(RuntimeError):
    """Adaptive integration could not reach the requested time."""


def numerical_rank(m, threshold: float = DEFAULT_RANK_THRESHOLD):
    """Rank of a matrix, or of each matrix in a stack, via SVD: the number
    of singular values above ``threshold`` times the largest one; 0 for a
    matrix with a non-finite entry.

    A Gram screen decides most full-rank matrices without the SVD.  With
    the k = min(rows, cols) vectors of A as columns, G = A^T A has
    eigenvalues sigma_i^2; the k - 1 largest multiply to at most
    (tr(G) / (k - 1))^(k - 1) (AM-GM), and sigma_1^2 <= tr(G), so
    sigma_k^2 / sigma_1^2 >= q = (k - 1)^(k - 1) det G / tr(G)^k.  An
    orthonormal A has q = (1 - 1/k)^(k - 1) / k > 1 / (e k).  Rounding in
    G and det G moves q by about (rows + k^2) eps.  The screen gives rank
    k where q > SCREEN_MARGIN max(SCREEN_MARGIN threshold^2, that
    rounding): sigma_k / sigma_1 then lies far above the cut, farther
    than rounding in q or in the SVD can move it.  G is formed one chunk
    of matrices at a time.  Near underflow, det G and the right-hand side
    round to the same subnormal step, which can flip the comparison only
    for q within about a factor 2 of the bound; where G overflows, or an
    entry is not finite, it fails.  The undecided finite matrices go to
    the SVD, in their own orientation."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or 0 in a.shape[-2:]:
        raise ValueError("numerical_rank needs a non-empty matrix")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    stack = a.reshape(-1, *a.shape[-2:])
    vectors = stack if stack.shape[1] >= stack.shape[2] else \
        stack.transpose(0, 2, 1)
    rows, k = vectors.shape[1:]
    rounding = (rows + k * k) * np.finfo(float).eps
    bound = SCREEN_MARGIN * max(SCREEN_MARGIN * threshold ** 2, rounding) \
        / (k - 1) ** (k - 1)
    full = np.zeros(len(stack), dtype=bool)
    with np.errstate(all="ignore"):
        for chunk in column_chunks(len(stack), chunk_length((k, k))):
            columns = vectors[chunk]
            # a contiguous left factor lets @ take the BLAS path
            gram = columns.transpose(0, 2, 1).copy() @ columns
            floor = bound * np.trace(gram, axis1=1, axis2=2) ** k
            full[chunk] = np.linalg.det(gram) > floor
    rank = np.where(full, k, 0)
    rest = np.flatnonzero(~full & np.isfinite(stack).all(axis=(1, 2)))
    if len(rest):
        sv = np.linalg.svd(stack[rest], compute_uv=False)  # descending
        rank[rest] = np.count_nonzero(sv > threshold * sv[:, :1], axis=-1)
    return int(rank[0]) if a.ndim == 2 else rank.reshape(a.shape[:-2])


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
# the weights of each stage sum, and the fourth-order weights last, as
# (stages, 1, 1) arrays over a (7, n, rows) stage stack
_WEIGHTS = [np.reshape(w, (-1, 1, 1)) for w in (*_A, _B4)]


def integrate_flow(field, x0, t: float | np.ndarray,
                   tol: float = FLOW_TOL) -> np.ndarray:
    """Flow of an autonomous field (DOPRI 5(4)) from a point ``x0`` of
    shape (n,), or from each row of a (points, n) stack, for time ``t``: a
    number, or one time per row.

    Negative ``t`` integrates backwards; ``tol`` is both the absolute and
    the relative error tolerance per step.  The rows of a stack advance in
    lockstep, each with its own time and step size: every stage is one
    call of ``field`` on the n coordinate columns of all running rows
    (``core.on_columns``).  A field that fails on columns, for the rest of
    the integration, and a single running row get one list of floats per
    row.  A row whose time is 0 is returned as it is.

    A row fails when its step falls below the rounding of its time (a
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
    times = np.asarray(t, dtype=float)
    if times.ndim and times.shape != out.shape[:1]:
        raise ValueError(f"t must be a number or one time per row, got "
                         f"shape {times.shape} for {len(out)} rows")
    if not np.all(np.isfinite(times)):
        raise ValueError("integration time must be finite")
    errors = {}  # row -> the error that ended it
    columns = True  # until the field fails on columns, or one row runs

    def rhs(state, rows):  # (n, rows) to (n, rows); a failed row reads NaN
        nonlocal columns
        values = (on_columns(field, state.T, state.shape[:1]) if columns
                  else None)
        columns = values is not None
        if columns:
            return values.T
        values = np.empty_like(state)
        for r, i in enumerate(rows):
            try:
                values[:, r] = (np.nan if i in errors
                                else field(list(state[:, r])))
            except DomainError as err:
                errors[i] = err
                values[:, r] = np.nan
        return values

    def fail(mask, message):
        for i, e in zip(rows[mask], (direction * elapsed)[mask]):
            errors[i] = IntegrationError(f"{message} t={e:g}")

    # the rows still running: their state y and stages k (k[0] is the
    # first stage, FSAL), coordinate by coordinate, as one (8, n, rows)
    # stack; and their time, direction, step size and elapsed time as one
    # (4, rows) stack, so the rows that end are dropped by two takes once
    # every state is written out.  Every running row has attempted
    # ``steps`` steps
    times = np.broadcast_to(times, out.shape[:1])
    rows = np.flatnonzero(times)
    stack = np.empty((8, out.shape[1], len(rows)))
    stack[0] = out[rows].T
    t_abs = np.abs(times[rows])
    per_row = np.array([t_abs, np.sign(times[rows]), t_abs / 100.0,
                        np.zeros(len(rows))])
    y, k = stack[0], stack[1:]
    t_abs, direction, h, elapsed = per_row
    steps = 0
    k[0] = rhs(y, rows)
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
            out[rows] = y.T
            keep = np.flatnonzero(running)
            rows, per_row = rows[keep], per_row.take(keep, 1)
            kept, stack = stack[:2], np.empty((8, len(y), len(rows)))
            kept.take(keep, 2, out=stack[:2])
            y, k = stack[0], stack[1:]
            t_abs, direction, h, elapsed = per_row
        if not rows.size:
            break
        steps += 1
        left = t_abs - elapsed
        last = h >= left
        np.copyto(h, left, where=last)
        hd = direction * h
        # a reduction over the stages from an initial 0 adds them left to
        # right, as Python's sum does
        for i in range(1, 7):
            yi = y + hd * np.add.reduce(_WEIGHTS[i] * k[:i], initial=0.0)
            k[i] = rhs(yi, rows)
        # the last stage's point yi is the fifth-order solution
        y4 = y + hd * np.add.reduce(_WEIGHTS[7] * k, initial=0.0)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(yi))
        # squared into (rows, n) C order: a row's n entries are then summed
        # as np.mean sums one point's
        err = np.sqrt(np.add.reduce(np.square(((yi - y4) / scale).T,
                                              order="C"), axis=1) / len(y))
        ok = err <= 1.0
        if ok.all():  # no row rejected its step: plain copies
            y[...] = yi
            k[0] = k[6]
            np.add(elapsed, h, out=elapsed)
            np.copyto(elapsed, t_abs, where=last)
        else:
            np.copyto(y, yi, where=ok)
            np.copyto(k[0], k[6], where=ok)
            np.add(elapsed, h, out=elapsed, where=ok)
            np.copyto(elapsed, t_abs, where=ok & last)
        # Python's **: np.power rounds some errors otherwise.  A zero error
        # gives inf (the step grows 5 times), fmax takes NaN to 0.2
        with np.errstate(divide="ignore"):
            growth = [u ** 0.2 for u in (1.0 / err).tolist()]
        h *= np.fmin(5.0, np.fmax(0.2, 0.9 * np.array(growth)))
    if single and errors:
        raise errors[0]
    out[list(errors)] = np.nan
    return out[0] if single else out
