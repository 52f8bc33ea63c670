"""Small dense linear algebra and an adaptive Runge-Kutta flow integrator.

Matrices here are plain ``numpy`` arrays; everything is sized for phase
spaces of dimension <= 16, so backward-stable LAPACK routines (SVD, QR
eigenvalue iteration) are used directly.  ``numerical_rank`` also takes a
stack of matrices, one per sample point.  A Gram-determinant bound gives
full rank, exactly where the SVD would, to every matrix whose smallest
singular value lies well above the cut; one SVD call ranks the rest.

``integrate_flow`` is DOP853, the Dormand-Prince 8(5,3) pair, with one
tolerance, used as both the absolute and the relative error bound, and
the step control of its reference codes (Hairer's starting step, growth
up to 10 times, a last step within 1% of the time left stretched to it).
Each step ends with the derivative at its new point, which an accepted
step reuses as the next step's first stage, so a step costs 12 field
evaluations.  On a stack of points each stage is one field call on the
coordinate columns of all running rows; each row keeps its own flow time
and step size and ends bit for bit where it would alone, so the flows of
one field for several times are one call.  The state is kept coordinate
by coordinate, so the field gets contiguous columns, and the 13 stages of
a step are one (13, n, rows) stack; each stage is added to the run of
later sums that weight it as soon as it is known, one product and one sum
per stage.
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
# how far above the rank threshold the Gram screen of numerical_rank
# places sigma_k / sigma_1 before it gives full rank without the SVD
SCREEN_MARGIN = 1e3
FLOW_TOL = 1e-10  # default absolute and relative tolerance of integrate_flow
MAX_STEPS = 10**6  # steps integrate_flow takes before it gives up
# largest |t| that certify's flow checks and the translation fit accept:
# the flow of a unit-rate linear field overflows a double near t = 709
MAX_FLOW_TIME = 1e3


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
    than rounding in q or in the SVD can move it.  G is formed for the
    whole stack in one batched product.  Near underflow, det G and the
    right-hand side round to the same subnormal step, which can flip the
    comparison only for q within about a factor 2 of the bound; where G
    overflows, or an entry is not finite, it fails.  The undecided finite
    matrices go to the SVD, in their own orientation."""
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
    with np.errstate(all="ignore"):
        # a contiguous left factor lets @ take the BLAS path
        gram = vectors.transpose(0, 2, 1).copy() @ vectors
        floor = bound * np.trace(gram, axis1=1, axis2=2) ** k
        full = np.linalg.det(gram) > floor
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


# DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, sec. II.10), as scipy's
# dop853_coefficients.py gives it: row i of A weights stages 0..i-1 of
# stage i, B gives the eighth-order solution, and E5 and E3 the fifth- and
# third-order error terms.  The derivative at the new point has weight 0
# in all three; it becomes the next step's first stage.
_A = [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
]
_B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
_E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
_E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
# the 14 sums a step builds, stages 1..11, B, E5 and E3, as rows.  The
# sums that weight stage j form one run, start..stop - 1 (stage 1 only sum
# 1, stage 2 sums 2-3, stage 3 sums 3-10, ...: 74 of the 102 later sums);
# _RUNS[j] holds start, stop and their weights of stage j, as a (stop -
# start, 1, 1) array over the (n, rows) stage j
_SUMS = [*_A[1:], _B, _E5, _E3]
_RUNS = []
for _j in range(12):
    _used = [r for r in range(_j, 14) if _SUMS[r][_j]]
    _RUNS.append((_used[0], _used[-1] + 1,
                  np.reshape([_SUMS[r][_j] for r in _used], (-1, 1, 1))))


def _square_sums(values: np.ndarray) -> np.ndarray:
    """Each row's sum of squares in an (..., n, rows) array: squared into
    (..., rows, n) C order, so a row's n entries are summed as
    np.add.reduce sums one point's (pairwise from n = 8 on)."""
    return np.add.reduce(np.square(np.swapaxes(values, -1, -2), order="C"),
                         axis=-1)


def _eighth_root(values: np.ndarray) -> np.ndarray:
    """values^(1/8) by Python's ``**``, one entry at a time: np.power rounds
    some roots otherwise."""
    return np.array([u ** 0.125 for u in values.tolist()])


def integrate_flow(field, x0, t: float | np.ndarray,
                   tol: float = FLOW_TOL) -> np.ndarray:
    """Flow of an autonomous field (DOP853) from a point ``x0`` of shape
    (n,), or from each row of a (points, n) stack, for time ``t``: a
    number, or one time per row.

    Negative ``t`` integrates backwards; ``tol`` is both the absolute and
    the relative error tolerance per step.  The step control is that of
    the reference codes (Hairer's ``dop853.f``, scipy's ``DOP853``).  The
    first step is Hairer's starting step, on the scale tol (1 + |x0|) of
    the error, from the derivative at x0 and at one Euler probe (one more
    field call), kept within [|t| / 100, |t|].  A step costs 12 field
    calls, 11 stages and the derivative at the new point, which is the
    next step's first stage.  Its error is Hairer's, h |e5|^2 / sqrt((|e5|^2
    + 0.01 |e3|^2) n) over the scaled fifth- and third-order error terms,
    and the step size changes by 0.9 err^(-1/8), clipped to [0.2, 10], with
    the root taken by Python's ``**`` one row at a time; a step within 1%
    of the time left takes all of it.  A step whose stages or new state
    are not finite is rejected.  The rows of a stack advance in
    lockstep, each with its own time and step size: every stage is one
    call of ``field`` on the n coordinate columns of all running rows
    (``core.on_columns``).  A field that fails on columns, for the rest of
    the integration, and a single running row get one list of floats per
    row.  A row whose time is 0 is returned as it is.

    A row fails when its step falls below the rounding of its time (a
    finite-time blow-up, or a non-finite state, whose steps are all
    rejected), when a step no longer than its last accepted one leaves the
    doubles (the state overflows), after ``MAX_STEPS`` steps, or when
    ``field`` raises :class:`DomainError` at one of its points.  A stack
    returns a failed row as NaN; a point raises the error instead,
    :class:`IntegrationError` for all but the last.
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

    def fail(mask, message):  # a row keeps the first error that ended it
        for i, e in zip(rows[mask], (direction * elapsed)[mask]):
            errors.setdefault(i, IntegrationError(f"{message} t={e:g}"))

    # the rows still running: their state y and stages k (k[0] is the
    # first stage, the derivative at y; k[12] the derivative at the new
    # point), coordinate by coordinate, as one (14, n, rows) stack; and
    # their time, direction, step size, elapsed time and last accepted
    # step (0 before the first) as one (5, rows) stack, so the rows that
    # end are dropped by two takes once every state is written out.  Every
    # running row has attempted ``steps`` steps
    times = np.broadcast_to(times, out.shape[:1])
    rows = np.flatnonzero(times)
    stack = np.empty((14, out.shape[1], len(rows)))
    stack[0] = out[rows].T
    per_row = np.zeros((5, len(rows)))
    per_row[:2] = np.abs(times[rows]), np.sign(times[rows])
    y, k = stack[0], stack[1:]
    t_abs, direction, h, elapsed, accepted = per_row
    steps = 0
    k[0] = rhs(y, rows)
    # the starting step (Hairer's HINIT, scipy's select_initial_step): the
    # norms d0 of y and d1 of its derivative give an Euler probe of length
    # h0, whose change of derivative d2 gives h1; fmin and fmax pass over
    # the NaN of a non-finite derivative
    scale = tol + tol * np.abs(y)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d0, d1 = (np.sqrt(_square_sums(v / scale) / len(y))
                  for v in (y, k[0]))
        h0 = np.fmin(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                              0.01 * d0 / d1), t_abs)
        probe = y + direction * h0 * k[0]
    probe = rhs(probe, rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d2 = np.sqrt(_square_sums((probe - k[0]) / scale) / len(y)) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.fmax(1e-6, 1e-3 * h0),
                      _eighth_root(0.01 / np.fmax(d1, d2)))
    h[:] = np.fmax(np.fmin(np.fmin(100.0 * h0, h1), t_abs), t_abs / 100.0)
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
            kept, stack = stack[:2], np.empty((14, len(y), len(rows)))
            kept.take(keep, 2, out=stack[:2])
            y, k = stack[0], stack[1:]
            t_abs, direction, h, elapsed, accepted = per_row
        if not rows.size:
            break
        steps += 1
        left = t_abs - elapsed
        last = 1.01 * h >= left
        np.copyto(h, left, where=last)
        hd = direction * h
        # sums[r] gathers the weighted stages of the r-th sum, each stage
        # added to the run of sums that weight it as soon as it is known,
        # so every sum adds its stages left to right, whatever the shape
        sums = _RUNS[0][2] * k[0]
        for j in range(1, 12):
            k[j] = rhs(y + hd * sums[j - 1], rows)
            start, stop, weights = _RUNS[j]
            sums[start:stop] += weights * k[j]
        new = y + hd * sums[11]
        k[12] = rhs(new, rows)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(new))
        e5, e3 = _square_sums(sums[12:] / scale)
        with np.errstate(invalid="ignore"):
            err = h * e5 / np.sqrt((e5 + 0.01 * e3) * len(y))
        # no error where both error terms vanish (0/0).  A step whose new
        # state or one of its stages is not finite reads NaN, so it is
        # rejected and shrinks: B weights all stages but 1-4, so a stage
        # that is not finite reaches the new state, or is one of those
        # four.  A new state that is not finite from a step no longer than
        # the last accepted one has reached the edge of the doubles
        err[e5 == 0.0] = 0.0
        state = np.isfinite(scale).all(axis=0)
        err[~(state & np.isfinite(k[1:5]).all(axis=(0, 1)))] = np.nan
        edge = ~state & (h <= accepted)
        if edge.any():
            fail(edge, "state overflow near")
        ok = err <= 1.0
        np.copyto(y, new, where=ok)
        np.copyto(k[0], k[12], where=ok)
        np.copyto(accepted, h, where=ok)
        np.add(elapsed, h, out=elapsed, where=ok)
        np.copyto(elapsed, t_abs, where=ok & last)
        # a zero or subnormal error gives inf (the step grows 10 times),
        # fmax takes NaN to 0.2
        with np.errstate(divide="ignore", over="ignore"):
            growth = _eighth_root(1.0 / err)
        h *= np.fmin(10.0, np.fmax(0.2, 0.9 * growth))
    if single and errors:
        raise errors[0]
    out[list(errors)] = np.nan
    return out[0] if single else out
