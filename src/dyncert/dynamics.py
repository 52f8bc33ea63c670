"""Orbit-level evidence: orbits, periodic points, Lyapunov spectra,
rotation numbers, conservation drift and translation-vector fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .core import (DomainError, IntegrabilityStructure, SamplingRegion,
                   SmoothMap, column_chunks, orbit_points, point_stack,
                   sample)
from .numerics import eigen_moduli, integrate_flow

__all__ = [
    "Orbit",
    "PeriodicPoint",
    "RotationEstimate",
    "TranslationEstimate",
    "ConvergenceError",
    "NonMonotoneMapError",
    "compute_orbit",
    "find_periodic_points",
    "lyapunov_spectrum",
    "rotation_number",
    "level_set_drift",
    "estimate_translation_vector",
]

HYPERBOLICITY_TOL = 1e-6
NEWTON_ITERATIONS = 50  # per start point of either Newton search
PERIODIC_TOL = 1e-12  # |f^k(x) - x| relative to 1 + |x|
DEDUP_RADIUS = 1e-6  # periodic points closer than this are one point
TRANSLATION_TOL = 1e-11  # shooting residual relative to 1 + |f(x)|
TRANSLATION_FLOW_TOL = 1e-12  # integrator tolerance of the shooting flows
QR_CONDITION = 1e6  # about the largest R_11 / R_nn of a block product
QR_GROWTH = 1e60  # |R_ii| of a block product within this factor of 1
QR_MAX_BLOCK = 64  # Jacobian products between two QR factorisations


class ConvergenceError(RuntimeError):
    pass


class NonMonotoneMapError(ValueError):
    pass


@dataclass(frozen=True)
class Orbit:
    points: tuple[tuple[float, ...], ...]
    map_name: str
    x0: tuple[float, ...]
    guard_failures: int = 0

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PeriodicPoint:
    x: tuple[float, ...]
    period: int
    multiplier_moduli: tuple[float, ...]
    classification: str  # hyperbolic | elliptic | parabolic-tolerance


@dataclass(frozen=True)
class RotationEstimate:
    value: float
    window_estimates: tuple[float, ...]
    dispersion: float


@dataclass(frozen=True)
class TranslationEstimate:
    t0: tuple[float, ...]
    residual: float


def compute_orbit(f: SmoothMap, x0, n_steps: int) -> Orbit:
    """First n_steps iterates of x0 (inclusive endpoints), with circle
    reduction; stops early on a guard failure and records it."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pts = []
    failures = 0
    try:
        for x in islice(orbit_points(f, x0), n_steps + 1):
            pts.append(tuple(x))
    except DomainError:
        if not pts:  # x0 itself violates the guard
            raise
        failures = 1
    return Orbit(points=tuple(pts), map_name=f.name or "map",
                 x0=tuple(float(v) for v in x0), guard_failures=failures)


def _iterate_with_jacobian(f: SmoothMap, x, k: int):
    """(f^k(x), D f^k(x)) with the Jacobian chained along the orbit."""
    jac = np.eye(f.dim)
    y = list(x)
    for _ in range(k):
        jac = np.asarray(f.jacobian_at(y), dtype=float) @ jac
        y = f.apply(y)
    return y, jac


def _classify(moduli) -> str:
    off_unit = [abs(m - 1.0) > HYPERBOLICITY_TOL for m in moduli]
    if all(off_unit):
        return "hyperbolic"
    if not any(off_unit):
        return "elliptic"
    return "parabolic-tolerance"


def find_periodic_points(f: SmoothMap, k: int, region: SamplingRegion,
                         seed_count: int = 100,
                         seed: int | None = None) -> list[PeriodicPoint]:
    """Newton search for roots of f^k(x) - x from sampled starting points.

    Non-convergent seeds are dropped; converged roots are deduplicated and
    classified through the eigenvalue moduli of D(f^k).  The minimal period
    is recorded via a divisor check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    starts = sample(region, seed_count, seed)
    found: list[PeriodicPoint] = []
    for x0 in starts:
        x = list(x0)
        converged = False
        for _ in range(NEWTON_ITERATIONS):
            try:
                fk, jac = _iterate_with_jacobian(f, x, k)
            except DomainError:
                break
            g = f.displacement(fk, x)
            if np.linalg.norm(g) <= PERIODIC_TOL * (1.0 + np.linalg.norm(x)):
                converged = True
                break
            try:
                delta = np.linalg.solve(jac - np.eye(f.dim), -g)
            except np.linalg.LinAlgError:
                break
            x = f.reduce([xi + di for xi, di in zip(x, delta)])
            if not all(math.isfinite(v) for v in x):
                break
        if not converged:
            continue
        # jac is D f^k(x) at the converged x
        if any(f.distance(x, p.x) <= DEDUP_RADIUS for p in found):
            continue
        period = k
        for d in range(1, k):
            if k % d == 0:
                fd, _ = _iterate_with_jacobian(f, x, d)
                if f.distance(fd, x) <= DEDUP_RADIUS:
                    period = d
                    break
        moduli = tuple(float(m) for m in eigen_moduli(jac))
        found.append(PeriodicPoint(x=tuple(x), period=period,
                                   multiplier_moduli=moduli,
                                   classification=_classify(moduli)))
    found.sort(key=lambda p: p.x)
    return found


def _qr_block_length(logs, steps: int, rate: float) -> tuple[int, float]:
    """(Jacobian products to chain before the next QR, rate) from ``logs``
    = log|diag R| of the last block of ``steps`` products and ``rate``, the
    largest growth rate per step of the blocks before it.

    The logs' spread keeps the product's condition number near QR_CONDITION
    at most, their size keeps its entries within QR_GROWTH of 1 (in 1-D the
    spread is 0).  Where the Jacobian varies along the orbit, one block's
    rate can fall far below the next one's, so the rate is the largest seen
    so far and a block at most doubles.  A non-finite log (a singular
    Jacobian) gives a block of 1.
    """
    if not all(map(math.isfinite, logs)):
        return 1, rate
    lo, hi = min(logs), max(logs)
    rate = max(rate, (hi - lo) / math.log(QR_CONDITION) / steps,
               max(-lo, hi) / math.log(QR_GROWTH) / steps)
    longest = min(QR_MAX_BLOCK, 2 * steps)
    if rate * longest <= 1.0:
        return longest, rate
    return max(1, int(1.0 / rate)), rate


def _givens_qr(product: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """(Q, log|diag R|) of ``product`` = Q R, by Givens rotations on
    Python floats.

    The rows of R and of Q transposed are rotated together, one
    ``math.hypot`` rotation per entry below the diagonal; an entry that is
    already zero is left alone, so an exact zero on R's diagonal stays
    exact and gives -inf.  The signs of R's diagonal are not normalised:
    negating a column of Q is exact and leaves |diag R| unchanged.
    """
    n = len(product)
    rows = [row + [float(i == j) for j in range(n)]
            for i, row in enumerate(product.tolist())]
    for k, i in combinations(range(n), 2):
        upper, lower = rows[k], rows[i]
        b = lower[k]
        if b == 0.0:
            continue
        h = math.hypot(upper[k], b)
        c, s = upper[k] / h, b / h
        rows[k] = [c * u + s * v for u, v in zip(upper, lower)]
        rows[i] = [c * v - s * u for u, v in zip(upper, lower)]
    logs = [math.log(abs(row[k])) if row[k] else -math.inf
            for k, row in enumerate(rows)]
    return np.array([row[n:] for row in rows]).T, logs


def lyapunov_spectrum(f: SmoothMap, x0, n_steps: int) -> np.ndarray:
    """Lyapunov exponents along the orbit of x0, descending.

    Applies the Jacobians one at a time to the orthonormal Q of the last
    block, ``J_s (... (J_1 Q))``, and re-orthonormalizes the product by
    one QR per block of steps (Benettin et al. 1980; Geist, Parlitz &
    Lauterborn 1990), by Givens rotations (:func:`_givens_qr`).  The
    diagonal of R for the block is the product of the per-step diagonals,
    so the averaged logs of |diag R| converge to the exponents; an exact
    zero on the diagonal gives -inf.  The Jacobians are not multiplied
    together first: along the contracting direction that product would
    cancel at eps times the square of the block's condition number, the
    chain at eps times it.  Each block's length follows from the logs of
    the blocks before it (:func:`_qr_block_length`), at most
    QR_MAX_BLOCK.  The orbit (``core.orbit_points``) advances one chunk of
    ``column_chunks`` steps at a time, and the chunk's Jacobians are one
    ``point_stack``.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    orbit = orbit_points(f, x0)
    product = np.eye(f.dim)
    sums = [0.0] * f.dim
    chained, block, rate = 0, 1, 0.0
    ahead = islice(orbit, 1)  # x0, then each chunk's last image
    for chunk in column_chunks(n_steps):
        # the chunk's points and the image of its last one, all guarded
        # before any Jacobian is taken
        try:
            points = [*ahead, *islice(orbit, chunk.stop - chunk.start)]
        except DomainError as err:
            step = max(err.step - 1, 0)  # the step whose image left
            raise DomainError(f"orbit left the domain at step {step}: "
                              f"{err}", step=step) from err
        ahead = [points.pop()]
        jacobians = point_stack(f.jacobian_at, np.array(points),
                                (f.dim, f.dim))
        for step, jac in enumerate(jacobians, chunk.start):
            product = jac.dot(product)
            chained += 1
            if chained < block and step < n_steps - 1:
                continue
            product, logs = _givens_qr(product)
            sums = [total + log for total, log in zip(sums, logs)]
            block, rate = _qr_block_length(logs, chained, rate)
            chained = 0
    return np.sort(np.array(sums) / n_steps)[::-1]


def rotation_number(f: SmoothMap, x0: float, n_steps: int,
                    windows: int = 4) -> RotationEstimate:
    """Lift-based rotation number of a monotone 1-D circle map.

    The unreduced image of each iterate supplies the lift increment; the
    estimate is the mean increment divided by the circumference, reported
    per window with the max pairwise spread as dispersion.
    """
    if f.dim != 1 or f.phase_topology is None or f.phase_topology[0] is None:
        raise ValueError("rotation_number needs a 1-D circle map")
    if not 1 <= windows <= n_steps:
        raise ValueError("need 1 <= windows <= n_steps")
    circumference = f.phase_topology[0]
    # monotonicity spot check: f' > 0 along a coarse grid
    for i in range(16):
        xs = [i * circumference / 16.0]
        d = float(np.asarray(f.jacobian_at(xs), dtype=float)[0][0])
        if d <= 0.0:
            raise NonMonotoneMapError(f"f'({xs[0]:g}) = {d:g} <= 0")
    per_window = n_steps // windows
    x = float(x0) % circumference
    estimates = []
    for _ in range(windows):
        total = 0.0
        for _ in range(per_window):
            raw = float(f.forward([x])[0])
            total += raw - x
            x = raw % circumference
        estimates.append((total / per_window) / circumference % 1.0)
    value = float(np.mean(estimates)) % 1.0
    dispersion = max(abs(a - b) for a in estimates for b in estimates)
    return RotationEstimate(value=value,
                            window_estimates=tuple(estimates),
                            dispersion=float(dispersion))


def level_set_drift(f: SmoothMap, integrals, x0, n_steps: int):
    """Max |F(f^k(x0)) - F(x0)| over k <= n_steps, per integral.

    Returns (drifts, steps_reached).
    """
    integrals = list(integrals)
    drifts = [0.0] * len(integrals)
    reached = 0
    orbit = orbit_points(f, x0)
    try:
        x = next(orbit)
    except DomainError:
        return drifts, reached
    ref = [float(g(x)) for g in integrals]
    for k in range(n_steps):
        try:
            x = next(orbit)
        except DomainError:
            break
        reached = k + 1
        for i, g in enumerate(integrals):
            drifts[i] = max(drifts[i], abs(float(g(x)) - ref[i]))
    return drifts, reached


def estimate_translation_vector(f: SmoothMap, s: IntegrabilityStructure,
                                x) -> TranslationEstimate:
    """Shooting for times t with phi_1^{t_1} o ... o phi_m^{t_m}(x) = f(x).

    Newton iteration from t = 0.  When the flows commute, the derivative of
    the composition in t_j is X_j at the composed point, so that is the
    shooting Jacobian's column j; each step is one least-squares solve.  On
    fields that do not commute the iteration need not converge, and where
    the fields are dependent the times are not unique; both end in
    :class:`ConvergenceError`.
    """
    if s.m < 1:
        raise ValueError("at least one symmetry field is required")
    x = [float(v) for v in x]
    target = f.apply(x)
    tol = TRANSLATION_TOL * (1.0 + np.linalg.norm(target))
    ts = np.zeros(s.m)
    for _ in range(NEWTON_ITERATIONS):
        y = np.asarray(x)
        for fld, t in zip(reversed(s.fields), reversed(ts)):
            if t != 0.0:
                y = integrate_flow(fld, y, float(t), TRANSLATION_FLOW_TOL)
        y = list(y)
        r = f.displacement(y, target)
        if np.linalg.norm(r) <= tol:
            return TranslationEstimate(t0=tuple(float(v) for v in ts),
                                       residual=float(np.linalg.norm(r)))
        jac = np.column_stack([fld(y) for fld in s.fields])
        try:
            step, _, rank, _ = np.linalg.lstsq(jac, r, rcond=None)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"shooting step failed: {err}") from err
        if rank < s.m:
            raise ConvergenceError(
                f"the symmetry fields have rank {rank} < {s.m} at "
                f"{[float(v) for v in y]}; the flow times are not unique")
        ts = ts - step
    raise ConvergenceError(
        f"no convergence in {NEWTON_ITERATIONS} iterations "
        f"(|residual| = {np.linalg.norm(r):.3e})")
