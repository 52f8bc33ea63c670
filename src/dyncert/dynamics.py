"""Orbit-level evidence: orbits, periodic points, Lyapunov spectra,
rotation numbers, conservation drift and translation-vector fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, IntegrabilityStructure, SamplingRegion,
                   SmoothMap, sample)
from .numerics import IntegratorConfig, eigen_moduli, integrate_flow

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
    x = f.reduce([float(v) for v in x0])
    f._check_guard(x)
    pts = [tuple(x)]
    failures = 0
    for _ in range(n_steps):
        try:
            x = f.apply(x)
        except DomainError:
            failures += 1
            break
        pts.append(tuple(x))
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
                         newton_tol: float = 1e-12,
                         max_iterations: int = 50,
                         dedup_radius: float = 1e-6,
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
        for _ in range(max_iterations):
            try:
                fk, jac = _iterate_with_jacobian(f, x, k)
            except DomainError:
                break
            g = f.displacement(fk, x)
            if np.linalg.norm(g) <= newton_tol * (1.0 + np.linalg.norm(x)):
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
        # fk and jac are (f^k(x), D f^k(x)) at the converged x
        residual = f.distance(fk, x)
        if residual > 1e-10 * (1.0 + np.linalg.norm(x)):
            continue
        if any(f.distance(x, p.x) <= dedup_radius for p in found):
            continue
        period = k
        for d in range(1, k):
            if k % d == 0:
                fd, _ = _iterate_with_jacobian(f, x, d)
                if f.distance(fd, x) <= dedup_radius:
                    period = d
                    break
        moduli = tuple(float(m) for m in eigen_moduli(jac))
        found.append(PeriodicPoint(x=tuple(x), period=period,
                                   multiplier_moduli=moduli,
                                   classification=_classify(moduli)))
    found.sort(key=lambda p: p.x)
    return found


def lyapunov_spectrum(f: SmoothMap, x0, n_steps: int) -> np.ndarray:
    """Lyapunov exponents along the orbit of x0, descending.

    Jacobian products with QR re-orthonormalization at every step; the
    averaged logs of the R diagonal converge to the exponents.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    x = f.reduce([float(v) for v in x0])
    q = np.eye(f.dim)
    sums = np.zeros(f.dim)
    for step in range(n_steps):
        try:
            jac = np.asarray(f.jacobian_at(x), dtype=float)
            x = f.apply(x)
        except DomainError as err:
            raise DomainError(f"orbit left the domain at step {step}: {err}",
                              step=step) from err
        q, r = np.linalg.qr(jac @ q)
        diag = np.abs(np.diag(r))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs  # keep R diagonal positive
        sums += np.log(diag)
    return np.sort(sums / n_steps)[::-1]


def rotation_number(f: SmoothMap, x0: float, n_steps: int,
                    windows: int = 4) -> RotationEstimate:
    """Lift-based rotation number of a monotone 1-D circle map.

    The unreduced image of each iterate supplies the lift increment; the
    estimate is the mean increment divided by the circumference, reported
    per window with the max pairwise spread as dispersion.
    """
    if f.dim != 1 or f.phase_topology is None or f.phase_topology[0] is None:
        raise ValueError("rotation_number needs a 1-D circle map")
    circumference = f.phase_topology[0]
    # monotonicity spot check: f' > 0 along a coarse grid
    for i in range(16):
        xs = [i * circumference / 16.0]
        d = float(np.asarray(f.jacobian_at(xs), dtype=float)[0][0])
        if d <= 0.0:
            raise NonMonotoneMapError(f"f'({xs[0]:g}) = {d:g} <= 0")
    windows = max(1, windows)
    per_window = max(1, n_steps // windows)
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
    x = f.reduce([float(v) for v in x0])
    ref = [float(g(x)) for g in integrals]
    drifts = [0.0] * len(integrals)
    reached = 0
    for k in range(n_steps):
        try:
            x = f.apply(x)
        except DomainError:
            break
        reached = k + 1
        for i, g in enumerate(integrals):
            drifts[i] = max(drifts[i], abs(float(g(x)) - ref[i]))
    return drifts, reached


def estimate_translation_vector(f: SmoothMap, s: IntegrabilityStructure, x,
                                cfg: IntegratorConfig | None = None,
                                tol: float = 1e-11,
                                max_iterations: int = 50,
                                fd_step: float = 1e-6) -> TranslationEstimate:
    """Shooting for times t with phi_1^{t_1} o ... o phi_m^{t_m}(x) = f(x).

    Newton iteration from t = 0; the shooting Jacobian uses forward
    differences in each flow time.
    """
    if s.m < 1:
        raise ValueError("at least one symmetry field is required")
    cfg = cfg or IntegratorConfig()
    fields = s.fields
    m = len(fields)
    x = [float(v) for v in x]
    target = np.asarray(f.apply(x), dtype=float)

    def compose(ts):
        y = np.asarray(x, dtype=float)
        for j in range(m - 1, -1, -1):
            if ts[j] != 0.0:
                y = integrate_flow(fields[j], y, float(ts[j]), cfg)
        return y

    def residual(ts):
        return np.asarray(
            f.displacement(list(compose(ts)), list(target)))

    ts = np.zeros(m)
    r = residual(ts)
    for _ in range(max_iterations):
        if np.linalg.norm(r) <= tol * (1.0 + np.linalg.norm(target)):
            return TranslationEstimate(t0=tuple(float(v) for v in ts),
                                       residual=float(np.linalg.norm(r)))
        cols = []
        for j in range(m):
            tp = ts.copy()
            tp[j] += fd_step
            cols.append((residual(tp) - r) / fd_step)
        jac = np.column_stack(cols) if f.dim > 1 or m > 1 else \
            np.asarray([[cols[0][0]]])
        try:
            delta = np.linalg.lstsq(jac, -r, rcond=None)[0] if jac.shape[0] != jac.shape[1] \
                else np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as err:
            raise ConvergenceError(f"singular shooting Jacobian: {err}") from err
        ts = ts + delta
        r = residual(ts)
    if np.linalg.norm(r) <= tol * (1.0 + np.linalg.norm(target)):
        return TranslationEstimate(t0=tuple(float(v) for v in ts),
                                   residual=float(np.linalg.norm(r)))
    raise ConvergenceError(
        f"no convergence in {max_iterations} iterations "
        f"(|residual| = {np.linalg.norm(r):.3e})")
