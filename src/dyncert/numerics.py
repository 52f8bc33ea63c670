"""Small dense linear algebra and an adaptive Runge-Kutta flow integrator.

Matrices here are plain ``numpy`` arrays; everything is sized for phase
spaces of dimension <= 16, so backward-stable LAPACK routines (SVD, QR
eigenvalue iteration) are used directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankEstimate",
    "IntegratorConfig",
    "IntegrationError",
    "FlowExitedRegion",
    "numerical_rank",
    "eigen_moduli",
    "integrate_flow",
]

DEFAULT_RANK_THRESHOLD = 1e-8


class IntegrationError(RuntimeError):
    """Adaptive integration could not reach the requested time."""


class FlowExitedRegion(IntegrationError):
    """Trajectory left the declared safe region."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(message)
        self.exit_time = exit_time


@dataclass(frozen=True)
class RankEstimate:
    rank: int
    singular_values: tuple[float, ...]  # descending
    threshold: float


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10**6

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def numerical_rank(m, threshold: float = DEFAULT_RANK_THRESHOLD) -> RankEstimate:
    """Rank via SVD with a threshold relative to the largest singular value."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        raise ValueError("empty matrix")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    sv = np.linalg.svd(a, compute_uv=False)
    sv = np.sort(sv)[::-1]
    cut = threshold * sv[0] if sv[0] > 0 else 0.0
    rank = int(np.count_nonzero(sv > cut)) if sv[0] > 0 else 0
    return RankEstimate(rank=rank, singular_values=tuple(float(s) for s in sv),
                        threshold=threshold)


def eigen_moduli(m) -> np.ndarray:
    """Moduli of all eigenvalues, sorted descending."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigen_moduli needs a square matrix")
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


# Dormand-Prince 5(4) tableau
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])


def integrate_flow(field, x0, t: float,
                   cfg: IntegratorConfig | None = None,
                   safe_region=None) -> np.ndarray:
    """Flow of an autonomous field from ``x0`` for time ``t`` (DOPRI 5(4)).

    ``field`` is a callable or a vector field object; negative ``t``
    integrates backwards.  ``safe_region`` is an optional predicate; leaving
    it raises :class:`FlowExitedRegion` with the time reached.
    """
    cfg = cfg or IntegratorConfig()
    f = field if callable(field) else field.__call__
    y = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if t == 0.0:
        return y
    if not math.isfinite(t):
        raise ValueError("integration time must be finite")

    def rhs(state):
        return np.asarray(f(list(state)), dtype=float)

    direction = 1.0 if t > 0 else -1.0
    t_abs = abs(t)
    h = t_abs / 100.0
    elapsed = 0.0
    steps = 0
    k = [None] * 7
    while elapsed < t_abs:
        if steps >= cfg.max_steps:
            raise IntegrationError(
                f"step limit {cfg.max_steps} exhausted at t={direction * elapsed:g}")
        steps += 1
        h = min(h, t_abs - elapsed)
        hd = direction * h
        k[0] = rhs(y)
        for i in range(1, 7):
            yi = y + hd * sum(_A[i][j] * k[j] for j in range(i))
            k[i] = rhs(yi)
        y5 = y + hd * sum(_B5[i] * k[i] for i in range(7))
        y4 = y + hd * sum(_B4[i] * k[i] for i in range(7))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            y = y5
            elapsed += h
            if safe_region is not None and not safe_region(list(y)):
                raise FlowExitedRegion(
                    f"trajectory left the safe region near t={direction * elapsed:g}",
                    exit_time=direction * elapsed)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(
                    f"trajectory diverged near t={direction * elapsed:g}")
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h <= 0.0 or not math.isfinite(h):
            raise IntegrationError("step size collapsed")
    return y
