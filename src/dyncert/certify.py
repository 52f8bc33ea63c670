"""Residual operations and their aggregation into certification verdicts.

Both certifiers share one pipeline: sample once, apply ``f`` once per point
(a guard failure drops and counts the point), then one ``at_point(x, f(x))``
call evaluates each field, integral, gradient and Jacobian at most once and
returns a residual and a scale per condition.  Flow commutation is a second
phase on the first ``FLOW_POINT_CAP`` kept points.

Residuals are normalized by a per-point scale ``1 + max(|x|, |f(x)|, ...)``
and tolerances are relative to it.  A condition reports the scale at its
``worst_point``, so ``max_abs * scale`` is the raw residual there; rank and
empty conditions report 1.0.  The public pointwise residuals below are the
reference definitions.  A PASS verdict means "no counterexample found at
these tolerances", never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (DomainError, IntegrabilityStructure, SamplingRegion,
                   ScalarField, SmoothMap, VectorField, sample)
from .numerics import (FLOW_TOL, IntegrationError, integrate_flow,
                       numerical_rank)

__all__ = [
    "CAVEAT",
    "Tolerances",
    "ResidualStats",
    "CertificationReport",
    "lie_bracket_residual",
    "first_integral_residual",
    "map_invariance_residual",
    "infinitesimal_commutation_residual",
    "flow_commutation_residual",
    "independence_rank_stats",
    "poisson_bracket",
    "symplecticity_residual",
    "certify_structure",
    "certify_involution",
]

CAVEAT = "numerical evidence, not proof"
# default spot-check times of flow commutation and the number of kept points
# it integrates from
FLOW_TIMES = (-1.0, 0.5, 1.0)
# largest |t| accepted as a spot-check time: the flow of a unit-rate linear
# field overflows a double near t = 709
MAX_FLOW_TIME = 1e3
FLOW_POINT_CAP = 50


@dataclass(frozen=True)
class Tolerances:
    algebraic_tol: float = 1e-9
    flow_tol: float = 1e-7
    rank_threshold: float = 1e-8
    ae_fraction: float = 0.99

    def __post_init__(self):
        if not (0.0 < self.algebraic_tol < np.inf
                and 0.0 < self.flow_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.rank_threshold < 1.0:
            raise ValueError("rank_threshold must lie in (0, 1)")
        if not 0.5 < self.ae_fraction <= 1.0:
            raise ValueError("ae_fraction must lie in (0.5, 1]")


@dataclass(frozen=True)
class ResidualStats:
    condition_name: str
    count: int
    max_abs: float
    mean_abs: float
    p99_abs: float
    worst_point: tuple[float, ...] | None
    scale: float
    passed: bool
    kind: str = "residual"  # "residual" | "rank" | "empty"
    tolerance: float | None = None
    full_rank_fraction: float | None = None
    skipped: int = 0

    def to_dict(self) -> dict:
        d = {
            "name": self.condition_name,
            "kind": self.kind,
            "count": self.count,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "p99_abs": self.p99_abs,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "scale": self.scale,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.kind == "rank":
            d["full_rank_fraction"] = self.full_rank_fraction
        if self.skipped:
            d["skipped"] = self.skipped
        return d


@dataclass(frozen=True)
class CertificationReport:
    map_name: str
    parameters: dict
    dim: int
    m: int
    n_integrals: int
    complete: bool
    conditions: tuple[ResidualStats, ...]
    verdict: str  # PASS | FAIL | UNVERIFIED
    seed: int
    tolerances: Tolerances
    guard_failures: int = 0
    caveat: str = CAVEAT

    @property
    def failing_conditions(self) -> list[ResidualStats]:
        return [c for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "map": self.map_name,
            "parameters": dict(sorted(self.parameters.items())),
            "dim": self.dim,
            "structure": {"fields": self.m, "integrals": self.n_integrals,
                          "complete": self.complete},
            "seed": self.seed,
            "tolerances": {
                "algebraic_tol": self.tolerances.algebraic_tol,
                "flow_tol": self.tolerances.flow_tol,
                "rank_threshold": self.tolerances.rank_threshold,
                "ae_fraction": self.tolerances.ae_fraction,
            },
            "guard_failures": self.guard_failures,
            "conditions": [c.to_dict() for c in self.conditions],
            "verdict": self.verdict,
            "caveat": self.caveat,
        }


# -- pointwise residuals -------------------------------------------------


def lie_bracket_residual(xj: VectorField, xk: VectorField, x) -> np.ndarray:
    """[Xj, Xk](x) = DXk(x) Xj(x) - DXj(x) Xk(x)."""
    if xj.dim != xk.dim:
        raise ValueError("field dimension mismatch")
    vj = np.asarray(xj(x), dtype=float)
    vk = np.asarray(xk(x), dtype=float)
    dj = np.asarray(xj.jacobian_at(x), dtype=float)
    dk = np.asarray(xk.jacobian_at(x), dtype=float)
    return dk @ vj - dj @ vk


def first_integral_residual(f_int: ScalarField, x_field: VectorField, x) -> float:
    """Directional derivative DF(x) . X(x)."""
    if f_int.dim != x_field.dim:
        raise ValueError("dimension mismatch")
    g = np.asarray(f_int.gradient_at(x), dtype=float)
    v = np.asarray(x_field(x), dtype=float)
    return float(g @ v)


def map_invariance_residual(f_int: ScalarField, f: SmoothMap, x) -> float:
    """F(f(x)) - F(x)."""
    return float(f_int(f.apply(x)) - f_int(x))


def infinitesimal_commutation_residual(f: SmoothMap, x_field: VectorField,
                                       x) -> np.ndarray:
    """Df(x) X(x) - X(f(x)); zero iff the flow of X commutes with f."""
    fx = f.apply(x)
    df = np.asarray(f.jacobian_at(x), dtype=float)
    v = np.asarray(x_field(x), dtype=float)
    return df @ v - np.asarray(x_field(fx), dtype=float)


def flow_commutation_residual(f: SmoothMap, x_field: VectorField, x, t: float,
                              tol: float = FLOW_TOL) -> np.ndarray:
    """f(phi^t(x)) - phi^t(f(x)), wrapped on circle coordinates."""
    try:
        phi_x = integrate_flow(x_field, x, t, tol)
    except IntegrationError as err:
        raise IntegrationError(f"flow branch phi^t(x) failed: {err}") from err
    left = f.apply(list(phi_x))
    fx = f.apply(x)
    try:
        right = integrate_flow(x_field, fx, t, tol)
    except IntegrationError as err:
        raise IntegrationError(f"flow branch phi^t(f(x)) failed: {err}") from err
    return f.displacement(left, list(right))


def independence_rank_stats(columns, points, threshold: float = 1e-8):
    """Fraction of points where the given columns have full rank.

    ``columns`` is a list of vector fields (values as columns) or scalar
    fields (gradients as columns).  Returns (fraction, deficient_points).
    """
    if not columns:
        raise ValueError("at least one column is required")
    deficient = []
    full = 0
    for x in points:
        cols = [c.gradient_at(x) if isinstance(c, ScalarField) else c(x)
                for c in columns]
        if _full_rank(cols, threshold):
            full += 1
        else:
            deficient.append(tuple(x))
    frac = full / len(points) if points else 0.0
    return frac, deficient


def poisson_bracket(f_int: ScalarField, g_int: ScalarField, z) -> float:
    """Canonical {F, G} at z = (q_1..q_n, p_1..p_n)."""
    if f_int.dim % 2 != 0 or f_int.dim != g_int.dim:
        raise ValueError("Poisson bracket needs matching even dimensions")
    n = f_int.dim // 2
    gf = np.asarray(f_int.gradient_at(z), dtype=float)
    gg = np.asarray(g_int.gradient_at(z), dtype=float)
    return float(gf[:n] @ gg[n:] - gf[n:] @ gg[:n])


def symplecticity_residual(f: SmoothMap, z) -> float:
    """max |M^T J M - J| with M = Df(z) and J the canonical form matrix."""
    if f.dim % 2 != 0:
        raise ValueError("symplecticity needs an even-dimensional map")
    n = f.dim // 2
    m = np.asarray(f.jacobian_at(z), dtype=float)
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return float(np.max(np.abs(m.T @ j @ m - j)))


# -- the certification pipeline -------------------------------------------


def _norm(v) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))


def _full_rank(columns, threshold: float) -> bool:
    """Whether the column vectors have numerical rank equal to their count."""
    m = np.asarray(columns, dtype=float).T
    return numerical_rank(m, threshold).rank == len(columns)


def _stats(name: str, values, scales, points: list, tol: float,
           skipped: int = 0, skip_fail: bool = False) -> ResidualStats:
    if len(values) == 0:
        return ResidualStats(name, 0, 0.0, 0.0, 0.0, None, 1.0,
                             passed=not skip_fail, kind="empty",
                             tolerance=tol, skipped=skipped)
    arr = np.asarray(values)
    worst = int(np.argmax(arr))
    mean = float(np.mean(arr))
    p99 = float(np.percentile(arr, 99))
    p99 = min(max(p99, mean), float(arr.max()))
    return ResidualStats(
        condition_name=name,
        count=len(values),
        max_abs=float(arr.max()),
        mean_abs=mean,
        p99_abs=p99,
        worst_point=tuple(points[worst]),
        scale=float(scales[worst]),
        passed=(float(arr.max()) <= tol) and not skip_fail,
        tolerance=tol,
        skipped=skipped,
    )


def _rank_stats(name: str, deficient: np.ndarray, points: list,
                tol: Tolerances) -> ResidualStats:
    full = len(points) - int(np.count_nonzero(deficient))
    frac = full / len(points) if points else 0.0
    bad = np.flatnonzero(deficient)
    return ResidualStats(
        condition_name=name,
        count=len(points),
        max_abs=1.0 - frac,
        mean_abs=1.0 - frac,
        p99_abs=1.0 - frac,
        worst_point=tuple(points[bad[0]]) if bad.size else None,
        scale=1.0,
        passed=frac >= tol.ae_fraction,
        kind="rank",
        tolerance=1.0 - tol.ae_fraction,
        full_rank_fraction=frac,
    )


def _certify(f: SmoothMap, region: SamplingRegion, tol: Tolerances,
             samples: int | None, seed: int, conditions: list,
             at_point: Callable):
    """The sampling, guard and evaluation loop both certifiers share.

    ``conditions`` lists ``(name, kind)`` in report order, ``kind`` being
    "residual" or "rank".  ``at_point(x, fx)`` returns one ``(residual,
    scale)`` pair per condition; a rank condition's residual is 1.0 where
    the columns are rank-deficient and 0.0 where they are not.  Returns the
    kept points, the guard failure count, the statistics of every condition
    and the (conditions x points) table of scales.
    """
    raw_points = sample(region, samples, seed)
    values = np.empty((len(conditions), len(raw_points)))
    scales = np.empty_like(values)
    points = []
    guard_failures = 0
    for x in raw_points:
        try:
            fx = f.apply(x)
        except DomainError:
            guard_failures += 1
            continue
        col = len(points)
        for c, (residual, scale) in enumerate(at_point(x, fx)):
            values[c, col] = residual / scale
            scales[c, col] = scale
        points.append(x)
    values, scales = values[:, :len(points)], scales[:, :len(points)]
    stats = [_rank_stats(name, values[c], points, tol) if kind == "rank"
             else _stats(name, values[c], scales[c], points, tol.algebraic_tol)
             for c, (name, kind) in enumerate(conditions)]
    return points, guard_failures, stats, scales


def _verdict(conditions) -> str:
    if not conditions:
        return "UNVERIFIED"
    return "PASS" if all(c.passed for c in conditions) else "FAIL"


def certify_structure(f: SmoothMap, s: IntegrabilityStructure,
                      region: SamplingRegion,
                      tol: Tolerances | None = None,
                      flow_times=FLOW_TIMES,
                      samples: int | None = None,
                      seed: int | None = None,
                      map_name: str = "",
                      parameters: dict | None = None) -> CertificationReport:
    """Run every applicable integrability condition over sampled points.

    Pointwise guard failures are excluded from statistics and counted.
    Flow commutation is spot-checked at ``flow_times`` on up to
    ``FLOW_POINT_CAP`` of the sampled points; a condition whose trajectories
    exit the guard or blow up at more than half of the attempted points
    fails.  Every flow time must be finite with ``|t| <= MAX_FLOW_TIME``.
    """
    if not all(abs(t) <= MAX_FLOW_TIME for t in flow_times):
        raise ValueError(f"flow times must be finite with |t| <= "
                         f"{MAX_FLOW_TIME:g}, got {tuple(flow_times)}")
    tol = tol or Tolerances()
    seed = region.rng_seed if seed is None else seed
    fields, integrals = s.fields, s.integrals
    pairs = [(j, k) for j in range(len(fields))
             for k in range(j + 1, len(fields))]

    # (i) Lie brackets per unordered pair, field rank; (ii) first integrals
    # of the fields, gradient rank; (iii) commutation, map invariance
    conditions = [(f"lie_bracket[X{j + 1},X{k + 1}]", "residual")
                  for j, k in pairs]
    if fields:
        conditions.append(("field_independence", "rank"))
    conditions += [(f"first_integral[F{k + 1},X{j + 1}]", "residual")
                   for k in range(len(integrals)) for j in range(len(fields))]
    if integrals:
        conditions.append(("gradient_independence", "rank"))
    commutation_row = len(conditions)
    conditions += [(f"infinitesimal_commutation[X{j + 1}]", "residual")
                   for j in range(len(fields))]
    conditions += [(f"map_invariance[F{k + 1}]", "residual")
                   for k in range(len(integrals))]

    def at_point(x, fx):
        nx, nfx = _norm(x), _norm(fx)
        v = [np.asarray(x_fld(x), dtype=float) for x_fld in fields]
        nv = [_norm(u) for u in v]
        dv = [np.asarray(x_fld.jacobian_at(x), dtype=float)
              for x_fld in fields] if pairs else []
        val = [f_int(x) for f_int in integrals]
        grad = [np.asarray(f_int.gradient_at(x), dtype=float)
                for f_int in integrals]
        out = [(_norm(dv[k] @ v[j] - dv[j] @ v[k]),
                1.0 + max(nx, nv[j], nv[k])) for j, k in pairs]
        if fields:
            out.append((float(not _full_rank(v, tol.rank_threshold)), 1.0))
        out += [(abs(float(grad[k] @ v[j])),
                 1.0 + max(nx, abs(float(val[k])), nv[j]))
                for k in range(len(integrals)) for j in range(len(fields))]
        if integrals:
            out.append((float(not _full_rank(grad, tol.rank_threshold)), 1.0))
        if fields:
            df = np.asarray(f.jacobian_at(x), dtype=float)
            out += [(_norm(df @ v[j] - np.asarray(x_fld(fx), dtype=float)),
                     1.0 + max(nx, nfx, nv[j]))
                    for j, x_fld in enumerate(fields)]
        out += [(abs(float(f_int(fx) - val[k])),
                 1.0 + max(nx, nfx, abs(float(val[k]))))
                for k, f_int in enumerate(integrals)]
        return out

    points, guard_failures, stats, scales = _certify(
        f, region, tol, samples, seed, conditions, at_point)

    # condition (iii), flow level: spot-check f . phi^t = phi^t . f, with
    # the scale of the infinitesimal check at the same point.  Fields that
    # already failed the pointwise check are not integrated: the flow check
    # is implied by the infinitesimal one and trajectories of a
    # non-commuting candidate routinely exhaust the step budget.
    flow_points = points[:FLOW_POINT_CAP]
    for j, x_fld in enumerate(fields):
        row = commutation_row + j
        if not stats[row].passed:
            continue
        for t in flow_times:
            vals, used, used_scales, skipped = [], [], [], 0
            for i, x in enumerate(flow_points):
                try:
                    r = flow_commutation_residual(f, x_fld, x, t)
                except (IntegrationError, DomainError):
                    skipped += 1
                    continue
                vals.append(_norm(r) / scales[row, i])
                used.append(x)
                used_scales.append(scales[row, i])
            skip_fail = bool(flow_points) and skipped > len(flow_points) / 2
            stats.append(_stats(f"flow_commutation[X{j + 1},t={t:g}]",
                                vals, used_scales, used, tol.flow_tol,
                                skipped=skipped, skip_fail=skip_fail))

    return CertificationReport(
        map_name=map_name or f.name or "map",
        parameters=parameters or {},
        dim=f.dim,
        m=s.m,
        n_integrals=len(integrals),
        complete=s.complete,
        conditions=tuple(stats),
        verdict=_verdict(stats),
        seed=seed,
        tolerances=tol,
        guard_failures=guard_failures,
    )


def certify_involution(f: SmoothMap, integrals, region: SamplingRegion,
                       tol: Tolerances | None = None,
                       samples: int | None = None,
                       seed: int | None = None,
                       map_name: str = "",
                       parameters: dict | None = None) -> CertificationReport:
    """Liouville-style certification of a symplectic map with integrals.

    Checks symplecticity of the map, invariance of every integral, pairwise
    Poisson brackets (involution) and gradient independence over sampled
    points.  Intended for cotangent lifts and other even-dimensional maps.
    """
    tol = tol or Tolerances()
    seed = region.rng_seed if seed is None else seed
    if f.dim % 2 != 0:
        raise ValueError("symplecticity needs an even-dimensional map")
    integrals = tuple(integrals)
    n = f.dim // 2
    form = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    pairs = [(j, k) for j in range(len(integrals))
             for k in range(j + 1, len(integrals))]

    conditions = [("symplecticity", "residual")]
    conditions += [(f"map_invariance[G{k + 1}]", "residual")
                   for k in range(len(integrals))]
    conditions += [(f"poisson_bracket[G{j + 1},G{k + 1}]", "residual")
                   for j, k in pairs]
    if integrals:
        conditions.append(("gradient_independence", "rank"))

    def at_point(z, fz):
        nz, nfz = _norm(z), _norm(fz)
        m = np.asarray(f.jacobian_at(z), dtype=float)
        val = [g(z) for g in integrals]
        grad = [np.asarray(g.gradient_at(z), dtype=float) for g in integrals]
        out = [(float(np.max(np.abs(m.T @ form @ m - form))), 1.0 + nz)]
        out += [(abs(float(g(fz) - val[k])),
                 1.0 + max(nz, nfz, abs(float(val[k]))))
                for k, g in enumerate(integrals)]
        out += [(abs(float(grad[j][:n] @ grad[k][n:]
                           - grad[j][n:] @ grad[k][:n])),
                 1.0 + max(nz, abs(float(val[j])), abs(float(val[k]))))
                for j, k in pairs]
        if integrals:
            out.append((float(not _full_rank(grad, tol.rank_threshold)), 1.0))
        return out

    _, guard_failures, stats, _ = _certify(f, region, tol, samples, seed,
                                           conditions, at_point)
    return CertificationReport(
        map_name=map_name or f.name or "lifted map",
        parameters=parameters or {},
        dim=f.dim,
        m=0,
        n_integrals=len(integrals),
        complete=len(integrals) == n,
        conditions=tuple(stats),
        verdict=_verdict(stats),
        seed=seed,
        tolerances=tol,
        guard_failures=guard_failures,
    )
