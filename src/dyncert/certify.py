"""Residual operations and their aggregation into certification verdicts.

Both certifiers share one pipeline.  A guard pass samples once and applies
``f`` once to each point; a point that the guard or ``f`` rejects is dropped
and counted.  Each field, integral and gradient is then evaluated once at
each kept point into a float stack whose first axis runs over the points,
and each condition is one formula over those stacks, reported in the order
it is computed.  Every callable is called on coordinate columns, one call
per chunk of points (``core.point_stack``), or once per point if it fails
on columns.  Jacobians are stacked one chunk at a time, and the bracket,
commutation and symplecticity formulas keep only their residuals.  The
public pointwise residuals call the same formulas on a stack of one point.
Flow commutation is a second phase: per field, one integration (one field
call per Runge-Kutta stage) for all flow times of the first
``FLOW_POINT_CAP`` kept points stacked over their images.

Residuals are normalized by a per-point scale ``1 + max(|x|, |f(x)|, ...)``
and tolerances are relative to it.  A condition reports the scale at its
``worst_point``, so ``max_abs * scale`` is the raw residual there; rank and
empty conditions report 1.0.  A PASS verdict means "no counterexample found
at these tolerances", never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (IntegrabilityStructure, SamplingRegion, ScalarField,
                   SmoothMap, VectorField, column_chunks, guarded_images,
                   point_stack, row_dot, row_norms, sample)
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
    "commutation_residuals",
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


# -- formulas over stacks whose first axis runs over points -----------------
# (a matrix times a vector is a batched ``@`` on (n, 1) columns: see row_dot)


def _lie_bracket(vj, vk, dj, dk) -> np.ndarray:
    """[Xj, Xk] = DXk Xj - DXj Xk at each point."""
    return (dk @ vj[..., None] - dj @ vk[..., None])[..., 0]


def _commutation(df, v, v_image) -> np.ndarray:
    """Df X - X o f at each point."""
    return (df @ v[..., None])[..., 0] - v_image


def _poisson(gf, gg) -> np.ndarray:
    n = gf.shape[1] // 2
    return row_dot(gf[:, :n], gg[:, n:]) - row_dot(gf[:, n:], gg[:, :n])


def _symplecticity(m) -> np.ndarray:
    n = m.shape[1] // 2
    form = np.eye(2 * n, k=n) - np.eye(2 * n, k=-n)
    return np.max(np.abs(np.swapaxes(m, -1, -2) @ form @ m - form),
                  axis=(1, 2))


def _one(*values) -> list[np.ndarray]:
    """Each value as a float stack of one point."""
    return [np.asarray(v, dtype=float)[None] for v in values]


def _jacobians(maps, points: np.ndarray):
    """Per chunk of ``column_chunks``: its slice, and the (chunk, n, n)
    Jacobian stacks of ``maps`` (maps or fields) there, in one list that
    each chunk empties first, so one chunk's stacks are alive at a time."""
    n = points.shape[1]
    jac = []
    for chunk in column_chunks(len(points)) if maps else ():
        jac.clear()
        jac.extend(point_stack(g.jacobian_at, points[chunk], (n, n))
                   for g in maps)
        yield chunk, jac


def _bracket_norms(fields, values, points: np.ndarray, pairs) -> np.ndarray:
    """|[Xj, Xk]| for each pair (j, k) of ``fields`` at each point, as a
    (pairs, points) array, from the fields' (points, n) value stacks.  The
    fields' Jacobians are stacked one chunk of points at a time and only the
    norms outlive it: memory grows with the pairs, not with fields x n x n."""
    out = np.empty((len(pairs), len(points)))
    for chunk, jac in _jacobians(fields if pairs else (), points):
        for norms, (j, k) in zip(out, pairs):
            norms[chunk] = row_norms(_lie_bracket(
                values[j][chunk], values[k][chunk], jac[j], jac[k]))
    return out


def _full_rank(columns, threshold: float) -> np.ndarray:
    """Per point, whether the (points, n) column stacks have full rank."""
    return numerical_rank(np.stack(columns, axis=-1), threshold) == len(columns)


# -- pointwise residuals -------------------------------------------------


def lie_bracket_residual(xj: VectorField, xk: VectorField, x) -> np.ndarray:
    """[Xj, Xk](x) = DXk(x) Xj(x) - DXj(x) Xk(x)."""
    if xj.dim != xk.dim:
        raise ValueError("field dimension mismatch")
    return _lie_bracket(*_one(xj(x), xk(x), xj.jacobian_at(x),
                              xk.jacobian_at(x)))[0]


def first_integral_residual(f_int: ScalarField, x_field: VectorField, x) -> float:
    """Directional derivative DF(x) . X(x)."""
    if f_int.dim != x_field.dim:
        raise ValueError("dimension mismatch")
    return float(row_dot(*_one(f_int.gradient_at(x), x_field(x)))[0])


def map_invariance_residual(f_int: ScalarField, f: SmoothMap, x) -> float:
    """F(f(x)) - F(x)."""
    return float(f_int(f.apply(x)) - f_int(x))


def infinitesimal_commutation_residual(f: SmoothMap, x_field: VectorField,
                                       x) -> np.ndarray:
    """Df(x) X(x) - X(f(x)); zero iff the flow of X commutes with f."""
    return _commutation(*_one(f.jacobian_at(x), x_field(x),
                              x_field(f.apply(x))))[0]


def commutation_residuals(f: SmoothMap, values, image_values,
                          points: np.ndarray, images: np.ndarray) -> list:
    """Infinitesimal commutation of ``f`` with several fields, from (points,
    n) stacks of their ``values`` at ``points`` and ``image_values`` at the
    ``images`` f(x): per field, the norms |Df(x) X(x) - X(f(x))| and their
    scales 1 + max(|x|, |f(x)|, |X(x)|).  Df is stacked one chunk of points
    at a time."""
    norms = np.empty((len(values), len(points)))
    for chunk, (df,) in _jacobians((f,) if values else (), points):
        for r, v, w in zip(norms, values, image_values):
            r[chunk] = row_norms(_commutation(df, v[chunk], w[chunk]))
    base = np.maximum(row_norms(points), row_norms(images))
    return [(r, 1.0 + np.maximum(base, row_norms(v)))
            for r, v in zip(norms, values)]


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
    fields (gradients as columns); ``points`` a list of points or a
    (points, n) array.  Returns (fraction, deficient_points).
    """
    if not columns:
        raise ValueError("at least one column is required")
    xs = np.asarray(points, dtype=float).reshape(len(points), columns[0].dim)
    full = _full_rank([point_stack(c.gradient_at if isinstance(c, ScalarField)
                                   else c, xs, (c.dim,)) for c in columns],
                      threshold)
    frac = int(np.count_nonzero(full)) / len(xs) if len(xs) else 0.0
    return frac, [tuple(x) for x, ok in zip(xs.tolist(), full) if not ok]


def poisson_bracket(f_int: ScalarField, g_int: ScalarField, z) -> float:
    """Canonical {F, G} at z = (q_1..q_n, p_1..p_n)."""
    if f_int.dim % 2 != 0 or f_int.dim != g_int.dim:
        raise ValueError("Poisson bracket needs matching even dimensions")
    return float(_poisson(*_one(f_int.gradient_at(z), g_int.gradient_at(z)))[0])


def symplecticity_residual(f: SmoothMap, z) -> float:
    """max |M^T J M - J| with M = Df(z) and J the canonical form matrix."""
    if f.dim % 2 != 0:
        raise ValueError("symplecticity needs an even-dimensional map")
    return float(_symplecticity(*_one(f.jacobian_at(z)))[0])


# -- the certification pipeline -------------------------------------------


def _stats(name: str, residuals, scales, points: np.ndarray, tol: float,
           skipped: int = 0, skip_fail: bool = False) -> ResidualStats:
    """Statistics of ``residuals / scales`` over ``points``."""
    if len(residuals) == 0:
        return ResidualStats(name, 0, 0.0, 0.0, 0.0, None, 1.0,
                             passed=not skip_fail, kind="empty",
                             tolerance=tol, skipped=skipped)
    arr = residuals / scales
    worst = int(np.argmax(arr))
    mean = float(np.mean(arr))
    p99 = float(np.percentile(arr, 99))
    p99 = min(max(p99, mean), float(arr.max()))
    return ResidualStats(
        condition_name=name,
        count=len(arr),
        max_abs=float(arr.max()),
        mean_abs=mean,
        p99_abs=p99,
        worst_point=tuple(points[worst].tolist()),
        scale=float(scales[worst]),
        passed=(float(arr.max()) <= tol) and not skip_fail,
        tolerance=tol,
        skipped=skipped,
    )


def _rank_stats(name: str, columns, points: np.ndarray,
                tol: Tolerances) -> ResidualStats:
    full = _full_rank(columns, tol.rank_threshold)
    frac = int(np.count_nonzero(full)) / len(points) if len(points) else 0.0
    bad = np.flatnonzero(~full)
    return ResidualStats(
        condition_name=name,
        count=len(points),
        max_abs=1.0 - frac,
        mean_abs=1.0 - frac,
        p99_abs=1.0 - frac,
        worst_point=tuple(points[bad[0]].tolist()) if bad.size else None,
        scale=1.0,
        passed=frac >= tol.ae_fraction,
        kind="rank",
        tolerance=1.0 - tol.ae_fraction,
        full_rank_fraction=frac,
    )


def _guard_pass(f: SmoothMap, region: SamplingRegion, samples: int | None,
                seed: int):
    """Sample once and keep the points that ``f`` maps inside its guard
    (``core.guarded_images``), counting the others.  Returns the kept
    points and their images as (points, n) float stacks, and that count."""
    raw_points = np.reshape(sample(region, samples, seed), (-1, f.dim))
    kept, images = guarded_images(f, raw_points)
    return raw_points[kept], images, len(raw_points) - len(kept)


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
    pairs = list(combinations(range(len(fields)), 2))
    dim = f.dim
    points, images, guard_failures = _guard_pass(f, region, samples, seed)
    nx, nfx = row_norms(points), row_norms(images)
    v = [point_stack(x_fld, points, (dim,)) for x_fld in fields]
    nv = [row_norms(u) for u in v]
    brackets = _bracket_norms(fields, v, points, pairs)
    val = [point_stack(f_int, points) for f_int in integrals]
    grad = [point_stack(f_int.gradient_at, points, (dim,))
            for f_int in integrals]
    stats = []

    # (i) Lie brackets per unordered pair, field rank
    for (j, k), residuals in zip(pairs, brackets):
        stats.append(_stats(f"lie_bracket[X{j + 1},X{k + 1}]", residuals,
                            1.0 + np.maximum(nx, np.maximum(nv[j], nv[k])),
                            points, tol.algebraic_tol))
    if fields:
        stats.append(_rank_stats("field_independence", v, points, tol))
    # (ii) first integrals of the fields, gradient rank
    for k in range(len(integrals)):
        for j in range(len(fields)):
            stats.append(_stats(
                f"first_integral[F{k + 1},X{j + 1}]",
                np.abs(row_dot(grad[k], v[j])),
                1.0 + np.maximum(nx, np.maximum(np.abs(val[k]), nv[j])),
                points, tol.algebraic_tol))
    if integrals:
        stats.append(_rank_stats("gradient_independence", grad, points, tol))
    # (iii) infinitesimal commutation, map invariance
    commutation = []
    for j, (residuals, scales) in enumerate(commutation_residuals(
            f, v, [point_stack(x_fld, images, (dim,)) for x_fld in fields],
            points, images)):
        stats.append(_stats(f"infinitesimal_commutation[X{j + 1}]",
                            residuals, scales, points, tol.algebraic_tol))
        commutation.append((stats[-1].passed, scales))
    for k, f_int in enumerate(integrals):
        stats.append(_stats(
            f"map_invariance[F{k + 1}]",
            np.abs(point_stack(f_int, images) - val[k]),
            1.0 + np.maximum(np.maximum(nx, nfx), np.abs(val[k])),
            points, tol.algebraic_tol))

    # condition (iii), flow level: spot-check f . phi^t = phi^t . f, with
    # the scale of the infinitesimal check at the same point.  Fields that
    # already failed the pointwise check are not integrated: the flow check
    # is implied by the infinitesimal one and trajectories of a
    # non-commuting candidate routinely exhaust the step budget.  Each
    # field is one integration, for every flow time at once, of the flow
    # points stacked over their images from the guard pass.  A point is
    # skipped where a branch failed (NaN) or f(phi^t(x)) leaves the guard.
    flow_points = points[:FLOW_POINT_CAP]
    q = len(flow_points)
    starts = np.tile(np.concatenate([flow_points, images[:q]]),
                     (len(flow_times), 1))
    times = np.repeat(np.asarray(flow_times, dtype=float), 2 * q)
    for j, (x_fld, (passed, scales)) in enumerate(zip(fields, commutation)):
        if not passed or not len(flow_times):
            continue
        all_ends = integrate_flow(x_fld, starts, times)
        for t, ends in zip(flow_times, np.split(all_ends, len(flow_times))):
            finite = np.all(np.isfinite(ends), axis=1)
            both = np.flatnonzero(finite[:q] & finite[q:])
            kept, left = guarded_images(f, ends[both])
            used = both[kept]
            skipped = q - len(used)
            residuals = row_norms(f.displacement(left, ends[q + used]))
            stats.append(_stats(f"flow_commutation[X{j + 1},t={t:g}]",
                                residuals, scales[used], flow_points[used],
                                tol.flow_tol, skipped=skipped,
                                skip_fail=skipped > q / 2))

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
    pairs = list(combinations(range(len(integrals)), 2))
    points, images, guard_failures = _guard_pass(f, region, samples, seed)
    nz, nfz = row_norms(points), row_norms(images)
    val = [point_stack(g, points) for g in integrals]
    grad = [point_stack(g.gradient_at, points, (f.dim,)) for g in integrals]
    # one chunk at a time: a (points, 2n, 2n) stack of the lift's Jacobians
    # would set the run's peak memory
    residuals = np.empty(len(points))
    for chunk, (m,) in _jacobians((f,), points):
        residuals[chunk] = _symplecticity(m)
    stats = [_stats("symplecticity", residuals, 1.0 + nz, points,
                    tol.algebraic_tol)]
    for k, g in enumerate(integrals):
        stats.append(_stats(
            f"map_invariance[G{k + 1}]",
            np.abs(point_stack(g, images) - val[k]),
            1.0 + np.maximum(np.maximum(nz, nfz), np.abs(val[k])),
            points, tol.algebraic_tol))
    for j, k in pairs:
        stats.append(_stats(
            f"poisson_bracket[G{j + 1},G{k + 1}]",
            np.abs(_poisson(grad[j], grad[k])),
            1.0 + np.maximum(nz, np.maximum(np.abs(val[j]), np.abs(val[k]))),
            points, tol.algebraic_tol))
    if integrals:
        stats.append(_rank_stats("gradient_independence", grad, points, tol))
    return CertificationReport(
        map_name=map_name or f.name or "lifted map",
        parameters=parameters or {},
        dim=f.dim,
        m=0,
        n_integrals=len(integrals),
        complete=len(integrals) == f.dim // 2,
        conditions=tuple(stats),
        verdict=_verdict(stats),
        seed=seed,
        tolerances=tol,
        guard_failures=guard_failures,
    )
