"""Orbit-level evidence: orbits, periodic points, Lyapunov spectra,
rotation numbers, conservation drift and translation-vector fitting."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice

import numpy as np

from .core import (SEED, DomainError, IntegrabilityStructure,
                   SamplingRegion, SmoothMap, column_chunks, guarded_images,
                   iterate, orbit_points, point_stack, row_norms, sample)
from .numerics import MAX_FLOW_TIME, eigen_moduli, integrate_flow

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
PERIODIC_SEEDS = 100  # default start points of the periodic-point search
PERIODIC_TOL = 1e-12  # |f^k(x) - x| relative to 1 + |x|
DEDUP_RADIUS = 1e-6  # periodic points closer than this are one point
TRANSLATION_TOL = 1e-11  # shooting residual relative to 1 + |f(x)|
TRANSLATION_FLOW_TOL = 1e-12  # integrator tolerance of the shooting flows
QR_CONDITION = 1e6  # about the largest R_11 / R_{n-1,n-1} of a block
QR_GROWTH = 1e60  # |R_ii| of a block product within this factor of 1
QR_MAX_BLOCK = 256  # steps a block commits to before it sees them
JACOBIAN_STACK = 4096  # orbit steps whose Jacobians form one stack


class ConvergenceError(RuntimeError):
    pass


class NonMonotoneMapError(ValueError):
    pass


@dataclass(frozen=True)
class Orbit:
    """Points of an orbit from x0 on; ``guard_failures`` (``non_finite``) is
    1 when it ended before a point outside the guard (not finite)."""

    points: tuple[tuple[float, ...], ...]
    guard_failures: int = 0
    non_finite: int = 0

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
    gap: float


@dataclass(frozen=True)
class TranslationEstimate:
    t0: tuple[float, ...]
    residual: float


def _walk(f: SmoothMap, x0, n_steps: int):
    """x0, f(x0), ..., f^n_steps(x0) from ``core.orbit_points``, ending
    before the first point that leaves the guard or is not finite (then
    returning "non_finite"); an x0 outside the guard raises DomainError."""
    points = orbit_points(f, x0)
    yield next(points)
    with suppress(DomainError):
        for x in islice(points, n_steps):
            if not all(map(math.isfinite, x)):
                return "non_finite"
            yield x


def compute_orbit(f: SmoothMap, x0, n_steps: int) -> Orbit:
    """x0 and its first n_steps iterates, circle coordinates reduced, as
    far as :func:`_walk` goes and why; an x0 outside the guard raises."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    points, walk = [], _walk(f, x0, n_steps)
    try:
        while True:
            points.append(tuple(next(walk)))
    except StopIteration as stop:  # any other early end is a guard exit
        non_finite = int(stop.value == "non_finite")
    return Orbit(tuple(points), non_finite=non_finite,
                 guard_failures=int(len(points) <= n_steps) - non_finite)


def _classify(moduli) -> str:
    off_unit = [abs(m - 1.0) > HYPERBOLICITY_TOL for m in moduli]
    if all(off_unit):
        return "hyperbolic"
    if not any(off_unit):
        return "elliptic"
    return "parabolic-tolerance"


def find_periodic_points(f: SmoothMap, k: int, region: SamplingRegion,
                         seed_count: int = PERIODIC_SEEDS,
                         seed: int = SEED) -> list[PeriodicPoint]:
    """Newton search for roots of f^k(x) - x from sampled starting points.

    The seeds run in lockstep, each iterate one ``guarded_images`` call
    and one ``point_stack`` of Jacobians, each Newton step one batched
    solve; a seed that leaves the domain or meets a singular or non-finite
    step is dropped.  Converged roots are deduplicated in seed order and
    classified through the eigenvalue moduli of D(f^k).  The minimal
    period is recorded via a divisor check.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = f.dim
    x = np.reshape(sample(region, seed_count, seed), (-1, n))
    seeds = np.arange(len(x))
    converged = {}  # seed -> (root, D f^k at the root)
    for _ in range(NEWTON_ITERATIONS):
        fk, jac = x, np.tile(np.eye(n), (len(x), 1, 1))
        for _ in range(k):  # D f^k chained along the orbits
            kept, image = guarded_images(f, fk)
            jac = point_stack(f.jacobian_at, fk[kept], (n, n)) @ jac[kept]
            x, seeds, fk = x[kept], seeds[kept], image
        g = f.displacement(fk, x)
        done = row_norms(g) <= PERIODIC_TOL * (1.0 + row_norms(x))
        converged.update(zip(seeds[done].tolist(), zip(x[done], jac[done])))
        a, g = jac[~done] - np.eye(n), g[~done]
        x, seeds = x[~done], seeds[~done]
        if not len(x):
            break
        try:
            delta = np.linalg.solve(a, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:  # per row; a singular one stays NaN
            delta = np.full_like(g, np.nan)
            for i in range(len(g)):
                with suppress(np.linalg.LinAlgError):
                    delta[i] = np.linalg.solve(a[i], -g[i])
        x = np.column_stack(f.reduce(list((x + delta).T)))
        finite = np.all(np.isfinite(x), axis=1)
        x, seeds = x[finite], seeds[finite]
    found: list[PeriodicPoint] = []
    roots = np.empty((len(converged), n))
    for s in sorted(converged):
        root, jac = converged[s]
        if np.any(row_norms(f.displacement(root, roots[:len(found)]))
                  <= DEDUP_RADIUS):
            continue
        roots[len(found)] = root
        period = next((d for d in range(1, k) if k % d == 0 and f.distance(
            iterate(f, root, d), root) <= DEDUP_RADIUS), k)
        moduli = tuple(float(m) for m in eigen_moduli(jac))
        found.append(PeriodicPoint(x=tuple(root.tolist()), period=period,
                                   multiplier_moduli=moduli,
                                   classification=_classify(moduli)))
    found.sort(key=lambda p: p.x)
    return found


_LOG_CONDITION = math.log(QR_CONDITION)
_LOG_GROWTH = math.log(QR_GROWTH)


def _qr_block_length(logs, steps: int, rate: float) -> tuple[int, float]:
    """(Jacobian products to chain before the next QR, rate) from ``logs``
    = log|diag R| of the last block of ``steps`` products and ``rate``, the
    largest growth rate per step of the blocks before it.

    The spread of the logs but the last keeps R_11 / R_{n-1,n-1} of the
    product near QR_CONDITION (Q comes from its first n - 1 columns, the
    last log from determinants), the size of all n logs its entries within
    QR_GROWTH of 1.  Where the Jacobian varies, one block's rate can fall
    far below the next one's, so the rate is the largest seen so far, a
    block at most doubles and it is at most QR_MAX_BLOCK long: a rate that
    jumps inside a block goes unseen until its QR, and to overflow a block
    of 256 steps it must jump past ln(1e308) / 256, about 2.8 per step (a
    factor of 16).  A non-finite log (a singular Jacobian) gives 1.
    """
    if not all(map(math.isfinite, logs)):
        return 1, rate
    tracked = logs[:-1] or logs  # in 1-D the spread is 0
    rate = max(rate, (max(tracked) - min(tracked)) / _LOG_CONDITION / steps,
               max(-min(logs), max(logs)) / _LOG_GROWTH / steps)
    longest = min(QR_MAX_BLOCK, 2 * steps)
    if rate * longest <= 1.0:
        return longest, rate
    return max(1, int(1.0 / rate)), rate


@cache
def _givens_plan(n: int) -> tuple[tuple[tuple[float, ...], ...],
                                  tuple[tuple[int, int], ...]]:
    """The rows of the n x n identity and the (k, i) of the entries below
    the diagonal, column by column, in the order they are rotated away."""
    return (tuple(tuple(float(i == j) for j in range(n)) for i in range(n)),
            tuple(combinations(range(n), 2)))


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
    units, below = _givens_plan(n)
    rows = product.tolist()
    for row, unit in zip(rows, units):
        row.extend(unit)
    for k, i in below:
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
    return np.array(rows)[:, n:].T, logs


def _qr_spectrum(stacks, dim: int, n_steps: int) -> np.ndarray:
    """The exponents of :func:`lyapunov_spectrum`, descending, from
    ``stacks``, the Jacobians of the orbit's ``n_steps`` steps as
    consecutive (steps, dim, dim) stacks.

    The parts of the blocks inside a stack (runs) are multiplied out
    together: padded with identities to whole blocks (fewer than
    QR_MAX_BLOCK of them per cut), the stack's factors
    are multiplied pairwise by batched ``@``, later steps on the left.
    One ``dot`` chains a run onto the running product, and one
    :func:`_givens_qr` follows each block's last run and step
    ``n_steps - 1``; where the block changes, the rest of the stack is cut
    into runs again.  A block's last log is its log|det J| (one ``slogdet``
    per stack, summed per run) less its other logs, as they sum to
    log|det(P Q)|: -inf when that sum or another log is.
    """
    eyes = np.broadcast_to(np.eye(dim), (QR_MAX_BLOCK, dim, dim))
    product = eyes[0]
    sums = [0.0] * dim
    chained, block, rate, left, logdet = 0, 1, 0.0, n_steps, 0.0
    for jacobians in stacks:
        logdets = np.linalg.slogdet(jacobians)[1].tolist()
        done, count = 0, len(jacobians)
        while done < count:
            runs = -(-(chained + count - done) // block)
            factors = np.concatenate((
                eyes[:chained], jacobians[done:],
                eyes[:runs * block - chained - count + done],
            )).reshape(runs, block, dim, dim)
            while (width := factors.shape[1]) > 1:
                pairs = factors[:, 1:width:2] @ factors[:, :width - 1:2]
                factors = (np.concatenate((pairs, factors[:, -1:]), axis=1)
                           if width % 2 else pairs)
            cut = block
            for run in factors[:, 0]:
                steps = min(block - chained, count - done)
                product = run.dot(product)
                logdet += math.fsum(logdets[done:done + steps])
                chained += steps
                left -= steps
                done += steps
                if chained < block and left:
                    break  # the block goes on in the next stack
                product, logs = _givens_qr(product)
                rest = math.fsum(logs[:-1])
                logs[-1] = logdet - rest if rest > -math.inf else rest
                sums = [total + log for total, log in zip(sums, logs)]
                block, rate = _qr_block_length(logs, chained, rate)
                chained, logdet = 0, 0.0
                if block != cut:
                    break  # the later runs were cut for the old block
    return np.sort(np.array(sums) / n_steps)[::-1]


def _orbit_jacobians(f: SmoothMap, x0, n_steps: int):
    """The Jacobians along the first ``n_steps`` steps of the orbit of x0,
    one ``point_stack`` per stack of ``column_chunks`` up to JACOBIAN_STACK
    long (a fixed length, not the column budget, so that the blocks' products
    and the exponents do not depend on that budget; 4096 n^2 floats, 8 MB at
    n = 16, and :func:`_qr_spectrum` copies a stack into whole blocks and
    halves it pairwise, about 20 MB more at its peak there); one
    ``np.fromiter`` reads its points and last image, guarded, from the walk,
    and the first point not finite ends the orbit with its step, also where
    the walk raises DomainError after it (as in :func:`_walk`)."""
    orbit, n = orbit_points(f, x0), f.dim
    ahead = islice(orbit, 1)  # x0, then each stack's last image
    for stack in column_chunks(n_steps, JACOBIAN_STACK):
        m = stack.stop - stack.start
        try:
            points = np.fromiter(chain.from_iterable(chain(
                ahead, islice(orbit, m))), float, (m + 1) * n).reshape(-1, n)
        except DomainError as err:  # the stack's points before it, again
            points = np.array(list(islice(orbit_points(f, x0), stack.start,
                                          err.step)))
            if np.isfinite(points).all():
                step = max(err.step - 1, 0)  # the step whose image left
                raise DomainError(f"orbit left the domain at step {step}: "
                                  f"{err}", step=step) from err
        finite = np.isfinite(points)
        if not finite.all():
            step = stack.start + int(np.argmin(finite.all(axis=1)))
            raise DomainError(f"orbit point {step} is not finite", step=step)
        ahead = points[-1:]
        yield point_stack(f.jacobian_at, points[:-1], (n, n))


def lyapunov_spectrum(f: SmoothMap, x0, n_steps: int) -> np.ndarray:
    """Lyapunov exponents along the orbit of x0, descending.

    Multiplies the Jacobians of each block of steps together, applies the
    product to the orthonormal Q of the last block and re-orthonormalizes
    by one QR per block (Benettin et al. 1980; Geist, Parlitz &
    Lauterborn 1990), by Givens rotations (:func:`_givens_qr`).  The
    diagonal of R for the block is the product of the per-step diagonals,
    so the averaged logs of |diag R| converge to the exponents; an exact
    zero on the diagonal gives -inf.  The last log comes from log|det Df|
    (so with det Df = 1 the exponents sum to 0; in 1-D the exponent is the
    mean of log|f'|).  Each block's length follows from the logs of the
    blocks before it (:func:`_qr_block_length`), bounded by their growth
    and at most QR_MAX_BLOCK (143 steps and 706 QRs at N = 100000 on the
    cat map), and the products of all blocks in a stack are formed at once
    (:func:`_qr_spectrum`).  On the cat map the exponents agree with a QR
    at every step to 4.1e-14 at N = 2000, 3.1e-13 at 20000 and 1.75e-12
    at 100000.  The orbit (``core.orbit_points``) is read up to
    JACOBIAN_STACK steps at a time, and their Jacobians are one
    ``point_stack`` per chunk (:func:`_orbit_jacobians`).
    """
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    return _qr_spectrum(_orbit_jacobians(f, x0, n_steps), f.dim, n_steps)


def rotation_number(f: SmoothMap, x0: float,
                    n_steps: int) -> RotationEstimate:
    """Lift-based rotation number of a monotone 1-D circle map.

    The unreduced image of each iterate gives the lift increment
    F(x) - x; the estimate is the weighted Birkhoff average of the first
    N increments, weight exp(-1/(t(1-t))) at t = k/N, over the
    circumference (Das, Saiki, Sander & Yorke, Nonlinearity 30, 2017).
    ``gap`` is its distance to the average over the first N/2 steps."""
    if f.dim != 1 or f.phase_topology is None or f.phase_topology[0] is None:
        raise ValueError("rotation_number needs a 1-D circle map")
    if n_steps < 4:  # the first N/2 steps need a weight t = k/(N/2) in (0, 1)
        raise ValueError("n_steps must be >= 4")
    circumference = f.phase_topology[0]
    # monotonicity spot check: f' > 0 along a coarse grid
    for x in (i * circumference / 16.0 for i in range(16)):
        d = float(f.jacobian_at([x])[0][0])
        if d <= 0.0:
            raise NonMonotoneMapError(f"f'({x:g}) = {d:g} <= 0")
    x = float(x0) % circumference
    increments = []
    for _ in range(n_steps):
        raw = float(f.forward([x])[0])
        increments.append(raw - x)
        x = raw % circumference

    def average(n):  # k = 0 has weight 0
        weights = [math.exp(-1.0 / (k / n * (1.0 - k / n)))
                   for k in range(1, n)]
        return (math.fsum(w * v for w, v in zip(weights, increments[1:]))
                / math.fsum(weights) / circumference)

    value = average(n_steps)
    return RotationEstimate(value=value % 1.0,
                            gap=abs(value - average(n_steps // 2)))


def level_set_drift(f: SmoothMap, integrals, x0, n_steps: int):
    """Max |F(f^k(x0)) - F(x0)| per integral over the first n_steps
    iterates, as far as :func:`_walk` goes: one ``point_stack`` per
    integral over the walk's points.  An integral that is NaN on the walk
    (inf - inf, say) has drift NaN, which the builtin ``max`` would drop.

    Returns (drifts, steps_reached); an x0 outside the guard raises
    DomainError.
    """
    points = np.fromiter(chain.from_iterable(_walk(f, x0, n_steps)),
                         float).reshape(-1, f.dim)
    drifts = []
    for g in integrals:
        values = point_stack(g, points)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
            drifts.append(float(np.max(np.abs(values[1:] - values[0]),
                                       initial=0.0)))
    return drifts, len(points) - 1


def estimate_translation_vector(f: SmoothMap, s: IntegrabilityStructure,
                                x) -> TranslationEstimate:
    """Shooting for times t with phi_1^{t_1} o ... o phi_m^{t_m}(x) = f(x).

    Newton iteration from t = 0.  When the flows commute, the derivative of
    the composition in t_j is X_j at the composed point, so that is the
    shooting Jacobian's column j; each step is one least-squares solve.  On
    fields that do not commute the iteration need not converge, and where
    the fields are dependent the times are not unique; both end in
    :class:`ConvergenceError`, as does an iterate with some |t_j| above
    ``MAX_FLOW_TIME``, before its flows are integrated.
    """
    if s.m < 1:
        raise ValueError("at least one symmetry field is required")
    x = [float(v) for v in x]
    target = f.apply(x)
    tol = TRANSLATION_TOL * (1.0 + np.linalg.norm(target))
    ts = np.zeros(s.m)
    for _ in range(NEWTON_ITERATIONS):
        if np.max(np.abs(ts)) > MAX_FLOW_TIME:
            raise ConvergenceError(
                f"flow times {[float(v) for v in ts]} pass the cap "
                f"|t| <= {MAX_FLOW_TIME:g}")
        y = np.asarray(x)
        for fld, t in zip(reversed(s.fields), reversed(ts)):
            if t != 0.0:
                y = integrate_flow(fld, y, float(t), TRANSLATION_FLOW_TOL)
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
