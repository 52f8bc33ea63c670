import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dyncert import catalog, core, dynamics, jets
from dyncert.core import (DomainError, SamplingRegion, ScalarField, SmoothMap,
                          VectorField, chunk_length, column_chunks,
                          orbit_points, point_stack, sample)
from dyncert.dynamics import (ConvergenceError, NonMonotoneMapError,
                              compute_orbit, estimate_translation_vector,
                              find_periodic_points, level_set_drift,
                              lyapunov_spectrum, rotation_number)

from helpers import squaring_past_5

TWO_PI = 2.0 * math.pi


class TestComputeOrbit:
    def test_rigid_rotation_quarter_turns(self):
        f, _, _ = catalog.build("rigid_rotation", a=math.pi / 2)
        orbit = compute_orbit(f, [0.0], 4)
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.0]
        assert len(orbit) == 5
        for (got,), want in zip(orbit.points, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_lyness_five_cycle(self):
        f, _, _ = catalog.build("lyness", n=2, a=1.0)
        orbit = compute_orbit(f, [1.0, 2.0], 5)
        assert orbit.points[-1] == pytest.approx((1.0, 2.0))

    def test_warned_circle_period_two(self):
        f, _, _ = catalog.build("warned_circle", k=1, eps=0.5)
        orbit = compute_orbit(f, [0.0], 2)
        assert orbit.points[1][0] == pytest.approx(math.pi, abs=1e-12)
        assert orbit.points[2][0] == pytest.approx(0.0, abs=1e-12)

    def test_guard_stop_recorded(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        orbit = compute_orbit(f, [2.5], 10)
        assert orbit.guard_failures == 1
        assert len(orbit) < 11

    def test_overflow_ends_the_orbit_as_non_finite(self):
        # the linear map has no guard; its points overflow from step 1011 on
        f = catalog.build("linear", blocks="2:3")[0]
        orbit = compute_orbit(f, [0.1, 0.2, 0.3], 1012)
        assert len(orbit) == 1011
        assert all(map(math.isfinite, orbit.points[-1]))
        assert (orbit.guard_failures, orbit.non_finite) == (0, 1)

    def test_guard_stop_is_not_non_finite(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        assert compute_orbit(f, [2.5], 10).non_finite == 0
        assert compute_orbit(f, [20.5], 10) == dynamics.Orbit(points=tuple(
            (20.5 - k,) for k in range(11)))

    @pytest.mark.parametrize("name, params, x0", [
        ("cat_map", {}, [0.3, 0.7]), ("lyness", {"n": 3}, [1.0, 2.0, 1.5]),
        ("warned_circle", {"k": 1, "eps": 0.5}, [7.4])])
    def test_points_equal_the_apply_loop(self, name, params, x0):
        f, s, _ = catalog.build(name, **params)
        x = f.reduce([float(v) for v in x0])
        points = [tuple(x)]
        for _ in range(300):
            x = f.apply(x)
            points.append(tuple(x))
        assert compute_orbit(f, x0, 300).points == tuple(points)
        if s is not None and s.integrals:
            drifts, reached = level_set_drift(f, s.integrals, x0, 300)
            assert reached == 300
            assert drifts == [max(abs(float(g(p)) - float(g(points[0])))
                                  for p in points) for g in s.integrals]

    def test_no_steps_rejected(self):
        f, _, _ = catalog.build("cat_map")
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            compute_orbit(f, [0.1, 0.2], 0)

    def test_guard_violating_start(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        with pytest.raises(DomainError, match="violates the domain guard"):
            compute_orbit(f, [-1.0], 10)
        g = ScalarField(dim=1, func=lambda x: x[0])
        with pytest.raises(DomainError, match="violates the domain guard"):
            level_set_drift(f, [g], [-1.0], 10)


class TestPeriodicPoints:
    def test_cat_map_fixed_point(self):
        f, _, region = catalog.build("cat_map")
        pts = find_periodic_points(f, 1, region, seed_count=60, seed=42)
        assert any(np.allclose(p.x, [0.0, 0.0], atol=1e-8) or
                   f.distance(p.x, [0.0, 0.0]) <= 1e-8 for p in pts)
        fixed = min(pts, key=lambda p: f.distance(p.x, [0.0, 0.0]))
        assert fixed.classification == "hyperbolic"
        assert fixed.multiplier_moduli[0] == pytest.approx(
            (3 + math.sqrt(5)) / 2, abs=1e-9)

    def test_cat_map_period_two_orbit(self):
        f, _, region = catalog.build("cat_map")
        pts = find_periodic_points(f, 2, region, seed_count=150, seed=42)
        target = min(pts, key=lambda p: f.distance(p.x, [0.2, 0.4]))
        assert f.distance(target.x, [0.2, 0.4]) <= 1e-8
        assert target.period == 2
        assert target.classification == "hyperbolic"
        assert target.multiplier_moduli[0] == pytest.approx(
            (7 + 3 * math.sqrt(5)) / 2, abs=1e-6)
        assert target.multiplier_moduli[1] == pytest.approx(
            (7 - 3 * math.sqrt(5)) / 2, abs=1e-6)

    def test_irrational_rotation_has_no_periodic_points(self):
        f, _, region = catalog.build("rigid_rotation", a=1.0)
        assert find_periodic_points(f, 3, region, seed_count=20,
                                    seed=42) == []

    def test_minimal_period_detected(self):
        f, _, region = catalog.build("cat_map")
        pts = find_periodic_points(f, 2, region, seed_count=60, seed=42)
        fixed = min(pts, key=lambda p: f.distance(p.x, [0.0, 0.0]))
        assert fixed.period == 1  # divisor of 2

    def test_seeds_where_forward_raises_are_dropped(self):
        region = SamplingRegion(box=((0.5, 8.0),))
        pts = find_periodic_points(squaring_past_5(), 1, region,
                                   seed_count=20, seed=1)
        assert len(pts) == 1 and pts[0].x[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("moduli, kind", [
        ((2.0, 0.5), "hyperbolic"), ((1.0, 1.0), "elliptic"),
        ((1.0, 2.0), "parabolic-tolerance")])
    def test_classify(self, moduli, kind):
        assert dynamics._classify(moduli) == kind

    def test_bad_k(self):
        f, _, region = catalog.build("cat_map")
        with pytest.raises(ValueError):
            find_periodic_points(f, 0, region)

    @pytest.mark.parametrize("name, params, k, seed", [
        *(("cat_map", {}, k, seed) for k in (1, 2, 3) for seed in (1, 7, 42)),
        ("lyness", {"n": 2}, 5, 42), ("lyness", {"n": 3}, 8, 42),
        ("warned_circle", {}, 4, 42), ("twist", {}, 1, 42),
        ("rigid_rotation", {}, 3, 42)])
    def test_lockstep_equals_the_per_seed_search(self, name, params, k, seed):
        f, _, region = catalog.build(name, **params)
        expected = _reference_periodic_points(f, k, sample(region, 100, seed))
        assert find_periodic_points(f, k, region, 100, seed) == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_mixed_batch(self, k, monkeypatch):
        # x -> x^2 inside 0 < x < 10: from 0.5 the Newton matrix is exactly
        # singular (k = 1); 4, and 3 at k = 2, map outside the guard; from
        # 0.25 the Newton step leaves it; 2 and 1.5 converge to one root
        f = SmoothMap(dim=1, forward=lambda x: [x[0] * x[0]],
                      domain_guard=lambda x: 0.0 < x[0] < 10.0)
        starts = [[2.0], [0.5], [0.25], [4.0], [1.5], [3.0], [0.5]]
        monkeypatch.setattr(dynamics, "sample", lambda *args: starts)
        singular, solve = [], np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(np.shape(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        found = find_periodic_points(f, k, None)
        if k == 1:  # the batch raised, then each singular row on its own
            assert singular == [(6, 1, 1), (1, 1), (1, 1)]
        assert found == _reference_periodic_points(f, k, starts)
        (root,) = found
        assert root.x == pytest.approx((1.0,)) and root.period == 1
        assert root.multiplier_moduli == pytest.approx((2.0 ** k,))
        assert root.classification == "hyperbolic"

    def test_one_column_jacobian_call_per_iterate_and_chunk(self,
                                                            monkeypatch):
        calls, kept_rows = [], []

        class Counting(SmoothMap):
            def jacobian_at(self, x):
                calls.append(np.shape(x[0]))
                return super().jacobian_at(x)

        def guarded_images(f, points):
            kept, images = core_guarded_images(f, points)
            kept_rows.append(len(kept))
            return kept, images

        # the rows run from three chunks down to one as seeds converge,
        # under a budget that takes 128 points of the 2 x 2 Jacobian (the
        # default takes 8192, all the seeds in one chunk), and the roots
        # are those found at the default budget
        lyness, _, region = catalog.build("lyness", n=2, a=2.0)
        seeds = 306
        expected = find_periodic_points(lyness, 3, region, seeds, 1)
        monkeypatch.setattr(core, "COLUMN_CHUNK", 2)
        assert chunk_length((2, 2)) == 128
        core_guarded_images = dynamics.guarded_images
        monkeypatch.setattr(dynamics, "guarded_images", guarded_images)
        f = Counting(**vars(lyness))
        assert find_periodic_points(f, 3, region, seeds, 1) == expected
        assert len(kept_rows) % 3 == 0  # k = 3 iterates per Newton step
        assert kept_rows[0] == seeds and len(set(kept_rows)) > 3
        # one call on columns per chunk of the rows kept; the divisor check
        # takes no Jacobian
        assert calls == [(c.stop - c.start,) for rows in kept_rows
                         for c in column_chunks(rows, 128)]


def _reference_periodic_points(f, k, starts):
    """The per-seed Newton search that the lockstep one replaced: one seed
    at a time, each iterate one ``jacobian_at`` and one ``apply``."""
    def iterate_with_jacobian(x, k):
        jac = np.eye(f.dim)
        y = list(x)
        for _ in range(k):
            jac = np.asarray(f.jacobian_at(y), dtype=float) @ jac
            y = f.apply(y)
        return y, jac

    found = []
    for x0 in starts:
        x = list(x0)
        converged = False
        for _ in range(dynamics.NEWTON_ITERATIONS):
            try:
                fk, jac = iterate_with_jacobian(x, k)
            except DomainError:
                break
            g = f.displacement(fk, x)
            if np.linalg.norm(g) <= dynamics.PERIODIC_TOL * (
                    1.0 + np.linalg.norm(x)):
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
        if any(f.distance(x, p.x) <= dynamics.DEDUP_RADIUS for p in found):
            continue
        period = k
        for d in range(1, k):
            if k % d == 0:
                fd, _ = iterate_with_jacobian(x, d)
                if f.distance(fd, x) <= dynamics.DEDUP_RADIUS:
                    period = d
                    break
        moduli = tuple(float(m) for m in dynamics.eigen_moduli(jac))
        found.append(dynamics.PeriodicPoint(
            x=tuple(x), period=period, multiplier_moduli=moduli,
            classification=dynamics._classify(moduli)))
    found.sort(key=lambda p: p.x)
    return found


def _reference_spectrum(f, x0, n_steps):
    """One point at a time: each Jacobian taken at its own point on a list
    of floats, the loop that the chunked orbit replaced; each stack's
    Jacobians then go through the blocked QR of ``lyapunov_spectrum``,
    cut where its stacks are cut."""
    def stacks():
        x = f.reduce([float(v) for v in x0])
        for stack in column_chunks(n_steps, dynamics.JACOBIAN_STACK):
            jacobians = []
            for _ in range(stack.start, stack.stop):
                jacobians.append(np.asarray(f.jacobian_at(x), dtype=float))
                x = f.apply(x)
            yield np.array(jacobians)

    return dynamics._qr_spectrum(stacks(), f.dim, n_steps)


def _apply_loop_spectrum(f, x0, n_steps):
    """``lyapunov_spectrum`` with its orbit advanced by ``SmoothMap.apply``,
    which checks the guard of each point before and after the step, and
    each point checked for finiteness on its own: the loop that
    ``core.orbit_points`` replaced, its stacks cut where
    ``lyapunov_spectrum`` cuts them."""
    def stacks():
        x = f.reduce([float(v) for v in x0])
        for stack in column_chunks(n_steps, dynamics.JACOBIAN_STACK):
            points = []
            for step in range(stack.start, stack.stop):
                if not all(map(math.isfinite, x)):
                    raise DomainError(f"orbit point {step} is not finite",
                                      step=step)
                points.append(x)
                try:
                    x = f.apply(x)
                except DomainError as err:
                    raise DomainError(f"orbit left the domain at step "
                                      f"{step}: {err}", step=step) from err
            yield point_stack(f.jacobian_at, np.array(points),
                              (f.dim, f.dim))
        if not all(map(math.isfinite, x)):
            raise DomainError(f"orbit point {n_steps} is not finite",
                              step=n_steps)

    return dynamics._qr_spectrum(stacks(), f.dim, n_steps)


def per_step_spectrum(f, x0, n_steps):
    """Lyapunov exponents with one QR per step: the blocked loop of
    ``lyapunov_spectrum`` must come within 1e-9 of them."""
    x = f.reduce([float(v) for v in x0])
    q = np.eye(f.dim)
    sums = np.zeros(f.dim)
    for _ in range(n_steps):
        jac = np.asarray(f.jacobian_at(x), dtype=float)
        x = f.apply(x)
        q, r = np.linalg.qr(jac @ q)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs
        sums += np.log(np.abs(np.diag(r)))
    return np.sort(sums / n_steps)[::-1]


def _plain_givens_qr(product):
    """The Givens rotations of ``dynamics._givens_qr`` written out plainly:
    the rows of R and of Q transposed, rotated together on Python
    floats."""
    n = len(product)
    rows = [row + [float(i == j) for j in range(n)]
            for i, row in enumerate(product.tolist())]
    for k in range(n):
        for i in range(k + 1, n):
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


def standard_map(k):
    """Chirikov's standard map on the 2-torus: chaotic, and its Jacobian
    varies from point to point."""
    def fwd(z):
        p = z[1] + k * jets.sin(z[0])
        return [z[0] + p, p]
    return SmoothMap(dim=2, forward=fwd, phase_topology=(TWO_PI, TWO_PI))


LYAPUNOV_ORBITS = pytest.mark.parametrize("f, x0", [
    (catalog.build("cat_map")[0], [0.3, 0.7]),
    (catalog.build("twist", n=2)[0], [0.1, 0.2, 0.3, 0.4]),
    (catalog.build("lyness", n=3)[0], [1.0, 2.0, 1.5]),
    (catalog.build("warned_circle", k=1, eps=0.5)[0], [0.4]),
    (standard_map(1.5), [1.0, 0.5]),
    (standard_map(3.0), [2.0, 0.01]),
    (catalog.build("lyness", n=5)[0], [1.0, 2.0, 1.5, 0.5, 1.2]),
    # (x/3, 3y) sheared by (x + y, y): Q's first column starts on the
    # contracting direction e1, so the derived last log is the expanding one
    (SmoothMap(dim=2, forward=lambda x: [x[0] / 3.0 + 8.0 / 3.0 * x[1],
                                         3.0 * x[1]]), [0.0, 0.0]),
], ids=["cat_map", "twist", "lyness", "warned_circle", "standard_map_k1.5",
        "standard_map_k3", "lyness_n5", "sheared"])


class TestGivensQR:
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_matches_numpy_qr(self, scale):
        rng = np.random.default_rng(20260)
        for n in range(1, 9):
            for p in scale * rng.standard_normal((5, n, n)):
                q, logs = dynamics._givens_qr(p)
                r = np.linalg.qr(p)[1]
                assert all(map(math.isfinite, logs))
                assert np.max(np.abs(np.array(logs) - np.log(
                    np.abs(r.diagonal())))) <= 1e-13
                assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-14
                # Q^T P = R is upper-triangular
                below = np.abs(np.tril(q.T @ p, -1))
                assert np.max(below) <= 1e-14 * np.max(np.abs(p))

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_equals_the_plain_rotation_loop(self, scale):
        rng = np.random.default_rng(20261)
        for n in range(1, 9):
            for p in scale * rng.standard_normal((5, n, n)):
                p[rng.random((n, n)) < 0.2] = 0.0  # some skipped rotations
                q, logs = dynamics._givens_qr(p)
                plain_q, plain_logs = _plain_givens_qr(p)
                assert np.array_equal(q, plain_q)
                assert logs == plain_logs

    @pytest.mark.parametrize("column", [0, 1, 3])
    def test_zero_column_gives_minus_infinity(self, column):
        p = np.random.default_rng(column).standard_normal((4, 4))
        p[:, column] = 0.0
        q, logs = dynamics._givens_qr(p)
        assert logs[column] == -math.inf
        assert all(math.isfinite(v) for k, v in enumerate(logs)
                   if k != column)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-14


class TestLyapunov:
    @LYAPUNOV_ORBITS
    def test_blocked_matches_per_step_qr(self, f, x0):
        spec = lyapunov_spectrum(f, x0, 2000)
        assert np.max(np.abs(spec - per_step_spectrum(f, x0, 2000))) <= 1e-9

    @LYAPUNOV_ORBITS
    @pytest.mark.parametrize("n_steps", [100, 2000])
    def test_chunked_orbit_equals_the_per_point_loop(self, f, x0, n_steps):
        assert np.array_equal(lyapunov_spectrum(f, x0, n_steps),
                              _reference_spectrum(f, x0, n_steps))

    @pytest.mark.parametrize("name, params, x0", [
        ("cat_map", {}, [0.3, 0.7]), ("twist", {"n": 2}, [0.1, 0.2, 0.3, 0.4]),
        ("lyness", {"n": 3}, [1.0, 2.0, 1.5])])
    @pytest.mark.parametrize("n_steps", [100, 129, 2000, 2049, 4097, 8193])
    def test_jacobians_take_one_column_call_per_chunk(self, name, params, x0,
                                                      n_steps, monkeypatch):
        f = catalog.build(name, **params)[0]
        calls = Counter()

        def forward(z, _forward=f.forward):
            column = isinstance(getattr(z[0], "value", z[0]), np.ndarray)
            calls["columns" if column else "points"] += 1
            return _forward(z)

        # the orbit applies f once per step; its Jacobians come from one
        # call per chunk of chunk_length((n, n)) steps of each stack of at
        # most JACOBIAN_STACK: 4097 steps are two stacks of 2048 and 2049
        # steps, 8193 three of 2731.  At the default budget (8192 steps of
        # the cat map's Jacobian, 2048 of the twist's, 3584 of Lyness
        # n = 3) a stack is one chunk, but a twist stack of more than 2048
        # steps is two; a budget of 2 points of a 16 x 16 Jacobian (128
        # steps of the cat map's, 32 of the twist's, 56 of Lyness n = 3)
        # cuts a stack into several
        assert dynamics.JACOBIAN_STACK == 4096
        columns = []
        for column_chunk in (core.COLUMN_CHUNK, 2):
            monkeypatch.setattr(core, "COLUMN_CHUNK", column_chunk)
            calls.clear()
            lyapunov_spectrum(replace(f, forward=forward), x0, n_steps)
            length = chunk_length((f.dim, f.dim))
            columns.append(sum(
                len(column_chunks(c.stop - c.start, length))
                for c in column_chunks(n_steps, dynamics.JACOBIAN_STACK)))
            assert calls == {"points": n_steps, "columns": columns[-1]}
        stacks = {100: 1, 129: 1, 2000: 1, 2049: 1, 4097: 2, 8193: 3}
        assert columns[0] == {
            "cat_map": stacks, "lyness": stacks,
            "twist": {100: 1, 129: 1, 2000: 1, 2049: 2, 4097: 3, 8193: 6},
        }[name][n_steps]

    @pytest.mark.parametrize("scales", [(1e200,), (1e200, 1e-200)],
                             ids=["1-D", "2-D"])
    def test_extreme_rates_stay_finite(self, scales):
        # a block of two such steps would already overflow to 1e400; in
        # 1-D only the size of the logs, not their spread, can show it
        f = SmoothMap(dim=len(scales),
                      forward=lambda x: [c * v for c, v in zip(scales, x)])
        spec = lyapunov_spectrum(f, [0.0] * len(scales), 200)
        assert np.all(np.isfinite(spec))
        assert list(spec) == pytest.approx([math.log(c) for c in scales],
                                           rel=1e-12)

    def test_singular_jacobian_gives_minus_infinity(self):
        for forward, n_steps, upper in [
            (lambda x: [2.0 * x[0], 0.0 * x[1]], 200, math.log(2.0)),
            # rank 1 off the axes: R_22 of a block must be an exact zero,
            # not a rounding residue that averages to a finite exponent;
            # the first step stretches e1 by sqrt(2), every later one
            # (1, 1) by 2
            (lambda x: [x[0] + x[1], x[0] + x[1]], 500,
             499.5 / 500 * math.log(2.0)),
        ]:
            f = SmoothMap(dim=2, forward=forward)
            spec = lyapunov_spectrum(f, [0.1, 0.2], n_steps)
            assert spec[0] == pytest.approx(upper, abs=1e-12)
            assert spec[1] == -math.inf

    def test_nilpotent_jacobian_gives_minus_infinity_twice(self):
        # J^2 = 0: every block of two steps is the zero matrix
        f = SmoothMap(dim=2, forward=lambda x: [x[0] - x[1], x[0] - x[1]])
        spec = lyapunov_spectrum(f, [0.1, 0.2], 500)
        assert list(spec) == [-math.inf, -math.inf]

    def test_one_singular_step_keeps_the_top_exponent_finite(self):
        # x counts 0, 1, 2, ...; the Jacobian is singular at x = 3 only,
        # where y becomes 0 for good, and the orbit's log-dets sum to -inf
        # in that step's block alone
        f = SmoothMap(dim=2, forward=lambda x: [
            x[0] + 1.0, 2.0 * x[1] * (x[0] - 3.0) / (x[0] + 1.0)])
        spec = lyapunov_spectrum(f, [0.0, 0.2], 2000)
        assert math.isfinite(spec[0])
        assert spec[0] == pytest.approx(per_step_spectrum(f, [0.0, 0.2],
                                                          2000)[0],
                                        rel=0, abs=1e-9)
        # numpy's per-step QR leaves a rounding residue for R_22 there
        assert spec[1] == -math.inf

    @pytest.mark.parametrize("name, params, x0", [
        ("cat_map", {}, [0.3, 0.7]), ("twist", {"n": 2}, [0.1, 0.2, 0.3, 0.4]),
        ("lyness", {"n": 2}, [1.0, 2.0]), ("lyness", {"n": 3}, [1.0, 2.0, 1.5]),
        ("warned_circle", {"k": 1, "eps": 0.5}, [0.4]),
        ("linear", {"blocks": "2:3"}, [0.1, 0.2, 0.3])])
    @pytest.mark.parametrize("n_steps", [100, 129, 700])  # 2^700 is finite
    def test_orbit_points_equal_the_apply_loop(self, name, params, x0,
                                               n_steps):
        f = catalog.build(name, **params)[0]
        assert np.array_equal(lyapunov_spectrum(f, x0, n_steps),
                              _apply_loop_spectrum(f, x0, n_steps))

    @pytest.mark.parametrize("n_steps", [100, 129, 1000])
    def test_guard_checked_once_per_orbit_point(self, n_steps):
        # x0, every image and the image of the last step: N + 1 calls
        f = catalog.build("lyness", n=2)[0]
        calls = Counter()

        def guard(x, _guard=f.domain_guard):
            calls["guard"] += 1
            return _guard(x)

        lyapunov_spectrum(replace(f, domain_guard=guard), [1.0, 2.0],
                          n_steps)
        assert calls["guard"] == n_steps + 1

    @pytest.mark.parametrize("x0, limit", [([0.0], 50.5), ([60.0], 50.5),
                                           ([0.0], 127.5), ([0.0], 128.5),
                                           ([0.0], 1e9), ([0.0], 1023.5),
                                           ([0.0], 1024.5), ([0.0], 1025.5),
                                           ([0.0], 4095.5), ([0.0], 4096.5),
                                           ([0.0], 4097.5)])
    @pytest.mark.parametrize("raising", [False, True])
    def test_domain_errors_equal_the_apply_loop(self, x0, limit, raising):
        # the guard or forward itself stops the orbit x0, x0 + 1, ...:
        # before the first step, inside a stack, at the first stack's last
        # image (step 4095 of two stacks of 4096), after it, or never
        def forward(x):
            value = getattr(x[0], "value", x[0]) + 1.0  # jets: their value
            if raising and np.any(value > limit):
                raise DomainError(f"{value} is past {limit}")
            return [x[0] + 1.0]

        guard = None if raising else (lambda x: x[0] < limit)
        f = SmoothMap(dim=1, forward=forward, domain_guard=guard)
        assert column_chunks(8192, dynamics.JACOBIAN_STACK)[1].start == 4096
        try:
            expected = _apply_loop_spectrum(f, x0, 8192)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                lyapunov_spectrum(f, x0, 8192)
            assert (str(got.value), got.value.step) == (str(err), err.step)
        else:
            assert np.array_equal(lyapunov_spectrum(f, x0, 8192), expected)

    @pytest.mark.parametrize("step", [1023, 1024, 1025, 4095, 4096, 4097])
    def test_first_non_finite_point_equals_the_apply_loop(self, step):
        # 4096 * 2^1012 = 2^1024 overflows: the orbit of
        # (4096 - step) * 2^1012 under x -> x + 2^1012, exact up to there,
        # is finite up to point step - 1; point 4096 is the first stack's
        # last image
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 2.0 ** 1012])
        x0 = [(4096 - step) * 2.0 ** 1012]
        with pytest.raises(DomainError) as err:
            _apply_loop_spectrum(f, x0, 8192)
        with pytest.raises(DomainError) as got:
            lyapunov_spectrum(f, x0, 8192)
        assert (str(got.value), got.value.step) == (
            f"orbit point {step} is not finite", step)
        assert (str(err.value), err.value.step) == (str(got.value), step)

    @pytest.mark.parametrize("past", [2000, 1124, 1125])
    def test_forward_raising_past_a_non_finite_point(self, past):
        # x -> x + 2^1012 from -1124 * 2^1012 overflows at point 5220,
        # 1124 steps into the second stack, and forward raises DomainError
        # on that point: lyapunov and orbit both end the orbit at point
        # 5220 as not finite, also where lyapunov walks the second stack
        # again to find it (the ids count the steps past the first stack)
        def forward(x):
            if not math.isfinite(jets.float_of(x[0])):
                raise DomainError("not finite")
            return [x[0] + 2.0 ** 1012]

        f = SmoothMap(dim=1, forward=forward)
        x0, n_steps = [-1124 * 2.0 ** 1012], dynamics.JACOBIAN_STACK + past
        orbit = compute_orbit(f, x0, n_steps)
        assert (len(orbit), orbit.non_finite, orbit.guard_failures) == (
            5220, 1, 0)
        with pytest.raises(DomainError) as got:
            lyapunov_spectrum(f, x0, n_steps)
        assert (str(got.value), got.value.step) == (
            "orbit point 5220 is not finite", 5220)
        assert str(got.value) == str(pytest.raises(
            DomainError, _apply_loop_spectrum, f, x0, n_steps).value)

    def test_domain_error_reports_its_step(self):
        # f' = 1 doubles the blocks: step 50 lies inside the block of
        # steps 31 to 62, where the orbit 0, 1, 2, ... leaves
        # x < 50.5
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0],
                      domain_guard=lambda x: x[0] < 50.5)
        with pytest.raises(DomainError, match="at step 50:") as err:
            lyapunov_spectrum(f, [0.0], 200)
        assert err.value.step == 50

    @pytest.mark.parametrize("n_steps", [100, 127, 128, 129, 257, 1000])
    @pytest.mark.parametrize("forward, x0, exponents, longest", [
        # the logs but the last spread by 2 ln 3 per step
        (lambda x: [3.0 * x[0], x[1] / 3.0, x[2]], [0.0, 0.0, 0.0],
         [math.log(3.0), 0.0, -math.log(3.0)], 6),
        # one log besides the last, which comes from the determinants:
        # only the logs' size, ln 3 per step, limits the block, to
        # ln(QR_GROWTH) / ln 3 steps (the ids name the cap of 64 steps
        # that bounded these blocks before QR_MAX_BLOCK rose to 256)
        (lambda x: [3.0 * x[0], x[1] / 3.0], [0.0, 0.0],
         [math.log(3.0), -math.log(3.0)], 125),
        # ln(QR_GROWTH) / ln 2 steps
        (lambda x: [2.0 * x[0]], [0.0], [math.log(2.0)], 199),
    ], ids=["blocks_of_6", "blocks_of_64_in_2d", "blocks_up_to_64"])
    def test_every_step_counted_once(self, forward, x0, exponents, longest,
                                     n_steps, monkeypatch):
        # across runs, blocks and chunks: a step dropped or counted twice
        # moves an exponent by at least ln 2 / N
        flushed, blocks = [], []

        def block_length(logs, steps, rate, _block=dynamics._qr_block_length):
            block, rate = _block(logs, steps, rate)
            flushed.append(steps)
            blocks.append(block)
            return block, rate

        monkeypatch.setattr(dynamics, "_qr_block_length", block_length)
        f = SmoothMap(dim=len(x0), forward=forward)
        spec = lyapunov_spectrum(f, x0, n_steps)
        assert list(spec) == pytest.approx(exponents, rel=0, abs=1e-12)
        assert sum(flushed) == n_steps
        # a block at most doubles, so the bound is reached once the orbit
        # is long enough for the doublings (from N = 257 on, all three)
        assert max(blocks) == min(longest, 2 * max(flushed))

    @pytest.mark.parametrize("f, x0", [
        (catalog.build("cat_map")[0], [0.3, 0.7]),
        (standard_map(3.0), [2.0, 0.01]),
    ], ids=["cat_map", "standard_map_k3"])
    def test_blocked_matches_per_step_qr_at_20000_steps(self, f, x0):
        spec = lyapunov_spectrum(f, x0, 20000)
        assert np.max(np.abs(spec - per_step_spectrum(f, x0, 20000))) <= 1e-9

    def test_cat_map_at_the_benchmark_length(self, monkeypatch):
        # the benchmark's correctness gate: +-ln((3 + sqrt 5) / 2) to 1e-5
        flushes = Counter()

        def block_length(logs, steps, rate, _block=dynamics._qr_block_length):
            flushes["qr"] += 1
            return _block(logs, steps, rate)

        monkeypatch.setattr(dynamics, "_qr_block_length", block_length)
        f = catalog.build("cat_map")[0]
        lam = math.log((3 + math.sqrt(5)) / 2)
        spec = lyapunov_spectrum(f, [0.3, 0.7], 100000)
        assert np.max(np.abs(spec - [lam, -lam])) <= 1e-5
        # det Df = 1: the last log is minus the first in every block
        assert spec[0] + spec[1] == 0.0
        # blocks of up to 143 steps, ln(QR_GROWTH) / lambda, after the
        # first doublings (706 QRs); capped at 64 steps they were 1,568,
        # and with the spread to the last log about 7 (14,288)
        assert flushes["qr"] <= 720

    def test_rate_rising_inside_a_block(self):
        # (x, y) -> (x + 1, g(x) y) with g = 1 up to x = 3000 and 2 from
        # there: the blocks double through the isometric stretch, and the
        # one that spans x = 3000 grows by 2 per step unseen; QR_MAX_BLOCK
        # keeps it at 256 steps, where blocks of 2048 overflowed and inf
        # times the zeros off the diagonal gave NaN exponents
        def forward(x):
            gain = 2.0 if jets.float_of(x[0]) >= 3000.0 else 1.0
            return [x[0] + 1.0, gain * x[1]]

        f = SmoothMap(dim=2, forward=forward)
        spec = lyapunov_spectrum(f, [0.0, 0.0], 8192)
        assert list(spec) == pytest.approx(
            [5192 / 8192 * math.log(2.0), 0.0], rel=0, abs=1e-12)
        assert np.max(np.abs(spec - per_step_spectrum(f, [0.0, 0.0], 8192))
                      ) <= 1e-9

    def test_cat_map_constant_jacobian(self):
        f, _, _ = catalog.build("cat_map")
        spec = lyapunov_spectrum(f, [0.3, 0.7], 3000)
        lam = math.log((3 + math.sqrt(5)) / 2)
        assert spec[0] == pytest.approx(lam, abs=5e-3)
        assert spec[1] == pytest.approx(-lam, abs=5e-3)

    def test_rigid_rotation_zero(self):
        f, _, _ = catalog.build("rigid_rotation", a=1.0)
        spec = lyapunov_spectrum(f, [0.0], 500)
        assert abs(spec[0]) <= 1e-12

    def test_twist_map_zero_spectrum(self):
        f, _, _ = catalog.build("twist", n=2)
        spec = lyapunov_spectrum(f, [0.1, 0.2, 0.3, 0.4], 1000)
        assert np.max(np.abs(spec)) <= 1e-2

    def test_minimum_length(self):
        f, _, _ = catalog.build("cat_map")
        with pytest.raises(ValueError):
            lyapunov_spectrum(f, [0.1, 0.1], 50)


class TestRotationNumber:
    def test_rigid_rotation_exact(self):
        a = 1.0
        f, _, _ = catalog.build("rigid_rotation", a=a)
        est = rotation_number(f, 0.0, 10_000)
        assert est.value == pytest.approx(a / TWO_PI, abs=1e-3)
        # every increment is 1 up to rounding, and the averages over
        # 10000 and 5000 steps round to the same float
        assert est.gap == 0.0

    def test_warned_circle_period_two(self):
        f, _, _ = catalog.build("warned_circle", k=1, eps=0.5)
        est = rotation_number(f, 0.0, 5000)
        assert est.value == pytest.approx(0.5, abs=1e-3)

    def test_warned_circle_k2(self):
        f, _, _ = catalog.build("warned_circle", k=2, eps=0.3)
        est = rotation_number(f, 0.0, 5000)
        assert est.value == pytest.approx(0.25, abs=1e-3)

    def test_weighted_average_off_the_periodic_orbit(self):
        # from 0.3 the orbit is not periodic (from 0 it has period 4), and
        # the weighted average reaches 7.1e-9 with N = 10000
        f, _, _ = catalog.build("warned_circle", k=2, eps=0.3)
        est = rotation_number(f, 0.3, 10_000)
        assert abs(est.value - 0.25) <= 1e-8
        assert est.gap <= 1e-7

    def test_non_monotone_rejected(self):
        f = SmoothMap(dim=1,
                      forward=lambda x: [x[0] + 2.0 * jets.sin(x[0])],
                      phase_topology=(TWO_PI,))
        with pytest.raises(NonMonotoneMapError):
            rotation_number(f, 0.0, 100)

    def test_needs_circle_map(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0])
        with pytest.raises(ValueError):
            rotation_number(f, 0.0, 100)

    @pytest.mark.parametrize("n_steps", [-1, 0, 1, 2, 3])
    def test_step_count_checked(self, n_steps):
        # the average over the first N/2 steps needs a positive weight
        f, _, _ = catalog.build("rigid_rotation", a=1.0)
        with pytest.raises(ValueError, match="n_steps must be >= 4"):
            rotation_number(f, 0.0, n_steps)


def _drift_step_loop(f, integrals, x0, n_steps):
    """``level_set_drift`` as one ``next`` per step of ``orbit_points``,
    the loop it ran before it shared the orbit walk: the oracle for orbits
    that stay finite.  An x0 outside the guard raises DomainError."""
    integrals = list(integrals)
    drifts = [0.0] * len(integrals)
    reached = 0
    orbit = orbit_points(f, x0)
    x = next(orbit)
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


def _countdown():
    """x -> x - 1 inside x > 0, with two integrals that drift."""
    f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                  domain_guard=lambda x: x[0] > 0.0)
    return f, (ScalarField(dim=1, func=lambda x: x[0]),
               ScalarField(dim=1, func=lambda x: x[0] * x[0]))


class TestLevelSetDrift:
    @pytest.mark.parametrize("n, x0", [(2, [1.0, 2.0]),
                                       (3, [1.0, 2.0, 1.5]),
                                       (5, [0.5, 1.2, 2.0, 3.1, 0.9])])
    def test_equals_the_step_loop_on_lyness(self, n, x0):
        f, s, _ = catalog.build("lyness", n=n, a=1.5)
        for n_steps in (1, 7, 400):
            assert (level_set_drift(f, s.integrals, x0, n_steps)
                    == _drift_step_loop(f, s.integrals, x0, n_steps))

    @pytest.mark.parametrize("x0", [[2.5], [7.0], [-1.0]])
    def test_equals_the_step_loop_leaving_the_guard(self, x0):
        f, integrals = _countdown()
        for n_steps in (1, 3, 50):
            if f.domain_guard(x0):
                assert (level_set_drift(f, integrals, x0, n_steps)
                        == _drift_step_loop(f, integrals, x0, n_steps))
                continue
            for drift in (level_set_drift, _drift_step_loop):
                with pytest.raises(DomainError, match="violates"):
                    drift(f, integrals, x0, n_steps)

    def test_overflow_ends_the_orbit(self):
        # the orbit's points overflow from step 1011 on (see lyapunov)
        f, _, _ = catalog.build("linear", blocks="2:3")
        g = ScalarField(dim=3, func=lambda x: x[0], name="x1")
        drifts, reached = level_set_drift(f, [g], [0.1, 0.2, 0.3], 3000)
        assert reached == 1010
        assert drifts[0] == pytest.approx(1.0972248137587378e303, rel=1e-12)

    def test_identity_map_zero_drift(self):
        f = SmoothMap(dim=2, forward=lambda x: list(x))
        g = ScalarField(dim=2, func=lambda x: x[0] ** 2 + x[1])
        drifts, reached = level_set_drift(f, [g], [0.4, 0.6], 50)
        assert drifts == [0.0]
        assert reached == 50

    def test_lyness_f1_small_drift(self):
        f, s, _ = catalog.build("lyness", n=2, a=2.0)
        drifts, reached = level_set_drift(f, s.integrals, [1.0, 2.0], 10_000)
        assert reached == 10_000
        assert drifts[0] <= 1e-6

    def test_cat_map_coordinate_drifts(self):
        f, _, _ = catalog.build("cat_map")
        g = ScalarField(dim=2, func=lambda x: x[0])
        drifts, _ = level_set_drift(f, [g], [0.3, 0.7], 10)
        assert drifts[0] > 0.1

    def test_guard_stop(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        g = ScalarField(dim=1, func=lambda x: x[0])
        _, reached = level_set_drift(f, [g], [2.5], 10)
        assert reached == 2

    def test_nan_integral_is_not_conserved(self):
        # x1 * 1e308 * 10 overflows to inf, so the integral is inf - inf
        # + x2 = NaN at every point; the builtin max reported drift 0.0
        f = SmoothMap(dim=2, forward=lambda x: [x[0] + 1.0, x[1]])
        g = ScalarField(dim=2, func=lambda x: (x[0] * 1e308 * 10
                                               - x[0] * 1e308 * 10 + x[1]))
        h = ScalarField(dim=2, func=lambda x: x[1])
        for x0 in ([1.0, 2.0], [-3.0, 0.5]):
            drifts, reached = level_set_drift(f, [g, h], x0, 20)
            assert math.isnan(drifts[0])
            assert drifts[1] == 0.0
            assert reached == 20


class TestTranslationVector:
    def test_affine_log_two(self):
        f, s, _ = catalog.build("affine1d", a=2.0, b=3.0)
        est = estimate_translation_vector(f, s, [1.0])
        assert est.t0[0] == pytest.approx(math.log(2.0), abs=1e-8)

    def test_rigid_rotation_angle(self):
        f, s, _ = catalog.build("rigid_rotation", a=0.7)
        est = estimate_translation_vector(f, s, [1.0])
        assert est.t0[0] == pytest.approx(0.7, abs=1e-9)

    def test_twist_gradient(self):
        f, s, _ = catalog.build("twist", n=2)
        q = [0.3, -0.2]
        p = [1.0, 0.5]
        est = estimate_translation_vector(f, s, q + p)
        # dq = C p with C = [[1, 1], [1, 0]]
        assert np.allclose(est.t0, [1.5, 1.0], atol=1e-8)

    @pytest.mark.parametrize("blocks", ["2:3", "0.5:4", "2:2,3:1",
                                        "1.5:2,0.7:1,3:3"])
    def test_linear_log_of_each_block(self, blocks):
        # f is the time-1 map of log A; on a block L I + N that is
        # ln L N^0 + sum_j (-1)^(j+1) N^j / (j L^j), one time per field N^j x
        f, s, _ = catalog.build("linear", blocks=blocks)
        t0 = [math.log(lam) if j == 0 else (-1) ** (j + 1) / (j * lam ** j)
              for lam, size in catalog.parse_blocks(blocks).blocks
              for j in range(size)]
        rng = np.random.default_rng(5)
        for _ in range(3):
            x0 = rng.uniform(0.3, 1.5, f.dim) * rng.choice([-1.0, 1.0],
                                                           f.dim)
            est = estimate_translation_vector(f, s, x0)
            assert est.t0 == pytest.approx(t0, abs=1e-9)

    def test_needs_fields(self):
        f, s, _ = catalog.build("lyness", n=2, a=1.0)
        with pytest.raises(ValueError):
            estimate_translation_vector(f, s, [1.0, 2.0])
