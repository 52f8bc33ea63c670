import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dyncert import catalog, dynamics, jets
from dyncert.core import (COLUMN_CHUNK, DomainError, SamplingRegion,
                          ScalarField, SmoothMap, VectorField, column_chunks,
                          point_stack, sample)
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

    def test_guard_violating_start(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        with pytest.raises(DomainError, match="violates the domain guard"):
            compute_orbit(f, [-1.0], 10)
        g = ScalarField(dim=1, func=lambda x: x[0])
        assert level_set_drift(f, [g], [-1.0], 10) == ([0.0], 0)


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

        # the rows run from three chunks down to one as seeds converge
        lyness, _, region = catalog.build("lyness", n=2, a=2.0)
        seeds = 2 * COLUMN_CHUNK + 50
        expected = find_periodic_points(lyness, 3, region, seeds, 1)
        core_guarded_images = dynamics.guarded_images
        monkeypatch.setattr(dynamics, "guarded_images", guarded_images)
        f = Counting(**vars(lyness))
        assert find_periodic_points(f, 3, region, seeds, 1) == expected
        assert len(kept_rows) % 3 == 0  # k = 3 iterates per Newton step
        assert kept_rows[0] == seeds and len(set(kept_rows)) > 3
        # one call on columns per chunk of the rows kept; the divisor check
        # takes no Jacobian
        assert calls == [(c.stop - c.start,) for rows in kept_rows
                         for c in column_chunks(rows)]


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
    """One step at a time: the blocked QR loop of ``lyapunov_spectrum``
    with each Jacobian taken at its own point on a list of floats, the
    loop that the chunked orbit replaced."""
    x = f.reduce([float(v) for v in x0])
    product = np.eye(f.dim)
    sums = np.zeros(f.dim)
    chained, block, rate = 0, 1, 0.0
    for step in range(n_steps):
        jac = np.asarray(f.jacobian_at(x), dtype=float)
        x = f.apply(x)
        product = jac.dot(product)
        chained += 1
        if chained < block and step < n_steps - 1:
            continue
        product, logs = dynamics._givens_qr(product)
        sums += logs
        block, rate = dynamics._qr_block_length(logs, chained, rate)
        chained = 0
    return np.sort(sums / n_steps)[::-1]


def _apply_loop_spectrum(f, x0, n_steps):
    """``lyapunov_spectrum`` with its orbit advanced by ``SmoothMap.apply``,
    which checks the guard of each point before and after the step: the
    loop that ``core.orbit_points`` replaced."""
    x = f.reduce([float(v) for v in x0])
    product = np.eye(f.dim)
    sums = [0.0] * f.dim
    chained, block, rate = 0, 1, 0.0
    for chunk in column_chunks(n_steps):
        points = []
        for step in range(chunk.start, chunk.stop):
            points.append(x)
            try:
                x = f.apply(x)
            except DomainError as err:
                raise DomainError(f"orbit left the domain at step {step}: "
                                  f"{err}", step=step) from err
        jacobians = point_stack(f.jacobian_at, np.array(points),
                                (f.dim, f.dim))
        for step, jac in enumerate(jacobians, chunk.start):
            product = jac.dot(product)
            chained += 1
            if chained < block and step < n_steps - 1:
                continue
            product, logs = dynamics._givens_qr(product)
            sums = [total + log for total, log in zip(sums, logs)]
            block, rate = dynamics._qr_block_length(logs, chained, rate)
            chained = 0
    return np.sort(np.array(sums) / n_steps)[::-1]


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
], ids=["cat_map", "twist", "lyness", "warned_circle", "standard_map_k1.5",
        "standard_map_k3"])


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
    @pytest.mark.parametrize("n_steps", [100, 129, 2000])
    def test_jacobians_take_one_column_call_per_chunk(self, name, params, x0,
                                                      n_steps):
        f = catalog.build(name, **params)[0]
        calls = Counter()

        def forward(z, _forward=f.forward):
            column = isinstance(getattr(z[0], "value", z[0]), np.ndarray)
            calls["columns" if column else "points"] += 1
            return _forward(z)

        lyapunov_spectrum(replace(f, forward=forward), x0, n_steps)
        # the orbit applies f once per step; its Jacobians come from one
        # call per chunk of at most COLUMN_CHUNK steps
        assert calls == {"points": n_steps,
                         "columns": -(-n_steps // COLUMN_CHUNK)}

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
                                           ([0.0], 1e9)])
    @pytest.mark.parametrize("raising", [False, True])
    def test_domain_errors_equal_the_apply_loop(self, x0, limit, raising):
        # the guard or forward itself stops the orbit x0, x0 + 1, ...:
        # before the first step, inside a chunk, at a chunk's last image
        # or never
        def forward(x):
            value = getattr(x[0], "value", x[0]) + 1.0  # jets: their value
            if raising and np.any(value > limit):
                raise DomainError(f"{value} is past {limit}")
            return [x[0] + 1.0]

        guard = None if raising else (lambda x: x[0] < limit)
        f = SmoothMap(dim=1, forward=forward, domain_guard=guard)
        try:
            expected = _apply_loop_spectrum(f, x0, 200)
        except DomainError as err:
            with pytest.raises(DomainError) as got:
                lyapunov_spectrum(f, x0, 200)
            assert (str(got.value), got.value.step) == (str(err), err.step)
        else:
            assert np.array_equal(lyapunov_spectrum(f, x0, 200), expected)

    def test_domain_error_reports_its_step(self):
        # f' = 1 doubles the blocks up to 64 steps: step 50 lies inside
        # the block of steps 31 to 62, where the orbit 0, 1, 2, ... leaves
        # x < 50.5
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0],
                      domain_guard=lambda x: x[0] < 50.5)
        with pytest.raises(DomainError, match="at step 50:") as err:
            lyapunov_spectrum(f, [0.0], 200)
        assert err.value.step == 50

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
        assert est.dispersion <= 1e-12

    def test_warned_circle_period_two(self):
        f, _, _ = catalog.build("warned_circle", k=1, eps=0.5)
        est = rotation_number(f, 0.0, 5000)
        assert est.value == pytest.approx(0.5, abs=1e-3)

    def test_warned_circle_k2(self):
        f, _, _ = catalog.build("warned_circle", k=2, eps=0.3)
        est = rotation_number(f, 0.0, 5000)
        assert est.value == pytest.approx(0.25, abs=1e-3)

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

    @pytest.mark.parametrize("n_steps, windows", [(0, 4), (3, 4), (100, 0)])
    def test_window_count_checked(self, n_steps, windows):
        f, _, _ = catalog.build("rigid_rotation", a=1.0)
        with pytest.raises(ValueError):
            rotation_number(f, 0.0, n_steps, windows)


class TestLevelSetDrift:
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

    def test_needs_fields(self):
        f, s, _ = catalog.build("lyness", n=2, a=1.0)
        with pytest.raises(ValueError):
            estimate_translation_vector(f, s, [1.0, 2.0])
