import math

import numpy as np
import pytest

from dyncert import catalog
from dyncert.core import SamplingRegion, ScalarField, SmoothMap, VectorField
from dyncert.dynamics import (ConvergenceError, NonMonotoneMapError,
                              compute_orbit, estimate_translation_vector,
                              find_periodic_points, level_set_drift,
                              lyapunov_spectrum, rotation_number)
from dyncert.numerics import IntegratorConfig

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

    def test_bad_k(self):
        f, _, region = catalog.build("cat_map")
        with pytest.raises(ValueError):
            find_periodic_points(f, 0, region)


class TestLyapunov:
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
        from dyncert import jets
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
        est = estimate_translation_vector(
            f, s, [1.0], IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12))
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
