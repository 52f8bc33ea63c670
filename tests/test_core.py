import math

import numpy as np
import pytest

from dyncert.core import (DomainError, IntegrabilityStructure,
                          RegionSamplingError, SamplingRegion, ScalarField,
                          SmoothMap, VectorField, iterate, sample)

TWO_PI = 2.0 * math.pi


def lyness2(a=1.0):
    return SmoothMap(
        dim=2,
        forward=lambda x: [x[1], (x[1] + a) / x[0]],
        inverse=lambda x: [(x[0] + a) / x[1], x[0]],
        domain_guard=lambda x: all(v > 1e-3 for v in x),
        name="lyness2")


def rotation(a):
    return SmoothMap(dim=1, forward=lambda x: [x[0] + a],
                     inverse=lambda x: [x[0] - a],
                     phase_topology=(TWO_PI,), name="rot")


class TestSmoothMap:
    def test_apply_and_inverse_roundtrip(self):
        f = lyness2()
        x = [1.7, 0.4]
        y = f.apply(x)
        back = f.apply_inverse(y)
        assert np.allclose(back, x, atol=1e-12)

    def test_guard_violation_raises(self):
        f = lyness2()
        with pytest.raises(DomainError):
            f.apply([1e-4, 1.0])

    def test_missing_inverse(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0])
        with pytest.raises(DomainError):
            f.apply_inverse([0.0])

    def test_circle_reduction(self):
        f = rotation(1.0)
        y = f.apply([TWO_PI - 0.5])
        assert 0.0 <= y[0] < TWO_PI
        assert y[0] == pytest.approx(0.5)

    def test_displacement_wraps_shortest_arc(self):
        f = rotation(0.0)
        d = f.displacement([0.1], [TWO_PI - 0.1])
        assert d[0] == pytest.approx(0.2)
        assert f.distance([0.1], [TWO_PI - 0.1]) == pytest.approx(0.2)

    def test_jacobian_prefers_analytic(self):
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0]],
                      analytic_jacobian=lambda x: [[42.0]])
        assert f.jacobian_at([0.0])[0][0] == 42.0

    def test_jacobian_via_jets(self):
        f = lyness2()
        j = np.asarray(f.jacobian_at([1.0, 1.0]), dtype=float)
        assert np.allclose(j, [[0, 1], [-2, 1]])


class TestFields:
    def test_vector_field_dimension_check(self):
        v = VectorField(dim=2, func=lambda x: [x[0]])
        with pytest.raises(ValueError):
            v([1.0, 2.0])

    def test_vector_field_jacobian(self):
        v = VectorField(dim=2, func=lambda x: [x[0] * x[1], x[1]])
        assert np.allclose(v.jacobian_at([2.0, 3.0]), [[3, 2], [0, 1]])

    def test_scalar_field_gradient(self):
        g = ScalarField(dim=2, func=lambda x: x[0] ** 2 + x[1])
        assert g.gradient_at([3.0, 0.0]) == [6.0, 1.0]


class TestStructure:
    def test_counts_and_completeness(self):
        v = VectorField(dim=2, func=lambda x: [1.0, 0.0])
        g = ScalarField(dim=2, func=lambda x: x[1])
        s = IntegrabilityStructure(dim=2, fields=(v,), integrals=(g,))
        assert s.m == 1 and s.complete

    def test_partial_structure_allowed(self):
        g = ScalarField(dim=3, func=lambda x: x[0])
        s = IntegrabilityStructure(dim=3, integrals=(g,))
        assert not s.complete

    def test_overfull_rejected(self):
        g = ScalarField(dim=1, func=lambda x: x[0])
        with pytest.raises(ValueError):
            IntegrabilityStructure(dim=1, integrals=(g, g))

    def test_dimension_mismatch_rejected(self):
        v = VectorField(dim=3, func=lambda x: [0.0] * 3)
        with pytest.raises(ValueError):
            IntegrabilityStructure(dim=2, fields=(v,))


class TestSampling:
    def test_determinism(self):
        r = SamplingRegion(box=((0.0, 1.0), (0.0, 1.0)))
        a = sample(r, 3, seed=7)
        b = sample(r, 3, seed=7)
        assert a == b

    def test_prefix_stability(self):
        # point i depends only on (seed, i), not on the total count
        r = SamplingRegion(box=((0.0, 1.0),))
        assert sample(r, 10, seed=1)[:4] == sample(r, 4, seed=1)

    def test_seed_changes_points(self):
        r = SamplingRegion(box=((0.0, 1.0),))
        assert sample(r, 5, seed=1) != sample(r, 5, seed=2)

    def test_margin(self):
        r = SamplingRegion(box=((0.0, 1.0),), margin=0.1)
        for (x,) in sample(r, 200, seed=3):
            assert 0.1 <= x <= 0.9

    def test_guard_respected(self):
        r = SamplingRegion(box=((-1.0, 1.0),), guard=lambda x: x[0] > 0.0)
        assert all(x > 0.0 for (x,) in sample(r, 100, seed=4))

    def test_positive_orthant_region(self):
        r = SamplingRegion(box=((0.1, 10.0),) * 3,
                           guard=lambda x: all(v > 0 for v in x))
        pts = sample(r, 50, seed=42)
        assert all(all(v > 0 for v in p) for p in pts)

    def test_impossible_guard(self):
        r = SamplingRegion(box=((0.0, 1.0),), guard=lambda x: False)
        with pytest.raises(RegionSamplingError):
            sample(r, 1, seed=0)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingRegion(box=((0.0, 0.1),), margin=0.2)


class TestIterate:
    def test_zero_iterations(self):
        assert iterate(lyness2(), [1.0, 2.0], 0) == [1.0, 2.0]

    def test_lyness_five_cycle(self):
        f = lyness2(a=1.0)
        x = [1.0, 2.0]
        seen = [tuple(x)]
        for _ in range(5):
            x = f.apply(x)
            seen.append(tuple(x))
        assert seen == [(1, 2), (2, 3), (3, 2), (2, 1), (1, 1), (1, 2)]
        assert iterate(f, [1.0, 2.0], 5) == [1.0, 2.0]

    def test_negative_iterations_use_inverse(self):
        f = lyness2(a=1.0)
        assert np.allclose(iterate(f, [1.0, 2.0], -5), [1.0, 2.0], atol=1e-12)

    def test_cat_map_period_two(self):
        f = SmoothMap(dim=2, forward=lambda x: [2 * x[0] + x[1], x[0] + x[1]],
                      phase_topology=(1.0, 1.0))
        y = iterate(f, [0.2, 0.4], 2)
        assert np.allclose(y, [0.2, 0.4], atol=1e-12)

    def test_guard_failure_reports_step(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        with pytest.raises(DomainError) as exc:
            iterate(f, [2.5], 10)
        assert exc.value.step == 3
