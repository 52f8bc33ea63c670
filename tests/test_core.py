import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import catalog
from dyncert.core import (DomainError, IntegrabilityStructure,
                          RegionSamplingError, SamplingRegion, ScalarField,
                          SmoothMap, VectorField, guarded_images, iterate,
                          sample)
from helpers import reference_sample, squaring_past_5

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

    def test_displacement_along_the_last_axis(self):
        f = SmoothMap(dim=2, forward=list, phase_topology=(1.0, None))
        a = np.random.default_rng(3).uniform(-2.0, 2.0, (40, 2))
        b = np.random.default_rng(4).uniform(-2.0, 2.0, (40, 2))
        per_row = [f.displacement(list(u), list(v)) for u, v in zip(a, b)]
        assert np.array_equal(f.displacement(a, b), per_row)
        assert np.array_equal(f.displacement(a[0], b),
                              [f.displacement(a[0], v) for v in b])

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


SEEDS = (0, 1, 42, 2**64 + 5, 2**128 - 1)
# a Philox block holds 4 draws: dimensions 5 and 9 cross a block
DIMS = (1, 2, 4, 5, 9)


def box(dim):
    return tuple((-1.0 - 0.5 * k, 2.0 + k) for k in range(dim))


def upper_half(x):
    """Rejects about half the candidates of ``box``."""
    return x[0] > 0.5


class TestBatchedSampling:
    """``sample`` draws every point from one bit generator; it must give
    the points, guard calls and errors of one generator per point."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_per_point_generators(self, dim, seed):
        for margin in (0.0, 0.01):
            r = SamplingRegion(box=box(dim), margin=margin)
            for count in (1, 1000):
                assert sample(r, count, seed) == reference_sample(r, count, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_under_guard_rejections(self, dim, seed):
        r = SamplingRegion(box=box(dim), margin=0.01, guard=upper_half)
        assert sample(r, 200, seed) == reference_sample(r, 200, seed)

    def test_guard_sees_the_same_candidates(self):
        calls = {sample: [], reference_sample: []}
        for sampler, seen in calls.items():
            def guard(x):
                seen.append(tuple(x))
                return upper_half(x)

            sampler(SamplingRegion(box=box(5), guard=guard), 300, 7)
        assert calls[sample] == calls[reference_sample]
        assert len(calls[sample]) > 400  # about one rejection per point

    def test_error_names_the_rejected_point(self):
        seed = 3
        gen = np.random.Generator(np.random.Philox(key=seed, counter=3 << 64))
        lo, hi = np.asarray(box(2)).T
        stream = {tuple(gen.uniform(lo, hi)) for _ in range(1000)}
        rejected = []

        def guard(x):
            if tuple(x) in stream:
                rejected.append(x)
                return False
            return True

        r = SamplingRegion(box=box(2), guard=guard)
        with pytest.raises(RegionSamplingError, match="for sample 3;"):
            sample(r, 10, seed)
        assert len(rejected) == 1000

    def test_no_points(self):
        assert sample(SamplingRegion(box=box(2)), 0, 1) == []

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, seed):
        r = SamplingRegion(box=box(2))
        with pytest.raises(ValueError) as old:
            reference_sample(r, 1, seed)
        with pytest.raises(ValueError, match=re.escape(str(old.value))):
            sample(r, 1, seed)

    @pytest.mark.parametrize("guard", [None, upper_half])
    def test_one_bit_generator(self, monkeypatch, guard):
        # rejected points too reset the one bit generator to their stream
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        sample(SamplingRegion(box=box(3), guard=guard), 300, 11)
        assert built == [{"key": 11}]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(1, 9), st.integers(0, 40))
def test_sample_matches_per_point_generators(seed, dim, count):
    r = SamplingRegion(box=box(dim))
    assert sample(r, count, seed) == reference_sample(r, count, seed)


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
        with pytest.raises(DomainError, match="^guard violation at step 1: "
                           "point") as exc:
            iterate(f, [-0.5], 2)  # x0 itself fails the first application
        assert exc.value.step == 1
        assert iterate(f, [-0.5], 0) == [-0.5]

    def test_inverse_guard_failure_reports_step(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      inverse=lambda x: [x[0] + 1.0],
                      domain_guard=lambda x: x[0] < 3.0)
        assert iterate(f, [0.5], -2) == [2.5]
        with pytest.raises(DomainError) as exc:
            iterate(f, [0.5], -5)
        assert exc.value.step == 3

    def test_missing_inverse_is_not_a_guard_violation(self):
        f = catalog.build("warned_circle")[0]
        with pytest.raises(DomainError) as exc:
            iterate(f, [0.1], -1)
        assert str(exc.value) == "warned_circle has no inverse"
        assert exc.value.step is None


class TestGuardedImages:
    def test_rows_and_images_outside_the_guard_are_left_out(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 1.0],
                      domain_guard=lambda x: x[0] > 0.0)
        points = np.array([[2.5], [0.5], [-1.0], [3.0], [1.0]])
        kept, images = guarded_images(f, points)
        assert kept.tolist() == [0, 3]
        assert images.tolist() == [[1.5], [2.0]]
        for rows in ([[0.5]], np.empty((0, 1))):
            kept, images = guarded_images(f, np.array(rows))
            assert kept.size == 0 and images.shape == (0, 1)

    def test_rows_where_forward_raises_are_left_out(self):
        # as at the end of an orbit, DomainError from forward drops the row
        points = np.array([[1.5], [6.0], [0.5], [7.0], [2.0]])
        kept, images = guarded_images(squaring_past_5(), points)
        assert kept.tolist() == [0, 2, 4]
        assert images.tolist() == [[2.25], [0.25], [4.0]]

    @pytest.mark.parametrize("count", [1, 2, 300])
    def test_images_equal_apply(self, count):
        f = lyness2()
        rng = np.random.default_rng(count)
        points = rng.uniform(-0.5, 3.0, (count, 2))
        kept, images = guarded_images(f, points)
        expected = []
        for i, x in enumerate(points.tolist()):
            try:
                expected.append((i, f.apply(x)))
            except DomainError:
                continue
        assert kept.tolist() == [i for i, _ in expected]
        assert np.array_equal(images.reshape(-1, 2),
                              np.reshape([y for _, y in expected], (-1, 2)))

    def test_circle_coordinates_are_reduced(self):
        f = rotation(1.0)
        kept, images = guarded_images(f, np.array([[TWO_PI - 0.5], [0.2]]))
        assert kept.tolist() == [0, 1]
        assert images[:, 0].tolist() == [f.apply([TWO_PI - 0.5])[0],
                                         f.apply([0.2])[0]]
