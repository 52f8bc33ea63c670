import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import catalog, core
from dyncert.core import (DomainError, IntegrabilityStructure,
                          RegionSamplingError, SamplingRegion, ScalarField,
                          SmoothMap, VectorField, chunk_length, column_chunks,
                          guarded_images, iterate, orbit_points, sample)
from helpers import reference_sample, squaring_past_5

TWO_PI = 2.0 * math.pi


def lyness2(a=1.0):
    return SmoothMap(
        dim=2,
        forward=lambda x: [x[1], (x[1] + a) / x[0]],
        domain_guard=lambda x: all(v > 1e-3 for v in x),
        name="lyness2")


def rotation(a):
    return SmoothMap(dim=1, forward=lambda x: [x[0] + a],
                     phase_topology=(TWO_PI,), name="rot")


class TestSmoothMap:
    def test_guard_violation_raises(self):
        f = lyness2()
        with pytest.raises(DomainError):
            f.apply([1e-4, 1.0])

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
        # the first k points of a run are those of a k-point run, also
        # where the guard rejects candidates and the rounds differ
        r = SamplingRegion(box=((0.0, 1.0),))
        assert sample(r, 10, seed=1)[:4] == sample(r, 4, seed=1)
        g = replace(r, guard=lambda x: x[0] > 0.3)
        assert sample(g, 10, seed=1)[:4] == sample(g, 4, seed=1)
        assert sample(g, 1000, seed=1)[:300] == sample(g, 300, seed=1)

    def test_seed_changes_points(self):
        r = SamplingRegion(box=((0.0, 1.0),))
        assert sample(r, 5, seed=1) != sample(r, 5, seed=2)

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
            SamplingRegion(box=((0.0, 1.0), (0.1, 0.1)))


SEEDS = (0, 1, 42, 2**64 + 5, 2**128 - 1)
# a Philox block holds 4 draws: dimensions 5 and 9 cross a block
DIMS = (1, 2, 4, 5, 9)


def box(dim):
    return tuple((-1.0 - 0.5 * k, 2.0 + k) for k in range(dim))


def shrunk(b, margin):
    return tuple((lo + margin, hi - margin) for lo, hi in b)


def upper_half(x):
    """Rejects about half the candidates of ``box``."""
    return x[0] > 0.5


class TestBatchedSampling:
    """``sample`` draws candidates in rounds from one Philox stream and
    checks each round on columns; it must give the points, guard calls
    and errors of drawing one point at a time (``reference_sample``)."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_per_point_generators(self, dim, seed):
        for margin in (0.0, 0.01):
            r = SamplingRegion(box=shrunk(box(dim), margin))
            for count in (1, 7, 1000):
                assert sample(r, count, seed) == reference_sample(r, count, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_matches_under_guard_rejections(self, dim, seed):
        r = SamplingRegion(box=shrunk(box(dim), 0.01), guard=upper_half)
        for count in (1, 7, 200):
            assert sample(r, count, seed) == reference_sample(r, count, seed)

    def test_guard_sees_the_same_candidates(self, monkeypatch):
        # the guard gets the oracle's candidates in stream order, then at
        # most the rest of the last round, all rejected: on columns, one
        # call per chunk of a round (a round of one point goes alone), or,
        # where the column call raises, each candidate alone after it;
        # chunks of 256 bools cut the first round of 300 in two
        monkeypatch.setattr(core, "COLUMN_CHUNK", 1)
        region = SamplingRegion(box=box(5))
        for predicate, takes_columns in ((upper_half, True),
                                         (lambda x: 0.5 < x[0] < 10.0, False)):
            expected = reference_sample(replace(region, guard=predicate),
                                        300, 7)
            calls = {sample: [], reference_sample: []}
            for sampler, seen in calls.items():
                def guard(x):
                    seen.append(x)
                    return predicate(x)

                assert sampler(replace(region, guard=guard), 300, 7) == expected
            oracle = [tuple(x) for x in calls[reference_sample]]
            assert len(oracle) > 400  # about one rejection per point
            columns = [x for x in calls[sample] if np.ndim(x[0])]
            chunks = column_chunks(300, chunk_length())
            assert len(columns) >= len(chunks) == 2
            stream = [row for x in calls[sample]
                      for row in (zip(*(v.tolist() for v in x))
                                  if np.ndim(x[0]) else [tuple(x)])]
            if not takes_columns:  # each column call raised
                stream = [tuple(x) for x in calls[sample] if not np.ndim(x[0])]
            assert stream[:len(oracle)] == oracle
            rest = stream[len(oracle):]
            assert len(rest) < 300 and not any(map(predicate, rest))

    def test_error_names_the_rejected_point(self):
        # the guard accepts the stream's first 3 candidates only; the
        # rounds after the first draw 7, and the 429th of them passes 3000
        # candidates, 1000 for each point accepted
        seed = 3
        gen = np.random.Generator(np.random.Philox(key=seed))
        lo, hi = np.asarray(box(2)).T
        first = {tuple(gen.uniform(lo, hi)) for _ in range(3)}
        seen = []

        def guard(x):
            ok = tuple(x) in first  # columns raise: point by point
            seen.append(ok)
            return ok

        r = SamplingRegion(box=box(2), guard=guard)
        with pytest.raises(RegionSamplingError,
                           match="of 3006 candidates for sample 3;"):
            sample(r, 10, seed)
        assert (len(seen), sum(seen)) == (3006, 3)
        with pytest.raises(RegionSamplingError,
                           match="of 3001 candidates for sample 3;"):
            reference_sample(r, 10, seed)

    @pytest.mark.parametrize("count", [1, 7, 1000])
    def test_impossible_guard_stops_after_1000_candidates(self, count):
        drawn = []

        def guard(x):
            drawn.append(np.size(x[0]))
            return x[0] > 2.0

        r = SamplingRegion(box=((0.0, 1.0),), guard=guard)
        with pytest.raises(RegionSamplingError, match="for sample 0;"):
            sample(r, count, 5)
        assert 1000 <= sum(drawn) < 1000 + count

    def test_guard_that_reduces_goes_point_by_point(self):
        # a column call giving one bool for the whole round is redone
        # point by point
        r = SamplingRegion(box=box(2), guard=lambda x: np.linalg.norm(x) < 2)
        assert sample(r, 300, 9) == reference_sample(r, 300, 9)

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
        # every round, rejections or not, draws from the one stream
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        sample(SamplingRegion(box=box(3), guard=guard), 300, 11)
        assert built == [{"key": 11}]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**128 - 1), st.integers(1, 9), st.integers(0, 40),
       st.sampled_from([None, upper_half]))
def test_sample_matches_per_point_generators(seed, dim, count, guard):
    r = SamplingRegion(box=box(dim), guard=guard)
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

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            iterate(lyness2(), [1.0, 2.0], -1)

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


class TestOrbitPoints:
    @pytest.mark.parametrize("circle", [False, True])
    def test_guard_once_per_point_and_forward_takes_the_yielded_list(
            self, circle):
        # the guard sees each point once, as plain floats, and forward is
        # handed the very list the walk yielded, not a copy
        lyness = catalog.build("lyness", n=2)[0]
        # a circle so wide that reducing on it changes no point
        f = replace(lyness, phase_topology=(None, 1e9) if circle else None)
        guarded, forwarded = [], []

        def guard(x):
            guarded.append((id(x), [type(v) for v in x]))
            return lyness.domain_guard(x)

        def forward(x):
            forwarded.append(id(x))
            return lyness.forward(x)

        walk = orbit_points(replace(f, domain_guard=guard, forward=forward),
                            [1, 2])
        points = [next(walk) for _ in range(50)]
        assert [p for p, _ in guarded] == [id(x) for x in points]
        assert all(types == [float, float] for _, types in guarded)
        assert forwarded == [id(x) for x in points[:-1]]
        x = [1.0, 2.0]
        for point in points:  # the yielded points are the apply loop's
            assert point == x
            x = f.apply(x)

    @pytest.mark.parametrize("x0, step", [([0.0], 3), ([2.5], 0)])
    @pytest.mark.parametrize("name", ["", "stepper"])
    def test_guard_exit_message_and_step(self, x0, step, name):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0],
                      domain_guard=lambda x: x[0] < 2.5, name=name)
        walk = orbit_points(f, x0)
        assert [next(walk) for _ in range(step)] == [[float(k)]
                                                      for k in range(step)]
        with pytest.raises(DomainError) as err:
            next(walk)
        assert str(err.value) == (f"point [{float(step) + x0[0]}] violates "
                                  f"the domain guard of {name or 'map'}")
        assert err.value.step == step


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
        rng = np.random.default_rng(count)
        points = rng.uniform(-0.5, 3.0, (count, 2))
        if count > 1:
            points[1, 0] = np.nan
        # guards point by point (``all``) and on columns (the catalog's)
        for f in (lyness2(), catalog.lyness_map(2, 1.0)):
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

    def test_guard_calls_twice_per_chunk_on_columns(self, monkeypatch):
        # chunks of 256 bools, on the 300 points and on their images
        monkeypatch.setattr(core, "COLUMN_CHUNK", 1)
        calls = []

        def guard(x):
            calls.append(np.shape(x[0]))
            return (x[0] > 0.0) & (x[1] > 0.0)

        f = replace(lyness2(), domain_guard=guard)
        points = np.random.default_rng(5).uniform(0.5, 3.0, (300, 2))
        kept, _ = guarded_images(f, points)
        assert kept.tolist() == list(range(300))
        sizes = [(c.stop - c.start,)
                 for c in column_chunks(300, chunk_length())]
        assert len(sizes) == 2 and calls == sizes + sizes

    def test_guard_that_reduces_goes_point_by_point(self):
        # np.linalg.norm of the columns is one number for all the rows
        f = SmoothMap(dim=2, forward=lambda x: x,
                      domain_guard=lambda x: np.linalg.norm(x) < 2)
        kept, images = guarded_images(f, np.array([[.1, .1], [3, 3], [.2, .2]]))
        assert kept.tolist() == [0, 2]
        assert images.tolist() == [[.1, .1], [.2, .2]]

    def test_circle_coordinates_are_reduced(self):
        f = rotation(1.0)
        kept, images = guarded_images(f, np.array([[TWO_PI - 0.5], [0.2]]))
        assert kept.tolist() == [0, 1]
        assert images[:, 0].tolist() == [f.apply([TWO_PI - 0.5])[0],
                                         f.apply([0.2])[0]]
