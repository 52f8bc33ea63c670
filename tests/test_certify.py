import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import certify, core, jets
from dyncert.certify import (CAVEAT, Tolerances, certify_involution,
                             certify_structure, commutation_residuals,
                             first_integral_residual,
                             flow_commutation_residual,
                             independence_rank_stats,
                             infinitesimal_commutation_residual,
                             lie_bracket_residual, map_invariance_residual,
                             poisson_bracket, symplecticity_residual)
from dyncert.catalog import build
from dyncert.constructions import lift_structure
from dyncert.core import (DomainError, IntegrabilityStructure, SamplingRegion,
                          ScalarField, SmoothMap, VectorField, column_chunks,
                          sample)
from dyncert.expressions import structure_from_dict
from dyncert.jets import Jet
from dyncert.numerics import integrate_flow

from helpers import squaring_past_5

E = math.e


def linfield(mat, name=""):
    """x -> mat x, written entry by entry so that jets give its matrix."""
    m = np.asarray(mat, dtype=float).tolist()
    return VectorField(dim=len(m), func=lambda x: [
        sum(mij * xj for mij, xj in zip(row, x)) for row in m], name=name)


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        v = VectorField(dim=2, func=lambda x: [x[0] * x[1], x[1] ** 2])
        assert np.allclose(lie_bracket_residual(v, v, [1.3, -0.4]), 0.0)

    def test_linear_commutator(self):
        # [Ax, Bx] = (BA - AB)x
        xj = linfield([[0.0, 1.0], [0.0, 0.0]])
        xk = linfield([[1.0, 0.0], [0.0, 2.0]])
        r = lie_bracket_residual(xj, xk, [1.0, 1.0])
        assert np.allclose(r, [-1.0, 0.0])

    def test_commuting_pair(self):
        v1 = linfield([[2.0, 0.0], [1.0, 2.0]])
        v2 = linfield([[0.0, 0.0], [1.0, 0.0]])
        for x in ([1.0, 1.0], [0.3, -2.0]):
            assert np.allclose(lie_bracket_residual(v1, v2, x), 0.0)

    def test_dimension_mismatch(self):
        a = VectorField(dim=1, func=lambda x: [1.0])
        b = VectorField(dim=2, func=lambda x: [1.0, 0.0])
        with pytest.raises(ValueError):
            lie_bracket_residual(a, b, [0.0])

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_antisymmetry(self, a, b, c):
        xj = linfield([[a, b], [c, 1.0]])
        xk = VectorField(dim=2, func=lambda x: [x[1] ** 2, x[0]])
        x = [0.7, -1.1]
        fwd = lie_bracket_residual(xj, xk, x)
        bwd = lie_bracket_residual(xk, xj, x)
        assert np.allclose(fwd, -bwd, atol=1e-12)


class TestFirstIntegralResidual:
    def test_constant_integral(self):
        g = ScalarField(dim=2, func=lambda x: 5.0)
        v = VectorField(dim=2, func=lambda x: [x[1], -x[0]])
        assert first_integral_residual(g, v, [2.0, 1.0]) == 0.0

    def test_rotational_symmetry(self):
        g = ScalarField(dim=2, func=lambda x: x[0] ** 2 + x[1] ** 2)
        v = VectorField(dim=2, func=lambda x: [-x[1], x[0]])
        for x in ([1.0, 0.0], [0.3, -0.7]):
            assert first_integral_residual(g, v, x) == pytest.approx(0.0,
                                                                     abs=1e-15)

    def test_non_integral_witness(self):
        g = ScalarField(dim=2, func=lambda x: x[0])
        v = VectorField(dim=2, func=lambda x: [1.0, 0.0])
        assert first_integral_residual(g, v, [9.0, 9.0]) == 1.0


class TestMapInvariance:
    def test_identity_map(self):
        f = SmoothMap(dim=2, forward=lambda x: list(x))
        g = ScalarField(dim=2, func=lambda x: x[0] * x[1] + 1.0)
        assert map_invariance_residual(g, f, [0.4, 0.5]) == 0.0

    def test_lyness_f1(self):
        a = 1.0
        f = SmoothMap(dim=2, forward=lambda x: [x[1], (x[1] + a) / x[0]])
        g = ScalarField(
            dim=2,
            func=lambda x: (x[0] + x[1] + a) * (x[0] + 1) * (x[1] + 1)
            / (x[0] * x[1]))
        assert g([1.0, 1.0]) == pytest.approx(12.0)
        assert g([1.0, 2.0]) == pytest.approx(12.0)
        assert map_invariance_residual(g, f, [1.0, 1.0]) == pytest.approx(
            0.0, abs=1e-12)

    def test_cat_map_coordinate_not_invariant(self):
        f = SmoothMap(dim=2, forward=lambda x: [2 * x[0] + x[1], x[0] + x[1]],
                      phase_topology=(1.0, 1.0))
        g = ScalarField(dim=2, func=lambda x: x[0])
        assert map_invariance_residual(g, f, [0.2, 0.4]) == pytest.approx(0.6)


class TestInfinitesimalCommutation:
    def test_identity_map(self):
        f = SmoothMap(dim=2, forward=lambda x: list(x))
        v = VectorField(dim=2, func=lambda x: [x[1], x[0] ** 2])
        assert np.allclose(
            infinitesimal_commutation_residual(f, v, [1.0, 2.0]), 0.0)

    def test_affine_symmetry(self):
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0] + 3.0])
        v = VectorField(dim=1, func=lambda x: [x[0] + 3.0])
        r = infinitesimal_commutation_residual(f, v, [1.0])
        assert r[0] == pytest.approx(0.0, abs=1e-14)

    def test_corrupted_field_detected(self):
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0] + 3.0])
        v = VectorField(dim=1, func=lambda x: [x[0] + 2.0])
        r = infinitesimal_commutation_residual(f, v, [1.0])
        assert r[0] == pytest.approx(-1.0)


class TestFlowCommutation:
    def test_rigid_rotation(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] + 1.0],
                      phase_topology=(2 * math.pi,))
        v = VectorField(dim=1, func=lambda x: [1.0])
        r = flow_commutation_residual(f, v, [0.3], 2.0)
        assert abs(r[0]) <= 1e-9

    def test_affine_closed_form(self):
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0] + 3.0])
        v = VectorField(dim=1, func=lambda x: [x[0] + 3.0])
        r = flow_commutation_residual(f, v, [1.0], 1.0)
        assert abs(r[0]) <= 1e-7

    def test_corrupted_field_residual_value(self):
        # closed-form branches give f(3e-2) - (7e-2) = 1 - e
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0] + 3.0])
        v = VectorField(dim=1, func=lambda x: [x[0] + 2.0])
        r = flow_commutation_residual(f, v, [1.0], 1.0)
        assert r[0] == pytest.approx(1.0 - E, abs=1e-7)


class TestRankStats:
    def test_constant_basis(self):
        fields = [VectorField(dim=3,
                              func=lambda x, _i=i: [1.0 if j == _i else 0.0
                                                    for j in range(3)])
                  for i in range(3)]
        pts = [[0.1, 0.2, 0.3], [5.0, -1.0, 2.0]]
        frac, deficient = independence_rank_stats(fields, pts)
        assert frac == 1.0 and not deficient

    def test_duplicated_field(self):
        v = VectorField(dim=2, func=lambda x: [x[0], x[1]])
        frac, deficient = independence_rank_stats([v, v], [[1.0, 1.0]])
        assert frac == 0.0 and len(deficient) == 1

    def test_linear_family_generic_rank(self):
        v1 = linfield([[2.0, 0.0], [1.0, 2.0]])
        v2 = linfield([[0.0, 0.0], [1.0, 0.0]])
        region = SamplingRegion(box=((-2.0, 2.0), (-2.0, 2.0)))
        frac, _ = independence_rank_stats([v1, v2], sample(region, 500, 42))
        assert frac >= 0.99

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_points_as_list_or_array(self, wrap):
        _, s, region = build("linear", blocks="2:3")
        pts = sample(region, 5, 42)
        assert independence_rank_stats(list(s.fields), wrap(pts)) == (1.0, [])
        v = s.fields[0]
        frac, deficient = independence_rank_stats([v, v], wrap(pts))
        assert frac == 0.0
        assert deficient == [tuple(x) for x in pts]
        assert all(type(c) is float for x in deficient for c in x)

    def test_gradient_columns(self):
        g1 = ScalarField(dim=2, func=lambda x: x[0])
        g2 = ScalarField(dim=2, func=lambda x: x[1])
        frac, _ = independence_rank_stats([g1, g2], [[0.0, 0.0]])
        assert frac == 1.0

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            independence_rank_stats([], [[0.0]])

    def test_no_points(self):
        v = VectorField(dim=2, func=lambda x: [x[0], x[1]])
        g = ScalarField(dim=2, func=lambda x: x[0])
        assert independence_rank_stats([v, v], []) == (0.0, [])
        assert independence_rank_stats([g], []) == (0.0, [])


class TestPoissonBracket:
    def test_self_bracket(self):
        g = ScalarField(dim=4, func=lambda z: z[0] * z[3] + z[1] ** 2)
        assert poisson_bracket(g, g, [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_canonical_pair(self):
        q1 = ScalarField(dim=4, func=lambda z: z[0])
        p1 = ScalarField(dim=4, func=lambda z: z[2])
        assert poisson_bracket(q1, p1, [0.5, 0.5, 0.5, 0.5]) == 1.0

    def test_odd_dimension_rejected(self):
        g = ScalarField(dim=3, func=lambda z: z[0])
        with pytest.raises(ValueError):
            poisson_bracket(g, g, [0.0, 0.0, 0.0])

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-2, max_value=2),
           st.floats(min_value=-2, max_value=2))
    def test_leibniz_rule(self, a, b):
        # {F, GH} = {F, G} H + G {F, H}
        f = ScalarField(dim=2, func=lambda z: z[0] ** 2 + a * z[1])
        g = ScalarField(dim=2, func=lambda z: z[0] * z[1] + b)
        h = ScalarField(dim=2, func=lambda z: z[1] ** 3 - z[0])
        gh = ScalarField(dim=2, func=lambda z: g(z) * h(z))
        z = [0.7, -0.3]
        lhs = poisson_bracket(f, gh, z)
        rhs = (poisson_bracket(f, g, z) * h(z)
               + g(z) * poisson_bracket(f, h, z))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestSymplecticity:
    def test_identity(self):
        f = SmoothMap(dim=2, forward=lambda z: list(z))
        assert symplecticity_residual(f, [0.3, 0.7]) == 0.0

    def test_scaling_lift(self):
        f = SmoothMap(dim=2, forward=lambda z: [2.0 * z[0], z[1] / 2.0])
        assert symplecticity_residual(f, [1.0, 1.0]) == pytest.approx(0.0,
                                                                      abs=1e-15)

    def test_non_symplectic(self):
        f = SmoothMap(dim=2, forward=lambda z: [2.0 * z[0], z[1]])
        assert symplecticity_residual(f, [1.0, 1.0]) == pytest.approx(1.0)

    def test_odd_dimension_rejected(self):
        f = SmoothMap(dim=1, forward=lambda z: list(z))
        with pytest.raises(ValueError):
            symplecticity_residual(f, [0.0])


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.algebraic_tol == 1e-9
        assert t.flow_tol == 1e-7
        assert t.rank_threshold == 1e-8
        assert t.ae_fraction == 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerances(algebraic_tol=0.0)
        with pytest.raises(ValueError):
            Tolerances(ae_fraction=0.3)

    @pytest.mark.parametrize("kwargs", [
        {"algebraic_tol": math.nan}, {"flow_tol": math.inf},
        {"rank_threshold": math.nan}, {"rank_threshold": 1.0}])
    def test_rejects_non_finite_and_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestCertifyStructure:
    def _lyness2(self):
        a = 1.0
        f = SmoothMap(dim=2, forward=lambda x: [x[1], (x[1] + a) / x[0]],
                      domain_guard=lambda x: all(v > 1e-3 for v in x),
                      name="lyness2")
        g = ScalarField(
            dim=2,
            func=lambda x: (x[0] + x[1] + a) * (x[0] + 1) * (x[1] + 1)
            / (x[0] * x[1]), name="F1")
        s = IntegrabilityStructure(dim=2, integrals=(g,))
        region = SamplingRegion(box=((0.1, 10.0), (0.1, 10.0)))
        return f, s, region

    def test_integrals_only_passes(self):
        f, s, region = self._lyness2()
        report = certify_structure(f, s, region, samples=200, seed=42)
        assert report.verdict == "PASS"
        names = [c.condition_name for c in report.conditions]
        assert "map_invariance[F1]" in names
        assert "gradient_independence" in names
        assert not any(n.startswith("lie_bracket") for n in names)
        assert not any(n.startswith("flow_commutation") for n in names)
        assert report.caveat == CAVEAT

    def test_report_shape(self):
        f, s, region = self._lyness2()
        report = certify_structure(f, s, region, samples=50, seed=1,
                                   map_name="lyness", parameters={"a": 1.0})
        d = report.to_dict()
        assert d["map"] == "lyness"
        assert d["seed"] == 1
        assert d["caveat"] == CAVEAT
        assert d["structure"] == {"fields": 0, "integrals": 1,
                                  "complete": False}
        for cond in d["conditions"]:
            assert {"name", "kind", "count", "max_abs", "mean_abs", "p99_abs",
                    "worst_point", "scale", "tolerance", "pass"} <= set(cond)

    def test_corrupted_integral_fails_with_worst_point(self):
        f, _, region = self._lyness2()
        bad = ScalarField(dim=2, func=lambda x: x[0] + x[1], name="bogus")
        s = IntegrabilityStructure(dim=2, integrals=(bad,))
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.verdict == "FAIL"
        failing = report.failing_conditions
        assert failing and failing[0].condition_name == "map_invariance[F1]"
        assert failing[0].worst_point is not None

    def test_empty_structure_unverified(self):
        f, _, region = self._lyness2()
        s = IntegrabilityStructure(dim=2)
        report = certify_structure(f, s, region, samples=10, seed=42)
        assert report.verdict == "UNVERIFIED"

    def test_determinism(self):
        f, s, region = self._lyness2()
        a = certify_structure(f, s, region, samples=80, seed=42).to_dict()
        b = certify_structure(f, s, region, samples=80, seed=42).to_dict()
        assert a == b

    def test_guard_failures_counted(self):
        # forward can dip below the guard for points near the axis
        f = SmoothMap(dim=1, forward=lambda x: [x[0] - 0.5],
                      domain_guard=lambda x: x[0] > 0.0)
        s = IntegrabilityStructure(
            dim=1, integrals=(ScalarField(dim=1, func=lambda x: 1.0),))
        region = SamplingRegion(box=((0.01, 1.0),))
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.guard_failures > 0
        assert report.guard_failures + report.conditions[0].count == 100

    def test_rows_where_forward_raises_are_skipped(self):
        # the guard pass counts the samples past 5 with the guard failures;
        # the flow of x' = x log x commutes with squaring, and the flow
        # points whose end lies past 5 are skipped
        f = squaring_past_5()
        field = VectorField(dim=1, func=lambda x: [x[0] * jets.log(x[0])])
        s = IntegrabilityStructure(dim=1, fields=(field,))
        region = SamplingRegion(box=((0.5, 8.0),))
        report = certify_structure(f, s, region, samples=100, seed=1,
                                   flow_times=(0.25,))
        past = sum(x[0] > 5.0 for x in sample(region, 100, 1))
        assert past > 0 and report.guard_failures == past
        assert report.conditions[0].count == 100 - past
        flow = _condition(report, "flow_commutation[X1,t=0.25]")
        assert 0 < flow.skipped < flow.count and flow.passed

    @pytest.mark.parametrize("t", [1e308, -1e308, 1000.5, math.inf,
                                   math.nan])
    def test_flow_times_checked_before_sampling(self, t):
        f, s, region = build("affine1d")
        calls = Counter()

        def forward(x, _forward=f.forward):
            calls["map"] += 1
            return _forward(x)

        with pytest.raises(ValueError, match="flow times"):
            certify_structure(replace(f, forward=forward), s, region,
                              flow_times=(0.5, t), samples=5)
        assert calls["map"] == 0


class TestCertifyInvolution:
    def test_twist_like_lift(self):
        # (q, p) -> (q + p, p) is symplectic with integral p
        f = SmoothMap(dim=2, forward=lambda z: [z[0] + z[1], z[1]])
        g = ScalarField(dim=2, func=lambda z: z[1], name="p")
        region = SamplingRegion(box=((-1.0, 1.0), (-1.0, 1.0)))
        report = certify_involution(f, (g,), region, samples=100, seed=42)
        assert report.verdict == "PASS"
        names = [c.condition_name for c in report.conditions]
        assert "symplecticity" in names
        assert "map_invariance[G1]" in names

    def test_non_symplectic_fails(self):
        f = SmoothMap(dim=2, forward=lambda z: [2.0 * z[0], z[1]])
        region = SamplingRegion(box=((-1.0, 1.0), (-1.0, 1.0)))
        report = certify_involution(f, (), region, samples=20, seed=42)
        assert report.verdict == "FAIL"
        assert report.conditions[0].condition_name == "symplecticity"

    def test_odd_dimension_rejected(self):
        f = SmoothMap(dim=1, forward=lambda z: [z[0]])
        region = SamplingRegion(box=((-1.0, 1.0),))
        with pytest.raises(ValueError, match="even-dimensional"):
            certify_involution(f, (), region, samples=5, seed=42)


def _points(x) -> int:
    """Points a callable evaluates in one call: the length of the coordinate
    columns it gets (under any jets), or 1 for one point."""
    v = x[0]
    while isinstance(v, Jet):
        v = v.value
    return np.size(v)


def _counting(counts, key, fn):
    """``fn`` counting the points it evaluates under ``key``."""
    def counted(x, *args, **kwargs):
        counts[key] += _points(x)
        return fn(x, *args, **kwargs)
    return counted


def _counted_target(name, **params):
    """A catalog entry whose map, field and integral callables count calls."""
    counts = Counter()
    f, s, region = build(name, **params)
    f = replace(f, forward=_counting(counts, "map", f.forward))
    s = replace(s, fields=tuple(
        replace(v, func=_counting(counts, "field", v.func)) for v in s.fields),
        integrals=tuple(replace(g, func=_counting(counts, "integral", g.func))
                        for g in s.integrals))
    return f, s, region, counts


def _lifted_target(name, **params):
    f, s, region = build(name, **params)
    lifted, integrals = lift_structure(f, s)
    box = tuple(region.box) + ((-1.0, 1.0),) * f.dim
    guard = (lambda z: region.guard(list(z[:f.dim]))) if region.guard else None
    return lifted, integrals, SamplingRegion(box=box, guard=guard)


def _kept(f, region, samples, seed):
    """The sampled points whose image passes the map's domain guard."""
    kept = []
    for x in sample(region, samples, seed):
        try:
            f.apply(x)
        except DomainError:
            continue
        kept.append(x)
    return kept


def _condition(report, name):
    return next(c for c in report.conditions if c.condition_name == name)


def _norm(v):
    return float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))


class TestPipeline:
    """One sampling, guard and evaluation pass shared by every condition."""

    @pytest.mark.parametrize("name, params, expected", [
        ("lyness", {"n": 5}, {"map": 100, "integral": 900}),
        ("lyness", {"n": 5, "symmetry": 1},
         {"map": 200, "field": 200, "integral": 900}),
        ("linear", {"blocks": "2:3"}, {"map": 200, "field": 900}),
    ])
    def test_structure_evaluates_each_quantity_once(self, name, params,
                                                    expected):
        f, s, region, counts = _counted_target(name, **params)
        certify_structure(f, s, region, samples=100, flow_times=())
        assert dict(counts) == expected

    @pytest.mark.parametrize("samples", [30, 200])
    def test_flow_phase_integrates_one_stack_per_field(self, monkeypatch,
                                                        samples):
        # the flow points and their images go to the integrator together,
        # tiled once per flow time, in one call per field passing the
        # infinitesimal check
        calls = []

        def counted(field, x0, t, *args):
            calls.append((np.shape(x0), np.asarray(t).tolist()))
            return integrate_flow(field, x0, t, *args)

        monkeypatch.setattr(certify, "integrate_flow", counted)
        f, s, region = build("linear", blocks="2:3")
        report = certify_structure(f, s, region, samples=samples)
        passing = sum(c.passed for c in report.conditions if c.condition_name
                      .startswith("infinitesimal_commutation"))
        assert passing == 3
        kept = samples - report.guard_failures
        rows = 2 * min(certify.FLOW_POINT_CAP, kept)
        times = [t for t in certify.FLOW_TIMES for _ in range(rows)]
        assert calls == [((len(certify.FLOW_TIMES) * rows, f.dim), times)] \
            * passing
        assert report.verdict == "PASS"

    def test_no_flow_times_make_no_integration(self, monkeypatch):
        calls = []
        monkeypatch.setattr(certify, "integrate_flow",
                            lambda *args: calls.append(args))
        f, s, region = build("linear", blocks="2:3")
        report = certify_structure(f, s, region, samples=30, flow_times=())
        assert calls == []
        assert not [c for c in report.conditions
                    if c.condition_name.startswith("flow_commutation")]

    @pytest.mark.parametrize("name, params, structure, samples", [
        ("linear", {"blocks": "2:3"}, None, 60),
        ("twist", {"n": 2}, None, 60),
        # x1' = x1^2 / x2 commutes with the map but blows up in finite
        # time: at seed 1 and t = 1, 2 of the 5 points are skipped
        ("linear", {"blocks": "2:1,2:1"},
         {"dim": 2, "fields": [["x1^2/x2", "0"]]}, 5),
    ])
    def test_flow_stats_equal_single_time_runs(self, name, params,
                                               structure, samples):
        f, s, region = build(name, **params)
        if structure is not None:
            s = structure_from_dict(structure)
        times = (-1.0, 0.5, 1.0, 0.0, 0.5, -0.25)

        def flow_stats(flow_times):
            report = certify_structure(f, s, region, flow_times=flow_times,
                                       samples=samples, seed=1)
            return [c for c in report.conditions
                    if c.condition_name.startswith("flow_commutation")]

        together = flow_stats(times)
        runs = [flow_stats((t,)) for t in times]  # one stat per field
        alone = [run[j] for j in range(s.m) for run in runs]
        assert len(together) == len(times) * s.m
        assert together == alone
        if structure is not None:
            assert together[2].skipped == 2

    def test_algebraic_phase_calls_each_integral_once_per_chunk(self):
        # at the default sample count each quantity is one call per chunk
        # of points on coordinate columns, not one call per point
        f, s, region = build("lyness", n=5)
        calls = Counter()

        def calling(g):
            def func(x):
                calls[g.name] += 1
                return g.func(x)
            return replace(g, func=func)

        s = replace(s, integrals=tuple(calling(g) for g in s.integrals))
        report = certify_structure(f, s, region, samples=1000, flow_times=())
        chunks = len(column_chunks(1000 - report.guard_failures))
        assert chunks > 1
        # values at the points and at their images, and gradients
        assert calls == {g.name: 3 * chunks for g in s.integrals}

    def test_symplecticity_calls_the_lift_once_per_chunk(self):
        lifted, integrals, region = _lifted_target("lyness", n=4)
        calls = Counter()

        def forward(z, _forward=lifted.forward):
            calls["jets" if isinstance(z[0], Jet) else "columns"] += 1
            return _forward(z)

        report = certify_involution(replace(lifted, forward=forward),
                                    integrals, region, samples=1000)
        # the guard pass applies the lift to every sampled point (all pass
        # the base guard), symplecticity differentiates it at the kept ones
        assert calls == {
            "columns": len(column_chunks(1000)),
            "jets": len(column_chunks(1000 - report.guard_failures))}

    def test_involution_evaluates_the_lift_once(self):
        lifted, integrals, region = _lifted_target("lyness", n=5)
        counts = Counter()
        lifted = replace(lifted,
                         forward=_counting(counts, "map", lifted.forward))
        certify_involution(lifted, integrals, region, samples=100)
        assert dict(counts) == {"map": 200}

    def test_scale_is_the_one_at_the_worst_point(self):
        f, s, region = build("lyness", n=5, symmetry=1)
        report = certify_structure(f, s, region, samples=100, flow_times=())
        inv = _condition(report, "map_invariance[F1]")
        com = _condition(report, "infinitesimal_commutation[X1]")
        assert inv.scale > 1.0 and com.scale > 1.0
        assert inv.max_abs * inv.scale == pytest.approx(abs(
            map_invariance_residual(s.integrals[0], f, inv.worst_point)),
            rel=1e-12)
        assert com.max_abs * com.scale == pytest.approx(_norm(
            infinitesimal_commutation_residual(f, s.fields[0],
                                               com.worst_point)), rel=1e-12)
        for c in report.conditions:
            if c.kind == "rank":
                assert c.scale == 1.0

    def test_lie_bracket_agrees_with_reference(self):
        f, s, region = build("linear", blocks="2:3")
        report = certify_structure(f, s, region, samples=60, flow_times=())
        x1, x2 = s.fields[0], s.fields[1]
        worst = max(_norm(lie_bracket_residual(x1, x2, x))
                    / (1.0 + max(_norm(x), _norm(x1(x)), _norm(x2(x))))
                    for x in _kept(f, region, 60, region.rng_seed))
        assert _condition(report, "lie_bracket[X1,X2]").max_abs == worst

    def test_first_integral_agrees_with_reference(self):
        f, s, region = build("lyness", n=5, symmetry=1)
        report = certify_structure(f, s, region, samples=60, flow_times=())
        g, v = s.integrals[1], s.fields[0]
        worst = max(abs(first_integral_residual(g, v, x))
                    / (1.0 + max(_norm(x), abs(float(g(x))), _norm(v(x))))
                    for x in _kept(f, region, 60, region.rng_seed))
        assert _condition(report, "first_integral[F2,X1]").max_abs == worst

    def test_involution_agrees_with_reference(self):
        lifted, integrals, region = _lifted_target("linear", blocks="2:3")
        report = certify_involution(lifted, integrals, region, samples=40,
                                    seed=3)
        kept = _kept(lifted, region, 40, 3)
        g1, g2 = integrals[0], integrals[1]
        symp = max(symplecticity_residual(lifted, z) / (1.0 + _norm(z))
                   for z in kept)
        bracket = max(abs(poisson_bracket(g1, g2, z))
                      / (1.0 + max(_norm(z), abs(float(g1(z))),
                                   abs(float(g2(z)))))
                      for z in kept)
        assert _condition(report, "symplecticity").max_abs == symp
        assert _condition(report, "poisson_bracket[G1,G2]").max_abs == bracket


def _table(stack):
    """Point i = (i, 0, ..., 0) of a given dimension looks up row i."""
    return lambda x: stack[int(x[0])]


# maps, fields and integrals whose derivative is looked up in ``table``
# instead of taken by jets
@dataclass(frozen=True)
class _TabledMap(SmoothMap):
    table: Callable | None = None

    def jacobian_at(self, x):
        return self.table(x)


@dataclass(frozen=True)
class _TabledField(VectorField):
    table: Callable | None = None

    def jacobian_at(self, x):
        return self.table(x)


@dataclass(frozen=True)
class _TabledIntegral(ScalarField):
    table: Callable | None = None

    def gradient_at(self, x):
        return self.table(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-6.0, max_value=6.0))
def test_stacked_formulas_equal_pointwise_residuals(n, count, seed, exponent):
    """Row i of each stacked formula is the public residual at point i,
    bit for bit: batched ``@`` rounds like the pointwise ``@`` and norm."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.normal(size=(count, *shape)) * 10.0 ** exponent

    vj, vk, v_image, g = draw(n), draw(n), draw(n), draw(n)
    dj, dk, df = draw(n, n), draw(n, n), draw(n, n)
    xj = _TabledField(dim=n, func=_table(np.concatenate([vj, v_image])),
                      table=_table(dj))
    xk = _TabledField(dim=n, func=_table(vk), table=_table(dk))
    # f moves point i to point count + i, where xj holds v_image
    f = _TabledMap(dim=n, forward=lambda x: [x[0] + count] + list(x[1:]),
                   table=_table(df))
    grad = _TabledIntegral(dim=n, func=lambda x: 0.0, table=_table(g))
    even = 2 * ((n + 1) // 2)
    g1, g2, m = draw(even), draw(even), draw(even, even)
    h1 = _TabledIntegral(dim=even, func=lambda z: 0.0, table=_table(g1))
    h2 = _TabledIntegral(dim=even, func=lambda z: 0.0, table=_table(g2))
    lift = _TabledMap(dim=even, forward=list, table=_table(m))

    points = np.zeros((count, n))
    points[:, 0] = np.arange(count)
    images = points.copy()
    images[:, 0] += count

    (bracket,) = certify._bracket_norms([xj, xk], [vj, vk], points, [(0, 1)])
    directional = core.row_dot(g, vj)
    [(commutation, scale)] = commutation_residuals(f, [vj], [v_image],
                                                   points, images)
    poisson = certify._poisson(g1, g2)
    symplectic = certify._symplecticity(m)
    for i in range(count):
        x = [float(i)] + [0.0] * (n - 1)
        z = [float(i)] + [0.0] * (even - 1)
        assert core.row_norms(vj)[i] == np.linalg.norm(vj[i])
        assert bracket[i] == np.linalg.norm(lie_bracket_residual(xj, xk, x))
        assert directional[i] == first_integral_residual(grad, xj, x)
        assert commutation[i] == np.linalg.norm(
            infinitesimal_commutation_residual(f, xj, x))
        assert scale[i] == 1.0 + max(np.linalg.norm(x),
                                     np.linalg.norm(images[i]),
                                     np.linalg.norm(vj[i]))
        assert poisson[i] == poisson_bracket(h1, h2, z)
        assert symplectic[i] == symplecticity_residual(lift, z)
