import math

import numpy as np
import pytest
from click.testing import CliRunner

from dyncert import catalog
from dyncert.catalog import (ParameterError, build, list_entries,
                             lyness_integrals, lyness_map,
                             lyness_symmetry_field, lyness_symmetry_variants,
                             parse_blocks)
from dyncert.certify import (certify_structure,
                             infinitesimal_commutation_residual)
from dyncert.cli import main as cli_main
from dyncert.core import (IntegrabilityStructure, SamplingRegion, iterate,
                          sample)
from dyncert.jets import jet_gradient, jet_jacobian
from helpers import lyness_integral_values


class TestRegistry:
    def test_unknown_map(self):
        with pytest.raises(ParameterError):
            build("not_a_map")

    def test_unknown_parameter(self):
        with pytest.raises(ParameterError):
            build("cat_map", speed=3)

    def test_list_entries_sorted_and_flagged(self):
        entries = list_entries()
        names = [e["name"] for e in entries]
        assert names == sorted(names)
        assert {"affine1d", "cat_map", "linear", "lyness", "rigid_rotation",
                "twist", "warned_circle"} <= set(names)
        lyness = next(e for e in entries if e["name"] == "lyness")
        assert lyness["unverified_components"] == ["v1 (symmetry field)"]

    def test_cat_map_torus_flags_no_structure(self):
        f, s, _ = build("cat_map")
        assert f.phase_topology == (1.0, 1.0)
        assert s is None


class TestParameterValidation:
    def test_affine_zero_slope(self):
        with pytest.raises(ParameterError):
            build("affine1d", a=0.0)

    def test_warned_circle_eps_range(self):
        with pytest.raises(ParameterError):
            build("warned_circle", k=1, eps=1.5)
        with pytest.raises(ParameterError):
            build("warned_circle", k=2, eps=0.6)
        build("warned_circle", k=2, eps=0.3)

    def test_lyness_domain(self):
        with pytest.raises(ParameterError):
            lyness_map(1, 1.0)
        with pytest.raises(ParameterError):
            lyness_map(3, -1.0)

    def test_parse_blocks(self):
        spec = parse_blocks("2:2,-1.5")
        assert spec.blocks == ((2.0, 2), (-1.5, 1))
        with pytest.raises(ParameterError):
            parse_blocks("")


class TestLynessIntegrals:
    def test_pinned_values_n3(self):
        vals = lyness_integral_values(3, 1.0, [1.0, 1.0, 1.0])
        assert vals[0] == pytest.approx(32.0)
        assert vals[2] == pytest.approx(12.0)

    def test_pinned_f2_and_its_invariance(self):
        f2 = lyness_integrals(3, 1.0)[1]
        assert f2([1.0, 2.0, 3.0]) == pytest.approx(40.0)
        assert f2([2.0, 3.0, 6.0]) == pytest.approx(40.0)

    def test_pinned_value_n2(self):
        assert lyness_integral_values(2, 1.0, [1.0, 2.0])[0] == \
            pytest.approx(12.0)

    def test_applicable_counts(self):
        assert [len(lyness_integrals(n, 1.0)) for n in (2, 3, 4, 5)] == \
            [1, 3, 2, 3]

    def test_positive_orthant_required(self):
        with pytest.raises(ParameterError):
            lyness_integral_values(2, 1.0, [1.0, -1.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_invariance_at_sampled_points(self, n, a):
        f, s, region = build("lyness", n=n, a=a)
        for x in sample(region, 100, seed=42):
            fx = f.apply(x)
            for g in s.integrals:
                gx = float(g(x))
                scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(fx),
                                  abs(gx))
                assert abs(float(g(fx)) - gx) / scale <= 1e-10

    def test_n3_dependency_identity(self):
        # the three quantities satisfy F2 = F1 + F3 + (2 - a) exactly,
        # so their gradients can never reach rank 3
        for a in (1.0, 2.0, 0.7):
            f1, f2, f3 = lyness_integrals(3, a)
            for x in ([1.3, 2.7, 0.9], [0.5, 5.0, 1.1]):
                assert f2(x) - f1(x) - f3(x) == pytest.approx(2.0 - a,
                                                              rel=1e-12)

    def test_five_periodicity(self):
        f, _, region = build("lyness", n=2, a=1.0)
        for x in sample(region, 100, seed=42):
            y = iterate(f, x, 5)
            err = np.linalg.norm(np.asarray(y) - np.asarray(x))
            assert err <= 1e-9 * (1.0 + np.linalg.norm(x))


class TestLynessStructure:
    def test_default_has_no_fields(self):
        _, s, _ = build("lyness", n=2, a=1.0)
        assert s.m == 0
        assert len(s.integrals) == 1

    def test_n2_certifies_pass(self):
        f, s, region = build("lyness", n=2, a=1.0)
        report = certify_structure(f, s, region, samples=300, seed=42,
                                   map_name="lyness")
        assert report.verdict == "PASS"

    def test_n3_certifies_pass(self):
        # the catalog ships the independent pair (F1, F3) at n=3
        f, s, region = build("lyness", n=3, a=1.0)
        report = certify_structure(f, s, region, samples=300, seed=42,
                                   map_name="lyness")
        assert report.verdict == "PASS"
        result = CliRunner().invoke(
            cli_main, ["lift-certify", "--map", "lyness", "--param", "n=3"],
            catch_exceptions=False)
        assert result.exit_code == 0, result.output

    def test_n3_gradient_dependence_is_reported(self):
        # the explicit triple obeys F2 = F1 + F3 + (2 - a): its gradients
        # have rank 2, which the certifier must report
        f, _, region = build("lyness", n=3, a=1.0)
        s = IntegrabilityStructure(dim=3, fields=(),
                                   integrals=lyness_integrals(3, 1.0))
        report = certify_structure(f, s, region, samples=200, seed=42)
        assert report.verdict == "FAIL"
        failing = {c.condition_name for c in report.failing_conditions}
        assert failing == {"gradient_independence"}

    def test_symmetry_structure_includes_field(self):
        _, s, _ = build("lyness", n=3, a=1.0, symmetry=1)
        assert s.m == 1
        assert s.fields[0].name == "v1_unverified"

    def test_symmetry_needs_n3(self):
        with pytest.raises(ParameterError):
            build("lyness", n=2, a=1.0, symmetry=1)


class TestLynessSymmetry:
    def test_candidate_field_fails_commutation(self):
        # hand evaluation at (1,1,1), a=1 disagrees; the field stays flagged
        from dyncert.certify import infinitesimal_commutation_residual
        f = lyness_map(3, 1.0)
        v = lyness_symmetry_field(3, 1.0)
        r = infinitesimal_commutation_residual(f, v, [1.0, 1.0, 1.0])
        assert np.max(np.abs(r)) > 1e-2

    def test_variant_search_is_bounded_and_sorted(self):
        results = lyness_symmetry_variants(3, 1.0, points=20, seed=42)
        assert 0 < len(results) <= 100
        scores = [s for _, s in results]
        assert scores == sorted(scores)

    def test_variant_score_uses_certify_scale(self):
        # the unperturbed variant is the catalog's candidate field; its score
        # is normalised like certify's infinitesimal_commutation; at a=2
        # the |f(x)| term changes the score
        f = lyness_map(3, 2.0)
        v = lyness_symmetry_field(3, 2.0)
        pts = sample(SamplingRegion(box=((0.5, 3.0),) * 3), 20, 42)
        expected = max(
            np.linalg.norm(infinitesimal_commutation_residual(f, v, x))
            / (1.0 + max(np.linalg.norm(x), np.linalg.norm(f.apply(x)),
                         np.linalg.norm(v(x))))
            for x in pts)
        scores = dict(lyness_symmetry_variants(3, 2.0, points=20, seed=42))
        assert scores["signs=(1, 1, 1, 1), mid_product_bound=2"] == expected

    def test_variant_search_deterministic(self):
        a = lyness_symmetry_variants(3, 1.0, points=10, seed=7)
        b = lyness_symmetry_variants(3, 1.0, points=10, seed=7)
        assert a == b


class TestOtherEntries:
    def test_affine_certifies_pass(self):
        f, s, region = build("affine1d", a=2.0, b=3.0)
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.verdict == "PASS"

    def test_linear_default_certifies_pass(self):
        f, s, region = build("linear", blocks="2:2")
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.verdict == "PASS"

    def test_twist_certifies_pass(self):
        f, s, region = build("twist", n=2)
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.verdict == "PASS"
        worst = max(c.max_abs for c in report.conditions
                    if c.kind == "residual" and "flow" not in c.condition_name)
        assert worst <= 1e-12

    def test_rigid_rotation_certifies_pass(self):
        f, s, region = build("rigid_rotation", a=1.0)
        report = certify_structure(f, s, region, samples=100, seed=42)
        assert report.verdict == "PASS"

    def test_warned_circle_has_no_structure(self):
        f, s, _ = build("warned_circle", k=2, eps=0.3)
        assert s is None
        assert f.phase_topology == (2.0 * math.pi,)

    def test_lyness_forward_preserves_positive_orthant(self):
        f, _, region = build("lyness", n=3, a=1.0)
        for x in sample(region, 100, seed=42):
            assert all(v > 0 for v in f.apply(x))


ANALYTIC_CASES = [
    ("affine1d", {"a": 2.0}),
    ("affine1d", {"a": 1.0}),
    ("rigid_rotation", {}),
    ("linear", {"blocks": "2:3"}),
    ("linear", {"blocks": "2:2,-0.5:1"}),
    ("cat_map", {}),
    ("twist", {"n": 3}),
]


@pytest.mark.parametrize("name,params", ANALYTIC_CASES)
def test_analytic_derivatives_match_jets(name, params):
    # a hand-written derivative must agree with the jets it replaces
    f, s, region = build(name, **params)
    pairs = [(f.analytic_jacobian, lambda x: jet_jacobian(f.forward, x))]
    if s is not None:
        pairs += [(v.analytic_jacobian, lambda x, v=v: jet_jacobian(v.func, x))
                  for v in s.fields]
        pairs += [(g.analytic_gradient,
                   lambda x, g=g: jet_gradient(g.func, x))
                  for g in s.integrals]
    assert all(analytic is not None for analytic, _ in pairs)
    for x in sample(region, 8, 3):
        for analytic, by_jets in pairs:
            np.testing.assert_array_equal(np.asarray(analytic(x), float),
                                          np.asarray(by_jets(x), float))
