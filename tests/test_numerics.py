import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import numerics
from dyncert.numerics import (IntegrationError, eigen_moduli, integrate_flow,
                              numerical_rank)


def counting(fld):
    """``fld`` with a ``calls`` attribute counting its evaluations."""
    def counted(x):
        counted.calls += 1
        return fld(x)
    counted.calls = 0
    return counted


class TestNumericalRank:
    def test_identity_full_rank(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_equal_columns(self):
        assert numerical_rank([[1.0, 1.0], [2.0, 2.0]]) == 1

    def test_linear_family_point(self):
        # columns (2x1, x1+2x2) and (0, x1) at (1,1)
        assert numerical_rank([[2.0, 0.0], [3.0, 1.0]]) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_stack_ranks_each_matrix(self):
        rng = np.random.default_rng(3)
        full = rng.normal(size=(4, 3))
        deficient = np.column_stack([full[:, 0], 2.0 * full[:, 0], full[:, 2]])
        stack = np.stack([full, deficient, np.zeros((4, 3)),
                          np.outer(full[:, 1], [1.0, -1.0, 0.5])])
        ranks = numerical_rank(stack)
        assert ranks.tolist() == [numerical_rank(m) for m in stack]
        assert ranks.tolist() == [3, 2, 0, 1]
        assert numerical_rank(np.zeros((0, 4, 3))).shape == (0,)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            numerical_rank(np.zeros((0, 2)))

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), threshold=0.0)
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), threshold=1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.1, max_value=50.0))
    def test_scaling_and_permutation_invariance(self, shift, scale):
        rng = np.random.default_rng(shift)
        m = rng.normal(size=(4, 3))
        base = numerical_rank(m)
        assert numerical_rank(scale * m) == base
        perm = rng.permutation(4)
        assert numerical_rank(m[perm]) == base


class TestEigenModuli:
    def test_cat_map(self):
        mods = eigen_moduli([[2.0, 1.0], [1.0, 1.0]])
        assert mods[0] == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
        assert mods[1] == pytest.approx((3 - math.sqrt(5)) / 2, rel=1e-12)

    def test_rotation_matrix_unit_moduli(self):
        th = 0.83
        mods = eigen_moduli([[math.cos(th), -math.sin(th)],
                             [math.sin(th), math.cos(th)]])
        assert np.allclose(mods, [1.0, 1.0])

    def test_identity(self):
        assert np.allclose(eigen_moduli(np.eye(5)), np.ones(5))

    def test_cat_map_squared(self):
        a = np.asarray([[2.0, 1.0], [1.0, 1.0]])
        mods = eigen_moduli(a @ a)
        assert mods[0] == pytest.approx((7 + 3 * math.sqrt(5)) / 2, rel=1e-12)
        assert mods[1] == pytest.approx((7 - 3 * math.sqrt(5)) / 2, rel=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigen_moduli(np.zeros((2, 3)))


class TestIntegrateFlow:
    def test_unit_field(self):
        y = integrate_flow(lambda x: [1.0], [0.0], 2.5)
        assert y[0] == pytest.approx(2.5, abs=1e-10)

    def test_affine_field_closed_form(self):
        # X(x) = x + 3, x0 = 1, t = ln 2: (1+3) e^t - 3 = 5
        y = integrate_flow(lambda x: [x[0] + 3.0], [1.0], math.log(2.0))
        assert y[0] == pytest.approx(5.0, abs=1e-9)

    def test_rotation_field(self):
        y = integrate_flow(lambda x: [-x[1], x[0]], [1.0, 0.0], math.pi / 2)
        assert np.allclose(y, [0.0, 1.0], atol=1e-9)

    def test_zero_time_returns_copy(self):
        x0 = [1.0, 2.0]
        y = integrate_flow(lambda x: [99.0, 99.0], x0, 0.0)
        assert list(y) == x0

    def test_negative_time_inverts(self):
        fld = lambda x: [x[0] + 3.0]
        fwd = integrate_flow(fld, [1.0], 0.8)
        back = integrate_flow(fld, list(fwd), -0.8)
        assert back[0] == pytest.approx(1.0, abs=1e-9)

    def test_group_property(self):
        fld = lambda x: [-x[1], x[0] - 0.1 * x[1]]
        one = integrate_flow(fld, [1.0, 0.5], 1.7)
        two = integrate_flow(fld, list(integrate_flow(fld, [1.0, 0.5], 0.9)),
                             0.8)
        assert np.allclose(one, two, atol=1e-8)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_STEPS", 3)
        with pytest.raises(IntegrationError):
            integrate_flow(lambda x: [math.sin(50.0 * x[0]) + 2.0], [0.0],
                           50.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self, monkeypatch):
        # finite-time blow-up of x' = x^2: either the trajectory is flagged
        # non-finite or the step budget runs out near the singularity
        monkeypatch.setattr(numerics, "MAX_STEPS", 20000)
        with pytest.raises(IntegrationError):
            integrate_flow(lambda x: [x[0] ** 2], [1.0], 5.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fld, x0, t", [
        (lambda x: [x[0] ** 2], 1.0, 5.0),  # blows up at t = 1
        (lambda x: [np.exp(x[0])], 700.0, 1.0),  # at t = exp(-700)
    ])
    def test_blow_up_stops_early(self, fld, x0, t):
        # near the blow-up the step shrinks until it no longer resolves t:
        # x' = x^2 stops after about 8,000 evaluations, exp after about 120
        # (not only once the step stops advancing the elapsed time ~1e-304)
        def capped(x):
            if capped.calls >= 10_000:
                raise AssertionError("integration did not stop at the blow-up")
            capped.calls += 1
            return fld(x)
        capped.calls = 0
        with pytest.raises(IntegrationError):
            integrate_flow(capped, [x0], t)

    def test_first_stage_reuses_the_last(self):
        # 4 steps of a constant field, 72 attempted steps of a rotation:
        # one seed evaluation plus 6 per step, not 7 per step
        const = counting(lambda x: [1.0])
        integrate_flow(const, [0.0], 1.0)
        assert const.calls == 25
        rot = counting(lambda x: [-x[1], x[0]])
        integrate_flow(rot, [1.0, 0.5], 3.0)
        assert rot.calls == 433

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError):
            integrate_flow(lambda x: [1.0], [0.0], math.inf)

    def test_config_validation(self, monkeypatch):
        for tol in (0.0, -1e-10, math.inf, math.nan):
            with pytest.raises(ValueError):
                integrate_flow(lambda x: [1.0], [0.0], 1.0, tol)
        monkeypatch.setattr(numerics, "MAX_STEPS", 0)
        with pytest.raises(IntegrationError):
            integrate_flow(lambda x: [1.0], [0.0], 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=0.1, max_value=2.0))
    def test_linear_flow_matches_exponential(self, x0, t):
        y = integrate_flow(lambda x: [2.0 * x[0]], [x0], t)
        assert y[0] == pytest.approx(x0 * math.exp(2.0 * t),
                                     abs=1e-8, rel=1e-8)
