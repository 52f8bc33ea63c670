import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import numerics
from dyncert.constructions import _linear_field
from dyncert.core import COLUMN_CHUNK, DomainError
from dyncert.expressions import structure_from_dict
from dyncert.numerics import (IntegrationError, eigen_moduli, integrate_flow,
                              numerical_rank)


def counting(fld):
    """``fld`` with a ``calls`` attribute counting its evaluations."""
    def counted(x):
        counted.calls += 1
        return fld(x)
    counted.calls = 0
    return counted


def _reference_flow(field, x0, t, tol=numerics.FLOW_TOL):
    """One point at a time: the scalar Dormand-Prince loop that the stacked
    integrator replaced, with the field called on lists of floats."""
    a, b4 = numerics._A, numerics._B4
    y = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if t == 0.0:
        return y

    def rhs(state):
        return np.asarray(field(list(state)), dtype=float)

    direction = 1.0 if t > 0 else -1.0
    t_abs = abs(t)
    h = t_abs / 100.0
    elapsed = 0.0
    steps = 0
    k = [rhs(y)] + [None] * 6
    while elapsed < t_abs:
        if steps >= numerics.MAX_STEPS:
            raise IntegrationError(f"step limit {numerics.MAX_STEPS} "
                                   f"exhausted at t={direction * elapsed:g}")
        steps += 1
        if t_abs + h == t_abs:
            raise IntegrationError(
                f"step size underflow near t={direction * elapsed:g}")
        last = h >= t_abs - elapsed
        if last:
            h = t_abs - elapsed
        hd = direction * h
        for i in range(1, 7):
            yi = y + hd * sum(a[i][j] * k[j] for j in range(i))
            k[i] = rhs(yi)
        y5 = yi
        y4 = y + hd * sum(b4[i] * k[i] for i in range(7))
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            y = y5
            k[0] = k[6]
            elapsed = t_abs if last else elapsed + h
            if not np.all(np.isfinite(y)):
                raise IntegrationError(
                    f"trajectory diverged near t={direction * elapsed:g}")
        if err > 0.0:
            factor = 0.9 * (1.0 / err) ** 0.2
        else:
            factor = 5.0 if err == 0.0 else 0.2
        h *= min(5.0, max(0.2, factor))
    return y


def _field(kind, n, rng):
    """A field of dimension ``n`` of one kind; expression fields and the
    branching one cannot take columns and are called per point, and the
    late one falls back to that during the integration."""
    if kind == "linear":  # sparse, with an all-zero row (component 0)
        m = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
        m[rng.integers(n)] = 0.0
        return _linear_field(m, "linear")
    if kind == "constant":
        c = rng.uniform(-2.0, 2.0, n).tolist()
        return lambda x: list(c)
    if kind == "rotation":  # coordinate pairs rotate, an odd last one drifts
        return lambda x: [-x[i + 1] if i % 2 == 0 else x[i - 1]
                          for i in range(n - n % 2)] + [1.0] * (n % 2)
    if kind == "expression":
        comps = [("sin(x{i}) + 1.5", "exp(-x{i}^2) * x{j}",
                  "pow(cos(x{j}), 2) - x{i}")[i % 3].format(
                      i=i + 1, j=(i + 1) % n + 1) for i in range(n)]
        return structure_from_dict({"dim": n, "fields": [comps]}).fields[0]
    if kind == "late":  # takes columns until a coordinate passes 2.5
        def late(x):
            if np.ndim(x[0]) and np.max(np.abs(x)) > 2.5:
                raise ValueError("the columns left the box")
            return [v + 1.0 for v in x]
        return late
    return lambda x: [x[i] if x[0] > 0 else -0.5 * x[i] for i in range(n)]


def _mixed(z):
    """By the selector z[0]: 0 decays, 1 is x' = x^2, 2 is x' = e^x and 3
    is x' = sin(50 x) + 2, which needs about 2,400 steps over t = 5."""
    s, x = z
    with np.errstate(all="ignore"):
        return [0.0, np.where(s == 1.0, x * x, np.where(
            s == 2.0, np.exp(x), np.where(s == 3.0, np.sin(50.0 * x) + 2.0,
                                          -x)))]


def _mixed_per_point(z):
    """``_mixed`` branching in Python, so it cannot take columns; selector
    4 leaves the field's domain."""
    if z[0] == 4.0:
        raise DomainError("outside the field's domain")
    return [float(v) for v in _mixed([float(v) for v in z])]


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

    def test_stack_steps_in_lockstep(self):
        # each stage is one call on the columns of every running row
        rot = counting(lambda x: [-x[1], x[0]])
        ends = integrate_flow(rot, [[1.0, 0.5]] * 5, 3.0)
        assert rot.calls == 433
        assert np.array_equal(ends, [integrate_flow(lambda x: [-x[1], x[0]],
                                                    [1.0, 0.5], 3.0)] * 5)

    def test_stage_calls_take_every_running_row(self):
        # a stack the size of certify's flow phase: 100 rows per time.
        # A row alone takes one call per stage, so the k-th call of the
        # stack gets the columns of the rows that take more than k calls
        # alone, in one call (a single row gets a list of floats)
        rng = np.random.default_rng(2)
        fld = _field("linear", 3, rng)
        x0 = rng.uniform(-2.0, 2.0, (300, 3))
        times = np.repeat([-1.0, 0.5, 1.0], 100)
        alone = []
        for row, t in zip(x0, times):
            calls = counting(fld)
            integrate_flow(calls, row, t)
            alone.append(calls.calls)
        shapes = []

        def recording(x):
            shapes.append(np.shape(x[0]))
            return fld(x)

        integrate_flow(recording, x0, times)
        running = [sum(c > k for c in alone) for k in range(max(alone))]
        assert running[0] == 300
        assert shapes == [(m,) if m > 1 else () for m in running]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_control_rows_equal_alone_in_a_long_stack(self):
        # every branch of the step update, with more rows than a column
        # chunk: [0, 0] has zero error (the step grows 5 times), x' = e^x
        # from 700 blows up with NaN errors (it shrinks 5 times), x' = x^2
        # from 3 blows up with finite errors, and x' = -x decays.  Each row
        # ends where it ends alone, and alone it takes the steps and ends
        # where the scalar loop does, whose step update takes Python's **
        # (np.power rounds otherwise)
        rows = COLUMN_CHUNK + 7
        starts = np.column_stack([np.zeros(rows), np.random.default_rng(
            3).uniform(-2.0, 2.0, rows)])
        starts[:3] = [[0.0, 0.0], [2.0, 700.0], [1.0, 3.0]]
        ends = integrate_flow(_mixed, starts, 0.5)
        for x0, end in zip(starts, ends):
            refs, calls = [], []
            for flow in (integrate_flow, _reference_flow):
                fld = counting(_mixed)
                try:
                    refs.append(flow(fld, x0, 0.5))
                except IntegrationError:
                    refs.append(np.full(2, np.nan))
                calls.append(fld.calls)
            assert calls[0] == calls[1]
            for ref in refs:
                assert np.array_equal(end, ref, equal_nan=True)
        assert np.all(np.isnan(ends[1:3])) and ends[0, 1] == 0.0

    def test_stack_of_zero_time_and_no_rows(self):
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(integrate_flow(lambda x: [9.0, 9.0], x0, 0.0),
                              x0)
        assert integrate_flow(lambda x: [1.0], np.zeros((0, 1)),
                              1.0).shape == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["linear", "constant", "rotation", "expression",
                            "late", "branching"]),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=-2.0, max_value=2.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_stack_rows_equal_the_scalar_loop(self, kind, p, n, t, seed):
        rng = np.random.default_rng(seed)
        fld = _field(kind, n, rng)
        x0 = rng.uniform(-2.0, 2.0, (p, n))
        ends = integrate_flow(fld, x0, t)
        assert ends.shape == (p, n)
        for row, end in zip(x0, ends):
            try:  # a subnormal t underflows the first step
                ref = _reference_flow(fld, row, t)
            except IntegrationError:
                ref = np.full(n, np.nan)
            assert np.array_equal(end, ref, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["linear", "constant", "rotation", "expression",
                            "late", "branching"]),
           st.integers(min_value=1, max_value=6),
           st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0])
                    | st.floats(min_value=-2.0, max_value=2.0),
                    min_size=1, max_size=12),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_per_row_times_equal_scalar_calls(self, kind, n, times, seed):
        # negative, zero and repeated times in one stack: each row ends
        # bit for bit where a call with its own scalar time ends
        rng = np.random.default_rng(seed)
        fld = _field(kind, n, rng)
        x0 = rng.uniform(-2.0, 2.0, (len(times), n))
        ends = integrate_flow(fld, x0, np.array(times))
        assert ends.shape == x0.shape
        for row, t, end in zip(x0, times, ends):
            try:  # a subnormal t underflows the first step
                ref = integrate_flow(fld, row, t)
            except IntegrationError:
                ref = np.full(n, np.nan)
            assert np.array_equal(end, ref, equal_nan=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fld, domain_row", [
        (_mixed, []), (_mixed_per_point, [([4.0, 1.0], 0.5)])])
    def test_per_row_times_with_failed_rows(self, monkeypatch, fld,
                                            domain_row):
        # x' = sin(50 x) + 2 runs out of steps over t = 5 but not over
        # t = -0.5; x' = x^2 from 1 blows up before t = 1.5 but not
        # backwards; the domain row raises at its first evaluation
        monkeypatch.setattr(numerics, "MAX_STEPS", 2000)
        rows = [([3.0, 0.0], 5.0), ([3.0, 0.0], -0.5), ([1.0, 1.0], 1.5),
                ([1.0, 1.0], -1.5), ([0.0, 1.0], 0.0), ([0.0, 1.0], 5.0),
                ([2.0, 700.0], 1e-3)] + domain_row
        starts, times = zip(*rows)
        ends = integrate_flow(fld, starts, times)
        failed = 0
        for x0, t, end in zip(starts, times, ends):
            try:
                ref = integrate_flow(fld, x0, t)
            except (IntegrationError, DomainError):
                failed += 1
                ref = np.full(2, np.nan)
            assert np.array_equal(end, ref, equal_nan=True)
        assert failed == 3 + len(domain_row)

    def test_per_row_times_validated(self):
        x0 = np.zeros((3, 2))
        fld = lambda x: [1.0, 0.0]
        for t in ([1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]],
                  [1.0, math.nan, 2.0], [0.0, 1.0, -math.inf]):
            with pytest.raises(ValueError):
                integrate_flow(fld, x0, t)

    def test_per_row_zero_and_empty_times(self):
        # rows whose time is 0 come back as they are, without a field call
        const = counting(lambda x: [9.0, 9.0])
        x0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(integrate_flow(const, x0, np.zeros(3)), x0)
        assert const.calls == 0
        ends = integrate_flow(const, x0, [0.0, 1.0, 0.0])
        assert np.array_equal(ends[[0, 2]], x0[[0, 2]])
        assert np.array_equal(ends[1], integrate_flow(const, x0[1], 1.0))
        # an empty stack with an empty time array
        assert integrate_flow(const, np.zeros((0, 2)),
                              np.zeros(0)).shape == (0, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fld, domain_row", [
        (_mixed, []), (_mixed_per_point, [[4.0, 1.0]])])
    def test_failed_rows_are_nan(self, monkeypatch, fld, domain_row):
        monkeypatch.setattr(numerics, "MAX_STEPS", 2000)
        starts = [[0.0, 1.0], [1.0, 1.0], [2.0, 700.0], [3.0, 0.0],
                  [0.0, -2.0]] + domain_row
        ends = integrate_flow(fld, starts, 5.0)
        failures = [None, "step size underflow near t=1",
                    "step size underflow near t=0",
                    "step limit 2000 exhausted", None]
        for x0, end, message in zip(starts, ends, failures):
            if message is None:
                assert np.array_equal(end, integrate_flow(fld, x0, 5.0))
                continue
            assert np.all(np.isnan(end))
            with pytest.raises(IntegrationError, match=message):
                integrate_flow(fld, x0, 5.0)
        if domain_row:
            assert np.all(np.isnan(ends[-1]))
            with pytest.raises(DomainError):
                integrate_flow(fld, domain_row[0], 5.0)

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
