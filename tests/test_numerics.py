import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import numerics
from dyncert.constructions import _linear_field
from dyncert.core import DomainError
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
    """One point at a time: a scalar DOP853 loop over the tableau of
    ``numerics``, with the field called on lists of floats, each stage sum
    added left to right from its first term over its nonzero weights, and
    Hairer's starting step from numpy scalars."""
    a, b, e5, e3 = numerics._A, numerics._B, numerics._E5, numerics._E3
    y = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if t == 0.0:
        return y

    def rhs(state):
        return np.asarray(field(list(state)), dtype=float)

    def weighted(w, count):
        total = w[0] * k[0]
        for j in range(1, count):
            if w[j]:
                total = total + w[j] * k[j]
        return total

    def rms(v):
        return np.sqrt(np.add.reduce(v * v) / len(v))

    direction = 1.0 if t > 0 else -1.0
    t_abs = abs(t)
    elapsed = accepted = 0.0
    steps = 0
    k = [rhs(y)] + [None] * 11
    with np.errstate(all="ignore"):
        sc = tol + tol * np.abs(y)
        d0, d1 = rms(y / sc), rms(k[0] / sc)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = np.fmin(h0, t_abs)
        probe = y + direction * h0 * k[0]
    probe = rhs(probe)
    with np.errstate(all="ignore"):
        d2 = rms((probe - k[0]) / sc) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, 1e-3 * h0)
        else:
            h1 = float(0.01 / np.fmax(d1, d2)) ** 0.125
    h = float(np.fmax(np.fmin(np.fmin(100.0 * h0, h1), t_abs), t_abs / 100.0))
    while elapsed < t_abs:
        if steps >= numerics.MAX_STEPS:
            raise IntegrationError(f"step limit {numerics.MAX_STEPS} "
                                   f"exhausted at t={direction * elapsed:g}")
        steps += 1
        if t_abs + h == t_abs:
            raise IntegrationError(
                f"step size underflow near t={direction * elapsed:g}")
        last = 1.01 * h >= t_abs - elapsed
        if last:
            h = t_abs - elapsed
        hd = direction * h
        for i in range(1, 12):
            k[i] = rhs(y + hd * weighted(a[i], i))
        new = y + hd * weighted(b, 12)
        k_new = rhs(new)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(new))
        s5, s3 = (float(np.add.reduce((weighted(e, 12) / scale) ** 2))
                  for e in (e5, e3))
        if not np.all(np.isfinite(scale)):
            if h <= accepted:
                raise IntegrationError(
                    f"state overflow near t={direction * elapsed:g}")
            err = math.nan
        elif not all(np.all(np.isfinite(ki)) for ki in k[1:]):
            err = math.nan
        elif s5 == 0.0:
            err = 0.0
        else:
            err = h * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))
        if err <= 1.0:
            y = new
            k[0] = k_new
            accepted = h
            elapsed = t_abs if last else elapsed + h
        if err > 0.0:
            factor = 0.9 * (1.0 / err) ** 0.125
        else:
            factor = 10.0 if err == 0.0 else 0.2
        h *= min(10.0, max(0.2, factor))
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
    is x' = sin(50 x) + 2, which needs about 1,100 steps over t = 5."""
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


def _reference_rank(stack, threshold=numerics.DEFAULT_RANK_THRESHOLD):
    """The rank of each matrix of a stack from its singular values alone,
    which numerical_rank's Gram screen must agree with; 0 where an entry
    is not finite (where the SVD does not converge or gives NaN)."""
    a = np.asarray(stack, dtype=float)
    finite = np.isfinite(a).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], a, 0.0),
                       compute_uv=False)
    return np.where(finite,
                    np.count_nonzero(sv > threshold * sv[..., :1], axis=-1),
                    0)


def _spread_stack(rng, count, rows, cols, decades):
    """``count`` random rows x cols matrices whose singular value ratios
    spread log-uniformly over 1e-18..1, some of them exactly zero, each
    scaled by 10^e with e uniform in (-decades, decades)."""
    k = min(rows, cols)
    sv = np.sort(10.0 ** rng.uniform(-18.0, 0.0, (count, k)), axis=1)[:, ::-1]
    sv[:, 0] = 1.0
    sv[rng.random((count, k)) < 0.05] = 0.0
    u = np.linalg.qr(rng.normal(size=(count, rows, rows)))[0]
    v = np.linalg.qr(rng.normal(size=(count, cols, cols)))[0]
    scale = 10.0 ** rng.uniform(-decades, decades, (count, 1, 1))
    return (u[:, :, :k] * (scale * sv[:, None, :])) @ v[:, :k, :]


def _counted_svd(monkeypatch):
    """Patch np.linalg.svd to record the shape of each stack it gets."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


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
        for m in (np.zeros((0, 2)), [1.0, 2.0], 3.0):
            with pytest.raises(ValueError):
                numerical_rank(m)

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

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (3, 2), (2, 3),
                                            (5, 3), (3, 5), (4, 4), (6, 1),
                                            (1, 6), (6, 6)])
    @pytest.mark.parametrize("decades", [0, 150])
    def test_agrees_with_plain_svd(self, rows, cols, decades):
        # ratios straddle each threshold, and the rounding of the exact
        # zeros lies above the smallest; the Gram screen may decide only
        # what the SVD would
        rng = np.random.default_rng([rows, cols, decades])
        stack = _spread_stack(rng, 3000, rows, cols, decades)
        for threshold in (1e-8, 1e-3, 0.3, 1e-12, 1e-14, 1e-200):
            assert np.array_equal(numerical_rank(stack, threshold),
                                  _reference_rank(stack, threshold))

    def test_special_matrices_agree_with_plain_svd(self):
        rng = np.random.default_rng(5)
        full = rng.normal(size=(4, 3))
        nan = full.copy()
        nan[2, 1] = np.nan
        inf = full.copy()
        inf[0, 0] = -np.inf
        # the Gram matrix of the first two over- and underflows
        stack = np.stack([1e300 * full, 1e-300 * full, np.zeros((4, 3)),
                          nan, inf, np.full((4, 3), np.inf), full])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks = numerical_rank(stack)
            assert ranks.tolist() == [3, 3, 0, 0, 0, 0, 3]
            assert np.array_equal(ranks, _reference_rank(stack))
            for m in [*stack, *([[v]] for v in (0.0, 1e-320, -2.0, np.nan,
                                                 np.inf))]:
                assert numerical_rank(m) == _reference_rank(m)

    @pytest.mark.parametrize("threshold", [1e-12, 1e-13, 1e-14, 1e-200])
    def test_rounding_is_not_rank(self, threshold):
        # a column and a rounded tenth of it: sigma_2 / sigma_1 is rounding,
        # far below every threshold but the last; det G is rounding too
        c = np.random.default_rng(2).normal(size=(2000, 5))
        stack = np.stack([c, 0.1 * c], axis=2)
        ranks = numerical_rank(stack, threshold)
        assert np.array_equal(ranks, _reference_rank(stack, threshold))
        assert threshold == 1e-200 or ranks.tolist() == [1] * 2000

    def test_screen_spares_the_svd(self, monkeypatch):
        # a well-conditioned stack makes no SVD call; one rank-deficient
        # matrix in it is the only one sent to the SVD
        stack = np.random.default_rng(8).normal(size=(1000, 5, 3))
        shapes = _counted_svd(monkeypatch)
        assert numerical_rank(stack).tolist() == [3] * 1000
        assert shapes == []
        stack[417, :, 2] = stack[417, :, 0]
        ranks = numerical_rank(stack)
        assert shapes == [(1, 5, 3)]
        assert ranks[417] == 2 and np.count_nonzero(ranks == 3) == 999

    @pytest.mark.parametrize("rows", [16, 20])
    def test_screen_spares_the_svd_up_to_dimension_16(self, monkeypatch,
                                                       rows):
        # orthonormal 16 x 16 matrices score q > 1 / (16 e), and so do the
        # tall Gaussian ones
        rng = np.random.default_rng(rows)
        stack = rng.normal(size=(300, rows, 16))
        if rows == 16:
            stack = np.linalg.qr(stack)[0]
        shapes = _counted_svd(monkeypatch)
        assert numerical_rank(stack).tolist() == [16] * 300
        assert shapes == []

    def test_nan_matrix_makes_no_svd_call(self, monkeypatch):
        shapes = _counted_svd(monkeypatch)
        assert numerical_rank([[np.nan, 1.0], [0.0, 1.0]]) == 0
        assert shapes == []


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
        # x' = x^2 stops after about 6,800 evaluations, exp after about 240
        # (not only once the step stops advancing the elapsed time ~1e-304)
        def capped(x):
            if capped.calls >= 10_000:
                raise AssertionError("integration did not stop at the blow-up")
            capped.calls += 1
            return fld(x)
        capped.calls = 0
        with pytest.raises(IntegrationError):
            integrate_flow(capped, [x0], t)

    def test_overflowing_state_is_never_accepted(self):
        # x' = 1e307 from 1.7e308 leaves the doubles before t = 1.  Steps
        # that overflow the new state are rejected and shrink, and the
        # shrunken ones land ever closer to the overflow; one that
        # overflows from no longer than the last accepted step ends the
        # row, in a few hundred field calls (the crawl to the old step
        # limit of 10^6 took 12M calls), instead of ending at inf
        fld = counting(lambda x: [1e307])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError,
                               match=r"state overflow near t=0\.97"):
                integrate_flow(fld, [1.7e308], 1.0)
            assert fld.calls < 1000
            ends = integrate_flow(fld, [[1.7e308], [0.0]], 1.0)
        assert np.isnan(ends[0, 0]) and ends[1, 0] == pytest.approx(1e307)

    @pytest.mark.parametrize("stage", range(1, 12))
    def test_non_finite_stage_rejects_its_step(self, stage):
        # a constant field that reads inf at one stage of the first step:
        # stages 1-4 have no weight in the new state, and a later stage
        # evaluated at their infinite point reads the constant again, yet
        # the step is rejected, so the next step starts again from 0,
        # 5 times shorter
        points = []

        def poisoned(x):
            points.append(x[0])
            return [math.inf if len(points) == 2 + stage else 1.0]

        with np.errstate(invalid="ignore"):
            end = integrate_flow(poisoned, [0.0], 1.0)
        first, second = points[2], points[14]  # stage 1 of steps 1 and 2
        assert second == pytest.approx(0.2 * first, rel=1e-12)
        assert end[0] == pytest.approx(1.0, abs=1e-14)

    def test_first_stage_reuses_the_last(self):
        # 4 steps of a constant field (Hairer's start gives |t| / 100 from
        # 0, growth 9 a step; the fourth takes the last 0.09), 10 attempted
        # steps of a rotation: one seed evaluation, one Euler probe of the
        # starting step, plus 12 per step, not 13
        const = counting(lambda x: [1.0])
        integrate_flow(const, [0.0], 1.0)
        assert const.calls == 50
        rot = counting(lambda x: [-x[1], x[0]])
        integrate_flow(rot, [1.0, 0.5], 3.0)
        assert rot.calls == 122

    def test_tableau_transcription(self):
        # DOP853's nodes c (the row sums of A, since the tableau is written
        # for autonomous fields) in closed form, the quadrature conditions
        # sum_i b_i c_i^(q-1) = 1/q of order 8, and error weights that
        # vanish on a constant field
        a, b = numerics._A, numerics._B
        assert [len(row) for row in a] == list(range(12)) and len(b) == 12
        r6 = math.sqrt(6.0)
        nodes = [0.0, (6 - r6) / 67.5, (6 - r6) / 45, (6 - r6) / 30,
                 (6 + r6) / 30, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5,
                 6 / 7, 1.0]
        c = [math.fsum(row) for row in a]
        assert c == pytest.approx(nodes, rel=0.0, abs=1e-14)
        for q in range(1, 9):
            assert math.fsum(w * ci ** (q - 1) for w, ci in zip(b, c)) \
                == pytest.approx(1 / q, rel=0.0, abs=1e-14)
        for e in (numerics._E5, numerics._E3):
            assert len(e) == 12
            assert abs(math.fsum(e)) <= 1e-14
        # the run of sums each stage is added to holds all its nonzero
        # weights and no zero one; B weights all stages but 1-4, the ones
        # a step checks for finite values itself
        sums = [*a[1:], b, numerics._E5, numerics._E3]
        for j, (start, stop, weights) in enumerate(numerics._RUNS):
            assert weights.ravel().tolist() == [row[j]
                                                for row in sums[start:stop]]
            assert 0.0 not in weights
            assert not any(row[j] for row in sums[j:start] + sums[stop:])
        assert [j for j, w in enumerate(b) if not w] == [1, 2, 3, 4]

    def test_jordan_flow_closed_form(self):
        # X(x) = (2I + N) x on one 3x3 Jordan block has the flow
        # e^{2t} (I + tN + t^2 N^2 / 2) x; a stack the size of certify's
        # flow phase lands within 1e-9 of it, relative, in at most 150
        # field calls: 10 steps of 12 calls (the 5(4) pair took 78 of 6)
        shift = np.eye(3, k=1)
        fld = counting(_linear_field(2.0 * np.eye(3) + shift, "jordan"))
        x0 = np.random.default_rng(0).uniform(-2.0, 2.0, (300, 3))
        times = np.repeat([-1.0, 0.5, 1.0], 100)
        ends = integrate_flow(fld, x0, times, 1e-10)
        exact = np.array([math.exp(2.0 * t) * (
            np.eye(3) + t * shift + t * t / 2.0 * shift @ shift) @ x
                          for x, t in zip(x0, times)])
        relative = (np.linalg.norm(ends - exact, axis=1)
                    / np.linalg.norm(exact, axis=1))
        assert relative.max() <= 1e-9
        assert fld.calls <= 150

    def test_stack_steps_in_lockstep(self):
        # each stage is one call on the columns of every running row
        rot = counting(lambda x: [-x[1], x[0]])
        ends = integrate_flow(rot, [[1.0, 0.5]] * 5, 3.0)
        assert rot.calls == 122
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
        # every branch of the step control, in one stack of 135 rows (the
        # integrator takes all rows in each call): [0, 0] has a zero
        # derivative (the starting step's fallbacks) and zero error (the
        # step grows 10 times), x' = e^x from 700 has an infinite scaled
        # derivative and blows up with NaN errors (it shrinks 5 times),
        # x' = x^2 from 3 blows up with finite errors, and x' = -x decays.
        # Each row ends where it ends alone, and alone it takes the steps
        # and ends where the scalar loop does, whose step update takes
        # Python's ** (np.power rounds otherwise)
        rows = 135
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
           st.integers(min_value=1, max_value=16),
           st.floats(min_value=-2.0, max_value=2.0),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_stack_rows_equal_the_scalar_loop(self, kind, p, n, t, seed):
        # up to the dimension numerics is sized for: from n = 8 on, a
        # point's error norm sums its n entries pairwise, not in order
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

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_start_layout_leaves_the_ends(self, n):
        # C order, F order and a strided view of the same starts end in
        # the same bits: the state is kept coordinate by coordinate and
        # each row's error norm is summed over its own n entries
        rng = np.random.default_rng(n)
        fld = _field("linear", n, rng)
        x0 = rng.uniform(-2.0, 2.0, (40, n))
        times = rng.uniform(-1.0, 1.0, 40)
        ends = integrate_flow(fld, x0, times)
        wide = np.zeros((80, 2 * n))
        wide[::2, ::2] = x0
        for start in (np.asfortranarray(x0), wide[::2, ::2]):
            assert (integrate_flow(fld, start, times).tobytes()
                    == ends.tobytes())
        for row, t, end in zip(x0, times, ends):
            assert np.array_equal(end, _reference_flow(fld, row, t))

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
        monkeypatch.setattr(numerics, "MAX_STEPS", 800)
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
        monkeypatch.setattr(numerics, "MAX_STEPS", 800)
        starts = [[0.0, 1.0], [1.0, 1.0], [2.0, 700.0], [3.0, 0.0],
                  [0.0, -2.0]] + domain_row
        ends = integrate_flow(fld, starts, 5.0)
        failures = [None, "step size underflow near t=1",
                    "step size underflow near t=0",
                    "step limit 800 exhausted", None]
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
