"""Calls on coordinate columns give each point the bits of its own call.

``core.on_columns`` evaluates a callable once on a whole stack of points,
``core.point_stack`` once per chunk of points sized by the quantity's
floats (``core.chunk_length``), or one point at a time in a chunk where
the columns fail.  These tests hold column stacks to per-point
stacks with ``np.array_equal``, a pole to the error of its own point, and
whole reports to those of a run with the column calls switched off.
"""

import builtins
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncert import certify, core, numerics
from dyncert.catalog import build, lyness_map, lyness_symmetry_variants
from dyncert.certify import (certify_involution, certify_structure,
                             symplecticity_residual)
from dyncert.constructions import _linear_field, cotangent_lift, lift_structure
from dyncert.core import (IntegrabilityStructure, SamplingRegion, SmoothMap,
                          chunk_length, column_chunks, on_columns,
                          point_stack, sample)
from dyncert.expressions import structure_from_dict
from dyncert.jets import DerivativeError, Jet, jet_jacobian, solve_linear
from dyncert.numerics import numerical_rank

# every catalog entry that ships a structure
STRUCTURES = [
    ("affine1d", {}), ("affine1d", {"a": 1.0}), ("rigid_rotation", {}),
    ("linear", {"blocks": "2:2"}), ("linear", {"blocks": "2:2,3:1"}),
    ("linear", {"blocks": "-0.5:3"}), ("twist", {"n": 2}),
    ("lyness", {"n": 2}), ("lyness", {"n": 3}), ("lyness", {"n": 4}),
    ("lyness", {"n": 5, "a": 2.0}), ("lyness", {"n": 3, "symmetry": 1}),
    ("lyness", {"n": 5, "symmetry": 1}),
]

# fields and integrals with pow, sin and exp (which take one point at a
# time) and with division (which takes columns)
EXPRESSIONS = {
    "dim": 3,
    "fields": [["sin(x1) * x2", "exp(x3 / 4)", "x1^2 / x2 + 1"]],
    "integrals": ["pow(x1, 1.5) * x2 / x3", "x1 * x2 / (x3 + 1)"],
}


def _quantities(f, s):
    """(label, callable, shape) of the map, its fields and integrals."""
    n = f.dim
    out = [("f", lambda x: f.reduce(f.forward(x)), (n,)),
           ("Df", f.jacobian_at, (n, n))]
    for j, v in enumerate(s.fields):
        out += [(f"X{j + 1}", v, (n,)), (f"DX{j + 1}", v.jacobian_at, (n, n))]
    for k, g in enumerate(s.integrals):
        out += [(f"F{k + 1}", g, ()), (f"dF{k + 1}", g.gradient_at, (n,))]
    return out


def _points(region, count, seed, momentum=0):
    """``count`` sampled points, with ``momentum`` coordinates in [-1, 1]."""
    x = np.reshape(sample(region, count, seed), (count, -1))
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, momentum))
    return np.concatenate([x, p], axis=1)


def _per_point(fn, points, shape):
    return np.array([np.asarray(fn(x), dtype=float).reshape(shape)
                     for x in points.tolist()]).reshape(len(points), *shape)


def _targets(f, s, region, count, seed):
    """(label, callable, shape, points) of a structure and of its lift."""
    lifted, integrals = lift_structure(f, s)
    lift = IntegrabilityStructure(dim=lifted.dim, integrals=integrals)
    return ([(*q, _points(region, count, seed)) for q in _quantities(f, s)]
            + [(f"lift {label}", fn, shape,
                _points(region, count, seed, f.dim))
               for label, fn, shape in _quantities(lifted, lift)])


@pytest.mark.parametrize("name, params", STRUCTURES)
@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=2, max_value=150),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_catalog_columns_equal_points(name, params, count, seed):
    f, s, region = build(name, **params)
    for label, fn, shape, points in _targets(f, s, region, count, seed):
        columns = on_columns(fn, points, shape)
        assert columns is not None, label  # no silent fallback
        assert np.array_equal(columns, _per_point(fn, points, shape)), label


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=100),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_expression_columns_equal_points(count, seed):
    f, _, region = build("lyness", n=3)
    s = structure_from_dict(EXPRESSIONS)
    for label, fn, shape, points in _targets(f, s, region, count, seed):
        assert np.array_equal(point_stack(fn, points, shape),
                              _per_point(fn, points, shape)), label
    # the second integral takes columns; pow, sin and exp do not
    x = _points(region, count, seed)
    assert on_columns(s.integrals[1], x) is not None
    assert on_columns(s.integrals[1].gradient_at, x, (3,)) is not None
    for fn, shape in ((s.fields[0], (3,)), (s.integrals[0], ())):
        assert on_columns(fn, x, shape) is None


@pytest.mark.parametrize("name, params", [
    ("linear", {"blocks": "2:2,3:1"}), ("twist", {"n": 2}),
    ("lyness", {"n": 5, "symmetry": 1})])
def test_jacobian_conditions_equal_the_per_point_loop(name, params):
    # Jacobians stacked a chunk at a time, in the bracket, commutation and
    # symplecticity formulas over each chunk, give the bits of fresh
    # per-point Jacobians in the per-point products
    f, s, region = build(name, **params)
    x = _points(region, 150, 11)
    fx = point_stack(lambda p: f.reduce(f.forward(p)), x, (f.dim,))
    v, w = ([point_stack(fld, p, (f.dim,)) for fld in s.fields]
            for p in (x, fx))
    pairs = list(combinations(range(len(s.fields)), 2))
    brackets = certify._bracket_norms(s.fields, v, x, pairs)
    commutation = [r for r, _ in certify.commutation_residuals(f, v, w, x, fx)]
    for i, p in enumerate(x.tolist()):
        jac = [np.asarray(fld.jacobian_at(p), dtype=float)
               for fld in s.fields]
        df = np.asarray(f.jacobian_at(p), dtype=float)
        for (j, k), norms in zip(pairs, brackets):
            assert norms[i] == np.linalg.norm(jac[k] @ v[j][i]
                                              - jac[j] @ v[k][i])
        for j, norms in enumerate(commutation):
            assert norms[i] == np.linalg.norm(df @ v[j][i] - w[j][i])
    lifted, _ = lift_structure(f, s)
    z = _points(region, 150, 11, f.dim)
    assert np.array_equal(
        certify._symplecticity(point_stack(lifted.jacobian_at, z,
                                           (lifted.dim, lifted.dim))),
        [symplecticity_residual(lifted, p) for p in z.tolist()])


def _raised(fn, *args):
    with pytest.raises((ZeroDivisionError, DerivativeError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("quantity, shape", [("value", ()),
                                             ("gradient", (2,))])
def test_pole_row_raises_its_own_error(quantity, shape):
    g = structure_from_dict({"dim": 2, "integrals": ["x2 / (x1 - 2)"]}) \
        .integrals[0]
    fn = g if quantity == "value" else g.gradient_at
    points = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [0.5, 0.5]])
    assert on_columns(fn, points, shape) is None
    error = _raised(point_stack, fn, points, shape)
    assert error == _raised(fn, points[2].tolist())
    assert error[1] in ("float division by zero",
                        "jet division by a jet with zero value")


def test_singular_row_raises_its_own_error():
    # the lift solves Df^T q = p, and Df = diag(3 x1^2, 1) is singular at 0
    lifted = cotangent_lift(SmoothMap(
        dim=2, forward=lambda x: [x[0] * x[0] * x[0], x[1]]))
    fn = lifted.jacobian_at
    points = np.array([[1.0, 2.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5],
                       [2.0, 1.0, -0.5, 0.5]])
    assert on_columns(fn, points, (4, 4)) is None
    error = _raised(point_stack, fn, points, (4, 4))
    assert error == _raised(fn, points[1].tolist())
    assert error == (DerivativeError, "singular linear system")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=2, max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_linear_pivots_per_point(n, count, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], (n, n, count))
    a += np.eye(n)[:, :, None] * rng.choice([0.0, 4.0], count)
    b = rng.uniform(-1.0, 1.0, (n, count))
    da = rng.uniform(-1.0, 1.0, (n, n, count))
    for jets in (False, True):
        def solve(p=slice(None)):
            """The system on the columns, or at point ``p`` in floats."""
            def at(u):
                return float(u[p]) if isinstance(p, int) else u

            def entry(i, j):
                u = at(a[i, j])
                return Jet(u, (at(da[i, j]),)) if jets else u

            return solve_linear([[entry(i, j) for j in range(n)]
                                 for i in range(n)], [at(v) for v in b])

        refs = []
        for p in range(count):
            try:
                refs.append(solve(p))
            except DerivativeError:  # a singular point fails the columns
                with pytest.raises(DerivativeError, match="singular"):
                    solve()
                break
        else:
            for p, ref in enumerate(refs):
                for u, v in zip(solve(), ref):
                    if jets:
                        assert u.partials[0][p] == v.partials[0]
                        u, v = u.value, v.value
                    assert u[p] == v


_BUILTIN_SUM = sum


def _compensated_sum(terms, start=0):
    """Builtin ``sum`` with Python 3.12's compensated (Neumaier) float sum:
    taken here when every term is a float (3.12 takes it for exact floats
    only, so this also covers numpy's float64), the builtin otherwise."""
    terms = list(terms)
    if not terms or not all(isinstance(t, float) for t in terms):
        return _BUILTIN_SUM(terms, start)
    total, compensation = start, 0.0
    for t in terms:
        added = total + t
        if abs(total) >= abs(t):
            compensation += (total - added) + t
        else:
            compensation += (t - added) + total
        total = added
    return total + compensation


def _sum_targets():
    """(label, callable, dimension, point) of the callables that add their
    terms with ``jets.left_sum``, each at a point where a compensated sum
    of floats gives other bits than adding from left to right."""
    twist, _, _ = build("twist", n=3)
    _, lyness, _ = build("lyness", n=5, symmetry=1)
    cancel = [1e16, 1.0, -1e16]
    return [
        ("twist forward", twist.forward, 6, [0.0] * 3 + cancel),
        ("dense linear field", _linear_field(np.ones((3, 3)), "dense"), 3,
         cancel),
        ("lyness symmetry field", lyness.fields[0], 5,
         [1.0, 0.1, 0.2, 0.3, 1.0]),
    ]


SUM_TARGETS = _sum_targets()


@pytest.mark.parametrize("label, fn, n, point", SUM_TARGETS,
                         ids=[t[0] for t in SUM_TARGETS])
def test_columns_equal_points_under_a_compensated_sum(monkeypatch, label, fn,
                                                      n, point):
    # Python >= 3.12 compensates a builtin sum of floats, not one of arrays
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    points = np.array([point, np.linspace(0.5, 2.5, n)])
    columns = on_columns(fn, points, (n,))
    assert columns is not None
    assert np.array_equal(columns, _per_point(fn, points, (n,)))


def test_twist_cancellation_adds_left_to_right(monkeypatch):
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    f, _, _ = build("twist", n=3)
    # q2 + p1 + p2 + p3 = 0 + 1e16 + 1 - 1e16, which is 0 left to right
    assert f.forward([0.0, 0.0, 0.0, 1e16, 1.0, -1e16])[1] == 0.0


def _columns_off(monkeypatch):
    for module in (core, numerics):
        monkeypatch.setattr(module, "on_columns", lambda *args: None)


def _lifted_region(f, region):
    guard = (lambda z: region.guard(list(z[:f.dim]))) if region.guard else None
    return SamplingRegion(box=tuple(region.box) + ((-1.0, 1.0),) * f.dim,
                          guard=guard)


@pytest.mark.parametrize("name, params", [
    ("linear", {"blocks": "2:2,3:1"}), ("twist", {"n": 2}),
    ("lyness", {"n": 4}), ("lyness", {"n": 3, "symmetry": 1}),
    ("affine1d", {})])
def test_reports_equal_with_columns_off(monkeypatch, name, params):
    f, s, region = build(name, **params)
    lifted, integrals = lift_structure(f, s)

    def reports():
        return json.dumps([
            certify_structure(f, s, region, samples=150, seed=3,
                              flow_times=(0.5,)).to_dict(),
            certify_involution(lifted, integrals, _lifted_region(f, region),
                               samples=150, seed=3).to_dict()])

    with_columns = reports()
    _columns_off(monkeypatch)
    assert reports() == with_columns


def test_variant_scores_equal_with_columns_off(monkeypatch):
    f = lyness_map(4, 2.0)
    with_columns = lyness_symmetry_variants(f, seed=7)
    _columns_off(monkeypatch)
    assert lyness_symmetry_variants(f, seed=7) == with_columns


def test_point_stack_calls_once_per_chunk(monkeypatch):
    # on_columns takes a whole stack in one call; point_stack splits it,
    # here under a budget of one 16 x 16 Jacobian (128 points of 2 floats),
    # and only a chunk that fails on columns goes point by point
    monkeypatch.setattr(core, "COLUMN_CHUNK", 1)
    points = np.reshape(sample(SamplingRegion(box=((0.0, 1.0),) * 2), 1000,
                               5), (1000, 2))
    calls = []

    def fn(x, pole=np.inf):
        calls.append(np.shape(x[0]))
        if np.ndim(x[0]) and np.any(x[0] == pole):
            raise ValueError("fails on columns")
        return [x[0] * x[1], 1.0]

    assert on_columns(fn, points[:300], (2,)) is not None
    assert calls == [(300,)]
    chunks = column_chunks(1000, chunk_length((2,)))
    sizes = [(c.stop - c.start,) for c in chunks]
    assert len(chunks) == 8
    failed = next(i for i, c in enumerate(chunks) if c.start <= 300 < c.stop)
    for pole in (np.inf, points[300, 0]):
        calls.clear()
        stack = point_stack(lambda x: fn(x, pole), points, (2,))
        expected = list(sizes)
        if pole != np.inf:  # the failed call, then one call per point
            expected[failed + 1:failed + 1] = [()] * sizes[failed][0]
        assert calls == expected
        assert np.array_equal(stack, _per_point(fn, points, (2,)))


def _counted(fn):
    """``fn`` with a ``calls`` attribute counting its calls."""
    def counted(x):
        counted.calls += 1
        return fn(x)
    counted.calls = 0
    return counted


def _leaf_path(value, shape, count):
    """A column result copied entry by entry into a (count, *shape) stack,
    a constant entry broadcast: what ``on_columns`` gives whether or not
    the entries are all whole columns."""
    out = np.empty((count, *shape))
    for column, leaf in zip(out.reshape(count, -1).T,
                            core._leaves(value, shape), strict=True):
        column[...] = leaf
    return out


# (label, callable, shape) that on_columns takes: whole columns, a
# broadcast constant (a negative zero and an int), a Jacobian whose rows
# hold jets.ZERO, and a guard's bools
TAKEN = [
    ("whole columns", lambda x: [x[0] * x[1], x[1] - x[0], x[2]], (3,)),
    ("constant entries", lambda x: [x[0] * 2.0, -0.0, 1], (3,)),
    ("jacobian with ZERO", lambda x: jet_jacobian(
        lambda v: [v[0] * v[1], 2.0, v[2]], x), (3, 3)),
    ("guard bools", lambda x: (x[0] > 0.5) & (x[1] < 0.7), ()),
]
# and those it refuses: a raise, a pole, a wrong shape, a complex value
REFUSED = [
    ("raises", lambda x: [math.sin(x[0]), x[1], x[2]], (3,)),
    ("pole", lambda x: [x[1] / (x[0] - x[0]), x[1], x[2]], (3,)),
    ("too few entries", lambda x: [x[0], x[1]], (3,)),
    ("short column", lambda x: [x[0][:-1], x[1], x[2]], (3,)),
    ("nested entry", lambda x: [x, x[1], x[2]], (3,)),
    ("complex column", lambda x: [x[0] * 1j, x[1], x[2]], (3,)),
    ("complex constant", lambda x: [x[0], 1j, x[2]], (3,)),
]


@pytest.mark.parametrize("label, fn, shape", TAKEN, ids=[c[0] for c in TAKEN])
def test_on_columns_equals_the_leaf_path(monkeypatch, label, fn, shape):
    # bit for bit, signs of zero included, from one call per chunk
    points = np.random.default_rng(4).uniform(0.0, 1.0, (200, 3))
    counted = _counted(fn)
    stack = on_columns(counted, points, shape)
    assert counted.calls == 1
    assert stack.shape == (200, *shape) and stack.dtype == float
    leaf = _leaf_path(fn(list(points.T)), shape, 200)
    assert stack.tobytes() == leaf.tobytes()
    assert np.array_equal(stack, _per_point(fn, points, shape))
    monkeypatch.setattr(core, "COLUMN_CHUNK", 1)  # several chunks
    counted = _counted(fn)
    assert point_stack(counted, points, shape).tobytes() == leaf.tobytes()
    assert counted.calls == len(column_chunks(200, chunk_length(shape)))


@pytest.mark.parametrize("label, fn, shape", REFUSED,
                         ids=[c[0] for c in REFUSED])
def test_on_columns_refuses(label, fn, shape):
    counted = _counted(fn)
    points = np.random.default_rng(4).uniform(0.0, 1.0, (20, 3))
    assert on_columns(counted, points, shape) is None
    assert counted.calls == 1


def test_column_chunks():
    assert column_chunks(0) == []
    assert column_chunks(1) == [slice(0, 1)]
    for longest in (core.COLUMN_CHUNK, chunk_length((5, 5)), 1024):
        for count in (2, longest, longest + 1, 1000, 3 * longest - 1):
            chunks = column_chunks(count, longest)
            sizes = [c.stop - c.start for c in chunks]
            assert sum(sizes) == count and chunks[-1].stop == count
            assert 2 <= min(sizes) and max(sizes) <= longest
            assert len(chunks) == -(-count // longest)
    assert column_chunks(1000) == column_chunks(1000, core.COLUMN_CHUNK)


def test_chunk_length():
    # a budget of COLUMN_CHUNK 16 x 16 Jacobians in floats, in multiples
    # of COLUMN_CHUNK points and never fewer
    shapes = [(), (2,), (2, 2), (5, 5), (8, 8), (16, 16), (17, 17), (4, 8, 8)]
    assert ([chunk_length(shape) for shape in shapes]
            == [32768, 16384, 8192, 1280, 512, 128, 128, 128])
    for shape in shapes:
        assert chunk_length(shape) * min(np.prod(shape), 256) <= 128 * 256


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_rank_chunks_equal_one_stack():
    # 16 columns of dimension 16 at 1000 points are ranked in 8 chunks of
    # 125 matrices, each matrix on its own: the same ranks as one stack,
    # over full-rank, rank-deficient, ill-conditioned and NaN matrices
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((1000, 16, 16))
    mats[::7, :, 3] = mats[::7, :, 5]
    mats[1::7, :, 0] *= 1e-9
    mats[2::97, 4, 4] = np.nan
    columns = [mats[:, :, j].copy() for j in range(16)]
    assert len(column_chunks(1000, chunk_length((16, 16)))) == 8
    full = certify._full_rank(columns, numerics.DEFAULT_RANK_THRESHOLD)
    assert np.array_equal(full, numerical_rank(mats) == 16)
    assert 0 < np.count_nonzero(~full) < 1000


def test_chunked_jacobians_bound_memory():
    # 16 fields of dimension 16: all their Jacobians at 1000 points would
    # take 33 MB; one chunk at a time they stay well inside the bound.
    # The rank of the fields is taken a chunk at a time too: one stack of
    # them, its transposed copy and its Gram matrices took 6 MB, and with
    # the modules numpy imports on a first call the peak passed 10 MB in a
    # fresh process
    f, s, region = build("linear",
                         blocks=",".join(f"{lam}:2" for lam in range(2, 10)))
    assert s.m == 16
    assert _peak(lambda: certify_structure(f, s, region, samples=1000,
                                           flow_times=())) < 10e6
    # the lift's nested jets, in chunks of 512 points of its 8 x 8
    # Jacobian (about 1.44 MB measured)
    f, s, region = build("lyness", n=4)
    lifted, integrals = lift_structure(f, s)
    assert _peak(lambda: certify_involution(
        lifted, integrals, _lifted_region(f, region), samples=1000)) < 2e6
