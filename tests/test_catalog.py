import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from dyncert import catalog, core
from dyncert.catalog import (ParameterError, build, list_entries,
                             lyness_integrals, lyness_map,
                             lyness_symmetry_field, lyness_symmetry_variants,
                             parse_blocks)
from dyncert.certify import (certify_structure, commutation_residuals,
                             infinitesimal_commutation_residual)
from dyncert.cli import main as cli_main
from dyncert.core import (IntegrabilityStructure, SamplingRegion,
                          VectorField, guarded_images, iterate, point_stack,
                          sample)
from dyncert.jets import ZERO, Jet, left_sum, seed_jets
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


def _fingerprint(f, s, region):
    """What a built entry is, up to its closures: its map's and region's
    data, its structure's names, and the bytes of every callable at a few
    points of the region."""
    points = np.array(sample(region, 16, 5))
    fields = s.fields if s is not None else ()
    integrals = s.integrals if s is not None else ()
    stacks = [point_stack(f.forward, points, (f.dim,))]
    stacks += [point_stack(v, points, (f.dim,)) for v in fields]
    stacks += [point_stack(g, points) for g in integrals]
    return (f.dim, f.name, f.phase_topology, region,
            [v.name for v in fields], [g.name for g in integrals],
            [stack.tobytes() for stack in stacks])


@pytest.mark.parametrize("name", sorted(catalog.CATALOG))
def test_build_takes_the_listed_defaults(name):
    # a builder declares no default: build passes the entry's, which
    # list_entries shows, and given parameters override them
    builder = inspect.signature(catalog.CATALOG[name].builder)
    assert all(p.default is p.empty for p in builder.parameters.values())
    listed = next(e for e in list_entries() if e["name"] == name)
    defaults = {k: p["default"] for k, p in listed["parameters"].items()}
    assert (_fingerprint(*build(name))
            == _fingerprint(*build(name, **defaults)))


def test_string_parameters_parse_to_the_defaults_types():
    # --param gives strings; build parses them once, into what a Python
    # caller passes
    assert (_fingerprint(*build("lyness", n="3", a="1.5"))
            == _fingerprint(*build("lyness", n=3, a=1.5)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_parameters_reach_the_lyness_map(n):
    # a Fraction parameter is passed on as given: on rational points the
    # map and its integrals stay rational, and invariance holds exactly
    f, s, _ = build("lyness", n=n, a=Fraction(3, 2))
    rng = random.Random(n)
    for _ in range(20):
        x = [Fraction(rng.randint(1, 50), rng.randint(1, 20))
             for _ in range(n)]
        fx = f.forward(x)
        assert all(isinstance(v, Fraction) for v in fx)
        for g in s.integrals:
            gx = g(x)
            assert isinstance(gx, Fraction)
            assert g(fx) - gx == 0


class TestParameterValidation:
    @pytest.mark.parametrize("name, params", [
        ("affine1d", {"a": "nan"}),
        ("affine1d", {"b": math.inf}),
        ("lyness", {"n": "3", "a": "inf"}),
        ("rigid_rotation", {"a": "-inf"}),
        ("warned_circle", {"eps": "nan"}),
    ])
    def test_non_finite_float_parameter(self, name, params):
        with pytest.raises(ParameterError, match="finite"):
            build(name, **params)

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
        results = lyness_symmetry_variants(lyness_map(3, 1.0), points=20,
                                           seed=42)
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
        scores = dict(lyness_symmetry_variants(f, points=20, seed=42))
        assert scores["signs=(1, 1, 1, 1), mid_product_bound=2"] == expected

    def test_variant_search_deterministic(self):
        f = lyness_map(3, 1.0)
        a = lyness_symmetry_variants(f, points=10, seed=7)
        b = lyness_symmetry_variants(f, points=10, seed=7)
        assert a == b


def _loop_variants(f, points=50, seed=42):
    """The variant search as one field and two point_stack calls per sign
    pattern and bound, the reference that the signed column stacks must
    match; it also tries the bound n (shift +1), which never evaluates."""
    n = f.dim
    region = SamplingRegion(box=tuple((0.5, 3.0) for _ in range(n)))
    pts = np.reshape(sample(region, points, seed), (points, n))
    kept, images = guarded_images(f, pts)
    pts = pts[kept]
    descs, values, image_values = [], [], []
    for signs, shift in itertools.product(
            itertools.product((1.0, -1.0), repeat=4), (0, -1, 1)):
        v = VectorField(dim=n,
                        func=catalog._lyness_v1_components(n, signs, shift),
                        name="variant")
        try:
            vx, vfx = (point_stack(v, xs, (n,)) for xs in (pts, images))
        except (ZeroDivisionError, ValueError, IndexError):
            continue
        descs.append(f"signs={tuple(int(s) for s in signs)}, "
                     f"mid_product_bound={n - 1 + shift}")
        values.append(vx)
        image_values.append(vfx)
    scored = commutation_residuals(f, values, image_values, pts, images)
    results = [(desc, float(np.max(residual / scale, initial=0.0)))
               for desc, (residual, scale) in zip(descs, scored)]
    results.sort(key=lambda item: item[1])
    return results


@pytest.mark.parametrize("columns", [True, False], ids=["columns",
                                                        "point_by_point"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_variant_search_equals_the_loop(n, columns, monkeypatch):
    # the same 32 descriptors, the same scores bit for bit, the same order
    if not columns:
        monkeypatch.setattr(core, "on_columns", lambda *args: None)
    for a in (1.0, 2.0):
        f = lyness_map(n, a)
        for seed in (1, 3, 42):
            results = lyness_symmetry_variants(f, seed=seed)
            assert len(results) == 32
            assert results == _loop_variants(f, seed=seed)


def test_variant_search_calls_once_per_bound(monkeypatch):
    # the 16 sign patterns ride as four extra columns: one column call on
    # the points and images per product bound
    calls = []
    on_columns = core.on_columns

    def counted(func, points, shape=()):
        calls.append(points.shape)
        return on_columns(func, points, shape)

    monkeypatch.setattr(core, "on_columns", counted)
    lyness_symmetry_variants(lyness_map(5, 1.0), points=50, seed=3)
    signed = [shape for shape in calls if shape[1] == 5 + 4]
    assert signed == [(16 * 2 * 50, 9)] * 2


CONFIGURATIONS = [(name, {}) for name in sorted(catalog.CATALOG)] + [
    ("lyness", {"n": n}) for n in (2, 3, 4, 5)] + [
    ("lyness", {"n": 4, "symmetry": 1}), ("linear", {"blocks": "2:3"}),
    ("linear", {"blocks": "-2:2,0.5:1"}), ("twist", {"n": 2})]


@pytest.mark.parametrize("name, params", CONFIGURATIONS)
def test_region_lies_inside_the_map_guard(name, params):
    # the map's guard is the one check of a sampled point: the region
    # restates none, and its box lies inside the guard, which is convex
    # (an orthant), so inside wherever the box's corners are
    f, _, region = build(name, **params)
    assert region.guard is None
    if f.domain_guard is not None:
        corners = list(itertools.product(*region.box))
        assert all(f.domain_guard(list(c)) for c in corners)
        assert np.all(point_stack(f.domain_guard,
                                  np.array(sample(region, 1000, 3))))


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


# -- the Lyness formulas as hand-written loops: the bit-for-bit oracle -----


def _loop_prod(values):
    acc = 1.0
    for v in values:
        acc = acc * v
    return acc


def _loop_lyness_forward(a):
    def fwd(x):
        tail = x[1:]
        acc = a
        for v in tail:
            acc = acc + v
        return list(tail) + [acc / x[0]]
    return fwd


def _loop_lyness_integrals(n, a):
    def f1(x):
        s = a
        for v in x:
            s = s + v
        return s * _loop_prod(v + 1 for v in x) / _loop_prod(x)

    def f2(x):
        s = a + x[0] * x[n - 1]
        for v in x:
            s = s + v
        return (s * _loop_prod(x[j] + x[j + 1] + 1 for j in range(n - 1))
                / _loop_prod(x))

    def f3(x):
        k = (n - 1) // 2
        odd = _loop_prod(x[2 * j] * (x[2 * j] + 1) for j in range(k + 1))
        s = a
        for v in x:
            s = s + v
        even = _loop_prod(x[2 * j + 1] * (x[2 * j + 1] + 1)
                          for j in range(k))
        return (odd + s * even) / _loop_prod(x)

    return [f1] + [f2] * (n >= 3) + [f3] * (n >= 3 and n % 2 == 1)


def _loop_v1(n, signs, shift):
    s1, s2, s3, s4 = signs

    def ev(x):
        px = _loop_prod(x)
        s = left_sum(x[j] for j in range(n - 1)) + s1 * (-x[1] * x[n - 1])
        p = _loop_prod(x[j] + x[j + 1] + 1 for j in range(1, n - 1))
        out = [(x[0] + 1) * s * p / px]
        for l in range(2, n):
            s_mid = (left_sum(x[j] for j in range(n - 1))
                     + s3 * (x[0] * x[n - 1]))
            diff = s4 * (x[l - 2] - x[l])
            p_mid = _loop_prod(x[j] + x[j + 1] + 1
                               for j in range(n - 1 + shift)
                               if j not in (l - 2, l - 1))
            out.append((x[l - 1] + 1) * s_mid * diff * p_mid / px)
        s_last = (left_sum(x[j] for j in range(1, n - 1))
                  + s2 * (-x[0] * x[n - 2]))
        p_last = _loop_prod(x[j] + x[j + 1] + 1 for j in range(n - 2))
        out.append((x[n - 1] + 1) * s_last * p_last / px)
        return out

    return ev


def _bits(value):
    """A value's type and bytes, through lists and jets; a structurally
    zero partial is told apart from any other zero."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, Jet):
        return ("Jet", _bits(value.value),
                ["ZERO" if p is ZERO else _bits(p) for p in value.partials])
    return type(value).__name__, np.asarray(value).tobytes()


def _outcome(func, x):
    try:
        return _bits(func(x))
    except (ArithmeticError, IndexError) as err:
        return type(err).__name__


def _lyness_inputs(n):
    """Points on floats and coordinate columns, plain, as jets and as
    nested jets; a few columns reach outside the positive orthant."""
    rng = np.random.default_rng(n)
    columns = list(rng.uniform(0.1, 10.0, (n, 7)))
    columns[0][3], columns[-1][5] = -0.75, -2.5
    point = [float(v) for v in rng.uniform(0.1, 10.0, n)]
    return [point, seed_jets(point), seed_jets(seed_jets(point)),
            columns, seed_jets(columns), seed_jets(seed_jets(columns))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lyness_folds_equal_the_loops(n):
    # left_sum and math.prod give the map, the integrals and every
    # variant of the candidate field the bits of the old loops
    a = 1.7
    new = [lyness_map(n, a).forward] + [g.func
                                        for g in lyness_integrals(n, a)]
    old = [_loop_lyness_forward(a)] + _loop_lyness_integrals(n, a)
    if n >= 3:
        for signs, shift in itertools.product(
                itertools.product((1.0, -1.0), repeat=4), (0, -1, 1)):
            new.append(catalog._lyness_v1_components(n, signs, shift))
            old.append(_loop_v1(n, signs, shift))
    for x in _lyness_inputs(n):
        for mine, loop in zip(new, old, strict=True):
            assert _outcome(mine, x) == _outcome(loop, x)
