import math
import warnings

import numpy as np
import pytest

from dyncert.certify import (certify_involution, certify_structure,
                             infinitesimal_commutation_residual,
                             lie_bracket_residual, poisson_bracket,
                             symplecticity_residual)
from dyncert.constructions import (JordanBlockSpec, affine1d_symmetry,
                                   cotangent_lift, lift_integral,
                                   lift_structure, linear_commutative_family,
                                   linear_map)
from dyncert.core import (IntegrabilityStructure, SamplingRegion, ScalarField,
                          SmoothMap, VectorField, sample)


class TestJordanBlockSpec:
    def test_matrix_layout(self):
        spec = JordanBlockSpec(blocks=((2.0, 2),))
        assert np.allclose(spec.matrix(), [[2.0, 0.0], [1.0, 2.0]])

    def test_multi_block(self):
        spec = JordanBlockSpec(blocks=((2.0, 1), (3.0, 2)))
        assert spec.dim == 3
        assert np.allclose(spec.matrix(),
                           [[2, 0, 0], [0, 3, 0], [0, 1, 3]])

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            JordanBlockSpec(blocks=((0.0, 2),))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, lam):
        with pytest.raises(ValueError, match="not finite"):
            JordanBlockSpec(blocks=((2.0, 1), (lam, 2)))

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            JordanBlockSpec(blocks=((1.0, 0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JordanBlockSpec(blocks=())


class TestLinearMap:
    def test_forward_matches_matrix(self):
        spec = JordanBlockSpec(blocks=((2.0, 2),))
        f = linear_map(spec)
        assert f.apply([1.0, 1.0]) == [2.0, 3.0]

    def test_float_rows_overflow_quietly(self):
        # the rows are Python floats: images are floats, and an overflow
        # gives inf with no numpy RuntimeWarning
        f = linear_map(JordanBlockSpec(blocks=((2.0, 1), (3.0, 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in ([0.1, 0.2, 0.3], [1e308, 1e308, 1e308]):
                y = f.forward(x)
                assert [type(v) for v in y] == [float] * 3
        assert y == [math.inf] * 3


class TestLinearFamily:
    def test_single_block_n2_fields(self):
        # lambda=2: v1 = N^0 x = (x1, x2), v2 = N x = (0, x1)
        s = linear_commutative_family(JordanBlockSpec(blocks=((2.0, 2),)))
        assert s.m == 2 and s.complete
        assert s.fields[0]([1.0, 3.0]) == [1.0, 3.0]
        assert s.fields[1]([1.0, 3.0]) == [0.0, 1.0]

    @pytest.mark.parametrize("blocks", [
        ((2.0, 3),),
        ((0.5, 4),),
        ((2.0, 2), (3.0, 1)),
        ((1.5, 2), (-0.5, 1), (2.0, 3)),
    ])
    def test_fields_are_the_powers_of_the_shift(self, blocks):
        # field j of a block, applied to the unit vectors, is N^j on the
        # block's slice and zero elsewhere
        spec = JordanBlockSpec(blocks=blocks)
        s = linear_commutative_family(spec)
        n = spec.dim
        assert s.m == n
        fields = iter(s.fields)
        offset = 0
        for _, size in blocks:
            for j in range(size):
                want = np.zeros((n, n))
                want[offset:offset + size, offset:offset + size] = np.eye(
                    size, k=-j)
                field = next(fields)
                got = np.column_stack([field(e) for e in np.eye(n)])
                assert np.array_equal(got, want)
            offset += size

    def test_one_dimensional(self):
        s = linear_commutative_family(JordanBlockSpec(blocks=((3.0, 1),)))
        assert s.m == 1
        assert s.fields[0]([2.0]) == [2.0]  # scaling field x e1

    def test_diagonal_blocks_give_scaling_fields(self):
        s = linear_commutative_family(
            JordanBlockSpec(blocks=((2.0, 1), (3.0, 1))))
        assert s.m == 2
        assert s.fields[0]([1.0, 1.0]) == [1.0, 0.0]
        assert s.fields[1]([1.0, 1.0]) == [0.0, 1.0]

    @pytest.mark.parametrize("blocks", [
        ((2.0, 2),),
        ((2.0, 1), (3.0, 1)),
        ((-1.0, 3),),
        ((2.0, 2), (0.5, 2)),
        ((1.5, 1), (-2.0, 2), (3.0, 1)),
    ])
    def test_family_certifies_against_the_map(self, blocks):
        spec = JordanBlockSpec(blocks=blocks)
        f = linear_map(spec)
        s = linear_commutative_family(spec)
        assert s.m == spec.dim
        region = SamplingRegion(box=((-2.0, 2.0),) * spec.dim)
        pts = sample(region, 60, seed=42)
        for x in pts:
            for j in range(s.m):
                for k in range(j + 1, s.m):
                    assert np.max(np.abs(lie_bracket_residual(
                        s.fields[j], s.fields[k], x))) <= 1e-12
                r = infinitesimal_commutation_residual(f, s.fields[j], x)
                assert np.max(np.abs(r)) <= 1e-12


class TestAffineSymmetry:
    def test_translation_case(self):
        v = affine1d_symmetry(1.0, 5.0)
        assert v([17.0]) == [1.0]

    def test_generic_case(self):
        v = affine1d_symmetry(2.0, 3.0)
        assert v([1.0]) == [4.0]  # x + 3

    def test_zero_beta(self):
        v = affine1d_symmetry(-1.0, 0.0)
        assert v([2.0]) == [2.0]  # x itself
        f = SmoothMap(dim=1, forward=lambda x: [-x[0]])
        r = infinitesimal_commutation_residual(f, v, [1.0])
        assert r[0] == 0.0

    def test_degenerate_slope(self):
        with pytest.raises(ValueError):
            affine1d_symmetry(0.0, 1.0)


class TestCotangentLift:
    def test_scaling_map(self):
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0]])
        lifted = cotangent_lift(f)
        assert lifted.apply([1.0, 1.0]) == [2.0, 0.5]

    def test_identity(self):
        f = SmoothMap(dim=2, forward=lambda x: list(x))
        lifted = cotangent_lift(f)
        z = [0.1, 0.2, 0.3, 0.4]
        assert np.allclose(lifted.apply(z), z)

    def test_linear_lift_symplectic(self):
        spec = JordanBlockSpec(blocks=((2.0, 3),))
        lifted = cotangent_lift(linear_map(spec))
        z = [0.3, -0.9, 1.2, 0.5, 0.1, -0.7]
        assert symplecticity_residual(lifted, z) <= 1e-12

    def test_nonlinear_lift_symplectic(self):
        # second derivatives of the base map enter the lifted Jacobian
        f = SmoothMap(dim=2,
                      forward=lambda x: [x[1], (x[1] + 1.0) / x[0]],
                      domain_guard=lambda x: all(v > 1e-3 for v in x))
        lifted = cotangent_lift(f)
        for z in ([1.0, 1.0, 0.2, -0.3], [2.5, 0.7, 1.0, 1.0]):
            assert symplecticity_residual(lifted, z) <= 1e-10

    def test_guard_propagates(self):
        f = SmoothMap(dim=1, forward=lambda x: [x[0] ** 3],
                      domain_guard=lambda x: x[0] > 0.0)
        lifted = cotangent_lift(f)
        from dyncert.core import DomainError
        with pytest.raises(DomainError):
            lifted.apply([-1.0, 0.0])


class TestLiftIntegral:
    def test_momentum_times_field(self):
        v = VectorField(dim=1, func=lambda x: [x[0]])
        g = lift_integral(v)
        assert g([3.0, 2.0]) == 6.0  # p x

    def test_invariance_under_scaling_lift(self):
        v = VectorField(dim=1, func=lambda x: [x[0]])
        g = lift_integral(v)
        f = SmoothMap(dim=1, forward=lambda x: [2.0 * x[0]])
        lifted = cotangent_lift(f)
        z = [1.7, -0.4]
        assert g(lifted.apply(z)) == pytest.approx(g(z), rel=1e-14)

    def test_constant_field_gives_momentum(self):
        v = VectorField(dim=2, func=lambda x: [1.0, 0.0])
        g = lift_integral(v)
        assert g([9.0, 9.0, 0.25, 0.75]) == 0.25

    def test_zero_field(self):
        v = VectorField(dim=2, func=lambda x: [0.0, 0.0])
        g = lift_integral(v)
        assert g([1.0, 2.0, 3.0, 4.0]) == 0.0


class TestLiftStructure:
    def test_linear_family_lifts_to_involution(self):
        spec = JordanBlockSpec(blocks=((2.0, 2),))
        f = linear_map(spec)
        s = linear_commutative_family(spec)
        lifted, integrals = lift_structure(f, s)
        assert len(integrals) == 2
        region = SamplingRegion(box=((-2.0, 2.0),) * 4)
        for z in sample(region, 50, seed=42):
            assert abs(poisson_bracket(integrals[0], integrals[1], z)) <= 1e-12
        report = certify_involution(lifted, integrals, region,
                                    samples=100, seed=42)
        assert report.verdict == "PASS"

    def test_base_integrals_extend_p_independent(self):
        f = SmoothMap(dim=2, forward=lambda x: [x[1], (x[1] + 1.0) / x[0]],
                      domain_guard=lambda x: all(v > 1e-3 for v in x))
        g = ScalarField(
            dim=2,
            func=lambda x: (x[0] + x[1] + 1) * (x[0] + 1) * (x[1] + 1)
            / (x[0] * x[1]), name="F1")
        s = IntegrabilityStructure(dim=2, integrals=(g,))
        lifted, integrals = lift_structure(f, s)
        assert len(integrals) == 1
        grad = integrals[0].gradient_at([1.0, 2.0, 5.0, 6.0])
        assert grad[2] == 0.0 and grad[3] == 0.0
        z = [1.0, 2.0, 0.3, 0.4]
        assert integrals[0](lifted.apply(z)) == pytest.approx(
            integrals[0](z), rel=1e-12)

    def test_dimension_mismatch(self):
        f = SmoothMap(dim=2, forward=lambda x: list(x))
        s = IntegrabilityStructure(dim=3)
        with pytest.raises(ValueError):
            lift_structure(f, s)
