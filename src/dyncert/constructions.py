"""Explicit constructions: commuting families for linear maps, affine
symmetries, cotangent lifts and lifted first integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IntegrabilityStructure, ScalarField, SmoothMap, VectorField
from .jets import left_sum, solve_linear, transpose

__all__ = [
    "JordanBlockSpec",
    "linear_map",
    "linear_commutative_family",
    "affine1d_symmetry",
    "cotangent_lift",
    "lift_integral",
    "lift_structure",
]


@dataclass(frozen=True)
class JordanBlockSpec:
    """Real block-form matrix: each block L I + N, eigenvalue L on the
    diagonal and the shift N (ones on the subdiagonal) below it.  Callers
    supply the block form directly; no numerical Jordan decomposition is
    attempted."""

    blocks: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("at least one block is required")
        for lam, size in self.blocks:
            if size < 1:
                raise ValueError("block sizes must be >= 1")
            if lam == 0.0:
                raise ValueError("zero eigenvalue: not a diffeomorphism")
            if not math.isfinite(lam):
                raise ValueError(f"eigenvalue {lam} is not finite")

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def matrix(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        offset = 0
        for lam, size in self.blocks:
            b = slice(offset, offset + size)
            a[b, b] = np.diag([lam] * size) + np.eye(size, k=-1)
            offset += size
        return a


def _linear_field(m, name: str) -> VectorField:
    """The field x -> m x, the rows of ``m`` as Python floats; zero entries
    are skipped."""
    rows = np.asarray(m, dtype=float).tolist()

    def ev(x):
        return [left_sum(rij * xj for rij, xj in zip(row, x) if rij != 0.0)
                for row in rows]

    return VectorField(dim=len(rows), func=ev, name=name)


def linear_map(spec: JordanBlockSpec) -> SmoothMap:
    field = _linear_field(spec.matrix(), "linear")
    return SmoothMap(dim=spec.dim, forward=field.func, name="linear")


def linear_commutative_family(spec: JordanBlockSpec) -> IntegrabilityStructure:
    """n commuting linear fields for f(x) = Ax in block form.

    Per block L I + N of size s: the fields N^j x for j = 0..s-1, a basis
    of the polynomials in N, which are the linear fields that commute with
    the block.  Blocks have disjoint support, and the family has rank n
    wherever the leading coordinate of every block is nonzero.  Where
    L > 0 the block is the time-1 map of its log, ln L N^0 +
    sum_j (-1)^(j+1) N^j / (j L^j), whose coefficients are the flow times.
    """
    n = spec.dim
    fields = []
    offset = 0
    for bi, (_, size) in enumerate(spec.blocks):
        b = slice(offset, offset + size)
        for j in range(size):
            power = np.zeros((n, n))
            power[b, b] = np.eye(size, k=-j)
            fields.append(_linear_field(power, f"N^{j}[{bi + 1}]"))
        offset += size
    return IntegrabilityStructure(dim=n, fields=tuple(fields), integrals=())


def affine1d_symmetry(a: float, b: float) -> VectorField:
    """Symmetry field of f(x) = ax + b: constant 1 when a = 1, else
    x + b/(a-1) (unit exponential rate)."""
    if a == 0.0:
        raise ValueError("a = 0 is not a diffeomorphism")
    if a == 1.0:
        return VectorField(dim=1, func=lambda x: [1.0], name="translation")
    beta = b / (a - 1.0)

    def ev(x):
        return [x[0] + beta]

    return VectorField(dim=1, func=ev, name="affine_symmetry")


def cotangent_lift(f: SmoothMap) -> SmoothMap:
    """Symplectic extension (x, p) -> (f(x), Df(x)^{-T} p).

    The momentum update solves Df(x)^T q = p with jet-generic elimination,
    so the lifted map stays differentiable: its Jacobian differentiates the
    jets of Df once more and always carries the exact second derivatives of
    the base map.
    """
    n = f.dim

    def fwd(z):
        x, p = list(z[:n]), list(z[n:])
        y = f.reduce(f.forward(x))
        jac = f.jacobian_at(x)
        q = solve_linear(transpose(jac), p)
        return y + q

    guard = None
    if f.domain_guard is not None:
        guard = lambda z: f.domain_guard(list(z[:n]))

    topo = None
    if f.phase_topology is not None:
        topo = tuple(f.phase_topology) + (None,) * n

    return SmoothMap(dim=2 * n, forward=fwd, domain_guard=guard,
                     phase_topology=topo, name=(f.name or "map") + "_lift")


def lift_integral(v: VectorField, name: str = "") -> ScalarField:
    """G(x, p) = p . v(x) on the doubled phase space."""
    n = v.dim

    def ev(z):
        return left_sum(pi * vi for pi, vi in zip(z[n:], v(list(z[:n]))))

    return ScalarField(dim=2 * n, func=ev,
                       name=name or f"lifted[{v.name or '?'}]")


def lift_structure(f: SmoothMap, s: IntegrabilityStructure):
    """Lifted map plus the full integral set on 2n coordinates.

    Base integrals F_k(x) extend as p-independent functions; every symmetry
    field contributes a momentum integral p . v_j(x).
    """
    if s.dim != f.dim:
        raise ValueError("structure dimension does not match the map")
    lifted = cotangent_lift(f)
    n = f.dim
    integrals = []
    for k, base_int in enumerate(s.integrals):
        def ev(z, _g=base_int):
            return _g(list(z[:n]))

        integrals.append(ScalarField(dim=2 * n, func=ev,
                                     name=base_int.name or f"F{k + 1}"))
    for j, fld in enumerate(s.fields):
        integrals.append(lift_integral(fld, name=f"G{j + 1}"))
    return lifted, tuple(integrals)
