"""Core domain model: maps, fields, claimed structures, sampling regions.

Phase spaces are boxes in R^n where each coordinate may independently be a
line or a circle of given circumference; circle coordinates are reduced to
``[0, c)`` after every map application and distances on them are arc
distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jets import float_of, jet_gradient, jet_jacobian

__all__ = [
    "DomainError",
    "RegionSamplingError",
    "SmoothMap",
    "VectorField",
    "ScalarField",
    "IntegrabilityStructure",
    "SamplingRegion",
    "iterate",
    "sample",
]


class DomainError(ValueError):
    """A point violated a map's domain guard."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class RegionSamplingError(RuntimeError):
    """The guard rejected too many candidate samples."""


@dataclass(frozen=True)
class SmoothMap:
    """An evaluable diffeomorphism on a box-with-circle-flags phase space.

    ``forward`` and ``inverse`` take and return sequences; ``forward``
    must accept jet entries, which give its Jacobian unless
    ``analytic_jacobian`` is set.  A set ``analytic_jacobian`` replaces jets
    everywhere, also inside :func:`~dyncert.constructions.cotangent_lift`,
    whose Jacobian differentiates it once more; one that returns floats
    drops those second derivatives, so it is exact only for an affine map.
    Nothing checks it against jets.  ``phase_topology`` holds one entry per
    coordinate: ``None`` for a line, or the circumference of a circle
    coordinate.
    """

    dim: int
    forward: Callable
    inverse: Callable | None = None
    analytic_jacobian: Callable | None = None
    domain_guard: Callable | None = None
    phase_topology: tuple[float | None, ...] | None = None
    name: str = ""

    def _check_guard(self, x, step: int | None = None):
        if self.domain_guard is not None:
            fx = [float_of(v) for v in x]
            if not self.domain_guard(fx):
                raise DomainError(f"point {fx} violates the domain guard of "
                                  f"{self.name or 'map'}", step=step)

    def reduce(self, x: Sequence) -> list:
        if self.phase_topology is None:
            return list(x)
        out = []
        for v, topo in zip(x, self.phase_topology):
            out.append(v if topo is None else v % topo)
        return out

    def apply(self, x: Sequence, check_guard: bool = True) -> list:
        if check_guard:
            self._check_guard(x)
        y = self.reduce(self.forward(list(x)))
        if check_guard:
            self._check_guard(y)
        return y

    def apply_inverse(self, x: Sequence, check_guard: bool = True) -> list:
        if self.inverse is None:
            raise DomainError(f"{self.name or 'map'} has no inverse")
        if check_guard:
            self._check_guard(x)
        y = self.reduce(self.inverse(list(x)))
        if check_guard:
            self._check_guard(y)
        return y

    def __call__(self, x: Sequence) -> list:
        return self.apply(x)

    def jacobian_at(self, x: Sequence):
        """Jacobian rows at ``x`` (entries stay jets under nesting)."""
        if self.analytic_jacobian is not None:
            return self.analytic_jacobian(list(x))
        return jet_jacobian(lambda z: self.forward(z), x)

    def displacement(self, a: Sequence, b: Sequence) -> np.ndarray:
        """Componentwise a - b, wrapped to the shortest arc on circles."""
        out = np.asarray([float_of(u) - float_of(v) for u, v in zip(a, b)])
        if self.phase_topology is not None:
            for i, topo in enumerate(self.phase_topology):
                if topo is not None:
                    out[i] = (out[i] + topo / 2.0) % topo - topo / 2.0
        return out

    def distance(self, a: Sequence, b: Sequence) -> float:
        return float(np.linalg.norm(self.displacement(a, b)))


@dataclass(frozen=True)
class VectorField:
    """A vector field; ``func`` must accept jet entries, which give its
    Jacobian unless ``analytic_jacobian`` is set.  As for
    :class:`SmoothMap`, a set ``analytic_jacobian`` replaces jets everywhere
    and, returning floats, is exact under nested jets only for an affine
    field.  The flow integrator may pass ``func`` coordinate columns, one
    array per coordinate over many points; it must then give each point
    the value it gives that point alone.  A ``func`` that raises on
    columns, or returns another shape, is called once per point."""

    dim: int
    func: Callable
    analytic_jacobian: Callable | None = None
    name: str = ""

    def __call__(self, x: Sequence) -> list:
        y = self.func(list(x))
        if len(y) != self.dim:
            raise ValueError(f"field {self.name or '?'} returned dimension "
                             f"{len(y)}, expected {self.dim}")
        return list(y)

    def jacobian_at(self, x: Sequence):
        if self.analytic_jacobian is not None:
            return self.analytic_jacobian(list(x))
        return jet_jacobian(self.func, x)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function; ``func`` must accept jet entries, which give its
    gradient unless ``analytic_gradient`` is set.  A set
    ``analytic_gradient`` replaces jets everywhere (``lift_structure`` hands
    it on to the lifted integral) and, returning floats, is exact under
    nested jets only for an affine function."""

    dim: int
    func: Callable
    analytic_gradient: Callable | None = None
    name: str = ""

    def __call__(self, x: Sequence):
        return self.func(list(x))

    def gradient_at(self, x: Sequence) -> list:
        if self.analytic_gradient is not None:
            return list(self.analytic_gradient(list(x)))
        return jet_gradient(self.func, x)


@dataclass(frozen=True)
class IntegrabilityStructure:
    """Claimed symmetry fields and first integrals for an n-dim map.

    A *complete* structure has m + (number of integrals) = n; partial
    structures (e.g. known integrals only) are allowed and certified
    against exactly the conditions they supply.
    """

    dim: int
    fields: tuple[VectorField, ...] = ()
    integrals: tuple[ScalarField, ...] = ()

    def __post_init__(self):
        for v in self.fields:
            if v.dim != self.dim:
                raise ValueError("field dimension mismatch")
        for f in self.integrals:
            if f.dim != self.dim:
                raise ValueError("integral dimension mismatch")
        if self.m + len(self.integrals) > self.dim:
            raise ValueError("more fields + integrals than the dimension")

    @property
    def m(self) -> int:
        return len(self.fields)

    @property
    def complete(self) -> bool:
        return self.m + len(self.integrals) == self.dim


@dataclass(frozen=True)
class SamplingRegion:
    """Uniform sampling on a margin-shrunk box, filtered by a guard."""

    box: tuple[tuple[float, float], ...]
    margin: float = 0.0
    guard: Callable | None = None
    sample_count: int = 1000
    rng_seed: int = 42

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        for lo, hi in self.box:
            if lo + self.margin >= hi - self.margin:
                raise ValueError(f"empty interval [{lo}, {hi}] after margin")

    @property
    def dim(self) -> int:
        return len(self.box)


def sample(region: SamplingRegion, count: int | None = None,
           seed: int | None = None) -> list[list[float]]:
    """Deterministic uniform samples on the guarded, shrunk box.

    Each point draws from its own counter-based substream, so the result
    depends only on (seed, index) and not on how points are distributed
    over workers.
    """
    count = region.sample_count if count is None else count
    seed = region.rng_seed if seed is None else seed
    lo = np.asarray([b[0] + region.margin for b in region.box])
    hi = np.asarray([b[1] - region.margin for b in region.box])
    points = []
    for i in range(count):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        for _ in range(1000):
            x = gen.uniform(lo, hi)
            if region.guard is None or region.guard(list(x)):
                points.append([float(v) for v in x])
                break
        else:
            raise RegionSamplingError(
                f"guard rejected 1000 candidates for sample {i}; "
                "the region is misconfigured")
    return points


def iterate(f: SmoothMap, x0: Sequence, k: int) -> list:
    """k-th iterate of ``f`` (negative k uses the inverse)."""
    x = f.reduce([float(v) for v in x0])
    if k == 0:
        return x
    step = f.apply if k > 0 else f.apply_inverse
    for j in range(abs(k)):
        try:
            x = step(x)
        except DomainError as err:
            raise DomainError(f"guard violation at step {j + 1}: {err}",
                              step=j + 1) from err
    return x
