"""Core domain model: maps, fields, claimed structures, sampling regions.

Phase spaces are boxes in R^n where each coordinate may independently be a
line or a circle of given circumference; circle coordinates are reduced to
``[0, c)`` after every map application and distances on them are arc
distances.

The column contract.  A map's ``forward``, a field's or integral's ``func``
and their derivatives, which jets always take, may be called on coordinate
columns: a list of n arrays, each holding one coordinate of many points, or
jets whose values are such arrays.  Each entry of the result must then give
every point the value that point gives alone (a constant is broadcast; add
with :func:`~dyncert.jets.left_sum`).  A callable that raises on columns,
or returns another shape, is called once per point instead.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterator, Sequence

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
    "orbit_points",
    "guarded_images",
    "row_dot",
    "row_norms",
    "sample",
    "column_chunks",
    "on_columns",
    "point_stack",
]

# points per call on coordinate columns: bounds the arrays of nested jets
COLUMN_CHUNK = 128


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
    must accept jet entries, which give its Jacobian.  ``phase_topology``
    holds one entry per coordinate: ``None`` for a line, or the
    circumference of a circle coordinate.  All callables follow the column
    contract (module docstring).
    """

    dim: int
    forward: Callable
    inverse: Callable | None = None
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
        return [v if c is None else v % c
                for v, c in zip(x, self.phase_topology)]

    def apply(self, x: Sequence) -> list:
        self._check_guard(x)
        y = self.reduce(self.forward(list(x)))
        self._check_guard(y)
        return y

    def apply_inverse(self, x: Sequence) -> list:
        return self._inverted().apply(x)

    def _inverted(self) -> SmoothMap:
        if self.inverse is None:
            raise DomainError(f"{self.name or 'map'} has no inverse")
        return replace(self, forward=self.inverse, inverse=self.forward)

    def __call__(self, x: Sequence) -> list:
        return self.apply(x)

    def jacobian_at(self, x: Sequence):
        """Jacobian rows at ``x`` (entries stay jets under nesting)."""
        return jet_jacobian(self.forward, x)

    def displacement(self, a, b) -> np.ndarray:
        """a - b along the last axis, wrapped to the shortest arc on
        circles: of two points, or of (points, n) stacks (or a point and a
        stack, broadcast)."""
        out = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        for i, topo in enumerate(self.phase_topology or ()):
            if topo is not None:
                out[..., i] = (out[..., i] + topo / 2.0) % topo - topo / 2.0
        return out

    def distance(self, a: Sequence, b: Sequence) -> float:
        return float(np.linalg.norm(self.displacement(a, b)))


@dataclass(frozen=True)
class VectorField:
    """A vector field; ``func`` must accept jet entries, which give its
    Jacobian, and follows the column contract (module docstring)."""

    dim: int
    func: Callable
    name: str = ""

    def __call__(self, x: Sequence) -> list:
        y = self.func(list(x))
        if len(y) != self.dim:
            raise ValueError(f"field {self.name or '?'} returned dimension "
                             f"{len(y)}, expected {self.dim}")
        return list(y)

    def jacobian_at(self, x: Sequence):
        return jet_jacobian(self.func, x)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function; ``func`` must accept jet entries, which give its
    gradient, and follows the column contract (module docstring)."""

    dim: int
    func: Callable
    name: str = ""

    def __call__(self, x: Sequence):
        return self.func(list(x))

    def gradient_at(self, x: Sequence) -> list:
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

    Point i draws from numpy's Philox with key ``seed`` and counter word 1
    set to i, so it depends only on (seed, i), not on the count or on how
    points are spread over workers.  Philox increments word 0 before each
    block of four draws, so point i's first block is at counter
    (1, i, 0, 0): one bit generator, its counter set per point, draws all
    first candidates in one batch, bit for bit.  A point whose candidate
    the guard rejects is set back to its own stream and draws on, up to
    1000 candidates.
    """
    count = region.sample_count if count is None else count
    seed = region.rng_seed if seed is None else seed
    lo = np.asarray([b[0] + region.margin for b in region.box])
    hi = np.asarray([b[1] - region.margin for b in region.box])
    if count <= 0:
        return []
    bits = np.random.Philox(key=seed)
    state = bits.state
    counter = state["state"]["counter"]
    raw = np.empty((count, len(lo)), dtype=np.uint64)
    for i in range(count):
        counter[1] = i
        bits.state = state
        raw[i] = bits.random_raw(len(lo))
    first = lo + (hi - lo) * ((raw >> 11) * 2.0 ** -53)  # Generator.uniform
    points = first.tolist()
    if region.guard is None:
        return points
    gen = np.random.Generator(bits)
    for i, x in enumerate(first):
        if region.guard(list(x)):
            continue
        counter[1] = i
        bits.state = state
        bits.random_raw(len(lo))  # the rejected first candidate
        for _ in range(999):
            x = gen.uniform(lo, hi)
            if region.guard(list(x)):
                points[i] = [float(v) for v in x]
                break
        else:
            raise RegionSamplingError(
                f"guard rejected 1000 candidates for sample {i}; "
                "the region is misconfigured")
    return points


def iterate(f: SmoothMap, x0: Sequence, k: int) -> list:
    """k-th iterate of ``f`` (negative k uses the inverse) by
    :func:`orbit_points`, whose :class:`DomainError` gets a ``step`` of at
    least 1; ``iterate(f, x0, 0)`` is x0 reduced, unguarded."""
    if k == 0:
        return f.reduce([float(v) for v in x0])
    if k < 0:
        f = f._inverted()
    try:
        return next(islice(orbit_points(f, x0), abs(k), None))
    except DomainError as err:
        step = max(err.step, 1)
        raise DomainError(f"guard violation at step {step}: {err}",
                          step=step) from err


def orbit_points(f: SmoothMap, x0: Sequence) -> Iterator[list]:
    """x0, f(x0), f^2(x0), ... as lists, their circle coordinates reduced
    and each point checked against the domain guard once.

    Reaching the k-th iterate raises :class:`DomainError` with ``step`` k
    when it violates the guard, or when ``forward`` raises one computing
    it."""
    circles = [(i, c) for i, c in enumerate(f.phase_topology or ())
               if c is not None]
    guarded = f.domain_guard is not None
    x = [float(v) for v in x0]
    k = 0
    while True:
        for i, c in circles:
            x[i] %= c
        if guarded:
            f._check_guard(x, step=k)
        yield x
        k += 1
        try:
            x = list(f.forward(list(x)))
        except DomainError as err:
            err.step = k
            raise


def _inside(f: SmoothMap, points: np.ndarray) -> np.ndarray:
    guard = f.domain_guard or (lambda x: True)
    return np.array([bool(guard(x)) for x in points.tolist()], dtype=bool)


def guarded_images(f: SmoothMap, points: np.ndarray):
    """(kept, images): the rows of a (points, n) stack that ``f`` maps
    inside its guard, by index, and their images (circle coordinates
    reduced) from one :func:`point_stack` call; a row where ``forward``
    raises DomainError is dropped, as it ends an orbit.  Many points over
    one step: one point over many steps is :func:`orbit_points`."""
    kept = np.flatnonzero(_inside(f, points))
    try:
        images = point_stack(lambda x: f.reduce(f.forward(x)), points[kept],
                             (f.dim,))
    except DomainError:  # each row alone; a row where it recurs is dropped
        images = np.empty((len(kept), f.dim))
        mapped = np.zeros(len(kept), dtype=bool)
        for r, x in enumerate(points[kept].tolist()):
            with suppress(DomainError):
                images[r], mapped[r] = f.reduce(f.forward(x)), True
        kept, images = kept[mapped], images[mapped]
    inside = _inside(f, images)
    return kept[inside], images[inside]


def row_dot(a, b) -> np.ndarray:
    """a_i . b_i for (points, n) stacks.  Batched ``@`` rounds each point
    like a pointwise ``@`` or ``np.linalg.norm``; ``np.einsum`` does not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(v) -> np.ndarray:
    return np.sqrt(row_dot(v, v))


def column_chunks(count: int) -> list[slice]:
    """Near-equal slices of ``range(count)``, at most ``COLUMN_CHUNK`` long;
    none holds a single point unless ``count`` is 1."""
    k = -(-count // COLUMN_CHUNK)
    return [slice(i * count // k, (i + 1) * count // k) for i in range(k)]


def _leaves(value, shape) -> list:
    """The entries of a nested sequence of ``shape``, in row-major order."""
    if not shape:
        return [value]
    if len(value) != shape[0]:
        raise ValueError("wrong shape")
    return [leaf for v in value for leaf in _leaves(v, shape[1:])]


def on_columns(func: Callable, points: np.ndarray, shape=()):
    """``func`` at each row of a (points, n) stack, from one call on the
    list of its n coordinate columns (:func:`point_stack` splits jets into
    chunks); a (points, *shape) float stack, or None.

    A constant entry of the result is broadcast over the rows.  The call
    runs under ``np.errstate(all="raise")``, so a pole or an overflow
    raises; when the call raises, an entry has another shape, or ``points``
    holds fewer than two points, the result is None and the caller
    evaluates each point on its own."""
    if len(points) < 2:
        return None
    out = np.empty((len(points), *shape))
    try:
        with np.errstate(all="raise"):
            leaves = _leaves(func(list(points.T)), shape)
            for column, leaf in zip(out.reshape(len(points), -1).T, leaves,
                                    strict=True):
                if np.shape(leaf) not in ((), column.shape):
                    raise ValueError("wrong shape")
                column[...] = leaf
    except Exception:  # a real error recurs in the per-point call
        return None
    return out


def point_stack(func: Callable, points: np.ndarray, shape=()) -> np.ndarray:
    """``func`` at each row of ``points`` as a (points, *shape) float stack:
    one :func:`on_columns` call per chunk of :func:`column_chunks`, or,
    where that gives None, one call per point of the chunk on a list of
    plain floats, which raises a pole's error at its point."""
    out = np.empty((len(points), *shape))
    for chunk in column_chunks(len(points)):
        values = on_columns(func, points[chunk], shape)
        out[chunk] = (values if values is not None
                      else [func(x) for x in points[chunk].tolist()])
    return out
