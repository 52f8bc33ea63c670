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
with :func:`~dyncert.jets.left_sum`).  A map's ``domain_guard`` and a
region's ``guard`` are called on plain-float columns the same way and give
one bool per point: comparisons combined with ``&`` take columns, while
``and``, ``all`` or a chained comparison raise on them.  A callable that
raises on columns, or returns another shape or a complex entry, is called
once per point instead; so is a guard that reduces its columns to one
bool, such as ``np.linalg.norm(x) < r``.
Columns are taken a chunk of points at a time, COLUMN_CHUNK points of a
16 x 16 Jacobian and more of a smaller quantity (:func:`chunk_length`);
by the contract a value does not depend on its chunk.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from math import prod
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
    "chunk_length",
    "column_chunks",
    "on_columns",
    "point_stack",
]

SAMPLES = 1000  # default sample count of the sampler, certifiers and CLI
SEED = 42  # default sampling seed of the same

# points per call on coordinate columns of a quantity of CHUNK_FLOATS
# floats per point (a 16 x 16 Jacobian) or more: bounds the arrays of
# nested jets
COLUMN_CHUNK = 128
CHUNK_FLOATS = 16 * 16


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

    ``forward`` takes and returns a sequence, must accept jet entries,
    which give its Jacobian, and must not modify its argument, which
    :func:`orbit_points` hands it uncopied; dyncert never reads ``inverse``,
    which is kept only for callers that pass one.  ``phase_topology`` holds
    one entry per coordinate: ``None`` for a line, or the circumference of
    a circle coordinate.  All callables follow the column contract (module
    docstring).
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
    """Uniform sampling on a box, filtered by an optional guard.  The
    catalog's boxes lie inside their maps' guards and carry none: the map's
    guard, which the certifiers apply, is then the one check per point."""

    box: tuple[tuple[float, float], ...]
    guard: Callable | None = None

    def __post_init__(self):
        for lo, hi in self.box:
            if lo >= hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")


def sample(region: SamplingRegion, count: int = SAMPLES,
           seed: int = SEED) -> list[list[float]]:
    """Deterministic uniform samples on the region's guarded box.

    One Philox stream with key ``seed`` draws candidates in rounds, each
    as many as points are still missing, and the region's guard checks a
    round on coordinate columns (:func:`_inside`).  The samples are the
    first ``count`` accepted candidates in stream order, so the first k
    points of a run are those of a k-point run.  Once 1000 or more
    candidates are drawn and fewer than 1 in 1000 accepted,
    :class:`RegionSamplingError` names the sample it stopped at.
    """
    lo, hi = np.asarray(region.box, dtype=float).reshape(-1, 2).T
    gen = np.random.Generator(np.random.Philox(key=seed))
    points, drawn = [], 0
    while len(points) < count:
        if drawn >= 1000 and 1000 * len(points) < drawn:
            raise RegionSamplingError(
                f"guard accepted fewer than 1 in 1000 of {drawn} candidates "
                f"for sample {len(points)}; the region is misconfigured")
        batch = gen.uniform(lo, hi, (count - len(points), len(lo)))
        drawn += len(batch)
        points += batch[_inside(region.guard, batch)].tolist()
    return points


def iterate(f: SmoothMap, x0: Sequence, k: int) -> list:
    """k-th iterate of ``f``, k >= 0, by :func:`orbit_points`, whose
    :class:`DomainError` gets a ``step`` of at least 1;
    ``iterate(f, x0, 0)`` is x0 reduced, unguarded."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return f.reduce([float(v) for v in x0])
    try:
        return next(islice(orbit_points(f, x0), k, None))
    except DomainError as err:
        step = max(err.step, 1)
        raise DomainError(f"guard violation at step {step}: {err}",
                          step=step) from err


def orbit_points(f: SmoothMap, x0: Sequence) -> Iterator[list]:
    """x0, f(x0), f^2(x0), ... as lists, their circle coordinates reduced
    and each point checked against the domain guard once, as yielded: the
    one walk of iterates, orbits, drifts and Lyapunov stacks.  ``forward``
    takes the yielded list itself, uncopied, and only a point that fails
    the guard goes through ``SmoothMap._check_guard``, for its message.
    Reaching the k-th iterate raises :class:`DomainError` with
    ``step`` k when it violates the guard, or when ``forward`` raises one
    computing it."""
    circles = [(i, c) for i, c in enumerate(f.phase_topology or ())
               if c is not None]
    guard, forward = f.domain_guard, f.forward
    x = [float(v) for v in x0]
    k = 0
    while True:
        for i, c in circles:
            x[i] %= c
        if guard is not None and not guard(x):
            f._check_guard(x, step=k)
        yield x
        k += 1
        try:
            x = list(forward(x))
        except DomainError as err:
            err.step = k
            raise


def _inside(guard: Callable | None, points: np.ndarray) -> np.ndarray:
    """One bool per row of a (points, n) stack, from :func:`point_stack`;
    a column call that reduces the rows to one bool (as
    ``np.linalg.norm(x) < r`` does) is redone point by point."""
    if guard is None:
        return np.ones(len(points), dtype=bool)

    def each(x):
        ok = guard(x)
        if np.ndim(ok) != np.ndim(x[0]):
            raise ValueError("not one bool per point")
        return ok

    return point_stack(each, points) != 0


def guarded_images(f: SmoothMap, points: np.ndarray):
    """(kept, images): the rows of a (points, n) stack that ``f`` maps
    inside its guard, by index, and their images (circle coordinates
    reduced) from one :func:`point_stack` call; a row where ``forward``
    raises DomainError is dropped, as it ends an orbit.  Many points over
    one step: one point over many steps is :func:`orbit_points`."""
    kept = np.flatnonzero(_inside(f.domain_guard, points))
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
    inside = _inside(f.domain_guard, images)
    return kept[inside], images[inside]


def row_dot(a, b) -> np.ndarray:
    """a_i . b_i for (points, n) stacks.  Batched ``@`` rounds each point
    like a pointwise ``@`` or ``np.linalg.norm``; ``np.einsum`` does not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def row_norms(v) -> np.ndarray:
    return np.sqrt(row_dot(v, v))


def column_chunks(count: int, longest: int = COLUMN_CHUNK) -> list[slice]:
    """Near-equal slices of ``range(count)``, at most ``longest`` long; none
    holds a single point unless ``count`` is 1."""
    k = -(-count // longest)
    return [slice(i * count // k, (i + 1) * count // k) for i in range(k)]


def chunk_length(shape=()) -> int:
    """Points per call on coordinate columns of a quantity of ``shape``
    per point: COLUMN_CHUNK times the quantities of its size that fit in
    CHUNK_FLOATS floats, at least one (8192 points of a 2 x 2 Jacobian,
    32768 of a scalar, 128 of a 16 x 16 Jacobian or larger)."""
    return COLUMN_CHUNK * max(1, CHUNK_FLOATS // prod(shape))


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

    A result whose entries are all columns is copied in one piece, any
    other entry by entry, a constant entry broadcast over the rows.  Either
    way the stack is the transpose of a C-ordered (*shape, points) array,
    so each column of a (points, n) stack is contiguous.  The call runs
    under ``np.errstate(all="raise")``, so a pole or an overflow raises;
    when the call raises, an entry has another shape or a complex value, or
    ``points`` holds fewer than two points, the result is None and the
    caller evaluates each point on its own."""
    count = len(points)
    if count < 2:
        return None
    try:
        with np.errstate(all="raise"):
            value = func(list(points.T))
            try:
                out = np.array(value)
                whole = (out.shape == (*shape, count)
                         and out.dtype.kind in "biuf")
            except (ValueError, TypeError):  # ragged
                whole = False
            if not whole:
                out = np.empty((*shape, count))
                for row, leaf in zip(out.reshape(-1, count),
                                     _leaves(value, shape), strict=True):
                    if np.shape(leaf) not in ((), row.shape):
                        raise ValueError("wrong shape")
                    np.copyto(row, leaf, casting="same_kind")  # not complex
    except Exception:  # a real error recurs in the per-point call
        return None
    return out.astype(float, copy=False).transpose(len(shape),
                                                   *range(len(shape)))


def point_stack(func: Callable, points: np.ndarray, shape=()) -> np.ndarray:
    """``func`` at each row of ``points`` as a (points, *shape) float stack:
    one :func:`on_columns` call per chunk of :func:`column_chunks` up to
    :func:`chunk_length` long, or, where that gives None, one call per
    point of the chunk on a list of plain floats, which raises a pole's
    error at its point."""
    out = np.empty((len(points), *shape))
    for chunk in column_chunks(len(points), chunk_length(shape)):
        values = on_columns(func, points[chunk], shape)
        out[chunk] = (values if values is not None
                      else [func(x) for x in points[chunk].tolist()])
    return out
