"""Built-in maps with their known structures, safe regions and expected
certification outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import jets
from .certify import commutation_residuals
from .constructions import (JordanBlockSpec, affine1d_symmetry,
                            linear_commutative_family, linear_map)
from .core import (IntegrabilityStructure, SamplingRegion, ScalarField,
                   SmoothMap, VectorField, sample)

__all__ = [
    "ParameterError",
    "CatalogEntry",
    "CATALOG",
    "build",
    "list_entries",
    "lyness_map",
    "lyness_integrals",
    "lyness_symmetry_field",
    "lyness_symmetry_variants",
    "parse_blocks",
]

TWO_PI = 2.0 * math.pi


class ParameterError(ValueError):
    """Catalog parameters outside their declared schema."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict  # name -> {"default": ..., "doc": ...}
    builder: Callable
    expected: dict
    notes: str = ""


# -- affine 1-D ------------------------------------------------------------


def _build_affine1d(a: float = 2.0, b: float = 3.0):
    a, b = float(a), float(b)
    if a == 0.0:
        raise ParameterError("affine1d needs a != 0")

    def fwd(x):
        return [a * x[0] + b]

    def bwd(x):
        return [(x[0] - b) / a]

    f = SmoothMap(dim=1, forward=fwd, inverse=bwd,
                  analytic_jacobian=lambda x: [[a]], name="affine1d")
    s = IntegrabilityStructure(dim=1, fields=(affine1d_symmetry(a, b),))
    region = SamplingRegion(box=((-3.0, 3.0),))
    return f, s, region


# -- rigid rotation ---------------------------------------------------------


def _build_rigid_rotation(a: float = 1.0):
    a = float(a)

    def fwd(x):
        return [x[0] + a]

    def bwd(x):
        return [x[0] - a]

    f = SmoothMap(dim=1, forward=fwd, inverse=bwd,
                  analytic_jacobian=lambda x: [[1.0]],
                  phase_topology=(TWO_PI,), name="rigid_rotation")
    v = VectorField(dim=1, func=lambda x: [1.0],
                    analytic_jacobian=lambda x: [[0.0]], name="unit")
    s = IntegrabilityStructure(dim=1, fields=(v,))
    region = SamplingRegion(box=((0.0, TWO_PI),))
    return f, s, region


# -- warned circle map (near-identity but not C^1 integrable) ---------------


def _build_warned_circle(k: int = 2, eps: float = 0.3):
    k = int(k)
    eps = float(eps)
    if k < 1:
        raise ParameterError("warned_circle needs k >= 1")
    if not 0.0 < eps < 1.0 / k:
        raise ParameterError(f"warned_circle needs 0 < eps < 1/k = {1.0 / k:g}")
    shift = math.pi / k

    def fwd(x):
        return [x[0] + shift + eps * jets.sin(k * x[0]) ** 2]

    f = SmoothMap(dim=1, forward=fwd, phase_topology=(TWO_PI,),
                  name="warned_circle")
    region = SamplingRegion(box=((0.0, TWO_PI),))
    return f, None, region


# -- linear block-form maps --------------------------------------------------


def parse_blocks(text: str) -> JordanBlockSpec:
    """Parse 'lambda:size,lambda:size,...' into a block spec."""
    blocks = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lam, size = part.split(":", 1)
            blocks.append((float(lam), int(size)))
        else:
            blocks.append((float(part), 1))
    if not blocks:
        raise ParameterError("empty block list")
    return JordanBlockSpec(blocks=tuple(blocks))


def _build_linear(blocks="2:2"):
    spec = blocks if isinstance(blocks, JordanBlockSpec) else parse_blocks(blocks)
    f = linear_map(spec)
    s = linear_commutative_family(spec)
    region = SamplingRegion(box=tuple((-2.0, 2.0) for _ in range(spec.dim)))
    return f, s, region


# -- Arnold's cat map ---------------------------------------------------------


def _build_cat_map():
    def fwd(x):
        return [2 * x[0] + x[1], x[0] + x[1]]

    def bwd(x):
        return [x[0] - x[1], -x[0] + 2 * x[1]]

    f = SmoothMap(dim=2, forward=fwd, inverse=bwd,
                  analytic_jacobian=lambda x: [[2.0, 1.0], [1.0, 1.0]],
                  phase_topology=(1.0, 1.0), name="cat_map")
    region = SamplingRegion(box=((0.0, 1.0), (0.0, 1.0)))
    return f, None, region


# -- Lyness map ---------------------------------------------------------------


def lyness_map(n: int, a: float) -> SmoothMap:
    n = int(n)
    a = float(a)
    if n < 2:
        raise ParameterError("lyness needs n >= 2")
    if a <= 0:
        raise ParameterError("lyness needs a > 0")

    def fwd(x):
        tail = x[1:]
        acc = a
        for v in tail:
            acc = acc + v
        return list(tail) + [acc / x[0]]

    def bwd(x):
        head = x[:-1]
        acc = a
        for v in head:
            acc = acc + v
        return [acc / x[-1]] + list(head)

    def guard(x):
        return all(v > 1e-3 for v in x)

    return SmoothMap(dim=n, forward=fwd, inverse=bwd, domain_guard=guard,
                     name=f"lyness{n}")


def _prod(values):
    acc = 1.0
    for v in values:
        acc = acc * v
    return acc


def lyness_integrals(n: int, a: float) -> tuple[ScalarField, ...]:
    """All known conserved quantities applicable at dimension n.

    The second integral's product runs over adjacent pairs j = 1..n-1
    (bound fixed empirically by invariance testing; see README).

    At n = 3 the three quantities obey F2 = F1 + F3 + (2 - a) identically,
    so their gradients have rank 2; the catalog structure therefore ships
    the independent pair (F1, F3), while this function still returns all
    three."""
    n = int(n)
    a = float(a)
    out = []

    def f1(x):
        s = a
        for v in x:
            s = s + v
        return s * _prod(v + 1 for v in x) / _prod(x)

    out.append(ScalarField(dim=n, func=f1, name="F1"))

    if n >= 3:
        def f2(x):
            s = a + x[0] * x[n - 1]
            for v in x:
                s = s + v
            return s * _prod(x[j] + x[j + 1] + 1 for j in range(n - 1)) \
                / _prod(x)

        out.append(ScalarField(dim=n, func=f2, name="F2"))

    if n >= 3 and n % 2 == 1:
        k = (n - 1) // 2

        def f3(x):
            odd = _prod(x[2 * j] * (x[2 * j] + 1) for j in range(k + 1))
            s = a
            for v in x:
                s = s + v
            even = _prod(x[2 * j + 1] * (x[2 * j + 1] + 1) for j in range(k))
            return (odd + s * even) / _prod(x)

        out.append(ScalarField(dim=n, func=f3, name="F3"))
    return tuple(out)


def _lyness_v1_components(n: int, signs=(1.0, 1.0, 1.0, 1.0),
                          mid_hi_shift: int = 0):
    """Component formulas of the candidate symmetry field, parameterized so
    the variant search can perturb signs and one product bound."""
    s1, s2, s3, s4 = signs

    def ev(x):
        px = _prod(x)
        out = []
        # first component
        s = sum(x[j] for j in range(n - 1)) + s1 * (-x[1] * x[n - 1])
        p = _prod(x[j] + x[j + 1] + 1 for j in range(1, n - 1))
        out.append((x[0] + 1) * s * p / px)
        # middle components l = 2..n-1 (1-based)
        for l in range(2, n):
            s_mid = sum(x[j] for j in range(n - 1)) + s3 * (x[0] * x[n - 1])
            diff = s4 * (x[l - 2] - x[l])
            hi = n - 1 + mid_hi_shift
            p_mid = _prod(x[j] + x[j + 1] + 1
                          for j in range(hi)
                          if j not in (l - 2, l - 1))
            out.append((x[l - 1] + 1) * s_mid * diff * p_mid / px)
        # last component
        s_last = sum(x[j] for j in range(1, n - 1)) + s2 * (-x[0] * x[n - 2])
        p_last = _prod(x[j] + x[j + 1] + 1 for j in range(n - 2))
        out.append((x[n - 1] + 1) * s_last * p_last / px)
        return out

    return ev


def lyness_symmetry_field(n: int, a: float) -> VectorField:
    """The candidate symmetry field, as formulated.

    Shipped flagged "unverified": the infinitesimal commutation identity
    does not vanish for this formulation (see the variant search), so the
    certifier records the outcome instead of asserting it.
    """
    n = int(n)
    if n < 3:
        raise ParameterError("the candidate symmetry field needs n >= 3")
    return VectorField(dim=n, func=_lyness_v1_components(n),
                       name="v1_unverified")


def lyness_symmetry_variants(n: int, a: float, points: int = 50,
                             seed: int = 42):
    """Score sign/index-bound perturbations of the candidate symmetry field.

    Returns (descriptor, max normalized commutation residual) pairs for the
    48 variants that evaluate, sorted best first.
    """
    f = lyness_map(n, a)
    region = SamplingRegion(box=tuple((0.5, 3.0) for _ in range(n)))
    pts = np.reshape(sample(region, points, seed), (points, n))
    images = np.array([f.apply(x) for x in pts.tolist()])
    descs, values, image_values = [], [], []
    for signs, shift in product(product((1.0, -1.0), repeat=4), (0, -1, 1)):
        v = VectorField(dim=n,
                        func=_lyness_v1_components(n, signs, shift),
                        name="variant")
        try:
            vx = [v(x) for x in pts.tolist()]
            vfx = [v(y) for y in images.tolist()]
        except (ZeroDivisionError, ValueError, IndexError):
            continue
        descs.append(f"signs={tuple(int(s) for s in signs)}, "
                     f"mid_product_bound={n - 1 + shift}")
        values.append(np.array(vx, dtype=float))
        image_values.append(np.array(vfx, dtype=float))
    # scored like certify's infinitesimal_commutation, Df once per point
    scored = commutation_residuals(f, values, image_values, pts, images)
    results = [(desc, float(np.max(residual / scale, initial=0.0)))
               for desc, (residual, scale) in zip(descs, scored)]
    results.sort(key=lambda item: item[1])
    return results


def _build_lyness(n: int = 2, a: float = 1.0, symmetry: int = 0):
    n = int(n)
    a = float(a)
    f = lyness_map(n, a)
    integrals = lyness_integrals(n, a)
    if n == 3:
        # F2 = F1 + F3 + (2 - a) identically: ship the independent pair
        integrals = (integrals[0], integrals[2])
    if int(symmetry):
        if n < 3:
            raise ParameterError("symmetry formulas are only printed for n >= 3")
        fields = (lyness_symmetry_field(n, a),)
        # keep the structure within dimension: m + integrals <= n
        integrals = integrals[:n - 1]
    else:
        fields = ()
        integrals = integrals[:n]
    s = IntegrabilityStructure(dim=n, fields=fields, integrals=integrals)
    region = SamplingRegion(box=tuple((0.1, 10.0) for _ in range(n)),
                            guard=lambda x: all(v > 1e-3 for v in x))
    return f, s, region


# -- twist map ----------------------------------------------------------------


def _twist_gradient_matrix(n: int) -> np.ndarray:
    # H(p) = sum p_j^2 / 2 + sum p_j p_{j+1}; grad H = C p
    c = np.eye(n)
    for j in range(n - 1):
        c[j, j + 1] = 1.0
        c[j + 1, j] = 1.0
    c[n - 1, n - 1] = 0.0  # matches H(p) = p1^2/2 + p1 p2 at n = 2
    return c


def _build_twist(n: int = 2):
    n = int(n)
    if n < 1:
        raise ParameterError("twist needs n >= 1")
    c = _twist_gradient_matrix(n)
    rows = [list(r) for r in c]

    def fwd(z):
        q, p = z[:n], z[n:]
        dq = [sum(rij * pj for rij, pj in zip(row, p) if rij != 0.0)
              for row in rows]
        return [qi + di for qi, di in zip(q, dq)] + list(p)

    def bwd(z):
        q, p = z[:n], z[n:]
        dq = [sum(rij * pj for rij, pj in zip(row, p) if rij != 0.0)
              for row in rows]
        return [qi - di for qi, di in zip(q, dq)] + list(p)

    jac = np.block([[np.eye(n), c], [np.zeros((n, n)), np.eye(n)]])

    f = SmoothMap(dim=2 * n, forward=fwd, inverse=bwd,
                  analytic_jacobian=lambda z: [list(r) for r in jac],
                  name="twist")
    fields = []
    for j in range(n):
        e = [0.0] * (2 * n)
        e[j] = 1.0
        fields.append(VectorField(
            dim=2 * n, func=lambda z, _e=tuple(e): list(_e),
            analytic_jacobian=lambda z: [[0.0] * (2 * n)] * (2 * n),
            name=f"dq{j + 1}"))
    integrals = []
    for j in range(n):
        idx = n + j
        integrals.append(ScalarField(
            dim=2 * n, func=lambda z, _i=idx: z[_i],
            analytic_gradient=lambda z, _i=idx: [
                1.0 if i == _i else 0.0 for i in range(2 * n)],
            name=f"p{j + 1}"))
    s = IntegrabilityStructure(dim=2 * n, fields=tuple(fields),
                               integrals=tuple(integrals))
    region = SamplingRegion(box=tuple((-2.0, 2.0) for _ in range(2 * n)))
    return f, s, region


# -- registry -----------------------------------------------------------------


CATALOG: dict[str, CatalogEntry] = {
    "affine1d": CatalogEntry(
        name="affine1d",
        parameters={"a": {"default": 2.0, "doc": "slope, nonzero"},
                    "b": {"default": 3.0, "doc": "offset"}},
        builder=_build_affine1d,
        expected={"verdict": "PASS", "structure": "(1,0)"},
    ),
    "rigid_rotation": CatalogEntry(
        name="rigid_rotation",
        parameters={"a": {"default": 1.0, "doc": "rotation angle"}},
        builder=_build_rigid_rotation,
        expected={"verdict": "PASS", "structure": "(1,0)",
                  "rotation_number": "a / 2 pi"},
    ),
    "warned_circle": CatalogEntry(
        name="warned_circle",
        parameters={"k": {"default": 2, "doc": "integer >= 1"},
                    "eps": {"default": 0.3, "doc": "0 < eps < 1/k"}},
        builder=_build_warned_circle,
        expected={"verdict": None,
                  "facts": ["periodic orbit of period 2k at multiples of pi/k",
                            "monotone drift of f^j(x) - j pi/k on (0, pi/k)",
                            "rotation number 1/(2k)"]},
        notes=("near-identity for small eps yet admits no smooth symmetry "
               "or first integral; ships without a structure"),
    ),
    "linear": CatalogEntry(
        name="linear",
        parameters={"blocks": {"default": "2:2",
                               "doc": "block list 'lambda:size,...'"}},
        builder=_build_linear,
        expected={"verdict": "PASS", "structure": "(n,0)"},
    ),
    "cat_map": CatalogEntry(
        name="cat_map",
        parameters={},
        builder=_build_cat_map,
        expected={"verdict": None,
                  "facts": ["positive Lyapunov exponent ln((3+sqrt 5)/2)",
                            "hyperbolic periodic points on the rational lattice"]},
        notes="no structure certified; chaotic on the torus",
    ),
    "lyness": CatalogEntry(
        name="lyness",
        parameters={"n": {"default": 2, "doc": "dimension, 2..5"},
                    "a": {"default": 1.0, "doc": "positive parameter"},
                    "symmetry": {"default": 0,
                                 "doc": "1 to include the unverified "
                                        "symmetry field (n >= 3)"}},
        builder=_build_lyness,
        expected={"verdict": "PASS",
                  "facts": ["integral invariance at all sampled points",
                            "n=2, a=1: the map is 5-periodic"]},
        notes=("symmetry field v1 is flagged unverified: its component "
               "formulas fail the commutation identity; a variant search "
               "is attached to FAIL reports. At n=3 the three conserved "
               "quantities obey F2 = F1 + F3 + (2 - a) exactly, so the "
               "structure ships the independent pair (F1, F3), reported "
               "as F1 and F2"),
    ),
    "twist": CatalogEntry(
        name="twist",
        parameters={"n": {"default": 2, "doc": "degrees of freedom"}},
        builder=_build_twist,
        expected={"verdict": "PASS", "structure": "(n,n)"},
    ),
}


def build(name: str, **params):
    """Instantiate a catalog entry: (map, structure or None, region)."""
    if name not in CATALOG:
        raise ParameterError(f"unknown catalog map '{name}'; "
                             f"known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[name]
    unknown = set(params) - set(entry.parameters)
    if unknown:
        raise ParameterError(f"unknown parameters for {name}: "
                             f"{', '.join(sorted(unknown))}")
    return entry.builder(**params)


def list_entries() -> list[dict]:
    out = []
    for name in sorted(CATALOG):
        e = CATALOG[name]
        item = {
            "name": e.name,
            "parameters": {k: v for k, v in sorted(e.parameters.items())},
            "expected": e.expected,
        }
        if e.notes:
            item["notes"] = e.notes
        if name == "lyness":
            item["unverified_components"] = ["v1 (symmetry field)"]
        out.append(item)
    return out
