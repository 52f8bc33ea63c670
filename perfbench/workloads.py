"""The benchmark's workloads: lists of dyncert CLI commands built from a seed.

Every certify-style command runs at the CLI default of 1000 samples.  Each
command is a ``(key, argv)`` pair; the key names the command in the
correctness gate (``gate.py``) and never contains the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

LYNESS3_STRUCTURE = Path(__file__).resolve().parent / "lyness3_f1f3.json"


def _certify_flow(s: str):
    # flow commutation dominates: ~90% of a pass is in integrate_flow
    return [
        ("certify linear blocks=2:3",
         ["certify", "--map", "linear", "--param", "blocks=2:3", "--seed", s]),
        ("certify affine1d", ["certify", "--map", "affine1d", "--seed", s]),
    ]


def _certify_algebraic(s: str):
    # no flow integration: jets, sampling, the guard pre-pass, rank checks,
    # the expression evaluator and (on the FAIL path) the variant search
    return [
        ("certify lyness n=5",
         ["certify", "--map", "lyness", "--param", "n=5", "--seed", s]),
        ("certify lyness n=5 symmetry=1",
         ["certify", "--map", "lyness", "--param", "n=5",
          "--param", "symmetry=1", "--seed", s]),
        ("certify lyness n=3 structure-file",
         ["certify", "--map", "lyness", "--param", "n=3",
          "--structure-file", str(LYNESS3_STRUCTURE), "--seed", s]),
    ]


def _lift_certify(s: str):
    # the involution battery on nested second-order jets
    return [
        ("lift-certify lyness n=4",
         ["lift-certify", "--map", "lyness", "--param", "n=4", "--seed", s]),
        ("lift-certify linear blocks=2:3",
         ["lift-certify", "--map", "linear", "--param", "blocks=2:3",
          "--seed", s]),
    ]


def _orbit_lyapunov(s: str):
    # the only workload that reaches the dynamics module
    rng = random.Random(int(s))
    x0 = ",".join(repr(rng.uniform(0.0, 1.0)) for _ in range(2))
    return [
        ("lyapunov cat_map",
         ["lyapunov", "--map", "cat_map", "--x0", x0, "-N", "100000"]),
        ("periodic cat_map k=2",
         ["periodic", "--map", "cat_map", "-k", "2", "--seeds", "150",
          "--seed", s]),
    ]


WORKLOADS = {
    "certify_flow": _certify_flow,
    "certify_algebraic": _certify_algebraic,
    "lift_certify": _lift_certify,
    "orbit_lyapunov": _orbit_lyapunov,
}


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's commands; the seed is reduced to the sampler's range."""
    return WORKLOADS[workload](str(seed % 2**32))
