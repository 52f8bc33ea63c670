"""dyncert: numerical certification of integrability structures for
diffeomorphisms, plus orbit-level dynamical evidence."""

__version__ = "0.1.0"

from .certify import (CAVEAT, CertificationReport, ResidualStats, Tolerances,
                      certify_involution, certify_structure,
                      first_integral_residual, flow_commutation_residual,
                      infinitesimal_commutation_residual, lie_bracket_residual,
                      map_invariance_residual, poisson_bracket,
                      symplecticity_residual)
from .constructions import (JordanBlockSpec, affine1d_symmetry,
                            cotangent_lift, lift_integral, lift_structure,
                            linear_commutative_family, linear_map)
from .core import (DomainError, IntegrabilityStructure, SamplingRegion,
                   ScalarField, SmoothMap, VectorField, iterate, sample)
from .dynamics import (Orbit, PeriodicPoint, RotationEstimate,
                       TranslationEstimate, compute_orbit,
                       estimate_translation_vector, find_periodic_points,
                       level_set_drift, lyapunov_spectrum, rotation_number)
from .jets import Jet
from .numerics import (RankEstimate, eigen_moduli, integrate_flow,
                       numerical_rank)

__all__ = [
    "__version__",
    "CAVEAT", "CertificationReport", "ResidualStats", "Tolerances",
    "certify_involution", "certify_structure", "first_integral_residual",
    "flow_commutation_residual", "infinitesimal_commutation_residual",
    "lie_bracket_residual", "map_invariance_residual", "poisson_bracket",
    "symplecticity_residual",
    "JordanBlockSpec", "affine1d_symmetry", "cotangent_lift",
    "lift_integral", "lift_structure", "linear_commutative_family",
    "linear_map",
    "DomainError", "IntegrabilityStructure", "SamplingRegion", "ScalarField",
    "SmoothMap", "VectorField", "iterate", "sample",
    "Orbit", "PeriodicPoint", "RotationEstimate", "TranslationEstimate",
    "compute_orbit", "estimate_translation_vector", "find_periodic_points",
    "level_set_drift", "lyapunov_spectrum", "rotation_number",
    "Jet",
    "RankEstimate", "eigen_moduli", "integrate_flow", "numerical_rank",
]
