"""Toolkit for rank-2 distributions on 4-manifolds given as Pfaffian pairs.

Computes growth vectors and Engel certificates, constructs the
characteristic (singular-curve) vector field by three cross-validated
routes, integrates characteristic flows with conserved-quantity monitors,
reconstructs singular-endpoint surfaces, and verifies singular curves of
the endpoint map by Jacobian rank deficiency and by the covector
(Bryant-Hsu) conditions.
"""

from .charfield import (
    CORRECTED,
    ORACLE,
    PRINTED,
    CharCoefficients,
    CharCovector,
    CrossCheckReport,
    char_covector,
    char_field,
    coefficients,
    coeffs_corrected,
    coeffs_oracle,
    coeffs_printed,
    cross_check,
)
from .distribution import (
    CATALOG,
    DEGENERATE_MODELS,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    SigmaReport,
    engel_certificate,
    growth_vector,
    load_pair,
    resolve_model,
    sigma_check,
)
from .endpoint import (
    AdjointRecord,
    ControlPath,
    JacobianResult,
    SardReport,
    SingularVerdict,
    adjoint_transport,
    bryant_hsu_test,
    char_control,
    classify_statistic,
    endpoint_jacobian,
    horizontal_integrate,
    sard_sample,
    singular_score,
)
from .flow import (
    SurfaceSample,
    Trajectory,
    conserved_drift,
    integrate,
    lie_derivative,
    singular_surface,
)
from .poly import Point4, SparsePoly, random_poly

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CORRECTED",
    "DEGENERATE_MODELS",
    "ORACLE",
    "PRINTED",
    "AdjointRecord",
    "CharCoefficients",
    "CharCovector",
    "ControlPath",
    "CrossCheckReport",
    "GrowthVector",
    "JacobianResult",
    "PfaffianPair",
    "Point4",
    "PolyVectorField",
    "SardReport",
    "SigmaReport",
    "SingularVerdict",
    "SparsePoly",
    "SurfaceSample",
    "Trajectory",
    "adjoint_transport",
    "bryant_hsu_test",
    "char_control",
    "char_covector",
    "char_field",
    "classify_statistic",
    "coefficients",
    "coeffs_corrected",
    "coeffs_oracle",
    "coeffs_printed",
    "conserved_drift",
    "cross_check",
    "endpoint_jacobian",
    "engel_certificate",
    "growth_vector",
    "horizontal_integrate",
    "integrate",
    "lie_derivative",
    "load_pair",
    "random_poly",
    "resolve_model",
    "sard_sample",
    "sigma_check",
    "singular_score",
    "singular_surface",
    "__version__",
]
