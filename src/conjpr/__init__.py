"""Conjugate phase retrieval by real frames.

Certifies whether a frame of measurement vectors recovers complex signals
up to global phase and coordinate-wise conjugation, reconstructs signals
from magnitude-squared measurements through the real phase-lift, and
synthesizes explicit counterexample pairs when retrieval fails.
"""

from .algebra import (
    DEFAULT_TOL,
    canonical_rep,
    conj_class_distance,
    conj_equivalent,
    im_products,
    is_phased_real,
    phase_equivalent,
    real_lift,
)
from .certify import (
    Certificate,
    StrictReport,
    certify,
    complement_property,
    falsify_exact,
    falsify_search,
    im_gram,
    kernel_basis,
    strict_report,
)
from .errors import (
    CprError,
    DefiniteInputError,
    DimensionMismatchError,
    FileFormatError,
    IndefinitenessViolationError,
    NoKernelError,
    NotPSDError,
    UnderdeterminedError,
    ValidationError,
    WrongDimensionError,
)
from .frames_io import (
    ComplexFrame,
    Measurement,
    RealFrame,
    frame_bounds,
    generic_cpr_size,
    random_frame,
    rng_stream,
)
from .lift import (
    apply_lift,
    devectorize,
    lift_dim,
    measure,
    numeric_rank,
    omega,
    omega_matrix,
    vectorize,
)
from .reconstruct import (
    ReconstructionResult,
    factor_rank2,
    rank2_psd_project,
    reconstruct_altproj,
    reconstruct_linear,
    residual,
)
from .witness import (
    WitnessPair,
    cone_frame,
    witness_general,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Certificate",
    "ComplexFrame",
    "CprError",
    "DefiniteInputError",
    "DimensionMismatchError",
    "FileFormatError",
    "IndefinitenessViolationError",
    "Measurement",
    "NoKernelError",
    "NotPSDError",
    "RealFrame",
    "ReconstructionResult",
    "StrictReport",
    "UnderdeterminedError",
    "ValidationError",
    "WitnessPair",
    "WrongDimensionError",
    "apply_lift",
    "canonical_rep",
    "certify",
    "complement_property",
    "cone_frame",
    "conj_class_distance",
    "conj_equivalent",
    "devectorize",
    "factor_rank2",
    "falsify_exact",
    "falsify_search",
    "frame_bounds",
    "generic_cpr_size",
    "im_gram",
    "im_products",
    "is_phased_real",
    "kernel_basis",
    "lift_dim",
    "measure",
    "numeric_rank",
    "omega",
    "omega_matrix",
    "phase_equivalent",
    "random_frame",
    "rank2_psd_project",
    "real_lift",
    "reconstruct_altproj",
    "reconstruct_linear",
    "residual",
    "rng_stream",
    "strict_report",
    "vectorize",
    "witness_general",
]
