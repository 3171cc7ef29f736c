"""Certified truncation error bounds for block-monotone Markov chains.

The package truncates a level-phase chain by folding all mass beyond a level
into the last kept column block, solves the truncated corner for its
stationary vector, and certifies the total-variation distance to the original
chain's stationary vector using a geometric drift certificate. GI/G/1-type
models get their certificate built automatically from the spectral point of
the block-generating function; coupled simulations exercise the ordering
arguments behind the bounds.
"""

from .block_matrix import (
    BlockStochasticMatrix,
    BlockVector,
    MultipleClosedClassesError,
    PhaseMatrix,
    PhaseStructureError,
    StationarySolveError,
    block_dominates,
    closed_classes,
    is_block_increasing,
    is_block_monotone,
    lcb_truncate,
    phase_matrix,
    stationary,
    transient_distribution,
    tv_distance,
    v_norm_distance,
    vector_dominates,
)
from .coupling import (
    CoupledEnsemble,
    OrderingViolationError,
    level_step,
    phase_step,
    run_coupled_dominance_batch,
    run_coupled_monotone_batch,
)
from .drift_bounds import (
    BoundReport,
    BoundViolationError,
    CertificateCheck,
    DriftCertificate,
    GeometricTail,
    bound_theorem31,
    compare_against_oracle,
    lift_certificate,
    optimize_m,
    verify_certificate,
)
from .gig1 import (
    GIG1DriftData,
    GIG1Model,
    assemble,
    certificate_for_model,
    find_alpha,
    mean_drift,
    perron,
)
from .model_io import (
    ModelSchemaError,
    format_float,
    load_model,
    render_json,
    reports_to_csv,
    reports_to_json,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStochasticMatrix",
    "BlockVector",
    "BoundReport",
    "BoundViolationError",
    "CertificateCheck",
    "CoupledEnsemble",
    "DriftCertificate",
    "GIG1DriftData",
    "GIG1Model",
    "GeometricTail",
    "ModelSchemaError",
    "MultipleClosedClassesError",
    "OrderingViolationError",
    "PhaseMatrix",
    "PhaseStructureError",
    "StationarySolveError",
    "assemble",
    "block_dominates",
    "bound_theorem31",
    "certificate_for_model",
    "closed_classes",
    "compare_against_oracle",
    "find_alpha",
    "format_float",
    "is_block_increasing",
    "is_block_monotone",
    "lcb_truncate",
    "level_step",
    "lift_certificate",
    "load_model",
    "mean_drift",
    "optimize_m",
    "perron",
    "phase_matrix",
    "phase_step",
    "render_json",
    "reports_to_csv",
    "reports_to_json",
    "run_coupled_dominance_batch",
    "run_coupled_monotone_batch",
    "save_model",
    "stationary",
    "transient_distribution",
    "tv_distance",
    "v_norm_distance",
    "vector_dominates",
    "verify_certificate",
]
