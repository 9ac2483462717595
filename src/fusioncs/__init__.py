"""Compressed sensing of subspace-structured block sparse signals."""

from . import bounds, experiments, frames, measurement, rip, signals, solver
from .frames import (
    CoherenceReport,
    FrameBounds,
    SubspaceCollection,
    angle_family,
    build_collection,
    coherence,
    fusion_frame_bounds,
    orthogonal_collection,
    packing_diameter,
    principal_angles,
    random_collection,
    spectral_distance,
)
from .measurement import (
    CoefficientOperator,
    EnsembleSpec,
    MeasurementOperator,
    add_noise,
    adjoint,
    apply,
    compose_with_bases,
    matrix_coherences,
    sample_ensemble,
    scalar_operator,
    vector_operator,
)
from .signals import (
    BlockSignal,
    best_s_term,
    block_norms,
    norm_2,
    norm_21,
    norm_2inf,
    random_sparse_signal,
    support,
    to_ambient,
)
from .solver import (
    CertificateReport,
    RecoverySolution,
    certify,
    closed_form_orthogonal,
    oracle_recover_exhaustive,
    solve_equality,
    solve_noisy,
)

__version__ = "0.1.0"
