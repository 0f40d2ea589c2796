"""Numerical Weyl theory for 2x2 canonical systems J u' + q u = lam w u
with matrix-measure coefficients (AC densities plus Dirac atoms).

Capabilities: balanced propagation across atoms, the tau function,
Weyl disks and half planes at finite truncation, endpoint limit trends,
definiteness and deficiency indices, a closed-form example catalog, an
independent fixed-step oracle, and a CLI (``weyl-canon``).
"""

from .catalog import ClosedFormRecord, builtin_example, catalog_names
from .classify import (
    ClassificationReport,
    ClassifyConfig,
    DiskTrace,
    Verdict,
    all_solutions_l2,
    default_c_grid,
    deficiency_indices,
    definiteness,
    detect_limit,
    trace_disks,
)
from .errors import (
    BadPointError,
    DegenerateHalfPlaneError,
    DegenerateUError,
    ExpressionDomainError,
    ExpressionSyntaxError,
    InconclusiveError,
    IntegrationFailureError,
    NonRealResultError,
    SchemaError,
    SingularBackwardJumpError,
    SingularForwardJumpError,
    UnknownExampleError,
    UnknownIdentifierError,
    UnknownQuantityError,
    ValidationError,
    WeylCanonError,
)
from .expressions import Expr, compile_expr, eval_expr, parse_expr, to_source
from .measures import (
    Atom,
    CoefficientMeasure,
    Problem,
    ScalarAtom,
    SLProblem,
    parse_problem,
    serialize_problem,
    sl_to_canonical,
)
from .oracle import OracleConfig, closed_form_eval, compare_propagators, fixed_step_propagate
from .propagation import (
    BadPointReport,
    FundamentalMatrix,
    J,
    JumpDichotomy,
    JumpPair,
    KernelGram,
    bad_points,
    eta_solution,
    evolve_ac,
    fundamental_matrix,
    jump_matrices,
    kernel_gram,
    real_jump_dichotomy,
    rotation,
    transfer_across_atom,
)
from .weyl import (
    M_INFINITY,
    NormValue,
    TauSample,
    WeylDisk,
    WeylHalfPlane,
    conjugate_fundamental,
    conjugate_solution,
    det_noise_ratio,
    m_alt,
    m_from_boundary,
    norm_lagrange,
    norm_quadrature,
    null_norm_tolerance,
    radius_identity_residual,
    solution_norm_sq,
    tau,
    tau_profile,
    weyl_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
