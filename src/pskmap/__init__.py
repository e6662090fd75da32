"""Left-invariant projective special Kahler structures on Lie groups:
verification of the intrinsic equations, an independent cone-level
oracle, numerical candidate discovery, and the c-map to quaternionic
Kahler algebras of dimension 4n+4."""

from .lie import (
    AdaptedBasis,
    LieAlgebra,
    NotExactError,
    PreconditionError,
    closed_one_forms,
    jacobi_residual,
    solve_primitive,
)
from .connection import (
    ConnectionData,
    CurvatureData,
    NotKahlerError,
    bianchi_residual,
    ch_model,
    curvature,
    kahler_check,
    levi_civita,
)
from .intrinsic import (
    PSKCandidate,
    SymTensor3,
    all_residuals,
    build_pq,
    dpq_residual,
    integrability_residual,
    make_candidate,
    rotate,
    torsion_residual,
    tpq_residual,
    wpq_residual,
)
from .cone import (
    ConeAlgebra,
    DSquaredError,
    SpecialCone,
    TrigLaurent,
    cone_coframe,
    cone_lc,
    special_blocks,
    special_cone,
    verify_eta_conditions,
)
from .solver import (
    Geometry,
    ScanResult,
    SolveConfig,
    SolveResult,
    build_geometry,
    certify_gauge_orbit,
    residual_vector,
    scan_curvature,
    solve,
)
from .cmap import (
    NotInvariantError,
    NotPSKError,
    QKStructure,
    TwistFrame,
    build_twist_frame,
    hk_forms,
    qk_algebra,
    qk_verify,
    twist_differential,
)

__version__ = "0.1.0"
