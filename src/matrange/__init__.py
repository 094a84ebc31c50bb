"""Generalized numerical ranges of Hermitian matrix tuples, with witnesses.

The library computes classical, joint, rank-k, and matricial numerical
ranges; every claimed membership ships with an explicit isometry whose
compression can be recomputed and checked.  Solvers are heuristic
(Stiefel-manifold descent with restarts), so acceptances are certificates
and rejections are advisory.
"""

from .linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    as_tuple,
    compress,
    coordinate_isometry,
    herm_eig,
    random_isometry,
)
from .ranges import (
    Boundary2D,
    Interval,
    hermitian_embed,
    numrange_boundary,
    rank_k_interval,
)
from .feasibility import (
    Certificate,
    CertificateError,
    MatPoint,
    PointCloud,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    certify,
    compose_certificate,
    membership,
    sample_range,
    solve_free,
    solve_jobs,
    solve_support,
)
from .tverberg import (
    PartitionResult,
    tverberg_partition,
)
from .constructions import (
    BlockFamily,
    CrossOrthogonalityError,
    EssentialEstimate,
    StarCenter,
    TverbergLift,
    annihilating_corner,
    center_for,
    corner_certificate,
    deflated_solve,
    deflation_corner,
    direction_set,
    essential_estimate,
    orthogonal_block_family,
    random_corner,
    segment_witness,
    star_center_matrix,
    star_center_scalar,
    tverberg_lift,
)
from .verify import (
    SuiteReport,
    check_convexity,
    check_corner_inclusions,
    check_nonempty_bounds,
    check_pauli_nonconvexity,
    check_perturbation_equivalence,
    check_star_shaped,
    pauli_tuple,
    planted_star_instance,
    random_hermitian_tuple,
)
from .io import (
    ParseError,
    SchemaError,
    load_certificate,
    load_cloud,
    load_tuple,
    save_tuple,
)

__version__ = "0.1.0"
