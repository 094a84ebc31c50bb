"""Constructive geometry of matricial ranges.

The results implemented here all have the same shape: a membership or a
star-shapedness statement whose proof is an explicit witness assembly.  The
module makes each assembly executable.

* star centers: a simultaneous scalar compression at a deep enough level
  (p q (m+2) for Hermitian tuples, doubled for complex ones via the
  Cartesian embedding) is a star center of the (p, q) range whenever the
  ambient dimension clears the sufficiency bound (p q (m+2) - 1)(m+1)^2.
* corner compressions: the (p, q) range of any codimension-r corner with
  q r < p sits inside the (p - q r, q) range bump, giving cheap inclusion
  tests; conversely deflation solves inside a corner chosen orthogonal to
  earlier witnesses and their images, so cross terms vanish exactly; a
  family of such blocks is built inside one shrinking corner.
* segment witnesses: two certificates whose witnesses are orthogonal in the
  A-weighted sense combine, with convex square-root weights, into a single
  witness for any point of the connecting segment.
* Tverberg lifts: d = (p-1)(q^2 m + 1) + 1 mutually A-orthogonal level-1
  blocks, read as points of R^(q^2 m), always admit a partition into p parts
  with intersecting hulls (Radon's split for p = 2, Bárány's colorful
  exchange for p >= 3); the matching convex weights assemble a level-p
  witness for the common point.
* essential estimate: the closures of the (r, q) ranges shrink, as r grows,
  onto a compact convex limit independent of p; truncating the intersection
  at r_max and reading it through a fixed direction set gives a convergent
  outer summary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .feasibility import (
    Certificate,
    MatPoint,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    certify,
    compose_certificate,
    sample_range,
    solve_free,
)
from .linalg import (
    DimensionError,
    Isometry,
    ISO_TOL,
    as_tuple,
    compress,
    frob,
    random_isometry,
)
from .tverberg import PartitionResult, tverberg_partition


class DeflationError(RuntimeError):
    """A stage of an orthogonal family construction failed its solve."""

    def __init__(self, stage: int, rejection: Rejection):
        self.stage = stage
        self.rejection = rejection
        super().__init__(
            f"stage {stage} failed: best residual {rejection.best_residual:.3e} "
            f"after {rejection.restarts} restarts"
        )


# the largest cross term ||X_b* X_c|| or ||X_b* A_j X_c|| segment_witness accepts
CROSS_TOL = 1e-8


class CrossOrthogonalityError(ValueError):
    """Witnesses are too far from A-orthogonal to combine directly."""


def random_corner(n: int, r: int, seed: int) -> Isometry:
    """Haar-random corner of codimension r in dimension n, as the isometry
    onto its n - r dimensional subspace; compress(A, corner) is the corner
    compression."""
    if not 0 <= r < n:
        raise DimensionError(f"need 0 <= r < n, got r={r}, n={n}")
    U = random_isometry(n, n, seed)
    return Isometry(U.mat[:, r:])


def annihilating_corner(F) -> Isometry:
    """A corner on which every member of a finite-rank tuple vanishes.

    The corner is an orthonormal basis of the orthogonal complement of
    the combined column span of the F_j, so Y* F_j Y = 0 identically and the
    corner compressions of A and of A + F coincide.
    """
    F = as_tuple(F)
    if F.n == 0:
        raise DimensionError("an annihilating corner needs matrices of size n >= 1")
    # the columns of F_1, ..., F_m side by side
    U, s, _ = np.linalg.svd(F.mats.transpose(1, 0, 2).reshape(F.n, -1), full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1.0)))
    return Isometry(U[:, rank:])


@dataclass(frozen=True)
class StarCenter:
    """A certified center candidate together with its two certificates.

    `certificate` is the full-strength one (level p q (m+2) scalar
    compression, or level p-tilde for matrix centers); `restricted` is its
    truncation to the first p q witness columns, certifying the center as an
    ordinary point of the (p, q) range.
    """

    center: MatPoint
    p: int
    q: int
    certificate: Certificate
    restricted: Certificate


def _restrict_certificate(A, cert: Certificate, p: int,
                          center: MatPoint) -> Certificate:
    """Certify center at level p by the first p q columns of cert's witness."""
    return certify(A, Isometry(cert.witness.mat[:, : p * center.q], tol=cert.witness.tol),
                   p, center)


def star_center_scalar(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Scalar star-center candidate of the (p, q) range of a Hermitian tuple.

    Solves for (c_1, ..., c_m) with a simultaneous scalar compression at
    level k = p q (m + 2) and lifts it to the point (c_1 I_q, ..., c_m I_q).
    Any such point is a star center once the ambient dimension reaches
    (k - 1)(m + 1)^2; below that the construction still runs but a warning
    flags that star-shapedness is no longer guaranteed.
    """
    A = as_tuple(A)
    k = p * q * (A.m + 2)
    if k > A.n:
        raise StructuralInfeasibility(
            f"scalar compression level k = {k} exceeds the tuple dimension {A.n}"
        )
    bound = (k - 1) * (A.m + 1) ** 2
    if A.n < bound:
        warnings.warn(
            f"dimension {A.n} is below the star-center guarantee {bound}; "
            "the returned point may fail to be a center",
            stacklevel=2,
        )
    out = solve_free(A, k, 1, opts)
    if isinstance(out, Rejection):
        return out
    center = MatPoint.scalar(out.point.scalar_values(), q)
    return StarCenter(center=center, p=p, q=q, certificate=out,
                      restricted=_restrict_certificate(A, out, p, center))


def star_center_matrix(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Matrix star-center candidate: any point of the (p~, q) range with
    p~ = p (q^2 (m + 1) + 1) is a (generally non-scalar) star center of the
    (p, q) range in large enough dimension."""
    A = as_tuple(A)
    p_deep = p * (q * q * (A.m + 1) + 1)
    if p_deep * q > A.n:
        raise StructuralInfeasibility(
            f"deep level p~ q = {p_deep * q} exceeds the tuple dimension {A.n}"
        )
    bound = (p_deep * q - 1) * (A.m + 1) ** 2
    if A.n < bound:
        warnings.warn(
            f"dimension {A.n} is below the matrix-center guarantee {bound}",
            stacklevel=2,
        )
    out = solve_free(A, p_deep, q, opts)
    if isinstance(out, Rejection):
        return out
    return StarCenter(center=out.point, p=p, q=q, certificate=out,
                      restricted=_restrict_certificate(A, out, p, out.point))


def segment_witness(A, cert_b: Certificate, cert_c: Certificate, t: float) -> Certificate:
    """Combine two A-orthogonal witnesses into one for t B + (1 - t) C.

    Requires X_b* X_c and every X_b* A_j X_c to vanish within CROSS_TOL;
    then X_t = sqrt(t) X_b + sqrt(1 - t) X_c certifies the convex
    combination with residual at most t res_b + (1 - t) res_c plus a
    cross-term contribution of order CROSS_TOL.
    """
    A = as_tuple(A)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"need 0 <= t <= 1, got {t}")
    if cert_b.p != cert_c.p or cert_b.q != cert_c.q:
        raise DimensionError("certificates live at different (p, q) levels")
    Xb, Xc = cert_b.witness.mat, cert_c.witness.mat
    if Xb.shape != Xc.shape:
        raise DimensionError("witnesses have different shapes")
    cross = frob(np.conj(Xb.T) @ Xc)
    worst = np.max([cross] + [frob(S) for S in np.conj(Xb.T) @ (A.mats @ Xc)])  # keeps NaN
    if not worst <= CROSS_TOL:
        raise CrossOrthogonalityError(
            f"witness cross terms {worst:.3e} exceed {CROSS_TOL:.1e}; "
            "re-solve the second point with deflated_solve against the first witness"
        )
    Xt = np.sqrt(t) * Xb + np.sqrt(1.0 - t) * Xc
    point = MatPoint(t * cert_b.point.blocks + (1.0 - t) * cert_c.point.blocks)
    defect_bound = max(ISO_TOL, 2.0 * np.sqrt(max(t * (1 - t), 0.0)) * cross
                       + cert_b.witness.tol + cert_c.witness.tol)
    return certify(A, Isometry(Xt, tol=defect_bound), cert_b.p, point)


def deflation_corner(A, prior) -> Isometry:
    """The corner orthogonal to earlier witnesses and their A-images.

    The protected subspace is spanned by the columns of every prior witness
    X_r together with A_j X_r for all j; anything solved in the complement
    then has exactly vanishing cross terms X_r* X_new and X_r* A_j X_new.
    prior is a list of Certificates; [] gives the identity corner.  Returns
    the isometry onto the complement.
    """
    A = as_tuple(A)
    wits = [c.witness for c in prior]
    if not wits:
        return Isometry(np.eye(A.n, dtype=complex))
    if any(W.n != A.n for W in wits):
        raise DimensionError("prior witness dimension does not match the tuple")
    # per witness the columns of X_r, A_1 X_r, ..., A_m X_r side by side
    C = np.hstack([np.concatenate([W.mat[None], A.mats @ W.mat]).transpose(1, 0, 2)
                   .reshape(A.n, -1) for W in wits])
    U, s, _ = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * (s[0] if len(s) else 1.0)))
    return Isometry(U[:, rank:])


def _check_room(n: int, left: int, need: int) -> None:
    """StructuralInfeasibility unless a deflated corner of dimension left,
    in a tuple of dimension n, has room for a solve with need columns."""
    if left < need:
        raise StructuralInfeasibility(
            f"deflation leaves {left} dimensions but the solve needs {need}; "
            f"the tuple dimension must be at least {n - left + need}"
        )


def deflated_solve(A, prior, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Solve for a range point inside the corner deflated past `prior`.

    prior is a list of Certificates, [] for none.
    The returned certificate is composed back up to A, so its witness is
    exactly orthogonal (and A-orthogonal) to every prior witness.
    """
    A = as_tuple(A)
    corner = deflation_corner(A, prior)
    _check_room(A.n, corner.k, p * q)
    out = solve_free(compress(A, corner), p, q, opts)
    if isinstance(out, Rejection):
        return out
    return compose_certificate(A, corner, out)


@dataclass(frozen=True)
class BlockFamily:
    """Mutually A-orthogonal level-1 blocks with their measured cross terms.

    members[r] certifies B^(r) with witness X_r; cross_tol bounds every
    ||X_r* X_s|| and ||X_r* A_j X_s|| for r != s.  Any prefix of the family
    is a family with the same bound.
    """

    q: int
    members: tuple
    cross_tol: float

    def __len__(self) -> int:
        return len(self.members)


def measure_cross(A, witnesses) -> float:
    """The largest ||X_r* X_s|| and ||X_r* A_j X_s|| over pairs r != s.

    One stacked W = [X_1 ... X_d] gives every pair at once: the off-diagonal
    q-by-q blocks of W* W and of each W* A_j W.
    """
    A = as_tuple(A)
    if len(witnesses) < 2:
        return 0.0
    q = witnesses[0].k
    W = np.hstack([X.mat for X in witnesses])
    Wc = np.conj(W.T)
    G = Wc @ np.concatenate([W[None], A.mats @ W])
    d = len(witnesses)
    blocks = np.linalg.norm(G.reshape(A.m + 1, d, q, d, q), axis=(2, 4))
    return float(np.max(blocks[:, ~np.eye(d, dtype=bool)]))


def orthogonal_block_family(A, q: int, d: int,
                            opts: SolverOptions = SolverOptions()) -> BlockFamily:
    """Build d mutually A-orthogonal blocks by successive deflated solves.

    Stage s solves on inner = Y* A Y, Y spanning the complement of every
    earlier witness and its A-images, and composes the result up to A.  Y
    then shrinks by the complement of x and inner_j x in corner coordinates:
    the same subspace as the complement taken in C^n, at the corner's cost.

    Each stage lands wherever its corner solve does.  A stage failure raises
    DeflationError with the stage index.
    """
    A = as_tuple(A)
    inner, Y = A, None
    members = []
    for stage in range(d):
        _check_room(A.n, inner.n, q)
        sub = opts.replace(seed=opts.seed + 7919 * stage)
        out = solve_free(inner, 1, q, sub)
        if isinstance(out, Rejection):
            raise DeflationError(stage, out)
        members.append(out if Y is None else compose_certificate(A, Y, out))
        if stage < d - 1:
            Z = deflation_corner(inner, [out])
            inner = compress(inner, Z)
            Y = Z if Y is None else Isometry(Y.mat @ Z.mat)
    cross = measure_cross(A, [c.witness for c in members])
    return BlockFamily(q=q, members=tuple(members), cross_tol=cross)


@dataclass(frozen=True)
class TverbergLift:
    """A level-p certificate assembled from a Tverberg partition of level-1
    blocks, with the ingredients kept for inspection."""

    certificate: Certificate
    family: BlockFamily
    partition: PartitionResult


def tverberg_lift(A, q: int, p: int, opts: SolverOptions = SolverOptions()) -> TverbergLift:
    """Certify a point of the (p, q) range out of level-1 data only.

    Builds d = (p - 1)(q^2 m + 1) + 1 A-orthogonal blocks, flattens them to
    points of R^(q^2 m), takes a Tverberg partition into p parts with a
    common hull point C, and assembles the witness whose ell-th column block
    is sum over the ell-th part of sqrt(weight) X_r.  Orthogonality of the
    family makes the assembled compression exactly block diagonal with every
    diagonal block equal to C.
    """
    A = as_tuple(A)
    D = q * q * A.m
    d = (p - 1) * (D + 1) + 1
    need = d * q * (A.m + 1) + q
    if A.n < need:
        raise StructuralInfeasibility(
            f"lift needs d = {d} deflated blocks, so dimension at least {need}, got {A.n}"
        )
    family = orthogonal_block_family(A, q, d, opts)
    pts = np.array([c.point.flatten() for c in family.members])
    part = tverberg_partition(pts, p)
    C = MatPoint.unflatten(part.common_point, A.m, q)
    wits = np.stack([c.witness.mat for c in family.members])
    # column block ell sums sqrt(w_r) X_r over part ell, in part order
    X = np.hstack([np.sum(np.sqrt(w)[:, None, None] * wits[list(rs)], axis=0, initial=0.0)
                   for w, rs in zip(part.weights, part.parts)])
    cert = certify(A, Isometry(X, tol=max(ISO_TOL, d * family.cross_tol + 1e-12)), p, C)
    return TverbergLift(certificate=cert, family=family, partition=part)


# ---------------------------------------------------------------------------
# essential range estimation


def direction_set(dim: int, count: int = 64) -> np.ndarray:
    """A fixed, deterministic, well-spread set of unit directions in R^dim.

    Dimension one gets exactly the two directions that exist and dimension
    two `count` equispaced angles.  Higher dimensions get normalized Gaussian
    rows from a generator seeded by (dim, count).
    """
    if dim < 1:
        raise DimensionError("direction set needs dim >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    G = np.random.default_rng([dim, count]).standard_normal((count, dim))
    return G / np.linalg.norm(G, axis=1, keepdims=True)


@dataclass(frozen=True)
class EssentialEstimate:
    """Truncated-intersection estimate of the essential (p, q) range.

    supports[r-1, k] is the largest <direction_k, x> over the level-r cloud;
    intersection[r-1, k] is the running minimum over levels up to r, the
    support reading of the intersection of the sampled ranges.  The cloud at
    level r is kept for inspection.  failed_r marks the first level whose
    cloud came back empty (the summary then stops just below it).
    """

    q: int
    directions: np.ndarray
    supports: np.ndarray
    intersection: np.ndarray
    clouds: tuple
    failed_r: int | None = None

    @property
    def r_max(self) -> int:
        return self.supports.shape[0]

    def interval(self) -> tuple[float, float]:
        """The [lo, hi] reading when the flattened dimension is one."""
        if self.directions.shape[1] != 1:
            raise DimensionError("interval reading needs flattened dimension 1")
        u, last = self.directions[:, 0], self.intersection[-1]
        return float(-last[u <= 0][-1]), float(last[u > 0][-1])


def essential_estimate(A, q: int, r_max: int,
                       opts: SolverOptions = SolverOptions(),
                       n_dirs: int = 64, n_free: int = 4) -> EssentialEstimate:
    """Estimate the essential (p, q) range by truncated intersection.

    For r = 1..r_max, sample the (r, q) range with one support-directed
    solve per fixed direction plus n_free free solves, then summarize each
    level by its directional maxima and intersect by running minima.  The
    reported per-level summary is nonincreasing in r by construction, which
    matches the shrinking-closure picture it estimates.
    """
    A = as_tuple(A)
    if n_dirs < 1:
        raise DimensionError(f"need n_dirs >= 1, got {n_dirs}")
    if n_free < 0:
        raise DimensionError(f"need n_free >= 0, got {n_free}")
    if r_max * q > A.n // 2:
        raise StructuralInfeasibility(
            f"truncation depth r_max*q = {r_max * q} exceeds n/2 = {A.n // 2}; "
            "deeper levels of a fixed finite tuple stop being informative"
        )
    dims = A.m * q * q
    dirs = direction_set(dims, n_dirs)
    supports = []
    clouds = []
    failed_r = None
    for r in range(1, r_max + 1):
        sub = opts.replace(seed=opts.seed + 7919 * r)
        cloud = sample_range(A, r, q, n_free, sub, directions=dirs)
        if len(cloud) == 0:
            failed_r = r
            break
        clouds.append(cloud)
        supports.append(np.max(cloud.coords @ dirs.T, axis=0))
    if not supports:
        raise RuntimeError(f"no level produced any accepted point (first failure r={failed_r})")
    S = np.array(supports)
    inter = np.minimum.accumulate(S, axis=0)
    return EssentialEstimate(q=q, directions=dirs, supports=S,
                             intersection=inter, clouds=tuple(clouds),
                             failed_r=failed_r)
