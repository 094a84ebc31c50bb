"""Constructive geometry of matricial ranges.

The results implemented here all have the same shape: a membership or a
star-shapedness statement whose proof is an explicit witness assembly.  The
module makes each assembly executable.

* star centers: a simultaneous scalar compression at level k = p q (m+2)
  is a star center of the (p, q) range: for any point B, center_for finds
  its witness in span(X_C), orthogonal to X_B and every A_j X_B.  The bound
  (k - 1)(m+1)^2 on the dimension only guarantees that such a center exists.
* corner compressions: the (p, q) range sits inside the (p - q r, q) range
  of any codimension-r corner with q r < p, witness by witness
  (corner_certificate); conversely deflation solves inside a corner chosen
  orthogonal to earlier witnesses and their images, so cross terms vanish
  exactly; the Tverberg blocks are level-1 Haar blocks checked on A itself,
  each drawn off an orthonormal basis of the span the earlier ones protect.
  Every complement here takes one rank cut, _rank's: _complement's full
  SVD and the family's thin ones alike.
* segment witnesses: two certificates whose witnesses are orthogonal in the
  A-weighted sense combine, with convex square-root weights, into a single
  witness for any point of the connecting segment.
* Tverberg lifts: d = (p-1)(q^2 m + 1) + 1 mutually A-orthogonal level-1
  blocks, read as points of R^(q^2 m), always admit a partition into p parts
  with intersecting hulls (Radon's split for p = 2, Bárány's colorful
  exchange for p >= 3); the matching convex weights assemble a level-p
  witness for the common point.
* essential estimate: the closures of the (r, q) ranges shrink, as r grows,
  onto a compact convex limit independent of p; the estimate truncates the
  intersection at r_max and reads supports through a fixed direction set.
  For one matrix each level's supports are exact: I_r (x) B is a
  compression of A exactly when its spectrum interlaces A's, and
  interlacing_support builds the witness; for m >= 2 they are sampled
  lower bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .feasibility import (
    SUPPORT_RESTARTS,
    Certificate,
    MatPoint,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    _residual,
    certify,
    compose_certificate,
    flatten_blocks,
    sample_range,
    solve_free,
    unflatten_blocks,
)
from .linalg import (
    DimensionError,
    Isometry,
    ISO_TOL,
    _qr_fix,
    as_tuple,
    compress,
    frob,
    herm_eig,
    hermitian_stack,
    random_isometry,
)
from .tverberg import PartitionResult, tverberg_partition


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


def _rank(s: np.ndarray) -> int:
    """The rank cut: how many singular values s count as nonzero, those
    above 1e-10 max(1, s_0)."""
    return int(np.sum(s > 1e-10 * np.max(s, initial=1.0)))


def _complement(C: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of range(C), past _rank's cut."""
    U, s, _ = np.linalg.svd(C, full_matrices=True)
    return U[:, _rank(s):]


def _with_images(X: np.ndarray, AX: np.ndarray) -> np.ndarray:
    """The columns of X, A_1 X, ..., A_m X side by side, from AX = A.mats @ X."""
    return np.concatenate([X[None], AX]).transpose(1, 0, 2).reshape(X.shape[0], -1)


def _project_off(Z: np.ndarray, M: np.ndarray) -> np.ndarray:
    """M less its part in range(Z), Z with orthonormal columns.  Two passes:
    cancellation can leave one pass's output far from orthogonal to Z, and
    a second pass restores orthogonality to rounding ("twice is enough")."""
    for _ in range(2):
        M = M - Z @ (np.conj(Z.T) @ M)
    return M


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
    return Isometry(_complement(F.mats.transpose(1, 0, 2).reshape(F.n, -1)))


@dataclass(frozen=True)
class StarCenter:
    """A certified star center together with its two certificates.

    `certificate` is the full-strength one (level p q (m+2) scalar
    compression, or level p-tilde for matrix centers); `restricted` is its
    truncation to the first p q witness columns, certifying the center as an
    ordinary point of the (p, q) range.
    """

    center: MatPoint
    certificate: Certificate
    restricted: Certificate


def _restrict_certificate(A, cert: Certificate, p: int,
                          center: MatPoint) -> Certificate:
    """Certify center at level p by the first p q columns of cert's witness."""
    return certify(A, Isometry(cert.witness.mat[:, : p * center.q], tol=cert.witness.tol),
                   p, center)


def _solve_center(A, level: int, q: int, kind: str, what: str, opts: SolverOptions):
    """The free solve at (level, q) behind a star center.  StructuralInfeasibility
    when its witness is wider than the tuple; a warning below the dimension
    (level q - 1)(m + 1)^2 that guarantees the solve a solution."""
    if level * q > A.n:
        raise StructuralInfeasibility(f"{what} exceeds the tuple dimension {A.n}")
    bound = (level * q - 1) * (A.m + 1) ** 2
    if A.n < bound:
        warnings.warn(f"dimension {A.n} is below the {kind}-center guarantee {bound}; a center "
                      "need not exist, though any certified one is a center", stacklevel=3)
    return solve_free(A, level, q, opts)


def star_center_scalar(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Scalar star center of the (p, q) range of a Hermitian tuple.

    Solves for (c_1, ..., c_m) with a simultaneous scalar compression at
    level k = p q (m + 2) and lifts it to the point (c_1 I_q, ..., c_m I_q).
    Any such point is a star center (see center_for); one is guaranteed to
    exist once the ambient dimension reaches (k - 1)(m + 1)^2.
    """
    A = as_tuple(A)
    k = p * q * (A.m + 2)
    out = _solve_center(A, k, 1, "star", f"scalar compression level k = {k}", opts)
    if isinstance(out, Rejection):
        return out
    center = MatPoint.scalar(out.point.scalar_values(), q)
    return StarCenter(center=center, certificate=out,
                      restricted=_restrict_certificate(A, out, p, center))


def star_center_matrix(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Matrix star center: any point of the (p~, q) range with
    p~ = p (q^2 (m + 1) + 1) is a (generally non-scalar) star center of the
    (p, q) range; large enough dimension guarantees that one exists."""
    A = as_tuple(A)
    p_deep = p * (q * q * (A.m + 1) + 1)
    out = _solve_center(A, p_deep, q, "matrix", f"deep level p~ q = {p_deep * q}", opts)
    if isinstance(out, Rejection):
        return out
    return StarCenter(center=out.point, certificate=out,
                      restricted=_restrict_certificate(A, out, p, out.point))


def _block_null(X: np.ndarray, p: int, q: int, G: np.ndarray, keep: int) -> np.ndarray:
    """X (W (x) I_q), W the last keep right singular vectors of the conditions
    G (..., p q) on X's columns, read as conditions on X's p block weights."""
    M = G.reshape(-1, p, q).transpose(0, 2, 1).reshape(-1, p)
    W = np.conj(np.linalg.svd(M)[2][p - keep:].T)
    return X @ np.kron(W, np.eye(q))


def center_for(A, star: StarCenter, cert_b: Certificate) -> Certificate:
    """Certify star.center at cert_b's level by V = X_C (W (x) I), orthogonal
    to X_b and every A_j X_b, for a star built at cert_b's (p, q).  W spans
    the null space of those (m+1) p q q_C conditions on the p_C block weights
    of X_C; counting gives it the p q / q_C columns that V needs."""
    A = as_tuple(A)
    X, p_c, q_c = star.certificate.witness, star.certificate.p, star.certificate.q
    Xb = cert_b.witness.mat
    G = np.conj(np.concatenate([Xb[None], A.mats @ Xb]).transpose(0, 2, 1)) @ X.mat
    V = _block_null(X.mat, p_c, q_c, G, Xb.shape[1] // q_c)
    return certify(A, Isometry(V, tol=X.tol), cert_b.p, star.center)


def corner_certificate(A, cert: Certificate, corner: Isometry) -> Certificate:
    """Certify cert's point at level p - q r on Y* A Y, Y = corner of
    codimension r with q r < p: the conditions (I - Y Y*) X (W (x) I) = 0
    have rank at most q r, so V = X (W (x) I) lies in range(Y), and Y* V
    certifies the point with residual at most cert's."""
    X, Y, p, q = cert.witness, corner.mat, cert.p, cert.q
    low = p - q * (X.n - corner.k)
    V = _block_null(X.mat, p, q, X.mat - Y @ (np.conj(Y.T) @ X.mat), low)
    return certify(compress(A, corner), Isometry(np.conj(Y.T) @ V, tol=X.tol), low, cert.point)


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
    if not prior:
        return Isometry(np.eye(A.n, dtype=complex))
    if any(c.witness.n != A.n for c in prior):
        raise DimensionError("prior witness dimension does not match the tuple")
    return Isometry(_complement(np.hstack([_with_images(X, A.mats @ X)
                                           for X in (c.witness.mat for c in prior)])))


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

    Block r is stored in stacks: its witness X_r = witnesses[r] (n by q),
    its point B^(r) = points[r] (m, q, q) and its residual residuals[r].
    members[r] certifies B^(r) with X_r; the Certificates are built, and
    validated, when members is first read.  cross_tol bounds every
    ||X_r* X_s|| and ||X_r* A_j X_s|| for r != s.  Any prefix of the family
    is a family with the same bound.
    """

    q: int
    witnesses: np.ndarray
    points: np.ndarray
    residuals: np.ndarray
    cross_tol: float

    def __len__(self) -> int:
        return len(self.residuals)

    @cached_property
    def members(self) -> tuple:
        return tuple(Certificate(point=MatPoint(B), p=1, witness=Isometry(X), residual=float(r))
                     for X, B, r in zip(self.witnesses, self.points, self.residuals))


def measure_cross(A, witnesses) -> float:
    """The largest ||X_r* X_s|| and ||X_r* A_j X_s|| over pairs r != s.

    witnesses is a (d, n, q) stack or a sequence of Isometries.  One W =
    [X_1 ... X_d] gives every pair at once: the off-diagonal q-by-q blocks
    of W* W and of each W* A_j W.
    """
    A = as_tuple(A)
    if len(witnesses) < 2:
        return 0.0
    X = np.stack([getattr(w, "mat", w) for w in witnesses])
    d, n, q = X.shape
    W = X.transpose(1, 0, 2).reshape(n, d * q)
    G = np.conj(W.T) @ np.concatenate([W[None], A.mats @ W])
    blocks = np.linalg.norm(G.reshape(A.m + 1, d, q, d, q), axis=(2, 4))
    return float(np.max(blocks[:, ~np.eye(d, dtype=bool)]))


def orthogonal_block_family(A, q: int, d: int, opts: SolverOptions = SolverOptions()):
    """Build d mutually A-orthogonal level-1 blocks, no solve needed.

    Z is an orthonormal basis of the protected span, every earlier X_r and
    A_j X_r, empty at first.  Stage s draws an n-by-q complex Gaussian from
    one generator seeded opts.seed, projects it off Z and retracts it to X,
    a Haar isometry into the complement of Z; it checks X at level 1 from
    X* A X, then appends to Z the left singular vectors of [X, A_1 X, ...,
    A_m X] projected off Z that pass _rank's cut.  Stage s draws after
    stages 0..s-1 alone, so the first k blocks of any family are the size-k
    family's, bit for bit.

    A block above opts.accept_tol (the rounding of a huge-norm tuple) is
    returned as a Rejection carrying its stage s.  The finished stacks are
    checked in one pass: every witness an isometry to ISO_TOL, every point
    Hermitian.
    """
    A = as_tuple(A)
    if q < 1 or d < 1:
        raise DimensionError(f"need q >= 1 and d >= 1, got q={q}, d={d}")
    rng = np.random.default_rng(opts.seed)
    X = np.empty((d, A.n, q), dtype=complex)
    B = np.empty((d, A.m, q, q), dtype=complex)
    res = np.empty(d)
    Z = np.empty((A.n, 0), dtype=complex)
    for s in range(d):
        _check_room(A.n, A.n - Z.shape[1], q)
        X[s] = _qr_fix(_project_off(Z, rng.standard_normal((A.n, 2 * q)).view(complex)))
        AX = A.mats @ X[s]
        res[s], B[s] = _residual(np.conj(X[s].T) @ AX, 1, q)
        if not res[s] <= opts.accept_tol:
            return Rejection(float(res[s]), 1, "block above accept_tol", stage=s)
        if s < d - 1:  # the last block shields nothing after it
            U, sv, _ = np.linalg.svd(_project_off(Z, _with_images(X[s], AX)),
                                     full_matrices=False)
            Z = np.hstack([Z, U[:, :_rank(sv)]])
    defect = np.linalg.norm(np.conj(X.transpose(0, 2, 1)) @ X - np.eye(q), axis=(1, 2))
    if not (defect <= ISO_TOL).all():
        raise DimensionError(f"block isometry defect {np.max(defect):.3e} exceeds {ISO_TOL:.1e}")
    hermitian_stack(B.reshape(-1, q, q), "block")
    return BlockFamily(q=q, witnesses=X, points=B, residuals=res,
                       cross_tol=measure_cross(A, X))


@dataclass(frozen=True)
class TverbergLift:
    """A level-p certificate assembled from a Tverberg partition of level-1
    blocks, with the ingredients kept for inspection."""

    certificate: Certificate
    family: BlockFamily
    partition: PartitionResult


def tverberg_lift(A, q: int, p: int, opts: SolverOptions = SolverOptions()):
    """Certify a point of the (p, q) range out of level-1 data only.

    Builds d = (p - 1)(q^2 m + 1) + 1 A-orthogonal blocks, flattens them to
    points of R^(q^2 m), takes a Tverberg partition into p parts with a
    common hull point C, and assembles the witness whose ell-th column block
    is sum over the ell-th part of sqrt(weight) X_r.  Orthogonality of the
    family makes the assembled compression exactly block diagonal with every
    diagonal block equal to C.  A failed stage is returned as a Rejection:
    the family's at its block s < d, or stage d for a lift above accept_tol.
    The family alone decides the room: each block shields at most (m + 1)q
    dimensions from the next, so n >= (d - 1)(m + 1)q + q always suffices.
    """
    A = as_tuple(A)
    if p < 1 or q < 1:
        raise DimensionError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    d = (p - 1) * (q * q * A.m + 1) + 1
    family = orthogonal_block_family(A, q, d, opts)
    if isinstance(family, Rejection):
        return family
    part = tverberg_partition(flatten_blocks(family.points.reshape(-1, q, q)).reshape(d, -1), p)
    C = MatPoint.unflatten(part.common_point, A.m, q)
    wits = family.witnesses
    # column block ell sums sqrt(w_r) X_r over part ell, in part order
    X = np.hstack([np.sum(np.sqrt(w)[:, None, None] * wits[list(rs)], axis=0, initial=0.0)
                   for w, rs in zip(part.weights, part.parts)])
    cert = certify(A, Isometry(X, tol=max(ISO_TOL, d * family.cross_tol + 1e-12)), p, C)
    if not cert.residual <= opts.accept_tol:
        return Rejection(cert.residual, 1, "assembled lift above accept_tol", stage=d)
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


def interlacing_support(A, r: int, q: int, u, eig=None) -> Certificate:
    """The exact support of the (r, q) range of one Hermitian matrix along
    the flattened direction u, certified by construction.

    I_r (x) B compresses A exactly when its spectrum interlaces A's
    (Cauchy; Fan and Pall for the converse), so with U = W diag(nu) W*,
    nu descending, the support is sum nu_a beta_a at B = W diag(beta) W*,
    beta_a = lambda_(a r) where nu_a >= 0 and lambda_(n - r q + (a-1) r + 1)
    otherwise.  Column i = (a-1) r + s of the witness mixes v_i and
    v_(n - r q + i) to Rayleigh quotient beta_a; block s of q columns is
    then rotated by W*.  The certificate's point is the best block of
    X* A X, B up to rounding.  Needs m = 1 and 2 r q <= n, so the two index
    sets are disjoint; eig is herm_eig(A_1) when the caller already has it.
    """
    A = as_tuple(A)
    n, k = A.n, r * q
    if A.m != 1 or r < 1 or 2 * k > n:
        raise DimensionError(f"need m = 1 and 2 r q <= n, got m={A.m}, r={r}, q={q}, n={n}")
    lam, V = herm_eig(A.mats[0]) if eig is None else eig
    nu, W = herm_eig(unflatten_blocks(u, 1, q)[0])
    a = r * np.arange(q)
    beta = np.where(nu >= 0, lam[a + r - 1], lam[n - k + a])
    hi, lo, t = lam[:k], lam[n - k:], np.repeat(beta, r)
    gap = hi - lo
    c2 = np.clip(np.divide(t - lo, gap, out=np.ones(k), where=gap > 0), 0.0, 1.0)
    Y = V[:, :k] * np.sqrt(c2) + V[:, n - k:] * np.sqrt(1.0 - c2)
    X = (Y.reshape(n, q, r).transpose(0, 2, 1) @ np.conj(W.T)).reshape(n, k)
    return certify(A, Isometry(X), r)


@dataclass(frozen=True)
class EssentialEstimate:
    """Truncated-intersection estimate of the essential (p, q) range.

    supports[r-1, k] is the largest <direction_k, x> over the level-r
    certificates.  At m = 1 it is the exact level-r support, built by
    interlacing_support, unless a free sample sits up to its residual beyond
    it; at m >= 2, and for a direction whose construction misses accept_tol
    by rounding at a huge norm, it is a sampled lower bound.
    intersection[r-1, k] is the running minimum over levels up to r, the
    support reading of the intersection of the ranges.  failed_r is the
    first level that certified nothing; the summary stops below it.
    """

    q: int
    directions: np.ndarray
    supports: np.ndarray
    intersection: np.ndarray
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
                       n_dirs: int = 64, n_free: int = 4):
    """Estimate the essential (p, q) range by truncated intersection.

    For r = 1..r_max, certify one support point of the (r, q) range per
    fixed direction plus n_free free solves, then summarize each level by
    its directional maxima and intersect by running minima.  At m = 1 the
    support points are exact, built by interlacing from one eigensolve of
    A_1; at m >= 2, and for any direction whose construction misses
    accept_tol, each is a support-directed solve.  A support point is kept
    only at residual <= accept_tol; a first level that keeps none is
    returned as a Rejection at stage 1.  The reported per-level summary is
    nonincreasing in r by construction, which matches the shrinking-closure
    picture it estimates.
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
    if A.m == 1 and not np.isfinite(A.scale()):
        raise DimensionError("tuple norm overflows; rescale it for an essential estimate")
    eig = herm_eig(A.mats[0]) if A.m == 1 else None
    supports = []
    failed_r = None
    for r in range(1, r_max + 1):
        sub = opts.replace(seed=opts.seed + 7919 * r)
        built = [None if eig is None else interlacing_support(A, r, q, u, eig) for u in dirs]
        exact = np.array([c is not None and c.residual <= opts.accept_tol for c in built])
        # the descent chases only the directions that interlacing could not
        # certify to accept_tol: all of them at m >= 2, at m = 1 those whose
        # rounding exceeds it at a huge norm
        cloud = sample_range(A, r, q, n_free, sub, directions=dirs[~exact])
        pts = np.vstack([cloud.coords] + [c.point.flatten() for c, e in zip(built, exact) if e])
        if len(pts) == 0:
            failed_r = r
            break
        supports.append(np.max(pts @ dirs.T, axis=0))
    if not supports:
        return Rejection(np.inf, SUPPORT_RESTARTS, "no point of level 1 passed accept_tol",
                         stage=1)
    S = np.array(supports)
    inter = np.minimum.accumulate(S, axis=0)
    return EssentialEstimate(q=q, directions=dirs, supports=S,
                             intersection=inter, failed_r=failed_r)
