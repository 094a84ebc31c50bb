"""Membership solver and certificates for (p, q) matricial ranges.

A q-by-q Hermitian m-tuple B belongs to the (p, q) range of a Hermitian
tuple A when some isometry X with pq columns satisfies X* A_j X = I_p (x) B_j
for every j.  This module certifies such memberships.  The certificate is the
witness X itself together with the achieved residual

    residual = sqrt( sum_j || X* A_j X - I_p (x) B_j ||_F^2 )

which anyone can recompute from the certificate fields alone.

Search runs over the Stiefel manifold of isometries: projected gradient
descent with QR retraction, Barzilai-Borwein step sizes and a nonmonotone
(Zhang-Hager) backtracking line search, as in Wen-Yin (Math. Program. 2013),
restarted from Haar-random starts.  A failed search returns a Rejection
carrying the best residual seen.  Rejections are advisory; the problem is
nonconvex, so they are never proof of non-membership.  Accepted points
should be read as lying in the closed set fattened by accept_tol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    as_tuple,
    herm_defect,
    _inflate,
    _qr_fix,
    random_isometry,
)

# Line search: first step (before a Barzilai-Borwein step exists), shrink
# factor, sufficient-decrease slope against the Zhang-Hager reference value,
# backtrack cap; BB steps are clipped to [BB_MIN, BB_MAX], and the reference
# value averages past objectives with weight NONMONOTONE_ETA
ARMIJO_INIT = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ARMIJO_MAX_BACKTRACKS = 60
BB_MIN = 1e-10
BB_MAX = 1e10
NONMONOTONE_ETA = 0.85
# descent stops when the best objective so far drops less than STAGNATION_TOL
# over STAGNATION_WINDOW accepted steps
STAGNATION_WINDOW = 50
STAGNATION_TOL = 1e-16
SUPPORT_KICK = 1e-5  # tangent kick between support penalty stages
POLISH_ITERS = 20  # Gauss-Newton steps after descent stalls above accept_tol


class StructuralInfeasibility(ValueError):
    """The requested shapes cannot fit: pq > n or the like.

    Distinct from Rejection, which reports a failed numerical search on a
    structurally admissible problem.
    """


class CertificateError(ValueError):
    """A certificate fails re-validation against its own tuple."""


@dataclass(frozen=True)
class MatPoint:
    """An m-tuple of q-by-q Hermitian blocks, a candidate range element."""

    blocks: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.blocks, dtype=complex)
        if B.ndim != 3 or B.shape[1] != B.shape[2]:
            raise DimensionError(f"expected (m, q, q) array, got shape {B.shape}")
        if not np.isfinite(B).all():
            raise DimensionError("blocks must be finite")
        for j in range(B.shape[0]):
            d = herm_defect(B[j])
            if d > 1e-12:
                raise DimensionError(f"block {j} is not Hermitian (relative defect {d:.3e})")
        object.__setattr__(self, "blocks", B)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def q(self) -> int:
        return self.blocks.shape[1]

    @classmethod
    def scalar(cls, values, q: int) -> "MatPoint":
        """The point (v_1 I_q, ..., v_m I_q) from m real values."""
        values = np.asarray(values, dtype=float)
        blocks = np.zeros((len(values), q, q), dtype=complex)
        for j, v in enumerate(values):
            blocks[j] = v * np.eye(q)
        return cls(blocks)

    def scalar_values(self) -> np.ndarray:
        """Real diagonal values when q = 1; errors otherwise."""
        if self.q != 1:
            raise DimensionError(f"scalar_values needs q = 1, got q = {self.q}")
        return np.real(self.blocks[:, 0, 0]).copy()

    def flatten(self) -> np.ndarray:
        """Isometric real coordinates, m*q*q of them.

        Per block: the q real diagonal entries, then for each i < j in
        row-major order the pair (sqrt2 * Re b_ij, sqrt2 * Im b_ij).  The
        euclidean norm of the output equals sqrt(sum_j ||B_j||_F^2).
        """
        return flatten_blocks(self.blocks)

    @classmethod
    def unflatten(cls, vec, m: int, q: int) -> "MatPoint":
        return cls(unflatten_blocks(vec, m, q))

    def distance(self, other: "MatPoint") -> float:
        return float(np.linalg.norm(self.blocks - other.blocks))


def flatten_blocks(blocks: np.ndarray) -> np.ndarray:
    blocks = np.asarray(blocks, dtype=complex)
    m, q, _ = blocks.shape
    out = np.empty(m * q * q, dtype=float)
    pos = 0
    s2 = np.sqrt(2.0)
    for j in range(m):
        B = blocks[j]
        out[pos:pos + q] = np.real(np.diag(B))
        pos += q
        for i in range(q):
            for k in range(i + 1, q):
                out[pos] = s2 * B[i, k].real
                out[pos + 1] = s2 * B[i, k].imag
                pos += 2
    return out


def unflatten_blocks(vec, m: int, q: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (m * q * q,):
        raise DimensionError(f"expected {m * q * q} coordinates, got shape {vec.shape}")
    blocks = np.zeros((m, q, q), dtype=complex)
    pos = 0
    s2 = np.sqrt(2.0)
    for j in range(m):
        for i in range(q):
            blocks[j, i, i] = vec[pos]
            pos += 1
        for i in range(q):
            for k in range(i + 1, q):
                blocks[j, i, k] = (vec[pos] + 1j * vec[pos + 1]) / s2
                blocks[j, k, i] = (vec[pos] - 1j * vec[pos + 1]) / s2
                pos += 2
    return blocks


@dataclass(frozen=True)
class Certificate:
    """A verified membership: point, inflation level p, witness, residual."""

    point: MatPoint
    p: int
    witness: Isometry
    residual: float

    @property
    def q(self) -> int:
        return self.point.q

    def revalidate(self, A, res_tol: float = 1e-12) -> float:
        """Recompute the residual against A and compare with the stored one."""
        A = as_tuple(A)
        d = self.witness.defect()
        if d > self.witness.tol:
            raise CertificateError(f"witness defect {d:.3e} exceeds {self.witness.tol:.1e}")
        r = residual(A, self.witness, self.p, self.point)
        if abs(r - self.residual) > res_tol * max(1.0, r):
            raise CertificateError(
                f"stored residual {self.residual:.6e} does not match recomputed {r:.6e}"
            )
        return r


@dataclass(frozen=True)
class Rejection:
    """A failed search: best residual over all restarts, never a proof."""

    best_residual: float
    restarts: int
    message: str = ""


@dataclass(frozen=True)
class SolverOptions:
    accept_tol: float = 1e-8
    max_restarts: int = 50
    max_iters: int = 2000
    seed: int = 0
    # support-directed solves: penalty schedule and restart count
    support_stages: int = 9
    support_growth: float = 8.0
    support_stage_iters: int = 150
    support_restarts: int = 2

    def replace(self, **kw) -> "SolverOptions":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class PointCloud:
    """Sampled range points as real coordinate rows, plus their certificates.

    kind "matpoint" means rows are flattened MatPoints of shape (m, q, q);
    kind "affine" means rows are images under an affine map recorded in meta.
    """

    coords: np.ndarray
    m: int
    p: int
    q: int
    kind: str = "matpoint"
    certificates: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        C = np.asarray(self.coords, dtype=float)
        if C.ndim != 2:
            raise DimensionError(f"expected (N, d) coordinates, got shape {C.shape}")
        if self.kind == "matpoint" and C.shape[1] != self.m * self.q * self.q:
            raise DimensionError(
                f"matpoint rows need {self.m * self.q * self.q} coordinates, got {C.shape[1]}"
            )
        if self.kind not in ("matpoint", "affine"):
            raise ValueError(f"unknown cloud kind {self.kind!r}")
        if not np.all(np.isfinite(C)):
            raise DimensionError("cloud coordinates must be finite")
        object.__setattr__(self, "coords", C)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def points(self) -> list[MatPoint]:
        if self.kind != "matpoint":
            raise ValueError("only matpoint clouds decode to MatPoints")
        return [MatPoint.unflatten(row, self.m, self.q) for row in self.coords]


def _block_average(S: np.ndarray, p: int, q: int) -> np.ndarray:
    """Average of the p diagonal q-blocks of S (..., pq, pq), re-Hermitized."""
    B = np.zeros(S.shape[:-2] + (q, q), dtype=complex)
    for i in range(p):
        B += S[..., i * q:(i + 1) * q, i * q:(i + 1) * q]
    B /= p
    return 0.5 * (B + np.conj(np.swapaxes(B, -1, -2)))


def _misfit(S: np.ndarray, p: int, q: int, target=None):
    """(E, B) with E = S - I_p (x) B, B the target or _block_average(S).

    S stacks compressions X* A_j X as (..., m, pq, pq), any leading batch
    axes.  Free mode is linear in S, so it also projects Jacobian columns.
    """
    B = _block_average(S, p, q) if target is None else target
    return S - _inflate(B, p), B


def residual(A, X: Isometry, p: int, B: MatPoint) -> float:
    """sqrt(sum_j ||X* A_j X - I_p (x) B_j||_F^2)."""
    A = as_tuple(A)
    if X.n != A.n:
        raise DimensionError(f"witness rows {X.n} do not match tuple dimension {A.n}")
    if B.m != A.m:
        raise DimensionError(f"point length {B.m} does not match tuple length {A.m}")
    if X.k != p * B.q:
        raise DimensionError(f"witness has {X.k} columns, expected p*q = {p * B.q}")
    E, _ = _misfit(np.conj(X.mat.T) @ (A.mats @ X.mat), p, B.q, B.blocks)
    return float(np.sqrt(np.sum(np.abs(E) ** 2)))


def best_block(A, X: Isometry, p: int) -> MatPoint:
    """The B minimizing the residual for fixed X: average of the p diagonal
    q-blocks of each compression X* A_j X, re-Hermitized."""
    return certify(A, X, p).point


def certify(A, X: Isometry, p: int) -> Certificate:
    """Wrap an explicit witness into a certificate for its best block."""
    A = as_tuple(A)
    if p < 1 or X.k % p != 0:
        raise DimensionError(f"witness columns {X.k} not divisible by p = {p}")
    E, B = _misfit(np.conj(X.mat.T) @ (A.mats @ X.mat), p, X.k // p)
    return Certificate(point=MatPoint(B), p=p, witness=X,
                       residual=float(np.sqrt(np.sum(np.abs(E) ** 2))))


def compose_certificate(A, X0: Isometry, cert: Certificate) -> Certificate:
    """Push a certificate for the compression X0* A X0 up to A itself.

    The new witness is X0 X; the residual is unchanged up to rounding, which
    is the compression-monotonicity property made executable.
    """
    A = as_tuple(A)
    if X0.n != A.n:
        raise DimensionError(f"corner rows {X0.n} do not match tuple dimension {A.n}")
    if X0.k != cert.witness.n:
        raise DimensionError(
            f"corner columns {X0.k} do not match inner witness rows {cert.witness.n}"
        )
    W = Isometry(X0.mat @ cert.witness.mat, tol=cert.witness.tol + 2e-10)
    return Certificate(
        point=cert.point,
        p=cert.p,
        witness=W,
        residual=residual(A, W, cert.p, cert.point),
    )


def _tangent(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    XG = np.conj(X.T) @ G
    return G - X @ (0.5 * (XG + np.conj(XG.T)))


def _tangent_kick(X: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Move X a little inside the manifold; escapes exact stationary points."""
    n, k = X.shape
    rng = np.random.default_rng(seed)
    T = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    T = _tangent(X, T)
    nrm = float(np.linalg.norm(T))
    if nrm == 0.0:
        return X
    return _qr_fix(X + (delta * np.sqrt(k) / nrm) * T)


def _descend(Amats, X, p, q, opts: SolverOptions, max_iters, target=None,
             direction=None, mu=0.0):
    """Shared projected-gradient loop on the Stiefel manifold.

    Modes: target fixed (membership), B free (range sampling), and penalized
    support ascent (direction set, objective mu * R^2 - <direction, B>).
    Steps alternate the two Barzilai-Borwein lengths; a trial point is
    accepted against the Zhang-Hager average C of past objectives, so h may
    rise between steps while C decreases.  Returns (X, B_blocks, R_squared).
    """
    IpU = _inflate(direction, p) if direction is not None else None

    def evaluate(X):
        AX = Amats @ X
        E, B = _misfit(np.conj(X.T) @ AX, p, q, target)
        R2 = float(np.sum(np.abs(E) ** 2))
        if direction is None:
            h = R2
        else:
            h = mu * R2 - float(np.real(np.sum(np.conj(direction) * B)))
        return h, R2, AX, E, B

    h, R2, AX, E, B = evaluate(X)
    tol2 = (0.999 * opts.accept_tol) ** 2
    C, Q = h, 1.0
    tau = ARMIJO_INIT
    hist = [h]
    for it in range(max_iters):
        if direction is None and R2 <= tol2:
            break
        if direction is None:
            G = 4.0 * np.einsum("jnk,jkl->nl", AX, E)
        else:
            G = mu * 4.0 * np.einsum("jnk,jkl->nl", AX, E) \
                - (2.0 / p) * np.einsum("jnk,jkl->nl", AX, IpU)
        Gt = _tangent(X, G)
        if it > 0:
            S, Y = X - X_prev, Gt - Gt_prev
            sy = abs(float(np.real(np.vdot(S, Y))))
            num, den = (float(np.real(np.vdot(S, S))), sy) if it % 2 == 1 \
                else (sy, float(np.real(np.vdot(Y, Y))))
            tau = min(max(num / den, BB_MIN), BB_MAX) if num > 0 and den > 0 \
                else ARMIJO_INIT
        g2 = float(np.sum(np.abs(Gt) ** 2))
        if g2 <= 1e-30:
            break
        t = tau
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            Xt = _qr_fix(X - t * Gt)
            ht, R2t, AXt, Et, Bt = evaluate(Xt)
            if ht <= C - ARMIJO_SLOPE * t * g2:
                break
            t *= ARMIJO_SHRINK
        else:
            break
        X_prev, Gt_prev = X, Gt
        X, h, R2, AX, E, B = Xt, ht, R2t, AXt, Et, Bt
        # C <- (eta Q C + h) / (eta Q + 1), Q <- eta Q + 1
        Q = NONMONOTONE_ETA * Q + 1.0
        C += (h - C) / Q
        hist.append(min(hist[-1], h))
        if len(hist) > STAGNATION_WINDOW:
            drop = hist[-STAGNATION_WINDOW - 1] - hist[-1]
            limit = STAGNATION_TOL if direction is None \
                else 1e-13 * max(1.0, abs(hist[-1]))
            if drop < limit:
                break
    return X, B, R2


def _jacobian(Amats, X, p, q, target=None):
    """Real Gauss-Newton matrix of E = X* A_j X - I_p (x) B_j at X.

    Column a*k + b (then nk + a*k + b) is the derivative of (Re E, Im E)
    along the tangent projection of D = e_ab (then i e_ab).  With
    P_j = X* A_j, S_j = P_j X and H = sym(X* D), D moves E_j by
    P_j D + (P_j D)* - (S_j H + H S_j); the unit directions place P_j[:, a]
    and conj(X[a, :]) in column b of P_j D and X* D.  In free mode _misfit
    projects the columns too, so the optimal B stays eliminated.
    """
    n, k = X.shape
    unit = np.array([1.0, 1j])                    # D = e_ab, then i e_ab
    P = np.conj(X.T) @ Amats                      # (m, k, n)
    S = P @ X
    PD = np.einsum("r,jca,be->rabjce", unit, P, np.eye(k)).reshape(2 * n * k, -1, k, k)
    XD = np.einsum("r,ac,be->rabce", unit, np.conj(X), np.eye(k)).reshape(2 * n * k, 1, k, k)
    H = 0.5 * (XD + np.conj(np.swapaxes(XD, -1, -2)))
    L = PD + np.conj(np.swapaxes(PD, -1, -2)) - (S @ H + H @ S)
    if target is None:
        L, _ = _misfit(L, p, q)
    Lf = L.reshape(2 * n * k, -1).T
    return np.concatenate([Lf.real, Lf.imag])


def _polish(Amats, X, p, q, opts: SolverOptions, target=None):
    """Damped Gauss-Newton tail for iterates the first-order loop left short.

    Solves the real least-squares system of _jacobian for a step in the
    tangent space at X, so that it survives the QR retraction to first
    order, retracts, and keeps the step only when the residual drops.
    Deterministic.  Returns (X, R_squared).
    """
    def evaluate(X):
        E, _ = _misfit(np.conj(X.T) @ (Amats @ X), p, q, target)
        return E, float(np.sum(np.abs(E) ** 2))

    E, R2 = evaluate(X)
    tol2 = (0.999 * opts.accept_tol) ** 2
    for _ in range(POLISH_ITERS):
        if R2 <= tol2:
            break
        M = _jacobian(Amats, X, p, q, target)
        rhs = -np.concatenate([E.ravel().real, E.ravel().imag])
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        step = _tangent(X, (sol[:X.size] + 1j * sol[X.size:]).reshape(X.shape))
        t = 1.0
        for _ in range(30):
            Xt = _qr_fix(X + t * step)
            Et, R2t = evaluate(Xt)
            if R2t < R2 * (1.0 - 1e-6) or R2t <= tol2:
                break
            t *= 0.5
        else:
            break
        X, E, R2 = Xt, Et, R2t
    return X, R2


def _witness_columns(A: HermitianTuple, p: int, q: int) -> int:
    """The witness width p*q; DimensionError unless p, q >= 1, and
    StructuralInfeasibility when p*q exceeds n."""
    if p < 1 or q < 1:
        raise DimensionError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    k = p * q
    if k > A.n:
        raise StructuralInfeasibility(
            f"witness needs p*q = {k} columns but the tuple dimension is {A.n}"
        )
    return k


def _solve_from(Amats, X, p, q, opts: SolverOptions, target=None):
    """Descend from X, then polish if still above accept_tol.

    Fixed-target mode when target is given, free mode otherwise.
    Returns (X, residual).
    """
    X, _, R2 = _descend(Amats, X, p, q, opts, opts.max_iters, target=target)
    if np.sqrt(R2) > opts.accept_tol:
        X, R2 = _polish(Amats, X, p, q, opts, target=target)
    return X, float(np.sqrt(R2))


def _first_success(A: HermitianTuple, p: int, q: int, opts: SolverOptions,
                   target=None):
    """Restart r = 0, 1, ... from the Haar start seeded opts.seed + r.

    Returns (X, residual) of the first restart that reaches accept_tol, or
    (None, best residual) after max_restarts failures; before any restart
    has run, the best residual is inf.
    """
    k = _witness_columns(A, p, q)
    best = np.inf
    for r in range(opts.max_restarts):
        X0 = random_isometry(A.n, k, opts.seed + r)
        X, res = _solve_from(A.mats, X0.mat, p, q, opts, target)
        if res <= opts.accept_tol:
            return X, res
        best = min(best, res)
    return None, best


def membership(A, B: MatPoint, p: int, opts: SolverOptions = SolverOptions()):
    """Search for an isometry certifying B in the (p, q) range of A.

    Returns a Certificate on success, a Rejection after max_restarts
    Haar-random starts otherwise.  Raises StructuralInfeasibility when
    p * q exceeds the tuple dimension.
    """
    A = as_tuple(A)
    if B.m != A.m:
        raise DimensionError(f"point length {B.m} does not match tuple length {A.m}")
    X, res = _first_success(A, p, B.q, opts, target=B.blocks)
    if X is None:
        return Rejection(best_residual=res, restarts=opts.max_restarts,
                         message="no witness found at the requested tolerance")
    W = Isometry(X)
    return Certificate(point=B, p=p, witness=W, residual=residual(A, W, p, B))


def solve_free(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Find any point of the (p, q) range of A, with certificate."""
    A = as_tuple(A)
    X, res = _first_success(A, p, q, opts)
    if X is None:
        return Rejection(best_residual=res, restarts=opts.max_restarts,
                         message="free solve found no feasible block")
    return certify(A, Isometry(X), p)


def solve_support(A, p: int, q: int, direction, opts: SolverOptions = SolverOptions()):
    """Push the range as far as possible along a flattened direction.

    Maximizes <direction, B> over certified B by a penalty continuation:
    minimize mu * R^2 - <direction, B> for an increasing schedule of mu, with
    a small seeded tangent kick between stages (stages can otherwise park on
    exactly stationary invariant subspaces), then a pure feasibility polish.
    Returns the feasible certificate with the largest support value, or a
    Rejection if no restart reached accept_tol.
    """
    A = as_tuple(A)
    k = _witness_columns(A, p, q)
    direction = np.asarray(direction, dtype=float)
    U = unflatten_blocks(direction, A.m, q)
    scale = A.scale()
    best_cert = None
    best_val = -np.inf
    best_res = np.inf
    for r in range(opts.support_restarts):
        seed = opts.seed + r
        X = random_isometry(A.n, k, seed).mat
        mu = 1.0 / scale
        for stage in range(opts.support_stages):
            X, _, R2 = _descend(A.mats, X, p, q, opts, opts.support_stage_iters,
                                direction=U, mu=mu)
            mu *= opts.support_growth
            if stage < opts.support_stages - 1 and R2 > 1e-24:
                X = _tangent_kick(X, SUPPORT_KICK, seed * 1000003 + stage)
        X = _tangent_kick(X, SUPPORT_KICK * 1e-2, seed * 1000003 + 999983)
        X, res = _solve_from(A.mats, X, p, q, opts)
        if res <= opts.accept_tol:
            cert = certify(A, Isometry(X), p)
            val = float(direction @ cert.point.flatten())
            if val > best_val:
                best_cert, best_val = cert, val
        best_res = min(best_res, res)
    if best_cert is not None:
        return best_cert
    return Rejection(best_residual=best_res, restarts=opts.support_restarts,
                     message="support-directed solve never reached tolerance")


def find_scalar_point(A, k: int, opts: SolverOptions = SolverOptions()):
    """A point (c_1, ..., c_m) with X* A_j X = c_j I_k for one isometry X.

    Returns (values, Certificate) or a Rejection.
    """
    out = solve_free(A, p=k, q=1, opts=opts)
    if isinstance(out, Rejection):
        return out
    return out.point.scalar_values(), out


def sample_range(A, p: int, q: int, count: int,
                 opts: SolverOptions = SolverOptions(),
                 directions=None) -> PointCloud:
    """Collect certified points of the (p, q) range of A.

    The first samples chase the given flattened directions (one support-
    directed solve each); the remainder are free solves from Haar starts.
    Rejected attempts are dropped and counted in the meta.  Deterministic
    for a fixed seed: sample i uses base seed opts.seed + 100003 * (i + 1).
    """
    A = as_tuple(A)
    if count < 0:
        raise DimensionError(f"need count >= 0, got {count}")
    dirs = [] if directions is None else [np.asarray(u, float) for u in directions]
    rows = []
    certs = []
    rejected = 0
    total = count + len(dirs)
    for i in range(total):
        sub = opts.replace(seed=opts.seed + 100003 * (i + 1))
        if i < len(dirs):
            out = solve_support(A, p, q, dirs[i], sub)
        else:
            out = solve_free(A, p, q, sub)
        if isinstance(out, Rejection):
            rejected += 1
            continue
        rows.append(out.point.flatten())
        certs.append(out)
    coords = np.array(rows, dtype=float) if rows else np.zeros((0, A.m * q * q))
    meta = {
        "generator": "sample_range",
        "seed": opts.seed,
        "accept_tol": opts.accept_tol,
        "requested": count,
        "directed": len(dirs),
        "rejected": rejected,
        "acceptance_rate": (total - rejected) / total if total else 1.0,
    }
    return PointCloud(coords=coords, m=A.m, p=p, q=q, kind="matpoint",
                      certificates=tuple(certs), meta=meta)
