"""Membership solver and certificates for (p, q) matricial ranges.

A q-by-q Hermitian m-tuple B belongs to the (p, q) range of a Hermitian
tuple A when some isometry X with pq columns satisfies X* A_j X = I_p (x) B_j
for every j.  This module certifies such memberships.  The certificate is the
witness X itself together with the achieved residual

    residual = sqrt( sum_j || X* A_j X - I_p (x) B_j ||_F^2 )

which anyone can recompute from the certificate fields alone.

Search runs over the Stiefel manifold of isometries: projected gradient
descent with QR retraction and Armijo backtracking, restarted from
Haar-random starts.  A failed search returns a Rejection carrying the best
residual seen.  Rejections are advisory; the problem is nonconvex, so they
are never proof of non-membership.  Accepted points should be read as lying
in the closed set fattened by accept_tol.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    as_tuple,
    frob,
    herm_defect,
    hermitize,
    _qr_fix,
    random_isometry,
)


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
    armijo_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    armijo_max_backtracks: int = 60
    stagnation_window: int = 50
    stagnation_tol: float = 1e-16
    threads: int = 1
    # support-directed solves: penalty schedule and saddle-escape kicks
    support_stages: int = 9
    support_growth: float = 8.0
    support_stage_iters: int = 150
    support_restarts: int = 2
    support_kick: float = 1e-5
    # Gauss-Newton tail applied when first-order descent stalls; 0 disables
    polish_iters: int = 20

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


def _inflate(B: np.ndarray, p: int) -> np.ndarray:
    """(m, q, q) blocks -> (m, pq, pq) block diagonals I_p (x) B_j."""
    m, q, _ = B.shape
    out = np.zeros((m, p * q, p * q), dtype=complex)
    for i in range(p):
        out[:, i * q:(i + 1) * q, i * q:(i + 1) * q] = B
    return out


def _block_average(S: np.ndarray, p: int, q: int) -> np.ndarray:
    B = np.zeros((S.shape[0], q, q), dtype=complex)
    for i in range(p):
        B += S[:, i * q:(i + 1) * q, i * q:(i + 1) * q]
    B /= p
    return 0.5 * (B + np.conj(np.transpose(B, (0, 2, 1))))


def residual(A, X: Isometry, p: int, B: MatPoint) -> float:
    """sqrt(sum_j ||X* A_j X - I_p (x) B_j||_F^2)."""
    A = as_tuple(A)
    if X.n != A.n:
        raise DimensionError(f"witness rows {X.n} do not match tuple dimension {A.n}")
    if B.m != A.m:
        raise DimensionError(f"point length {B.m} does not match tuple length {A.m}")
    if X.k != p * B.q:
        raise DimensionError(f"witness has {X.k} columns, expected p*q = {p * B.q}")
    AX = A.mats @ X.mat
    S = np.conj(X.mat.T)[None, :, :] @ AX
    E = S - _inflate(B.blocks, p)
    return float(np.sqrt(np.sum(np.abs(E) ** 2)))


def best_block(A, X: Isometry, p: int) -> MatPoint:
    """The B minimizing the residual for fixed X: average of the p diagonal
    q-blocks of each compression X* A_j X, re-Hermitized."""
    A = as_tuple(A)
    if X.k % p != 0:
        raise DimensionError(f"witness columns {X.k} not divisible by p = {p}")
    q = X.k // p
    AX = A.mats @ X.mat
    S = np.conj(X.mat.T)[None, :, :] @ AX
    return MatPoint(_block_average(S, p, q))


def certify(A, X: Isometry, p: int) -> Certificate:
    """Wrap an explicit witness into a certificate for its best block."""
    B = best_block(A, X, p)
    return Certificate(point=B, p=p, witness=X, residual=residual(A, X, p, B))


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
    Returns (X, B_blocks, R_squared).
    """
    IpU = _inflate(direction, p) if direction is not None else None
    Btgt = _inflate(target, p) if target is not None else None

    def evaluate(X):
        AX = Amats @ X
        S = np.conj(X.T)[None, :, :] @ AX
        B = target if target is not None else _block_average(S, p, q)
        E = S - (Btgt if Btgt is not None else _inflate(B, p))
        R2 = float(np.sum(np.abs(E) ** 2))
        if direction is None:
            h = R2
        else:
            h = mu * R2 - float(np.real(np.sum(np.conj(direction) * B)))
        return h, R2, AX, E, B

    h, R2, AX, E, B = evaluate(X)
    tol2 = (0.999 * opts.accept_tol) ** 2
    hist = [h]
    for _ in range(max_iters):
        if direction is None and R2 <= tol2:
            break
        if direction is None:
            G = 4.0 * np.einsum("jnk,jkl->nl", AX, E)
        else:
            G = mu * 4.0 * np.einsum("jnk,jkl->nl", AX, E) \
                - (2.0 / p) * np.einsum("jnk,jkl->nl", AX, IpU)
        Gt = _tangent(X, G)
        g2 = float(np.sum(np.abs(Gt) ** 2))
        if g2 <= 1e-30:
            break
        t = opts.armijo_init
        accepted = False
        for _ in range(opts.armijo_max_backtracks):
            Xt = _qr_fix(X - t * Gt)
            ht, R2t, AXt, Et, Bt = evaluate(Xt)
            if ht <= h - opts.armijo_slope * t * g2:
                accepted = True
                break
            t *= opts.armijo_shrink
        if not accepted:
            break
        X, h, R2, AX, E, B = Xt, ht, R2t, AXt, Et, Bt
        hist.append(h)
        if len(hist) > opts.stagnation_window:
            drop = hist[-opts.stagnation_window - 1] - h
            limit = opts.stagnation_tol if direction is None \
                else 1e-13 * max(1.0, abs(h))
            if drop < limit:
                break
    return X, B, R2


def _polish(Amats, X, p, q, opts: SolverOptions, target=None):
    """Damped Gauss-Newton tail for iterates the first-order loop left short.

    Linearizes E_j(X + d) ~ E_j + X* A_j d + d* A_j X in the ambient space,
    solves the real least-squares system for the step d, retracts, and keeps
    the step only when the residual drops.  In free mode the block-average
    projection is applied to both the residual and the Jacobian columns, so
    the optimal B stays eliminated.  Deterministic.
    Returns (X, R_squared).
    """
    n, k = X.shape
    m = Amats.shape[0]
    Btgt = _inflate(target, p) if target is not None else None
    eye = np.eye(n * k)
    D0 = np.concatenate([eye, 1j * eye]).reshape(2 * n * k, n, k)
    rows = np.arange(p)

    def tangent_batch(X, D):
        # project every basis element onto the tangent space at X, so the
        # solved step survives the QR retraction to first order
        XD = np.einsum("kn,dnl->dkl", np.conj(X.T), D)
        H = 0.5 * (XD + np.conj(np.transpose(XD, (0, 2, 1))))
        return D - np.einsum("nk,dkl->dnl", X, H)

    def project_free(M):
        # subtract I_p (x) (average diagonal q-block), batched over leading axes
        V = M.reshape(M.shape[:-2] + (p, q, p, q))
        diag = V[..., rows, :, rows, :]           # (p, ..., q, q)
        avg = diag.mean(axis=0)
        out = M.copy().reshape(V.shape)
        for i in range(p):
            out[..., i, :, i, :] -= avg
        return out.reshape(M.shape)

    def resid(X):
        S = np.conj(X.T)[None, :, :] @ (Amats @ X)
        E = S - Btgt if Btgt is not None else project_free(S)
        return E, float(np.sum(np.abs(E) ** 2))

    E, R2 = resid(X)
    tol2 = (0.999 * opts.accept_tol) ** 2
    for _ in range(opts.polish_iters):
        if R2 <= tol2:
            break
        AX = Amats @ X
        P = np.conj(X.T) @ Amats                  # (m, k, n)
        D = tangent_batch(X, D0)
        L = np.einsum("jkn,dnl->djkl", P, D) \
            + np.einsum("dna,jnb->djab", np.conj(D), AX)
        if Btgt is None:
            L = project_free(L)
        Lf = L.reshape(2 * n * k, m * k * k).T
        M = np.concatenate([Lf.real, Lf.imag])
        rhs = -np.concatenate([E.ravel().real, E.ravel().imag])
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        step = np.einsum("d,dnl->nl", sol, D)
        t = 1.0
        improved = False
        for _ in range(30):
            Xt = _qr_fix(X + t * step)
            Et, R2t = resid(Xt)
            if R2t < R2 * (1.0 - 1e-6) or R2t <= tol2:
                X, E, R2 = Xt, Et, R2t
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return X, R2


def _first_success(run_one, n_restarts: int, threads: int):
    """Run restarts in index order, returning the first qualifying result.

    With threads > 1 the restarts are evaluated in fixed-size batches and the
    smallest qualifying index still wins, so the answer does not depend on
    the worker count.  Before any restart has run, the best residual is inf.
    """
    best = (np.inf, None)
    if threads <= 1:
        for r in range(n_restarts):
            ok, payload = run_one(r)
            if ok:
                return payload, best
            if payload[0] < best[0]:
                best = payload
        return None, best
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, n_restarts, threads):
            batch = list(range(start, min(start + threads, n_restarts)))
            results = list(pool.map(run_one, batch))
            for ok, payload in results:
                if ok:
                    return payload, best
            for _, payload in results:
                if payload[0] < best[0]:
                    best = payload
    return None, best


def membership(A, B: MatPoint, p: int, opts: SolverOptions = SolverOptions()):
    """Search for an isometry certifying B in the (p, q) range of A.

    Returns a Certificate on success, a Rejection after max_restarts
    Haar-random starts otherwise.  Raises StructuralInfeasibility when
    p * q exceeds the tuple dimension.
    """
    A = as_tuple(A)
    q = B.q
    k = p * q
    if B.m != A.m:
        raise DimensionError(f"point length {B.m} does not match tuple length {A.m}")
    if k > A.n:
        raise StructuralInfeasibility(
            f"witness needs p*q = {k} columns but the tuple dimension is {A.n}"
        )

    def run_one(r):
        X0 = random_isometry(A.n, k, opts.seed + r)
        X, _, R2 = _descend(A.mats, X0.mat, p, q, opts, opts.max_iters,
                            target=B.blocks)
        if np.sqrt(R2) > opts.accept_tol and opts.polish_iters > 0:
            X, R2 = _polish(A.mats, X, p, q, opts, target=B.blocks)
        res = float(np.sqrt(R2))
        ok = res <= opts.accept_tol
        return ok, (res, X)

    winner, best = _first_success(run_one, opts.max_restarts, opts.threads)
    if winner is not None:
        res, X = winner
        W = Isometry(X)
        return Certificate(point=B, p=p, witness=W, residual=residual(A, W, p, B))
    return Rejection(best_residual=best[0], restarts=opts.max_restarts,
                     message="no witness found at the requested tolerance")


def solve_free(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Find any point of the (p, q) range of A, with certificate."""
    A = as_tuple(A)
    k = p * q
    if k > A.n:
        raise StructuralInfeasibility(
            f"witness needs p*q = {k} columns but the tuple dimension is {A.n}"
        )

    def run_one(r):
        X0 = random_isometry(A.n, k, opts.seed + r)
        X, Bb, R2 = _descend(A.mats, X0.mat, p, q, opts, opts.max_iters)
        if np.sqrt(R2) > opts.accept_tol and opts.polish_iters > 0:
            X, R2 = _polish(A.mats, X, p, q, opts)
        res = float(np.sqrt(R2))
        return res <= opts.accept_tol, (res, X)

    winner, best = _first_success(run_one, opts.max_restarts, opts.threads)
    if winner is not None:
        _, X = winner
        return certify(A, Isometry(X), p)
    return Rejection(best_residual=best[0], restarts=opts.max_restarts,
                     message="free solve found no feasible block")


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
    k = p * q
    if k > A.n:
        raise StructuralInfeasibility(
            f"witness needs p*q = {k} columns but the tuple dimension is {A.n}"
        )
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
                X = _tangent_kick(X, opts.support_kick, seed * 1000003 + stage)
        X = _tangent_kick(X, opts.support_kick * 1e-2, seed * 1000003 + 999983)
        X, _, R2 = _descend(A.mats, X, p, q, opts, opts.max_iters)
        if np.sqrt(R2) > opts.accept_tol and opts.polish_iters > 0:
            X, R2 = _polish(A.mats, X, p, q, opts)
        res = float(np.sqrt(R2))
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
