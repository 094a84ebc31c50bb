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

One descent engine serves every solve.  Its unit is a lane: one start,
descending on its own, stacked with other lanes into an (L, n, k) array
so that each numpy call (products, QR retraction) serves the whole stack.
A lane keeps its own step, line search and stop test, leaves the stack
when it stops, and computes bitwise the same whatever lanes share its
stack.  Membership and free solves are jobs, each with its own tuple,
target and seed; the jobs of one call run restart 0 alone, then the rest
of the budget in waves of one stack's lanes (all of it at once when Cauchy
interlacing refutes every target, with the same results).  After each wave
a lane that stalled close to accept_tol (within POLISH_GATE times it) gets
a Gauss-Newton polish over the 2nk - k^2 real tangent coordinates of its
n-by-k witness, and in each job the lowest restart that reaches accept_tol
wins, exactly as one restart at a time would choose.  Support solves run
all their restarts, and sample_range all its directed solves and the
waves of all its free samples, as lanes of shared stacks.
"""

from __future__ import annotations

import dataclasses
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    as_tuple,
    herm_eigvals,
    hermitian_stack,
    hermitize,
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
# a target or free descent stops when the best objective so far drops by less
# than STAGNATION_REL times itself over STAGNATION_WINDOW accepted steps (no
# absolute floor: lanes converging through h ~ 1e-14 keep going); a support
# descent, when it drops by less than 1e-13 * max(1, |best|) over SUPPORT_WINDOW
STAGNATION_WINDOW = 10
STAGNATION_REL = 1e-12
SUPPORT_WINDOW = 50
# iteration cap of a restart's descent, and of the feasibility descent that
# ends a support-directed solve
MAX_ITERS = 2000
# support-directed solves: SUPPORT_STAGES penalty stages of SUPPORT_STAGE_ITERS
# iterations each, mu growing SUPPORT_GROWTH-fold between stages, with a
# tangent kick of SUPPORT_KICK; SUPPORT_RESTARTS restarts per direction
SUPPORT_STAGES = 9
SUPPORT_GROWTH = 8.0
SUPPORT_STAGE_ITERS = 150
SUPPORT_RESTARTS = 2
SUPPORT_KICK = 1e-5
# Gauss-Newton converges only locally: a lane that stalls above accept_tol is
# polished (POLISH_ITERS steps at most) only when its residual is at most
# POLISH_GATE * accept_tol; lanes further out keep the descent's answer
POLISH_ITERS = 20
POLISH_GATE = 1e4
# complex entries (1 MiB) per lane stack of (m, n, k) arrays, counting each
# lane's own (m, n, n) tuple when the lanes carry one
LANE_ENTRIES = 2**16


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
        object.__setattr__(self, "blocks", hermitian_stack(self.blocks, "block"))

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def q(self) -> int:
        return self.blocks.shape[1]

    @classmethod
    def scalar(cls, values, q: int) -> "MatPoint":
        """The point (v_1 I_q, ..., v_m I_q) from m real values."""
        return cls(np.asarray(values, dtype=float)[:, None, None] * np.eye(q))

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


def _block_positions(q: int):
    """Flat positions in a q-by-q block: of its diagonal, and of the entries
    (i, k) and (k, i) for each i < k in row-major order."""
    pairs = [(i, k) for i in range(q) for k in range(i + 1, q)]
    return ([i * (q + 1) for i in range(q)], [i * q + k for i, k in pairs],
            [k * q + i for i, k in pairs])


def flatten_blocks(blocks: np.ndarray) -> np.ndarray:
    blocks = np.ascontiguousarray(blocks, dtype=complex)
    m, q, _ = blocks.shape
    diag, upper, _ = _block_positions(q)
    # gathered from the (re, im) float view: Re of the diagonal, then the
    # (Re, Im) pair of each entry above it
    out = blocks.view(float).reshape(m, -1)[
        :, [2 * j for j in diag] + [2 * j + c for j in upper for c in (0, 1)]]
    out[:, q:] *= np.sqrt(2.0)
    return out.ravel()


def unflatten_blocks(vec, m: int, q: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (m * q * q,):
        raise DimensionError(f"expected {m * q * q} coordinates, got shape {vec.shape}")
    V = vec.reshape(m, q * q)
    diag, upper, lower = _block_positions(q)
    re, im = V[:, q::2], V[:, q + 1::2]
    blocks = np.zeros((m, q * q), dtype=complex)
    blocks[:, diag] = V[:, :q]
    blocks[:, upper + lower] = np.concatenate([re + 1j * im, re - 1j * im], axis=1) / np.sqrt(2.0)
    return blocks.reshape(m, q, q)


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
        """Recompute the residual against A and compare with the stored one;
        a recomputed residual that is not finite matches nothing."""
        d = self.witness.defect()
        if not d <= self.witness.tol:
            raise CertificateError(f"witness defect {d:.3e} exceeds {self.witness.tol:.1e}")
        r = certify(A, self.witness, self.p, self.point).residual
        if not (np.isfinite(r) and abs(r - self.residual) <= res_tol * max(1.0, r)):
            raise CertificateError(
                f"stored residual {self.residual:.6e} does not match recomputed {r:.6e}"
            )
        return r


@dataclass(frozen=True)
class Rejection:
    """A failed search: best residual over all restarts, never a proof.
    stage names the failed stage of a multi-stage construction."""

    best_residual: float
    restarts: int
    message: str = ""
    stage: int | None = None


# what a caller chooses; the descent and penalty schedule are the constants above
@dataclass(frozen=True)
class SolverOptions:
    accept_tol: float = 1e-8
    max_restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.accept_tol < np.inf:
            raise ValueError(f"accept_tol must be positive and finite, got {self.accept_tol!r}")
        for name in ("max_restarts", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {v!r}")

    def replace(self, **kw) -> "SolverOptions":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class PointCloud:
    """Sampled range points as real coordinate rows, plus their certificates.

    Each row is a flattened MatPoint of shape (m, q, q).
    """

    coords: np.ndarray
    m: int
    p: int
    q: int
    certificates: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        C = np.asarray(self.coords, dtype=float)
        if C.ndim != 2:
            raise DimensionError(f"expected (N, d) coordinates, got shape {C.shape}")
        if C.shape[1] != self.m * self.q * self.q:
            raise DimensionError(
                f"matpoint rows need {self.m * self.q * self.q} coordinates, got {C.shape[1]}"
            )
        if not np.all(np.isfinite(C)):
            raise DimensionError("cloud coordinates must be finite")
        object.__setattr__(self, "coords", C)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def points(self) -> list[MatPoint]:
        return [MatPoint.unflatten(row, self.m, self.q) for row in self.coords]


def _block_average(S: np.ndarray, p: int, q: int) -> np.ndarray:
    """Average of the p diagonal q-blocks of S (..., pq, pq), re-Hermitized."""
    B = np.zeros(S.shape[:-2] + (q, q), dtype=complex)
    for i in range(p):
        B += S[..., i * q:(i + 1) * q, i * q:(i + 1) * q]
    B /= p
    return hermitize(B)


def _misfit(S: np.ndarray, p: int, q: int, target=None):
    """(E, B) with E = S - I_p (x) B, B the target or _block_average(S).

    S stacks compressions X* A_j X as (..., m, pq, pq), any leading batch
    axes.  Free mode is linear in S, so it also projects _polish's columns.
    """
    B = _block_average(S, p, q) if target is None else target
    return S - _inflate(B, p), B


def _residual(S: np.ndarray, p: int, q: int, target=None) -> tuple[float, np.ndarray]:
    """(R, B): the Frobenius norm R of _misfit(S, p, q, target)'s E, and its B.

    The one place a residual sqrt(sum_j ||X* A_j X - I_p (x) B_j||_F^2) is
    computed: certify and the block family store it, and every
    revalidation recomputes it through certify.
    """
    E, B = _misfit(S, p, q, target)
    return float(np.sqrt(np.sum(np.abs(E) ** 2))), B


def certify(A, X: Isometry, p: int, point: MatPoint | None = None) -> Certificate:
    """Wrap an explicit witness into a certificate for `point`, or for the
    best block (the average of the diagonal blocks) when point is None.
    The residual is _residual's.
    """
    A = as_tuple(A)
    if X.n != A.n:
        raise DimensionError(f"witness rows {X.n} do not match tuple dimension {A.n}")
    if p < 1 or X.k % p != 0:
        raise DimensionError(f"witness columns {X.k} not divisible by p = {p}")
    q = X.k // p
    if point is not None:
        if point.m != A.m:
            raise DimensionError(f"point length {point.m} does not match tuple length {A.m}")
        if point.q != q:
            raise DimensionError(f"witness has {X.k} columns, expected p*q = {p * point.q}")
    R, B = _residual(np.conj(X.mat.T) @ (A.mats @ X.mat), p, q,
                     None if point is None else point.blocks)
    return Certificate(point=MatPoint(B) if point is None else point, p=p, witness=X, residual=R)


def compose_certificate(A, X0: Isometry, cert: Certificate) -> Certificate:
    """Push a certificate for the compression X0* A X0 up to A itself.

    The new witness is X0 X; the residual is unchanged up to rounding, which
    is the compression-monotonicity property made executable.
    """
    if X0.k != cert.witness.n:
        raise DimensionError(
            f"corner columns {X0.k} do not match inner witness rows {cert.witness.n}"
        )
    return certify(A, Isometry(X0.mat @ cert.witness.mat, tol=cert.witness.tol + 2e-10),
                   cert.p, cert.point)


def _adjoint(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _tangent(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Projection of G onto the tangent space at X; both may be (L, n, k) stacks."""
    XG = _adjoint(X) @ G
    return G - X @ (0.5 * (XG + _adjoint(XG)))


def _lane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> for each lane of two stacks."""
    return np.vecdot(a.reshape(len(a), -1), b.reshape(len(b), -1)).real


def _tangent_kick(X: np.ndarray, delta: float, seeds, moved=None) -> np.ndarray:
    """Move each lane of X a little inside the manifold; escapes exact
    stationary points.  Lane l moves along a tangent drawn from seeds[l];
    lanes outside the mask `moved` stay where they are."""
    lanes = np.arange(len(X)) if moved is None else np.flatnonzero(moved)
    if not len(lanes):
        return X
    n, k = X.shape[1:]
    T = np.empty((len(lanes), n, k), dtype=complex)
    for i, lane in enumerate(lanes):
        rng = np.random.default_rng(seeds[lane])
        T[i] = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    T = _tangent(X[lanes], T)
    nrm = np.sqrt(_lane_dot(T, T))
    lanes, T, nrm = lanes[nrm > 0], T[nrm > 0], nrm[nrm > 0]
    X = X.copy()
    X[lanes] = _qr_fix(X[lanes] + (delta * np.sqrt(k) / nrm)[:, None, None] * T)
    return X


def _descend(Amats, X, p, q, opts: SolverOptions, max_iters, target=None,
             direction=None, mu=0.0, job=None):
    """Projected-gradient descent on the Stiefel manifold, lane by lane.

    X is an (L, n, k) stack of starting points, one lane each.  Modes: target
    fixed (membership), B free (range sampling), and penalized support
    ascent (direction an (L, m, q, q) stack, one per lane, objective
    mu * R^2 - <direction, B>).  Amats is one (m, n, n) tuple for every
    lane, or a (J, m, n, n) stack of which lane l reads Amats[job[l]]; a
    target is likewise one (m, q, q) point or a (J, m, q, q) stack read
    through job.  The lanes run in stacks of at most LANE_ENTRIES entries
    per (m, n, k) array (plus the lanes' own tuples); a lane's arithmetic
    does not depend on which lanes share its stack, so neither do the
    results.  Returns (X, R_squared) stacked over the lanes.
    """
    size = _stack_lanes(Amats, X.shape[2])
    job = np.zeros(len(X), dtype=int) if job is None else job
    # an overflowing tuple's lanes read an inf or NaN residual or gradient
    # norm, which stops them; numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [_descend_stack(_lanes(Amats, job[rows]), X[rows], p, q, opts, max_iters,
                                _lanes(target, job[rows]), _lanes(direction, rows), mu)
                 for rows in (slice(lo, lo + size) for lo in range(0, len(X), size))]
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _stack_lanes(Amats, k: int) -> int:
    """Lanes per stack: LANE_ENTRIES over each lane's (m, n, k) entries and own tuple."""
    m, n = Amats.shape[-3:-1]
    return max(1, LANE_ENTRIES // (m * (n * k + (Amats.ndim == 4) * n * n)))


def _lanes(a, sub):
    """The lanes sub of a per-lane (L, m, ., .) stack; a shared (m, ., .)
    array, or None, as is."""
    return a if a is None or a.ndim == 3 else a[sub]


def _tol2(opts: SolverOptions) -> float:
    """The squared residual a solve stops at; inf, not OverflowError, past the double range."""
    t = 0.999 * opts.accept_tol
    return t * t


def _descend_stack(Amats, X, p, q, opts: SolverOptions, max_iters, target, U, mu):
    """_descend on one stack; Amats and target are shared (m, ., .) arrays
    or (L, m, ., .) stacks with one entry per lane.

    Steps alternate the two Barzilai-Borwein lengths; a trial point is
    accepted against the Zhang-Hager average C of past objectives, so h may
    rise between steps while C decreases.  The matrix work runs on the
    whole stack; each lane keeps its own step, backtracking t, C and
    stagnation history as Python floats.  The live lanes share the
    iteration count, and with it the BB parity and Q.  A lane that stops
    (converged, vanishing or NaN gradient norm, backtracking exhausted,
    stagnated) is stored and dropped from the stack.  Stagnated means the
    running best objective fell by less than STAGNATION_REL times itself
    over the last STAGNATION_WINDOW accepted steps, or in support mode by
    less than 1e-13 * max(1, |best|) over the last SUPPORT_WINDOW.
    """
    support = U is not None
    IpU = _inflate(U, p) if support else None
    IpT = None if target is None else _inflate(target, p)
    Am = Amats

    def evaluate(X, sub=slice(None)):
        AX = _lanes(Am, sub) @ X[:, None]
        S = _adjoint(X)[:, None] @ AX
        E, B = _misfit(S, p, q) if IpT is None else (S - _lanes(IpT, sub), None)
        R2 = _lane_dot(E, E)
        h = R2 if U is None else mu * R2 - _lane_dot(U[sub], B)
        return [X, AX, E], h.tolist(), R2.tolist()

    (X, AX, E), h, R2 = evaluate(X)
    tol2 = _tol2(opts)
    W = SUPPORT_WINDOW if support else STAGNATION_WINDOW
    ids = list(range(len(X)))
    C, Q = list(h), 1.0
    hist = [deque([v], maxlen=W + 1) for v in h]  # running best objective
    stop = [not support and r <= tol2 for r in R2]
    Xp = Gp = None
    parked = []  # (ids, X, R2) of the lanes stopped so far
    for it in range(max_iters):
        if any(stop):
            if all(stop):
                break
            out = [i for i, s in enumerate(stop) if s]
            keep = [i for i, s in enumerate(stop) if not s]
            parked.append(([ids[i] for i in out], X[out], [R2[i] for i in out]))
            X, AX, E, U, IpU, Xp, Gp = (
                None if a is None else a[keep] for a in (X, AX, E, U, IpU, Xp, Gp))
            Am, IpT = _lanes(Am, keep), _lanes(IpT, keep)
            ids, h, R2, C, hist = ([v[i] for i in keep] for v in (ids, h, R2, C, hist))
        n = len(ids)
        if support:
            G = np.add.reduce(AX @ ((mu * 4.0) * E - (2.0 / p) * IpU), axis=1)
        else:
            G = np.add.reduce(AX @ (4.0 * E), axis=1)
        Gt = _tangent(X, G)
        g2 = _lane_dot(Gt, Gt).tolist()
        t = [ARMIJO_INIT] * n
        if it > 0:
            S, Y = X - Xp, Gt - Gp
            sy = np.abs(_lane_dot(S, Y)).tolist()
            other = (_lane_dot(S, S) if it % 2 == 1 else _lane_dot(Y, Y)).tolist()
            for i in range(n):
                num, den = (other[i], sy[i]) if it % 2 == 1 else (sy[i], other[i])
                if num > 0 and den > 0:
                    t[i] = min(max(num / den, BB_MIN), BB_MAX)
        # backtrack the pending lanes; a trial of the whole stack needs no
        # gather and scatter, and lanes that take no step keep their point
        pend = [i for i in range(n) if g2[i] > 1e-30]
        trial, th, tR2 = None, h, R2
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            if not pend:
                break
            sub = slice(None) if len(pend) == n else pend
            ts = np.array([t[i] for i in pend])
            got, hs, R2s = evaluate(_qr_fix(X[sub] - ts[:, None, None] * Gt[sub]), sub)
            if len(pend) == n:
                trial, th, tR2 = got, hs, R2s
            else:
                if trial is None:
                    trial, th, tR2 = [a.copy() for a in (X, AX, E)], list(h), list(R2)
                for a, b in zip(trial, got):
                    a[pend] = b
                for j, i in enumerate(pend):
                    th[i], tR2[i] = hs[j], R2s[j]
            failed = []
            for j, i in enumerate(pend):
                if not hs[j] <= C[i] - ARMIJO_SLOPE * t[i] * g2[i]:
                    t[i] *= ARMIJO_SHRINK
                    failed.append(i)
            pend = failed
        stop = [not g2[i] > 1e-30 for i in range(n)]
        if trial is None:
            trial = [X, AX, E]
        for i in pend:  # backtracking exhausted: the lane keeps its point
            stop[i] = True
            for a, b in zip(trial, (X, AX, E)):
                a[i] = b[i]
            th[i], tR2[i] = h[i], R2[i]
        Xp, Gp = X, Gt
        (X, AX, E), h, R2 = trial, th, tR2
        # C <- (eta Q C + h) / (eta Q + 1), Q <- eta Q + 1
        Q = NONMONOTONE_ETA * Q + 1.0
        for i in range(n):
            C[i] += (h[i] - C[i]) / Q
            best = hist[i]
            best.append(min(best[-1], h[i]))
            if len(best) > W:
                limit = 1e-13 * max(1.0, abs(best[-1])) if support else STAGNATION_REL * best[-1]
                stop[i] = stop[i] or best[0] - best[-1] < limit
            stop[i] = stop[i] or (not support and R2[i] <= tol2)
    parked.append((ids, X, R2))
    if len(parked) > 1:
        ids, X, R2 = zip(*parked)
        order = np.argsort(np.concatenate(ids))
        X, R2 = np.concatenate(X)[order], np.concatenate(R2)[order]
    return X, np.asarray(R2, dtype=float)


def _polish(Amats, X, p, q, opts: SolverOptions, target=None):
    """Damped Gauss-Newton tail for iterates the first-order loop left short.

    Each step solves a real least-squares system over orthonormal tangent
    coordinates at X: D = Y K + X W, with Y completing X to a unitary, K
    complex and W skew-Hermitian over i e_aa, (e_ab - e_ba)/sqrt2 and
    i(e_ab + e_ba)/sqrt2 (Edelman-Arias-Smith).  D moves E_j by C_j K +
    (C_j K)* + S_j W - W S_j, where C_j = X* A_j Y and S_j = X* A_j X; in
    free mode _misfit projects the columns.  The step is retracted by QR and
    kept only when the residual drops.  Deterministic.  Returns (X, R_squared).
    """
    def evaluate(X):
        E, _ = _misfit(np.conj(X.T) @ (Amats @ X), p, q, target)
        return E, float(np.sum(np.abs(E) ** 2))

    n, k = X.shape
    c = (n - k) * k
    unit = np.array([1.0, 1j])                    # K = e_ab, then i e_ab
    e = np.eye(k * k).reshape(k, k, k, k)         # e[a, b] = e_ab
    a, b = np.triu_indices(k, 1)
    W = np.concatenate([1j * e[range(k), range(k)], (e[a, b] - e[b, a]) / np.sqrt(2),
                        1j * (e[a, b] + e[b, a]) / np.sqrt(2)])
    E, R2 = evaluate(X)
    tol2 = _tol2(opts)
    for _ in range(POLISH_ITERS):
        if R2 <= tol2:
            break
        Y = np.linalg.qr(X, mode="complete")[0][:, k:]
        P = np.conj(X.T) @ Amats                  # (m, k, n)
        S = P @ X
        CK = np.einsum("r,jca,be->rabjce", unit, P @ Y, np.eye(k)).reshape(2 * c, *S.shape)
        L = np.concatenate([CK + _adjoint(CK), S @ W[:, None] - W[:, None] @ S])
        if target is None:
            L, _ = _misfit(L, p, q)
        Lf = L.reshape(len(L), -1).T
        rhs = -np.concatenate([E.ravel().real, E.ravel().imag])
        sol = np.linalg.lstsq(np.concatenate([Lf.real, Lf.imag]), rhs, rcond=None)[0]
        K = (sol[:c] + 1j * sol[c:2 * c]).reshape(n - k, k)
        step = Y @ K + X @ np.tensordot(sol[2 * c:], W, 1)
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


def _settle(Amats, X, R2, p, q, opts: SolverOptions, target=None):
    """Polish one descended lane if it stalled above accept_tol but within
    POLISH_GATE times it; a lane further out keeps its X and residual.

    Fixed-target mode when target is given, free mode otherwise.
    Returns (X, residual).
    """
    if opts.accept_tol < np.sqrt(R2) <= POLISH_GATE * opts.accept_tol:
        X, R2 = _polish(Amats, X, p, q, opts, target=target)
    return X, float(np.sqrt(R2))


def _interlacing_gap(lam, blocks, p: int) -> np.ndarray:
    """Per job, the most by which a descending eigenvalue mu_i of I_p (x) B_j
    leaves [lambda_{n-pq+i}(A_j), lambda_i(A_j)]; lam holds the descending
    eigenvalues of one tuple, (m, n) or (1, m, n), or of one tuple per job,
    (J, m, n), and blocks is (J, m, q, q).  By Cauchy and Weyl no witness
    has a smaller residual; at m = 1 the gap is <= 0 exactly on the range
    (Fan-Pall)."""
    mu = np.repeat(herm_eigvals(blocks), p, axis=-1)
    k = mu.shape[-1]
    return np.maximum(mu - lam[..., :k], lam[..., -k:] - mu).max(axis=(-2, -1))


def _first_success(A, p: int, q: int, opts: SolverOptions, bases, target=None):
    """Job i restarts r = 0, 1, ... from the Haar start seeded bases[i] + r.

    A is one tuple for every job or a list of tuples, one per job; target is
    None (free mode), one (m, q, q) point for every job, or one per job.
    All jobs share m, n, p and q.  Restart 0 runs alone, then the rest of
    the budget in waves of one stack's lanes (_stack_lanes); the waves of all
    open jobs descend as one stack.  In target mode with max_restarts > 1,
    a failed restart 0 makes the call's tuples keep their spectra
    (HermitianTuple.eigvals); when every tuple has one and every
    _interlacing_gap exceeds accept_tol, no restart can succeed and the
    first wave is full too.  Then each job settles its lanes in
    restart order (_settle) and stops at the first that reaches accept_tol,
    so the lowest successful restart wins.  Returns per job (r, X, residual)
    of that restart r, or (None, None, best residual) after max_restarts
    failures; before any restart has run, the best residual is inf.
    """
    if not bases:
        return []
    shared = isinstance(A, HermitianTuple)
    tuples = [A] if shared else A
    first = tuples[0]
    Amats = A.mats if shared else np.stack([a.mats for a in A])
    target = None if target is None else np.broadcast_to(
        np.asarray(target, dtype=complex), (len(bases), first.m, q, q))
    k = _witness_columns(first, p, q)
    out = [(None, None, np.inf)] * len(bases)
    todo = list(range(len(bases)))
    start, width, cap = 0, 1, _stack_lanes(Amats, k)
    learn = target is not None and opts.max_restarts > 1
    if learn and all(a.spectrum is not None for a in tuples):
        lam = np.stack([a.spectrum for a in tuples])  # (1 or J, m, n)
        width = cap if (_interlacing_gap(lam, target, p) > opts.accept_tol).all() else 1
    while todo and start < opts.max_restarts:
        wave = [(i, r) for i in todo
                for r in range(start, min(start + width, opts.max_restarts))]
        X0 = np.array([random_isometry(first.n, k, bases[i] + r).mat for i, r in wave])
        X, R2 = _descend(Amats, X0, p, q, opts, MAX_ITERS, target=target,
                         job=np.array([i for i, _ in wave]))
        for l, (i, r) in enumerate(wave):
            if out[i][0] is not None:  # an earlier restart of job i succeeded
                continue
            Xl, res = _settle(_lanes(Amats, i), X[l], R2[l], p, q, opts, _lanes(target, i))
            out[i] = (r, Xl, res) if res <= opts.accept_tol \
                else (None, None, min(out[i][2], res))
        todo = [i for i in todo if out[i][0] is None]
        if learn and todo and start == 0:
            for a in tuples:
                a.eigvals()
        start, width = start + width, cap
    return out


def solve_jobs(A, p: int, q: int, seeds, points=None,
               opts: SolverOptions = SolverOptions()):
    """Membership (points given) or free solves, one job per seed, in one
    engine call.

    Job i solves on A (one HermitianTuple for every job) or A[i] (a list of
    tuples sharing m and n), for points[i] if given, with options
    opts.replace(seed=seeds[i]); its result is bitwise what that one
    membership or solve_free call returns.  Returns a list of Certificates
    and Rejections.
    """
    shared = isinstance(A, HermitianTuple)
    tuples = [A] * len(seeds) if shared else [as_tuple(a) for a in A]
    if len(tuples) != len(seeds) or points is not None and len(points) != len(seeds):
        raise DimensionError("need one seed per tuple and per point")
    for a, B in zip(tuples, points or ()):
        if B.m != a.m:
            raise DimensionError(f"point length {B.m} does not match tuple length {a.m}")
        if B.q != q:
            raise DimensionError(f"point blocks are {B.q}-by-{B.q}, expected q = {q}")
    target = None if points is None else [B.blocks for B in points]
    found = _first_success(A if shared else tuples, p, q, opts, seeds, target)
    out = []
    for i, (a, (_, X, res)) in enumerate(zip(tuples, found)):
        if X is None:
            out.append(Rejection(best_residual=res, restarts=opts.max_restarts,
                                 message="free solve found no feasible block" if points is None
                                 else "no witness found at the requested tolerance"))
        else:
            out.append(certify(a, Isometry(X), p, None if points is None else points[i]))
    return out


def membership(A, B: MatPoint, p: int, opts: SolverOptions = SolverOptions()):
    """Search for an isometry certifying B in the (p, q) range of A.

    Returns a Certificate on success, a Rejection after max_restarts
    Haar-random starts otherwise.  Raises StructuralInfeasibility when
    p * q exceeds the tuple dimension.
    """
    [got] = solve_jobs(as_tuple(A), p, B.q, [opts.seed], [B], opts)
    return got


def solve_free(A, p: int, q: int, opts: SolverOptions = SolverOptions()):
    """Find any point of the (p, q) range of A, with certificate."""
    [got] = solve_jobs(as_tuple(A), p, q, [opts.seed], opts=opts)
    return got


def _support_lanes(A: HermitianTuple, p: int, q: int, directions, bases,
                   opts: SolverOptions):
    """Penalty continuation for every flattened direction i and restart r
    at once, one lane each, started from the Haar start seeded bases[i] + r.

    Returns per direction (certificate, best residual): the feasible
    certificate with the largest support value over its restarts (None if
    no restart reached accept_tol) and the smallest residual reached.
    """
    k = _witness_columns(A, p, q)
    R = SUPPORT_RESTARTS
    seeds = [b + r for b in bases for r in range(R)]
    if not seeds:
        return [(None, np.inf)] * len(bases)
    U = np.repeat(np.stack([unflatten_blocks(u, A.m, q) for u in directions]), R, axis=0)
    X = np.stack([random_isometry(A.n, k, s).mat for s in seeds])
    scale = A.scale()
    if not np.isfinite(scale):
        raise DimensionError("tuple norm overflows; rescale it for a support-directed solve")
    mu = 1.0 / scale
    for stage in range(SUPPORT_STAGES):
        X, R2 = _descend(A.mats, X, p, q, opts, SUPPORT_STAGE_ITERS,
                         direction=U, mu=mu)
        mu *= SUPPORT_GROWTH
        if stage < SUPPORT_STAGES - 1:
            X = _tangent_kick(X, SUPPORT_KICK, [s * 1000003 + stage for s in seeds],
                              R2 > 1e-24)
    X = _tangent_kick(X, SUPPORT_KICK * 1e-2, [s * 1000003 + 999983 for s in seeds])
    X, R2 = _descend(A.mats, X, p, q, opts, MAX_ITERS)
    out = []
    for i, u in enumerate(directions):
        best_cert, best_val, best_res = None, -np.inf, np.inf
        for lane in range(i * R, (i + 1) * R):
            Xl, res = _settle(A.mats, X[lane], R2[lane], p, q, opts)
            if res <= opts.accept_tol:
                cert = certify(A, Isometry(Xl), p)
                val = float(u @ cert.point.flatten())
                if val > best_val:
                    best_cert, best_val = cert, val
            best_res = min(best_res, res)
        out.append((best_cert, best_res))
    return out


def solve_support(A, p: int, q: int, direction, opts: SolverOptions = SolverOptions()):
    """Push the range as far as possible along a flattened direction.

    Maximizes <direction, B> over certified B by a penalty continuation:
    minimize mu * R^2 - <direction, B> for an increasing schedule of mu, with
    a small seeded tangent kick between stages (stages can otherwise park on
    exactly stationary invariant subspaces), then a pure feasibility polish.
    The SUPPORT_RESTARTS restarts run as lanes of one stack.  Returns the
    feasible certificate with the largest support value, or a Rejection if
    no restart reached accept_tol.
    """
    A = as_tuple(A)
    direction = np.asarray(direction, dtype=float)
    [(cert, res)] = _support_lanes(A, p, q, [direction], [opts.seed], opts)
    if cert is not None:
        return cert
    return Rejection(best_residual=res, restarts=SUPPORT_RESTARTS,
                     message="support-directed solve never reached tolerance")


def sample_range(A, p: int, q: int, count: int,
                 opts: SolverOptions = SolverOptions(),
                 directions=None) -> PointCloud:
    """Collect certified points of the (p, q) range of A.

    The first samples chase the given flattened directions (one support-
    directed solve each, all of them as lanes of one stack); the remainder
    are free solves from Haar starts, whose restart waves share one stack.
    Rejected attempts are dropped and counted in the meta.  Deterministic
    for a fixed seed: sample i uses base seed opts.seed + 100003 * (i + 1).
    """
    A = as_tuple(A)
    if count < 0:
        raise DimensionError(f"need count >= 0, got {count}")
    dirs = [] if directions is None else [np.asarray(u, float) for u in directions]
    total = count + len(dirs)
    bases = [opts.seed + 100003 * (i + 1) for i in range(total)]
    certs = [cert for cert, _ in _support_lanes(A, p, q, dirs, bases[:len(dirs)], opts)]
    certs += solve_jobs(A, p, q, bases[len(dirs):], opts=opts)
    certs = [c for c in certs if isinstance(c, Certificate)]
    rejected = total - len(certs)
    rows = [c.point.flatten() for c in certs]
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
    return PointCloud(coords=coords, m=A.m, p=p, q=q,
                      certificates=tuple(certs), meta=meta)
