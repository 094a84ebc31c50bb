"""Dense Hermitian linear algebra kernel.

Everything downstream works with m-tuples of n-by-n Hermitian matrices and
with isometries (tall matrices X with X*X = I).  This module owns the two
container types, an eigensolver, Haar sampling, and the structural
operations (compression, block inflation) that the range computations
are built from.

All operations are pure: inputs are never mutated and randomness enters only
through explicit integer seeds.  The one state an object gains after
construction is a HermitianTuple's spectrum, kept by its first eigvals().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

try:  # numpy's private QR gufuncs, for _qr_fix; None where a release moved them
    from numpy.linalg import _umath_linalg
    _QR_GUFUNCS = (_umath_linalg.qr_r_raw, _umath_linalg.qr_reduced)
except (ImportError, AttributeError):
    _QR_GUFUNCS = None

HERM_TOL = 1e-12
ISO_TOL = 1e-10


class DimensionError(ValueError):
    """Shapes are structurally incompatible (not a numerical failure)."""


def frob(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def hermitize(M: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 for a matrix or each matrix of a stack (..., n, n)."""
    return 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))


def _herm_defects(A) -> np.ndarray:
    """||M - M*|| / max(1, ||M||) for each matrix M of a stack (..., n, n).

    One matrix (2-D input) is measured first by two BLAS dot products, which
    raise no floating-point warning and so need no errstate: a finite ||M||^2
    bounds every entry, so M - M* cannot overflow.  When either product is
    not finite, and for every stack, the norms are taken under errstate.
    When a norm overflows, each matrix is scaled by a power of two that
    brings its largest real or imaginary part below 1, and the norms are
    taken again.  The scaling is exact, so the ratio is unchanged, but the
    norms stay finite however close the entries come to the double range.
    A non-finite entry gives NaN, which fails every `defect <= tol` test.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim == 2 and (den2 := np.vdot(A, A).real) < np.inf:
        D = A - np.conj(A.T)
        if (num2 := np.vdot(D, D).real) < np.inf:
            return np.sqrt(num2) / np.maximum(1.0, np.sqrt(den2))

    def norms(M):
        flat = M.shape[:-2] + (M.shape[-2] * M.shape[-1],)
        D = (M - np.conj(np.swapaxes(M, -1, -2))).reshape(flat)
        M = M.reshape(flat)
        return np.sqrt(np.vecdot(D, D).real), np.sqrt(np.vecdot(M, M).real)

    with np.errstate(over="ignore", invalid="ignore"):
        num, den = norms(A)
        if (num + den < np.inf).all():
            return num / np.maximum(1.0, den)
        top = np.max(np.maximum(np.abs(A.real), np.abs(A.imag)), axis=(-2, -1), initial=0.0)
        s = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))
        num, den = norms(s[..., None, None] * A)
        return num / np.maximum(s, den)


def _checked_herm(A, what: str = "matrix") -> np.ndarray:
    """A as a complex matrix or stack (..., s, s) of finite Hermitian matrices
    (relative tolerance HERM_TOL).  The one report of a failed check, a
    DimensionError, names the first bad `what` by its stack index and, in it,
    the first non-finite entry or else the entry farthest from its conjugate."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"expected square matrices, got shape {A.shape}")
    d = _herm_defects(A)  # NaN for a matrix with a non-finite entry
    if not (d <= HERM_TOL).all():
        j = tuple(int(i) for i in np.argwhere(~(d <= HERM_TOL))[0])
        name, M = f"{what} {', '.join(map(str, j))}".rstrip(), A[j]
        bad = np.argwhere(~np.isfinite(M))
        if len(bad):
            raise DimensionError(f"{name} has a non-finite entry at {tuple(map(int, bad[0]))}")
        with np.errstate(over="ignore"):  # inf where M - M* passes the double range
            D = np.abs(M - np.conj(M.T))
        ik = tuple(map(int, np.unravel_index(np.argmax(D), D.shape)))
        raise DimensionError(f"{name} is not Hermitian: entry {ik} differs from its conjugate "
                             f"by {D[ik]:.3e} (relative defect {d[j]:.3e})")
    return A


def hermitian_stack(A, what: str = "member") -> np.ndarray:
    """A as a complex (m, s, s) stack, m >= 1, checked by _checked_herm."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionError(f"expected an (m, s, s) stack of {what}s, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionError(f"need at least one {what}")
    return _checked_herm(A, what)


@dataclass(frozen=True)
class HermitianTuple:
    """An m-tuple of n-by-n Hermitian matrices, stored as an (m, n, n) array.

    Each member must be Hermitian to relative tolerance 1e-12; violations are
    rejected at construction (hermitian_stack) rather than silently
    symmetrized.
    """

    mats: np.ndarray
    # the members' eigenvalues, descending along the last axis; None until
    # the first eigvals() call
    spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mats", hermitian_stack(self.mats))

    def eigvals(self) -> np.ndarray:
        """spectrum, computed by the first call (mats was checked at
        construction) and kept for the later ones."""
        if self.spectrum is None:
            object.__setattr__(self, "spectrum", np.linalg.eigvalsh(self.mats)[..., ::-1])
        return self.spectrum

    @property
    def m(self) -> int:
        return self.mats.shape[0]

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    def scale(self) -> float:
        """max(1, largest member Frobenius norm); the relative-tolerance unit."""
        with np.errstate(over="ignore"):  # inf for entries near the double range
            return max(1.0, max(frob(self.mats[j]) for j in range(self.m)))


def as_tuple(A) -> HermitianTuple:
    """Coerce a HermitianTuple, list of matrices, or (m, n, n) array."""
    if isinstance(A, HermitianTuple):
        return A
    arr = np.asarray(A, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    return HermitianTuple(arr)


@dataclass(frozen=True)
class Isometry:
    """An n-by-k matrix X with X*X = I_k, k <= n.

    The defect tolerance is 1e-10 by default.  Assembled witnesses (sums of
    orthogonal pieces scaled by convex weights) may carry a documented looser
    bound; they pass it explicitly via `tol`.
    """

    mat: np.ndarray
    tol: float = field(default=ISO_TOL, compare=False)

    def __post_init__(self):
        X = np.asarray(self.mat, dtype=complex)
        if X.ndim != 2:
            raise DimensionError(f"expected 2-d array, got shape {X.shape}")
        n, k = X.shape
        if k > n:
            raise DimensionError(f"isometry needs k <= n, got {n}x{k}")
        object.__setattr__(self, "mat", X)
        if not (d := self.defect()) <= self.tol:  # NaN when X*X overflows
            raise DimensionError(f"isometry defect {d:.3e} exceeds tolerance {self.tol:.1e}")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def k(self) -> int:
        return self.mat.shape[1]

    def defect(self) -> float:
        return frob(np.conj(self.mat.T) @ self.mat - np.eye(self.k))


def herm_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix or a stack (..., n, n).

    Returns (w, V) from LAPACK (numpy.linalg.eigh) with the eigenvalues of
    each matrix sorted descending along the last axis of w and the matching
    eigenvectors in the columns of V, so that A V = V diag(w).  Every slice
    must be finite and Hermitian to relative tolerance HERM_TOL.
    """
    w, V = np.linalg.eigh(_checked_herm(A))
    return w[..., ::-1], V[..., ::-1]


def herm_eigvals(A: np.ndarray) -> np.ndarray:
    """herm_eig's eigenvalues alone, descending along the last axis, from
    numpy.linalg.eigvalsh, behind the same shape and Hermitian check."""
    return np.linalg.eigvalsh(_checked_herm(A))[..., ::-1]


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _qr_fix(M: np.ndarray) -> np.ndarray:
    """Q factor of a reduced QR with the R diagonal rotated to be positive.

    M may be a stack (..., n, k); each matrix is factored on its own.  The
    two gufuncs behind numpy's reduced QR, _umath_linalg.qr_r_raw (R and
    the Householder vectors, in place) and then qr_reduced (Q), run directly
    on a complex copy of M, under the errstate numpy's wrapper uses.  For
    the solver's thin matrices (a few columns) the wrapper's type promotion,
    copies and triu cost about 5x the factorization; the LAPACK calls, and
    so the bits, are the same.  R's diagonal is read from the factored copy.
    The one qr_r_raw, whose output length min(n, k) no input has, needs the
    gufunc core-dimension hook of numpy's 2.1 C API: hence numpy >= 2.1.
    Where numpy no longer has those gufuncs, np.linalg.qr runs instead, at
    about 10 us more per call.
    """
    a = np.array(M, dtype=complex)
    if _QR_GUFUNCS is None:
        Q, R = np.linalg.qr(a)
        d = R.diagonal(0, -2, -1)
    else:
        qr_r_raw, qr_reduced = _QR_GUFUNCS
        with np.errstate(call=_raise_qr_error, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            tau = qr_r_raw(a, signature="D->D")
            Q = qr_reduced(a, tau, signature="DD->D")
        d = a.diagonal(0, -2, -1)
    phase = np.sign(d)  # d / |d|, and 0 where d = 0
    phase[phase == 0] = 1.0
    Q *= phase.conj()[..., None, :]
    return Q


def random_isometry(n: int, k: int, seed: int) -> Isometry:
    """Haar-distributed n-by-k isometry: QR of a complex Gaussian matrix.

    The R diagonal is phase-fixed to be positive, which makes the Q factor
    the Haar sample and the output a deterministic function of the seed.
    """
    if k > n or k < 0 or n < 0:
        raise DimensionError(f"need 0 <= k <= n, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    return Isometry(_qr_fix(G))


def coordinate_isometry(n: int, cols) -> Isometry:
    """Embedding of the listed coordinates of C^n, as columns of the identity."""
    return Isometry(np.eye(n, dtype=complex)[:, list(cols)])


def compress(A, X: Isometry) -> HermitianTuple:
    """Corner compression (X* A_1 X, ..., X* A_m X).

    The products are re-Hermitized entrywise; the symmetrization error is at
    rounding level because X is an isometry and each A_j is Hermitian.
    """
    A = as_tuple(A)
    if X.n != A.n:
        raise DimensionError(f"isometry rows {X.n} do not match tuple dimension {A.n}")
    return HermitianTuple(hermitize(np.conj(X.mat.T) @ (A.mats @ X.mat)))


def _inflate(B: np.ndarray, p: int) -> np.ndarray:
    """(..., q, q) blocks -> (..., pq, pq) block diagonals I_p (x) B, unvalidated."""
    q = B.shape[-1]
    out = np.zeros(B.shape[:-2] + (p * q, p * q), dtype=complex)
    for i in range(p):
        out[..., i * q:(i + 1) * q, i * q:(i + 1) * q] = B
    return out
