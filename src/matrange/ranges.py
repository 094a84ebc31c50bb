"""Classical numerical-range computations and reductions.

Covers the objects with closed-form or spectral descriptions: the planar
numerical range W(A) of a single complex matrix via supporting lines, the
rank-k range of a single Hermitian matrix (an eigenvalue interval), scalar
joint-range sampling, support values, and the Cartesian embedding
A = H + iG that transports complex tuples to Hermitian ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, HermitianTuple, as_tuple, frob, herm_eig, hermitize
from .feasibility import PointCloud


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    empty: bool = False

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.empty:
            return False
        return self.lo - tol <= x <= self.hi + tol


@dataclass(frozen=True)
class Boundary2D:
    """Discretized boundary of a planar numerical range.

    vertices[i] is a boundary point supported by the line of outward normal
    angle angles[i]; support[i] is the corresponding half-plane offset, so
    the range is contained in Re(exp(-i angle) z) <= support for every i
    (outer approximation) while the vertex polygon is an inner one.
    """

    angles: np.ndarray
    vertices: np.ndarray
    support: np.ndarray
    degenerate: str = "full"  # "full" | "segment" | "point"

    def gap(self) -> float:
        """Largest distance, along the mid-angle normal of two consecutive
        supporting lines, from the inner vertex polygon out to the corner
        where the lines meet; a convergence measure."""
        if len(self.angles) == 0 or self.degenerate == "point":
            return 0.0
        # the vertices follow the convex boundary, so at a mid-angle the inner
        # polygon's support is attained at one of the two adjacent vertices
        step = np.mod(np.roll(self.angles, -1) - self.angles, 2.0 * np.pi)
        mid = np.exp(-1j * (self.angles + 0.5 * step))
        outer = (self.support + np.roll(self.support, -1)) / (2.0 * np.cos(0.5 * step))
        inner = np.maximum(np.real(mid * self.vertices),
                           np.real(mid * np.roll(self.vertices, -1)))
        return float(np.max(outer - inner))


def hermitian_embed(T) -> HermitianTuple:
    """Split complex matrices A_j = H_j + i G_j into the Hermitian 2m-tuple
    (H_1, G_1, ..., H_m, G_m)."""
    arr = np.asarray(T, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"expected (m, n, n) complex array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("matrix entries must be finite")
    G = (arr - np.conj(np.swapaxes(arr, 1, 2))) / 2j
    # interleaved as (H_1, G_1, ..., H_m, G_m)
    return HermitianTuple(np.stack([hermitize(arr), G], axis=1).reshape((-1,) + arr.shape[1:]))


def support_value(A, u) -> float:
    """max over the joint range of <u, b>: the top eigenvalue of sum u_j A_j."""
    A = as_tuple(A)
    u = np.asarray(u, dtype=float)
    if u.shape != (A.m,):
        raise DimensionError(f"direction needs {A.m} components, got shape {u.shape}")
    M = np.einsum("j,jkl->kl", u, A.mats)
    w, _ = herm_eig(hermitize(M))
    return float(w[0])


def rank_k_interval(A, k: int) -> Interval:
    """The rank-k range of one Hermitian matrix: [a_(n-k+1), a_k] in the
    descending eigenvalue order, empty when that interval is inverted."""
    A = np.asarray(A, dtype=complex)
    if A.ndim == 3:
        if A.shape[0] != 1:
            raise DimensionError("rank_k_interval takes a single Hermitian matrix")
        A = A[0]
    n = A.shape[0]
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= {n}, got k = {k}")
    w, _ = herm_eig(A)
    lo, hi = float(w[n - k]), float(w[k - 1])
    return Interval(lo=lo, hi=hi, empty=lo > hi)


STACK_ENTRIES = 2**20  # complex entries (16 MiB) per stack of angle matrices


def numrange_boundary(A, n_angles: int = 256) -> Boundary2D:
    """Boundary of W(A) for a complex square matrix by supporting lines.

    For each angle the top eigenvector x of Re(exp(-i angle) A) contributes
    the vertex x* A x and the support value (the top eigenvalue); the angle
    matrices are diagonalized in stacks of at most STACK_ENTRIES entries.
    Degenerate ranges are tagged: "point" for scalar-like matrices,
    "segment" when the vertex polygon has vanishing area (normal matrices
    with collinear eigenvalues, e.g. Hermitian A).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionError(f"expected a nonempty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DimensionError("matrix entries must be finite")
    if n_angles < 3:
        raise DimensionError("need at least 3 angles")
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    verts = np.empty(n_angles, dtype=complex)
    supp = np.empty(n_angles)
    AH = np.conj(A.T)
    chunk = max(1, STACK_ENTRIES // A.size)
    for lo in range(0, n_angles, chunk):
        ph = np.exp(-1j * angles[lo:lo + chunk])[:, None, None]
        # H_t = Re(exp(-i angle_t) A), built exactly Hermitian
        w, V = herm_eig(0.5 * (ph * A + np.conj(ph) * AH))
        X = V[:, :, 0]
        verts[lo:lo + chunk] = np.einsum("ti,ij,tj->t", np.conj(X), A, X)
        supp[lo:lo + chunk] = w[:, 0]
    scale = max(1.0, frob(A))
    # diagonal of the vertices' bounding box: within a factor sqrt(2) of
    # their diameter, in O(n_angles) memory
    diam = float(np.hypot(np.ptp(verts.real), np.ptp(verts.imag)))
    if diam <= 1e-14 * scale:
        tag = "point"
    else:
        x, y = verts.real, verts.imag
        area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
        tag = "segment" if area < 1e-12 * diam * diam else "full"
    return Boundary2D(angles=angles, vertices=verts, support=supp, degenerate=tag)


def joint_numrange_sample(A, count: int, seed: int = 0) -> PointCloud:
    """Sample W(A_1, ..., A_m) at Haar-random unit vectors.

    Every emitted point is an exact element of the joint range (it is a
    quadratic form value), so the cloud carries no certificates.
    """
    A = as_tuple(A)
    if A.n < 1:
        raise DimensionError("cannot sample a 0-dimensional tuple")
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal((count, A.n)) + 1j * rng.standard_normal((count, A.n)))
    G /= np.linalg.norm(G, axis=1, keepdims=True)
    # values[i, j] = x_i* A_j x_i
    AX = np.einsum("jkl,il->jik", A.mats, G)
    vals = np.real(np.einsum("ik,jik->ij", np.conj(G), AX))
    meta = {"generator": "joint_numrange_sample", "seed": seed, "count": count}
    return PointCloud(coords=vals, m=A.m, p=1, q=1, meta=meta)
