"""Classical numerical-range computations and reductions.

Covers the objects with closed-form or spectral descriptions: the planar
numerical range W(A) of a single complex matrix via supporting lines, the
rank-k range of a single Hermitian matrix (an eigenvalue interval), and the
Cartesian embedding A = H + iG that transports complex tuples to Hermitian
ones.  Nothing here calls the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, HermitianTuple, frob, herm_eig, herm_eigvals, hermitize


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    empty: bool = False


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


def rank_k_interval(A, k: int) -> Interval:
    """The rank-k range of one Hermitian matrix: [a_(n-k+1), a_k] in the
    descending eigenvalue order, empty when that interval is inverted.

    A is an (n, n) matrix or a (1, n, n) stack, and only its eigenvalues
    are computed (herm_eigvals).
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim == 3 and A.shape[0] == 1:
        A = A[0]
    if A.ndim != 2:
        raise DimensionError(
            f"rank_k_interval takes a single Hermitian matrix, got shape {A.shape}")
    w = herm_eigvals(A)
    n = w.size
    if not 1 <= k <= n:
        raise DimensionError(f"need 1 <= k <= {n}, got k = {k}")
    lo, hi = float(w[n - k]), float(w[k - 1])
    return Interval(lo=lo, hi=hi, empty=lo > hi)


STACK_ENTRIES = 2**20  # complex entries (16 MiB) per stack of angle matrices


def numrange_boundary(A, n_angles: int = 256) -> Boundary2D:
    """Boundary of W(A) for a complex square matrix by supporting lines.

    For each angle the top eigenvector x of H_t = Re(exp(-i angle) A)
    contributes the vertex x* A x and the support value (the top
    eigenvalue); the angle matrices are diagonalized in stacks of at most
    STACK_ENTRIES entries.  With an even n_angles, angle t + n_angles/2 is
    t + pi, whose matrix is -H_t (Johnson's pairing of opposite supporting
    lines): only the first half is diagonalized, and the opposite line reads
    its support -lambda_min(H_t) and its vertex from the bottom eigenvector.
    On a flat edge (a repeated top eigenvalue) the vertex is some point of
    that edge, so which one can depend on the parity of n_angles.
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
    half = n_angles // 2 if n_angles % 2 == 0 else n_angles  # angles diagonalized

    def vertices(X):
        return np.einsum("ti,ij,tj->t", np.conj(X), A, X)

    chunk = max(1, STACK_ENTRIES // A.size)
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        ph = np.exp(-1j * angles[lo:hi])[:, None, None]
        # H_t = Re(exp(-i angle_t) A), built exactly Hermitian
        w, V = herm_eig(0.5 * (ph * A + np.conj(ph) * AH))
        verts[lo:hi] = vertices(V[:, :, 0])
        supp[lo:hi] = w[:, 0]
        if half < n_angles:  # angle_t + pi, from the bottom of -H_t's spectrum
            verts[half + lo:half + hi] = vertices(V[:, :, -1])
            supp[half + lo:half + hi] = -w[:, -1]
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
