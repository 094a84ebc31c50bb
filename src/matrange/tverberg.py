"""Tverberg partitions of finite point sets: Radon's split and Bárány's
colorful exchange over Sarkaria's lift.

Any d >= (p-1)(D+1)+1 points in R^D can be split into p parts whose convex
hulls share a point.  For p = 2 this is Radon's theorem, and its proof is the
algorithm: an affine dependence sum lam_i P_i = 0, sum lam_i = 0 (the least
right-singular vector of [P^T; 1]) splits the points by sign, and lam over
each part is a pair of weight vectors with a common point.

For p >= 3 the proof is Sarkaria's (Israel J. Math. 1992).  With w_1..w_p =
e_1..e_{p-1}, -1 in R^(p-1), which sum to zero, point i becomes the color
class {(P_i, 1) (x) w_j : j = 1..p} in R^N, N = (D+1)(p-1), and 0 is the
centroid of every class.  A colorful set (class i contributes its j(i)-th
point) whose hull holds 0 is a Tverberg partition: sum_i lam_i (P_i, 1) (x)
w_j(i) = 0 says the partial sums over the parts {i : j(i) = j} all agree, so
each part carries weight 1/p, and its normalized weights combine to the
common point.  Bárány's exchange (Discrete Math. 1982) finds such a set among
d >= N + 1 classes.  Let x be the point of the colorful hull nearest 0, by
Wolfe's min-norm point algorithm (Math. Programming 1976).  If x != 0 it lies
on a face spanned by at most N points, so some class has weight 0; the
lowest-index such class moves to its point minimizing <x, .>, which is <= 0 <
|x|^2 because the class sums to 0.  So |x| falls strictly, no colorful set
repeats, and the exchange ends; ties go to the smallest index, so runs are
deterministic.  Coordinates are normalized to unit scale before the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError

EXCHANGE_CAP = 1000
ZERO_TOL = 1e-14  # |x| that counts as 0, relative to the largest lifted point


class ExchangeError(ValueError):
    """The colorful exchange stalled, or made EXCHANGE_CAP exchanges, short of 0."""


@dataclass(frozen=True)
class PartitionResult:
    parts: tuple
    weights: tuple
    common_point: np.ndarray
    partitions_scanned: int

    def part_points(self, points: np.ndarray, ell: int) -> np.ndarray:
        return np.asarray(points)[list(self.parts[ell])]


def _points(points) -> np.ndarray:
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise DimensionError(f"expected (d, D) point array, got shape {P.shape}")
    return P


def _lift(P: np.ndarray, p: int) -> np.ndarray:
    """Sarkaria's color classes: (d, p, (D+1)(p-1)), row j of class i being
    (P_i, 1) (x) w_j at unit coordinate scale."""
    d, D = P.shape
    a = np.hstack([P / (np.max(np.abs(P), initial=0.0) or 1.0), np.ones((d, 1))])
    w = np.vstack([np.eye(p - 1), -np.ones(p - 1)])
    return (a[:, None, :, None] * w[None, :, None, :]).reshape(d, p, (D + 1) * (p - 1))


def _affine_weights(Z: np.ndarray):
    """Weights (summing to 1) of the point of the rows' affine hull nearest
    0, or None when the rows are affinely dependent."""
    t, _, rank, _ = np.linalg.lstsq((Z[1:] - Z[0]).T, -Z[0], rcond=None)
    return np.concatenate([[1.0 - t.sum()], t]) if rank == len(Z) - 1 else None


def _nearest(Y: np.ndarray, lam: np.ndarray):
    """Wolfe's point x nearest 0 in the hull of the rows of Y, continued from
    convex weights lam over an affinely independent support (the corral).
    Returns the final weights, x, and whether x counts as 0.  It stops at
    |x| <= tol = ZERO_TOL max |Y_i|, when no row improves on x by more than
    tol |x|, or when the best row is affinely dependent on the corral or
    fails to shorten x."""
    tol = ZERO_TOL * np.sqrt(np.max(np.sum(Y * Y, axis=1)))
    x = lam @ Y
    while (xx := x @ x) > tol * tol:
        g = np.where(lam > 0, np.inf, Y @ x)  # corral rows sit at xx, up to rounding
        k = int(np.argmin(g))
        if g[k] >= xx - tol * np.sqrt(xx):
            break
        S = np.append(np.flatnonzero(lam), k)
        w = np.append(lam[S[:-1]], 0.0)
        # minor cycle: step from w toward the affine optimum mu until the
        # first weight reaches 0, drop that point, and solve again
        while (mu := _affine_weights(Y[S])) is not None and not np.all(mu > 0):
            ratio = np.divide(w, w - mu, out=np.zeros_like(w), where=w > mu)
            j = np.flatnonzero(mu <= 0)[np.argmin(ratio[mu <= 0])]
            w = w + ratio[j] * (mu - w)
            w[j] = 0.0
            S, w = S[w > 0], w[w > 0]
        if mu is None or (y := mu @ Y[S]) @ y >= xx:
            break
        lam, x = np.zeros_like(lam), y
        lam[S] = mu
    return lam, x, x @ x <= tol * tol


def lp_common_point(points, parts):
    """A point in the intersection of the parts' convex hulls, or None.

    The colorful set that gives each part's points that part's color has 0
    as its min-norm point exactly when the hulls meet.  On success returns
    (common_point, weights, distance): one nonnegative, sum-one weight vector
    per part, all combining to the same point, and |x| at unit scale.
    """
    P = _points(points)
    parts = [list(part) for part in parts]
    if min((len(part) for part in parts), default=0) < 1:
        raise DimensionError("every part must be nonempty")
    idx = np.concatenate(parts)
    colors = np.repeat(np.arange(len(parts)), [len(part) for part in parts])
    Y = _lift(P[idx], len(parts))[np.arange(len(idx)), colors]
    lam, x, zero = _nearest(Y, np.eye(len(idx))[0])
    if not zero:
        return None
    weights = [lam[colors == ell] / lam[colors == ell].sum() for ell in range(len(parts))]
    return weights[0] @ P[parts[0]], weights, float(np.sqrt(x @ x))


def _radon_split(P: np.ndarray) -> PartitionResult:
    """Radon's partition of d >= D + 2 points in R^D into two parts.

    The least right-singular vector lam of [P^T; 1] is an affine dependence:
    sum lam_i P_i = 0 and sum lam_i = 0.  Its signs split the points, and
    lam over each part, scaled to sum one, gives weights whose combinations
    agree.  Parts come out ordered by smallest member.
    """
    scale = float(np.max(np.abs(P), initial=1.0))
    M = np.vstack([P.T / scale, np.ones(len(P))])
    lam = np.linalg.svd(M)[2][-1]
    first = lam >= 0 if lam[0] >= 0 else lam <= 0
    idx = (np.flatnonzero(first), np.flatnonzero(~first))
    w = np.abs(lam)
    weights = tuple(w[i] / w[i].sum() for i in idx)
    return PartitionResult(parts=tuple(tuple(i.tolist()) for i in idx), weights=weights,
                           common_point=weights[0] @ P[idx[0]], partitions_scanned=0)


def tverberg_partition(points, p: int) -> PartitionResult:
    """A partition of the points into p parts with intersecting convex hulls.

    Needs the guarantee d >= (p-1)(D+1)+1.  p = 1 is the centroid and p = 2
    Radon's split (partitions_scanned = 0); p >= 3 runs the colorful
    exchange, and partitions_scanned counts the colorful sets it tried.  An
    exchange that stalls or reaches EXCHANGE_CAP raises ExchangeError.
    """
    P = _points(points)
    d, D = P.shape
    if p < 1:
        raise DimensionError("need p >= 1")
    if d < (p - 1) * (D + 1) + 1:
        raise DimensionError(f"a Tverberg partition into {p} parts of points in R^{D} "
                             f"needs d >= {(p - 1) * (D + 1) + 1} points, got {d}")
    if p == 1:
        w = np.full(d, 1.0 / d)
        return PartitionResult(parts=(tuple(range(d)),), weights=(w,),
                               common_point=w @ P, partitions_scanned=0)
    if p == 2:
        return _radon_split(P)
    Y = _lift(P, p)
    colors, lam = np.zeros(d, dtype=int), np.eye(d)[0]
    for exchanges in range(EXCHANGE_CAP + 1):
        lam, x, zero = _nearest(Y[np.arange(d), colors], lam)
        if zero:
            parts = sorted((np.flatnonzero(colors == j) for j in range(p)), key=lambda i: i[0])
            weights = tuple(lam[i] / lam[i].sum() for i in parts)
            return PartitionResult(parts=tuple(tuple(i.tolist()) for i in parts), weights=weights,
                                   common_point=weights[0] @ P[parts[0]],
                                   partitions_scanned=exchanges + 1)
        i = int(np.argmin(lam))  # the lowest-index class of weight 0, if any
        j = int(np.argmin(Y[i] @ x))
        if lam[i] > 0 or colors[i] == j:  # nothing to exchange: x would repeat
            raise ExchangeError(f"colorful exchange stalled at |x| = {np.sqrt(x @ x):.3g} "
                                "(points too close to dependent at working precision)")
        colors[i] = j
    raise ExchangeError(f"colorful exchange stopped at its cap of {EXCHANGE_CAP} exchanges")
