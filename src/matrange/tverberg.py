"""Tverberg partitions of finite point sets by exhaustive LP scanning.

Any (p-1)(D+1)+1 points in R^D can be split into p parts whose convex hulls
share a point.  At the sizes used here (d <= 14) the reliable route is the
direct one: enumerate set partitions into exactly p nonempty parts in
lexicographic order of their restricted-growth strings and test each with a
small linear feasibility program, stopping at the first hit.

The LP solver is a dense phase-1 simplex with Bland's rule, so termination
is unconditional and runs are deterministic.  Coordinates are normalized to
unit scale before the tableau is built; feasibility is decided at 1e-9 on
the phase-1 objective and clear infeasibility sits above 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError

MAX_POINTS = 14
FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class PartitionResult:
    parts: tuple
    weights: tuple
    common_point: np.ndarray
    partitions_scanned: int

    def part_points(self, points: np.ndarray, ell: int) -> np.ndarray:
        return np.asarray(points)[list(self.parts[ell])]


def set_partitions(d: int, p: int):
    """Partitions of {0..d-1} into exactly p nonempty parts, lexicographic in
    the restricted-growth string; parts come out ordered by smallest member."""
    if d < p or p < 1:
        return
    a = [0] * d

    def rec(i, mx):
        if i == d:
            if mx + 1 == p:
                parts = [[] for _ in range(p)]
                for idx, c in enumerate(a):
                    parts[c].append(idx)
                yield tuple(tuple(part) for part in parts)
            return
        hi = min(mx + 1, p - 1)
        for v in range(hi + 1):
            # prune branches that can no longer reach p classes
            new_mx = max(mx, v)
            if new_mx + 1 + (d - i - 1) < p:
                continue
            a[i] = v
            yield from rec(i + 1, new_mx)

    yield from rec(0, -1)


def count_partitions(d: int, p: int) -> int:
    """Stirling number of the second kind S(d, p) by the triangular recurrence."""
    if p < 0 or p > d:
        return 0
    S = [[0] * (p + 1) for _ in range(d + 1)]
    S[0][0] = 1
    for i in range(1, d + 1):
        for j in range(1, min(i, p) + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return S[d][p]


def _phase1(A: np.ndarray, b: np.ndarray, max_pivots: int = 20000):
    """Find x >= 0 with A x = b, minimizing artificial mass by simplex.

    Returns (x, z) where z is the optimal phase-1 objective; x is only
    meaningful when z is at feasibility level.  Bland's rule (smallest
    eligible entering index, smallest basic index on ratio ties) guarantees
    termination.
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    nr, nc = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    T = np.hstack([A, np.eye(nr), b.reshape(-1, 1)])
    basis = list(range(nc, nc + nr))
    # reduced costs for cost vector (0,...,0 | 1,...,1); artificials are basic
    cost = np.zeros(nc + nr + 1)
    cost[:nc] = -T[:, :nc].sum(axis=0)
    cost[-1] = -T[:, -1].sum()

    for _ in range(max_pivots):
        enter = -1
        for j in range(nc + nr):
            if cost[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = np.inf
        for i in range(nr):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded direction cannot happen in phase 1; treat as failure
            raise RuntimeError("phase-1 simplex lost boundedness")
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(nr):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        cost -= cost[enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError("phase-1 simplex exceeded the pivot cap")

    x = np.zeros(nc)
    z = 0.0
    for i, bi in enumerate(basis):
        if bi < nc:
            x[bi] = T[i, -1]
        else:
            z += T[i, -1]
    return x, z


def lp_common_point(points, parts, feas_tol: float = FEAS_TOL):
    """A point in the intersection of the parts' convex hulls, or None.

    On success returns (common_point, weights, z) with one nonnegative,
    sum-one weight vector per part, all combining to the same point within
    the LP tolerance.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise DimensionError(f"expected (d, D) point array, got shape {P.shape}")
    d, D = P.shape
    parts = [list(part) for part in parts]
    p = len(parts)
    scale = max(1.0, float(np.max(np.abs(P))) if P.size else 1.0)
    Pn = P / scale
    sizes = [len(part) for part in parts]
    if min(sizes, default=0) < 1:
        raise DimensionError("every part must be nonempty")
    ncols = sum(sizes)
    offs = np.cumsum([0] + sizes)
    nrows = p + D * (p - 1)
    A = np.zeros((nrows, ncols))
    b = np.zeros(nrows)
    for ell, part in enumerate(parts):
        A[ell, offs[ell]:offs[ell + 1]] = 1.0
        b[ell] = 1.0
    for ell in range(1, p):
        rows = slice(p + D * (ell - 1), p + D * ell)
        for t, i in enumerate(parts[0]):
            A[rows, offs[0] + t] = Pn[i]
        for t, i in enumerate(parts[ell]):
            A[rows, offs[ell] + t] -= Pn[i]
    x, z = _phase1(A, b)
    if z > feas_tol:
        return None
    weights = []
    for ell in range(p):
        w = np.maximum(x[offs[ell]:offs[ell + 1]], 0.0)
        s = w.sum()
        w = w / s if s > 0 else np.full(sizes[ell], 1.0 / sizes[ell])
        weights.append(w)
    common = scale * (weights[0] @ Pn[parts[0]])
    return common, weights, z


def _check_scan_size(d: int) -> None:
    """DimensionError when d points exceed the partition scan's MAX_POINTS."""
    if d > MAX_POINTS:
        raise DimensionError(f"partition scan capped at {MAX_POINTS} points, got {d}")


def tverberg_partition(points, p: int) -> PartitionResult:
    """First partition (in restricted-growth lexicographic order) of the
    points into p parts with intersecting convex hulls.

    The guarantee d >= (p-1)(D+1)+1 makes existence unconditional; running
    below it is allowed and simply may raise when every partition fails.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise DimensionError(f"expected (d, D) point array, got shape {P.shape}")
    d, D = P.shape
    _check_scan_size(d)
    if p < 1:
        raise DimensionError("need p >= 1")
    if d < p:
        raise DimensionError(f"cannot split {d} points into {p} nonempty parts")
    if p == 1:
        w = np.full(d, 1.0 / d)
        return PartitionResult(parts=(tuple(range(d)),), weights=(w,),
                               common_point=w @ P, partitions_scanned=0)
    scanned = 0
    for parts in set_partitions(d, p):
        scanned += 1
        hit = lp_common_point(P, parts)
        if hit is not None:
            common, weights, _ = hit
            return PartitionResult(parts=parts, weights=tuple(weights),
                                   common_point=common, partitions_scanned=scanned)
    raise RuntimeError(
        f"no partition of {d} points into {p} parts was feasible "
        f"(guarantee needs d >= {(p - 1) * (D + 1) + 1})"
    )


def hull_membership(x, points, feas_tol: float = FEAS_TOL):
    """Is x in the convex hull of the points?  Returns (flag, weights)."""
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    if P.ndim != 2 or x.shape != (P.shape[1],):
        raise DimensionError("expected (d, D) points and a D-vector")
    d, D = P.shape
    scale = max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(x))))
    A = np.vstack([np.ones((1, d)), P.T / scale])
    b = np.concatenate([[1.0], x / scale])
    w, z = _phase1(A, b)
    if z > feas_tol:
        return False, None
    s = w.sum()
    return True, (w / s if s > 0 else np.full(d, 1.0 / d))
