"""Tverberg partitions of finite point sets: Radon's split and a stacked LP scan.

Any (p-1)(D+1)+1 points in R^D can be split into p parts whose convex hulls
share a point.  For p = 2 this is Radon's theorem, and its proof is the
algorithm: an affine dependence sum lam_i P_i = 0, sum lam_i = 0 (the least
right-singular vector of [P^T; 1]) splits the points by sign, and lam over
each part is a pair of weight vectors with a common point, at any d.  For
p >= 3 the route is the direct one, and only it is capped (at MAX_POINTS
= 14 points): enumerate set partitions into exactly p nonempty parts in
lexicographic order of their restricted-growth strings, test each with a
small linear feasibility program, and keep the first hit.  The programs
all have one shape, so they are solved in stacks, chunk by chunk.

The LP solver is a dense phase-1 simplex with Bland's rule, so termination
is unconditional, and each program in a stack pivots exactly as it would
alone, so runs are deterministic and independent of the chunking.
Coordinates are normalized to unit scale before the tableau is built;
feasibility is decided at 1e-9 on the phase-1 objective and clear
infeasibility sits above 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .linalg import DimensionError

MAX_POINTS = 14
FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
STACK_ENTRIES = 2**14  # float entries (128 KiB) per stack of simplex tableaux


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


# ratios and pivots are divided out on every entry; the infinities and NaNs
# of entries that cannot pivot are masked off before they reach a tableau
@np.errstate(divide="ignore", invalid="ignore")
def _phase1(A: np.ndarray, b: np.ndarray, max_pivots: int = 20000):
    """Find x >= 0 with A x = b, minimizing artificial mass by simplex, for
    one system or a stack of them: A is (..., nr, nc) and b is (..., nr).

    Returns (x, z) per system, where z is the optimal phase-1 objective; x
    is only meaningful when z is at feasibility level.  Bland's rule
    (smallest eligible entering index, smallest basic index on ratio ties)
    guarantees termination.  A system that stops is frozen while the rest
    pivot on, so each one pivots exactly as it would alone.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    *lead, nr, nc = A.shape
    sign = np.where(b < 0, -1.0, 1.0).reshape(-1, nr)
    B = len(sign)
    r = np.arange(B)
    T = np.concatenate([A.reshape(B, nr, nc) * sign[:, :, None],
                        np.broadcast_to(np.eye(nr), (B, nr, nr)),
                        (b.reshape(B, nr) * sign)[:, :, None]], axis=2)
    # reduced costs for cost vector (0,...,0 | 1,...,1); artificials are basic
    cost = np.zeros((B, nc + nr))
    cost[:, :nc] = -T[:, :, :nc].sum(axis=1)
    basis = np.tile(np.arange(nc, nc + nr), (B, 1))
    for _ in range(max_pivots):
        eligible = cost < -PIVOT_TOL
        active = eligible.any(axis=1)
        if not active.any():
            break
        enter = eligible.argmax(axis=1)
        col = T[r, :, enter]
        ratio = np.where(col > PIVOT_TOL, T[:, :, -1] / col, np.inf)
        m = ratio.min(axis=1, keepdims=True)
        tied = ratio == m
        # The sequential ratio rule takes each row tied with the minimum and
        # passes over each row clear of it by both its tests, so where every
        # row is one or the other it ends on the tied row of least basic index.
        plain = (tied | ((m < ratio - PIVOT_TOL) & (np.abs(ratio - m) > PIVOT_TOL))).all(axis=1)
        if np.isinf(m[active]).any():
            # unbounded direction cannot happen in phase 1; treat as failure
            raise RuntimeError("phase-1 simplex lost boundedness")
        leave = np.where(tied, basis, nc + nr).argmin(axis=1)
        for k in np.flatnonzero(active & ~plain):
            leave[k] = _leaving_row(ratio[k], basis[k])
        piv = T[r, leave]
        row = np.where(active[:, None], piv / piv[r, enter][:, None], piv)
        col[r, leave] = 0.0
        col[~active] = 0.0
        # rows with a zero in the entering column, and frozen systems, stay as they are
        np.subtract(T, col[:, :, None] * row[:, None, :], out=T,
                    where=(col != 0.0)[:, :, None])
        T[r, leave] = row
        np.subtract(cost, cost[r, enter][:, None] * row[:, :-1], out=cost,
                    where=active[:, None])
        basis[r, leave] = np.where(active, enter, basis[r, leave])
    else:
        raise RuntimeError("phase-1 simplex exceeded the pivot cap")
    rhs = T[:, :, -1]
    x = np.zeros((B, nc + 1))
    np.put_along_axis(x, np.minimum(basis, nc), rhs, axis=1)
    # summed in row order, as the sequential loop adds
    z = np.cumsum(np.where(basis >= nc, rhs, 0.0), axis=1)[:, -1]
    return x[:, :nc].reshape(*lead, nc), z.reshape(lead)


def _leaving_row(ratio: np.ndarray, basis: np.ndarray) -> int:
    """Bland's leaving row by the sequential rule, for ratios (inf where the
    entering column is not positive) that come within PIVOT_TOL of a tie."""
    leave, best = -1, np.inf
    for i, t in enumerate(ratio):
        if t < np.inf and (t < best - PIVOT_TOL or (
                abs(t - best) <= PIVOT_TOL and (leave < 0 or basis[i] < basis[leave]))):
            best, leave = t, i
    return leave


def _tableaux(Pn: np.ndarray, chunk):
    """The common-point systems A w = b of a stack of partitions with equal
    part count and total size.  Each has one column per point, ordered by
    (part, position in the part); p rows make each part's weights sum to one
    and D rows per part ell >= 1 equate part 0's combination with part ell's.
    """
    order = np.array([[i for part in parts for i in part] for parts in chunk])
    label = np.array([[ell for ell, part in enumerate(parts) for _ in part] for parts in chunk])
    (B, n), D, p = order.shape, Pn.shape[1], len(chunk[0])
    Pc = Pn[order]
    A = np.zeros((B, p + D * (p - 1), n))
    A[:, :p] = label[:, None, :] == np.arange(p)[:, None]
    first = np.where((label == 0)[:, :, None], Pc, 0.0)
    other = np.where((label[:, None, :] == np.arange(1, p)[:, None])[..., None], Pc[:, None], 0.0)
    A[:, p:] = (first[:, None] - other).transpose(0, 1, 3, 2).reshape(B, D * (p - 1), n)
    b = np.zeros((B, p + D * (p - 1)))
    b[:, :p] = 1.0
    return A, b


def _scan(P: np.ndarray, partitions, p: int, n: int, feas_tol: float):
    """The first of the partitions (each p parts of n points in all) whose
    parts' convex hulls meet, tested in stacks of at most STACK_ENTRIES
    tableau entries: (position, parts, common point, weights, z), or None.
    """
    scale = max(1.0, float(np.max(np.abs(P))) if P.size else 1.0)
    Pn = P / scale
    nr = p + P.shape[1] * (p - 1)
    partitions = iter(partitions)
    scanned = 0
    while chunk := list(islice(partitions, max(1, STACK_ENTRIES // (nr * (n + nr + 1))))):
        x, z = _phase1(*_tableaux(Pn, chunk))
        hit = np.flatnonzero(z <= feas_tol)
        if hit.size:
            k = hit[0]
            parts = chunk[k]
            offs = np.cumsum([0] + [len(part) for part in parts])
            weights = []
            for ell, part in enumerate(parts):
                w = np.maximum(x[k, offs[ell]:offs[ell + 1]], 0.0)
                s = w.sum()
                weights.append(w / s if s > 0 else np.full(len(part), 1.0 / len(part)))
            common = scale * (weights[0] @ Pn[list(parts[0])])
            return scanned + int(k) + 1, parts, common, weights, z[k]
        scanned += len(chunk)
    return None


def lp_common_point(points, parts, feas_tol: float = FEAS_TOL):
    """A point in the intersection of the parts' convex hulls, or None.

    On success returns (common_point, weights, z) with one nonnegative,
    sum-one weight vector per part, all combining to the same point within
    the LP tolerance.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise DimensionError(f"expected (d, D) point array, got shape {P.shape}")
    parts = [list(part) for part in parts]
    if min((len(part) for part in parts), default=0) < 1:
        raise DimensionError("every part must be nonempty")
    hit = _scan(P, [parts], len(parts), sum(map(len, parts)), feas_tol)
    return None if hit is None else hit[2:]


def _check_scan_size(d: int) -> None:
    """DimensionError when d points exceed the partition scan's MAX_POINTS;
    Radon's split and the p = 1 centroid need no scan and no cap."""
    if d > MAX_POINTS:
        raise DimensionError(f"partition scan capped at {MAX_POINTS} points, got {d}")


def _radon_split(P: np.ndarray) -> PartitionResult:
    """Radon's partition of d >= D + 2 points in R^D into two parts.

    The least right-singular vector lam of [P^T; 1] is an affine dependence:
    sum lam_i P_i = 0 and sum lam_i = 0.  Its signs split the points, and
    lam over each part, scaled to sum one, gives weights whose combinations
    agree.  Parts come out ordered by smallest member, as in the scan.
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


def _first_feasible(P: np.ndarray, p: int) -> PartitionResult:
    """The scan: first partition in restricted-growth lexicographic order
    whose parts' convex hulls meet."""
    d, D = P.shape
    _check_scan_size(d)
    hit = _scan(P, set_partitions(d, p), p, d, FEAS_TOL)
    if hit is None:
        raise RuntimeError(
            f"no partition of {d} points into {p} parts was feasible "
            f"(guarantee needs d >= {(p - 1) * (D + 1) + 1})"
        )
    scanned, parts, common, weights, _ = hit
    return PartitionResult(parts=parts, weights=tuple(weights), common_point=common,
                           partitions_scanned=scanned)


def tverberg_partition(points, p: int) -> PartitionResult:
    """A partition of the points into p parts with intersecting convex hulls.

    For p = 2 with d >= D + 2 points this is Radon's split, read off one
    affine dependence with no scan (partitions_scanned = 0).  Otherwise it
    is the first partition in restricted-growth lexicographic order that
    the LP scan finds feasible; only the scan refuses more than MAX_POINTS
    points.  The guarantee d >= (p-1)(D+1)+1 makes
    existence unconditional; running below it is allowed and simply may
    raise when every partition fails.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise DimensionError(f"expected (d, D) point array, got shape {P.shape}")
    d, D = P.shape
    if p < 1:
        raise DimensionError("need p >= 1")
    if d < p:
        raise DimensionError(f"cannot split {d} points into {p} nonempty parts")
    if p == 1:
        w = np.full(d, 1.0 / d)
        return PartitionResult(parts=(tuple(range(d)),), weights=(w,),
                               common_point=w @ P, partitions_scanned=0)
    if p == 2 and d >= D + 2:
        return _radon_split(P)
    return _first_feasible(P, p)
