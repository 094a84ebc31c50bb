"""Radon's split, the colorful exchange, and a phase-1 LP oracle for both."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matrange.tverberg as tverberg
from matrange.linalg import DimensionError
from matrange.tverberg import (
    ExchangeError,
    PartitionResult,
    lp_common_point,
    tverberg_partition,
)


# ---------------------------------------------------------------------------
# oracle: every partition in restricted-growth order, each tested by a serial
# phase-1 simplex with Bland's rule.  Feasibility is decided at 1e-9 on the
# phase-1 objective; clear infeasibility sits above 1e-7.

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11


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
        for v in range(min(mx + 1, p - 1) + 1):
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


def serial_phase1(A, b, max_pivots=20000):
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    nr, nc = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    T = np.hstack([A, np.eye(nr), b.reshape(-1, 1)])
    basis = list(range(nc, nc + nr))
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


def phase1_objective(P, parts):
    """The phase-1 objective of the common-point system of the parts: one
    weight column per point, p rows making each part's weights sum to one
    and D rows per part ell >= 1 equating part 0's combination with it."""
    d, D = P.shape
    parts = [list(part) for part in parts]
    p = len(parts)
    Pn = P / max(1.0, float(np.max(np.abs(P))))
    offs = np.cumsum([0] + [len(part) for part in parts])
    A = np.zeros((p + D * (p - 1), offs[-1]))
    b = np.zeros(p + D * (p - 1))
    for ell in range(p):
        A[ell, offs[ell]:offs[ell + 1]] = 1.0
        b[ell] = 1.0
    for ell in range(1, p):
        rows = slice(p + D * (ell - 1), p + D * ell)
        A[rows, offs[0]:offs[1]] = Pn[parts[0]].T
        A[rows, offs[ell]:offs[ell + 1]] -= Pn[parts[ell]].T
    return serial_phase1(A, b)[1]


def test_stirling_counts():
    assert count_partitions(4, 2) == 7
    assert count_partitions(6, 2) == 31
    assert count_partitions(5, 3) == 25
    assert count_partitions(3, 3) == 1
    assert count_partitions(3, 4) == 0
    assert count_partitions(0, 0) == 1


def test_enumeration_matches_counts():
    for d, p in [(4, 2), (6, 2), (5, 3), (6, 4), (3, 1)]:
        parts = list(set_partitions(d, p))
        assert len(parts) == count_partitions(d, p)
        seen = set()
        for pp in parts:
            assert len(pp) == p
            flat = sorted(i for part in pp for i in part)
            assert flat == list(range(d))
            assert all(len(part) >= 1 for part in pp)
            # parts ordered by smallest member, elements ascending
            assert [part[0] for part in pp] == sorted(part[0] for part in pp)
            assert pp not in seen
            seen.add(pp)


def test_enumeration_is_rgs_lexicographic():
    def rgs(pp, d):
        a = [0] * d
        for c, part in enumerate(pp):
            for i in part:
                a[i] = c
        return a

    parts = list(set_partitions(5, 3))
    strings = [rgs(pp, 5) for pp in parts]
    assert strings == sorted(strings)
    assert parts[0] == ((0, 1, 2), (3,), (4,))


def test_phase1_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0 has x = (1/2, 1/2)
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    x, z = serial_phase1(A, b)
    assert z <= 1e-12
    assert np.allclose(x, [0.5, 0.5])


def test_phase1_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    _, z = serial_phase1(A, b)
    assert z >= 0.5


def test_phase1_negative_rhs():
    A = np.array([[-1.0, 0.0]])
    b = np.array([-3.0])
    x, z = serial_phase1(A, b)
    assert z <= 1e-12
    assert np.isclose(x[0], 3.0)


@settings(max_examples=10, deadline=None)
@given(p=st.sampled_from([2, 3, 4]), d=st.integers(4, 8), D=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
@example(p=3, d=7, D=2, seed=0)
def test_lp_common_point_agrees_with_phase1_oracle(p, d, D, seed):
    # A grid of thirds gives coincident, collinear and touching hulls.  Every
    # partition's min-norm point is 0 exactly when the phase-1 LP is
    # feasible; the band 1e-9 < z <= 1e-7 is left undecided, as the LP
    # cannot tell touching hulls from rounding there.  d stays where the
    # oracle tests at most S(8, 2) = 127, S(7, 3) = 301 or S(7, 4) = 350
    # partitions per example.
    d = min(d, {2: 8, 3: 7, 4: 7}[p])
    P = np.random.default_rng(seed).integers(-2, 3, size=(d, D)) / 3.0
    for parts in set_partitions(d, p):
        z = phase1_objective(P, parts)
        if FEAS_TOL < z <= 1e-7:
            continue
        hit = lp_common_point(P, parts)
        assert (hit is not None) == (z <= FEAS_TOL), (parts, z)
        if hit is not None:
            common, weights, _ = hit
            for part, w in zip(parts, weights):
                assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
                assert np.max(np.abs(w @ P[list(part)] - common), initial=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# rational Radon oracle: for d = D + 2 points in general position, the
# (unique up to scaling) affine dependence splits the set into the two
# Radon parts; the split must be exactly that.


def radon_parts_exact(points):
    d, D = points.shape
    assert d == D + 2
    rows = [[Fraction(1)] + [Fraction(points[i, t]) for t in range(D)]
            for i in range(d)]
    # nullspace vector of the (D+1) x d system via exact Gaussian elimination
    M = [[rows[i][r] for i in range(d)] for r in range(D + 1)]
    piv_cols = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, D + 1) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(D + 1):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
        if r == D + 1:
            break
    free = [c for c in range(d) if c not in piv_cols]
    assert len(free) == 1
    lam = [Fraction(0)] * d
    lam[free[0]] = Fraction(1)
    for i, c in enumerate(piv_cols):
        lam[c] = -M[i][free[0]]
    plus = tuple(sorted(i for i in range(d) if lam[i] > 0))
    minus = tuple(sorted(i for i in range(d) if lam[i] < 0))
    return frozenset([plus, minus]), lam


def test_lp_agrees_with_exact_radon_split():
    rng = np.random.default_rng(41)
    for _ in range(8):
        D = int(rng.integers(2, 4))
        P = rng.integers(-9, 10, size=(D + 2, D)).astype(float)
        try:
            oracle_parts, lam = radon_parts_exact(P)
        except AssertionError:
            continue
        if any(v == 0 for v in lam):
            continue
        res = tverberg_partition(P, 2)
        got = frozenset([tuple(sorted(res.parts[0])), tuple(sorted(res.parts[1]))])
        assert got == oracle_parts


# ---------------------------------------------------------------------------
# partition search


def verify_partition(P, res: PartitionResult, p):
    assert len(res.parts) == p
    for ell in range(p):
        w = res.weights[ell]
        pts = res.part_points(P, ell)
        assert np.all(w >= -1e-9)
        assert np.isclose(w.sum(), 1.0, atol=1e-9)
        assert np.allclose(w @ pts, res.common_point, atol=1e-7)


def test_tverberg_line_guaranteed_size():
    # D = 1, p = 3: (p-1)(D+1)+1 = 5 points on a line always split
    P = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    res = tverberg_partition(P, 3)
    verify_partition(P, res, 3)
    assert 1 <= res.partitions_scanned <= count_partitions(5, 3)
    # the exchange moves the lowest-index class of weight 0 each time, which
    # ends on the nested split around the median
    assert res.parts == ((0, 4), (1, 3), (2,))


def test_tverberg_plane_guaranteed_size():
    rng = np.random.default_rng(43)
    for t in range(5):
        P = rng.standard_normal((7, 2))  # (3-1)(2+1)+1 = 7
        res = tverberg_partition(P, 3)
        verify_partition(P, res, 3)


def test_tverberg_identical_points():
    P = np.zeros((4, 2))
    res = tverberg_partition(P, 2)
    verify_partition(P, res, 2)
    assert np.allclose(res.common_point, 0.0)
    # p = 2 is Radon's split, read off an affine dependence with no exchange
    assert res.partitions_scanned == 0
    # at p = 3 the first colorful set (every class at w_1) misses 0, so the
    # exchange tries at least two
    P = np.zeros((7, 2))
    res = tverberg_partition(P, 3)
    verify_partition(P, res, 3)
    assert np.allclose(res.common_point, 0.0)
    assert res.partitions_scanned >= 2


@settings(max_examples=60, deadline=None)
@given(D=st.integers(1, 4), extra=st.integers(0, 4), grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(D=2, extra=0, grid=True, seed=0)
def test_radon_split_is_a_partition_with_a_common_point(D, extra, grid, seed):
    # p = 2 with d >= D + 2 points reads the parts off an affine dependence;
    # a grid of thirds gives coincident, collinear and coplanar points
    d = D + 2 + extra
    rng = np.random.default_rng(seed)
    P = rng.integers(-2, 3, size=(d, D)) / 3.0 if grid else rng.standard_normal((d, D))
    res = tverberg_partition(P, 2)
    verify_partition(P, res, 2)
    assert sorted(res.parts[0] + res.parts[1]) == list(range(d))
    assert res.parts[0][0] == 0
    for w in res.weights:
        assert abs(w.sum() - 1.0) <= 1e-12
    assert res.partitions_scanned == 0
    assert lp_common_point(P, res.parts) is not None


@settings(max_examples=60, deadline=None)
@given(p=st.integers(3, 5), D=st.integers(1, 8), extra=st.integers(0, 3),
       kind=st.sampled_from(["gauss", "grid", "zero"]), seed=st.integers(0, 2**32 - 1))
@example(p=3, D=8, extra=0, kind="gauss", seed=0)  # the q = 2, m = 2 lift's shape
@example(p=5, D=8, extra=3, kind="grid", seed=1)   # 40 points
@example(p=4, D=2, extra=0, kind="zero", seed=0)
def test_exchange_gives_a_tverberg_partition(p, D, extra, kind, seed):
    # from the guarantee d = (p-1)(D+1)+1 to 3 points past it, well beyond
    # 14 points; a grid of thirds gives coincident and degenerate points
    d = (p - 1) * (D + 1) + 1 + extra
    rng = np.random.default_rng(seed)
    P = {"gauss": lambda: rng.standard_normal((d, D)),
         "grid": lambda: rng.integers(-2, 3, size=(d, D)) / 3.0,
         "zero": lambda: np.zeros((d, D))}[kind]()
    res = tverberg_partition(P, p)
    assert len(res.parts) == p and all(len(part) > 0 for part in res.parts)
    assert sorted(i for part in res.parts for i in part) == list(range(d))
    assert res.partitions_scanned >= 1
    scale = max(1.0, float(np.max(np.abs(P))))
    for ell, w in enumerate(res.weights):
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(w @ res.part_points(P, ell) - res.common_point)) <= 1e-12 * scale


def test_tverberg_p1_centroid():
    P = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    res = tverberg_partition(P, 1)
    assert res.parts == ((0, 1, 2),)
    assert np.allclose(res.common_point, [2.0 / 3.0, 2.0 / 3.0])


def test_tverberg_point_cap():
    # no cap on the number of points: 15 and more points split at p = 3
    # as they do at p = 2, where 15 points in R^13 are Radon's count D + 2
    rng = np.random.default_rng(15)
    for d, D in [(15, 1), (19, 8), (25, 11)]:
        P = rng.standard_normal((d, D))
        verify_partition(P, tverberg_partition(P, 3), 3)
    P = rng.standard_normal((15, 13))
    res = tverberg_partition(P, 2)
    verify_partition(P, res, 2)
    assert res.partitions_scanned == 0


def test_tverberg_too_few_points():
    with pytest.raises(DimensionError):
        tverberg_partition(np.zeros((2, 1)), 3)


def test_below_guarantee_is_refused():
    # the vertices of a simplex in R^11 are affinely independent, so no split
    # of them exists; below the guarantee every p is refused up front
    P = np.vstack([np.zeros(11), np.eye(11)])
    with pytest.raises(DimensionError, match=r"into 2 parts of points in R\^11 needs d >= 13 points, got 12"):
        tverberg_partition(P, 2)
    with pytest.raises(DimensionError, match=r"needs d >= 7 points, got 6"):
        tverberg_partition(np.zeros((6, 2)), 3)


def test_exchange_cap_raises_a_value_error(monkeypatch):
    monkeypatch.setattr(tverberg, "EXCHANGE_CAP", 0)
    with pytest.raises(ExchangeError, match="cap of 0 exchanges") as got:
        tverberg_partition(np.random.default_rng(3).standard_normal((7, 2)), 3)
    assert isinstance(got.value, ValueError)


def test_tverberg_determinism():
    rng = np.random.default_rng(47)
    P = rng.standard_normal((7, 2))
    r1 = tverberg_partition(P, 3)
    r2 = tverberg_partition(P, 3)
    assert r1.parts == r2.parts
    assert np.array_equal(r1.common_point, r2.common_point)
    assert r1.partitions_scanned == r2.partitions_scanned


def test_lp_common_point_disjoint_hulls():
    # two far-apart segments on a line share no point
    P = np.array([[0.0], [1.0], [10.0], [11.0]])
    assert lp_common_point(P, [(0, 1), (2, 3)]) is None
    # overlapping segments do
    hit = lp_common_point(P, [(0, 2), (1, 3)])
    assert hit is not None
    common, weights, distance = hit
    assert 1.0 - 1e-9 <= common[0] <= 10.0 + 1e-9
    assert distance <= tverberg.ZERO_TOL
    # segments that touch share their endpoint; a gap of 1e-9 is a gap
    P = np.array([[0.0], [1.0], [1.0], [2.0]])
    assert lp_common_point(P, [(0, 1), (2, 3)])[0][0] == 1.0
    P[2, 0] += 1e-9
    assert lp_common_point(P, [(0, 1), (2, 3)]) is None
