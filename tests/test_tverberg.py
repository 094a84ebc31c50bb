"""Partition enumeration, phase-1 simplex, and Tverberg point search."""

import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matrange.tverberg as tverberg
from matrange.linalg import DimensionError
from matrange.tverberg import (
    FEAS_TOL,
    MAX_POINTS,
    PIVOT_TOL,
    PartitionResult,
    _phase1,
    count_partitions,
    lp_common_point,
    set_partitions,
    tverberg_partition,
)


# ---------------------------------------------------------------------------
# enumeration


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


# ---------------------------------------------------------------------------
# phase-1 simplex


def test_phase1_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0 has x = (1/2, 1/2)
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    x, z = _phase1(A, b)
    assert z <= 1e-12
    assert np.allclose(x, [0.5, 0.5])


def test_phase1_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    _, z = _phase1(A, b)
    assert z >= 0.5


def test_phase1_negative_rhs():
    A = np.array([[-1.0, 0.0]])
    b = np.array([-3.0])
    x, z = _phase1(A, b)
    assert z <= 1e-12
    assert np.isclose(x[0], 3.0)


# ---------------------------------------------------------------------------
# rational Radon oracle: for d = D + 2 points in general position, the
# (unique up to scaling) affine dependence splits the set into the two
# Radon parts; the LP must find exactly that split.


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
    assert res.partitions_scanned <= count_partitions(5, 3)


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
    # p = 2 is Radon's split, read off an affine dependence without a scan
    assert res.partitions_scanned == 0
    # at p = 3 the scan's first partition in RGS order already works
    P = np.zeros((7, 2))
    res = tverberg_partition(P, 3)
    verify_partition(P, res, 3)
    assert np.allclose(res.common_point, 0.0)
    assert res.partitions_scanned == 1


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


def test_tverberg_p1_centroid():
    P = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    res = tverberg_partition(P, 1)
    assert res.parts == ((0, 1, 2),)
    assert np.allclose(res.common_point, [2.0 / 3.0, 2.0 / 3.0])


def test_tverberg_point_cap():
    # the cap limits the scan (p >= 3) only: 15 points in R^13 are Radon's
    # count D + 2 at p = 2, split with no scan
    P = np.zeros((MAX_POINTS + 1, 1))
    with pytest.raises(DimensionError, match="partition scan capped at 14 points, got 15"):
        tverberg_partition(P, 3)
    P = np.random.default_rng(15).standard_normal((MAX_POINTS + 1, MAX_POINTS - 1))
    res = tverberg_partition(P, 2)
    verify_partition(P, res, 2)
    assert res.partitions_scanned == 0


def test_tverberg_too_few_points():
    with pytest.raises(DimensionError):
        tverberg_partition(np.zeros((2, 1)), 3)


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
    common, weights, z = hit
    assert 1.0 - 1e-9 <= common[0] <= 10.0 + 1e-9


# ---------------------------------------------------------------------------
# serial reference: one row-loop simplex per partition, in scan order.  The
# stacked scan must pivot each lane exactly as this does, so its results are
# compared bit for bit.


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


def serial_common_point(P, parts):
    d, D = P.shape
    parts = [list(part) for part in parts]
    p = len(parts)
    scale = max(1.0, float(np.max(np.abs(P))))
    Pn = P / scale
    sizes = [len(part) for part in parts]
    offs = np.cumsum([0] + sizes)
    A = np.zeros((p + D * (p - 1), sum(sizes)))
    b = np.zeros(p + D * (p - 1))
    for ell in range(p):
        A[ell, offs[ell]:offs[ell + 1]] = 1.0
        b[ell] = 1.0
    for ell in range(1, p):
        rows = slice(p + D * (ell - 1), p + D * ell)
        for t, i in enumerate(parts[0]):
            A[rows, offs[0] + t] = Pn[i]
        for t, i in enumerate(parts[ell]):
            A[rows, offs[ell] + t] -= Pn[i]
    x, z = serial_phase1(A, b)
    if z > FEAS_TOL:
        return None
    weights = []
    for ell in range(p):
        w = np.maximum(x[offs[ell]:offs[ell + 1]], 0.0)
        s = w.sum()
        weights.append(w / s if s > 0 else np.full(sizes[ell], 1.0 / sizes[ell]))
    return scale * (weights[0] @ Pn[parts[0]]), weights


def serial_partition(P, p):
    d, D = P.shape
    for scanned, parts in enumerate(set_partitions(d, p), start=1):
        hit = serial_common_point(P, parts)
        if hit is not None:
            return PartitionResult(parts=parts, weights=tuple(hit[1]),
                                   common_point=hit[0], partitions_scanned=scanned)
    raise RuntimeError(
        f"no partition of {d} points into {p} parts was feasible "
        f"(guarantee needs d >= {(p - 1) * (D + 1) + 1})"
    )


def assert_same_scan(P, p):
    # p = 2 with d >= D + 2 takes the Radon split, so the scan is run directly
    scan = tverberg._first_feasible if p == 2 else tverberg_partition
    try:
        ref = serial_partition(P, p)
    except RuntimeError as e:
        with pytest.raises(RuntimeError) as got:
            scan(P, p)
        assert str(got.value) == str(e)
        return
    got = scan(P, p)
    assert got.parts == ref.parts
    assert got.partitions_scanned == ref.partitions_scanned
    assert [w.tobytes() for w in got.weights] == [w.tobytes() for w in ref.weights]
    assert got.common_point.tobytes() == ref.common_point.tobytes()


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 4]), extra=st.integers(0, 7), D=st.integers(1, 3),
       grid=st.booleans(), seed=st.integers(0, 2**32 - 1),
       entries=st.sampled_from([1, 200, tverberg.STACK_ENTRIES]))
@example(p=2, extra=2, D=1, grid=True, seed=23, entries=1)  # ratios tied within rounding
def test_stacked_scan_matches_serial_reference(p, extra, D, grid, seed, entries):
    # A grid of thirds provokes exact ratio ties, ties within rounding (the
    # sequential fallback of the ratio test) and degenerate pivots; a small
    # stack bound splits the scan into many chunks (one lane each at 1
    # entry).  d stays where the serial reference scans at most S(7, 4) =
    # 350 or S(8, 3) = 966 partitions per example.
    d = min(p + extra, {2: 9, 3: 8, 4: 7}[p])
    rng = np.random.default_rng(seed)
    P = rng.integers(-2, 3, size=(d, D)) / 3.0 if grid else rng.standard_normal((d, D))
    with mock.patch.object(tverberg, "STACK_ENTRIES", entries):
        assert_same_scan(P, p)


def test_phase1_matches_serial_reference_on_signed_rows():
    # rows with negative right-hand sides are flipped before the tableau
    rng = np.random.default_rng(53)
    for _ in range(20):
        A = rng.integers(-3, 4, size=(4, 6)).astype(float)
        b = rng.integers(-3, 4, size=4).astype(float)
        x, z = _phase1(A, b)
        x_ref, z_ref = serial_phase1(A, b)
        assert x.tobytes() == x_ref.tobytes()
        assert z == z_ref


def test_infeasible_scan_spans_chunks_in_bounded_memory():
    # the vertices of a simplex in R^11 are affinely independent, so none of
    # the S(12, 2) = 2047 partitions is feasible and the scan reads every
    # chunk; stacking them all at once would hold over 5 MiB of tableaux
    P = np.vstack([np.zeros(11), np.eye(11)])
    nr, width = 2 + 11, 12 + 2 + 11 + 1
    assert count_partitions(12, 2) > 8 * (tverberg.STACK_ENTRIES // (nr * width))
    text = "no partition of 12 points into 2 parts was feasible (guarantee needs d >= 13)"
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError) as got:
            tverberg_partition(P, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == text
    assert peak < 2 * 2**20, peak
    with pytest.raises(RuntimeError) as ref:
        serial_partition(P, 2)
    assert str(ref.value) == text
