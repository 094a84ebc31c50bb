"""Star centers, corner compressions, deflation, Tverberg lifting, and the
essential-range estimator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrange.constructions as constructions
import matrange.feasibility as feasibility
from matrange.constructions import (
    BlockFamily,
    CrossOrthogonalityError,
    StarCenter,
    _block_null,
    _restrict_certificate,
    annihilating_corner,
    center_for,
    corner_certificate,
    deflated_solve,
    deflation_corner,
    direction_set,
    essential_estimate,
    interlacing_support,
    measure_cross,
    orthogonal_block_family,
    random_corner,
    segment_witness,
    star_center_matrix,
    star_center_scalar,
    tverberg_lift,
)
from matrange.feasibility import (
    SUPPORT_RESTARTS,
    Certificate,
    MatPoint,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    certify,
    solve_free,
    solve_support,
)
from matrange.io import canonical_dumps, certificate_doc, load_certificate
from matrange.linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    compress,
    coordinate_isometry,
    frob,
    herm_eig,
    random_isometry,
)
from matrange.ranges import hermitian_embed, rank_k_interval
from matrange.verify import random_hermitian_tuple


def gue(m, n, seed):
    rng = np.random.default_rng(seed)
    mats = np.empty((m, n, n), dtype=complex)
    for j in range(m):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats[j] = (G + np.conj(G.T)) / (2 * np.sqrt(n))
    return HermitianTuple(mats)


def direct_sum(A, B):
    """Memberwise direct sum diag(A_j, B_j) of two (m, n, n) stacks."""
    na, nb = A.shape[-1], B.shape[-1]
    out = np.zeros((len(A), na + nb, na + nb), dtype=complex)
    out[:, :na, :na], out[:, na:, na:] = A, B
    return HermitianTuple(out)


def diag_tuple(values):
    return HermitianTuple(np.diag(np.asarray(values, dtype=float)).astype(complex)[None])


# ---------------------------------------------------------------------------
# corners


def test_random_corner_interlacing():
    A = gue(1, 9, seed=61)
    ev = herm_eig(A.mats[0])[0]
    for seed in range(4):
        corner = random_corner(9, 2, seed)
        inner = compress(A, corner)
        mu = herm_eig(inner.mats[0])[0]
        # eigenvalues descending: lambda_{i+r} <= mu_i <= lambda_i
        for i in range(7):
            assert ev[i + 2] - 1e-10 <= mu[i] <= ev[i] + 1e-10


def test_corner_r0_is_identity():
    A = gue(2, 5, seed=62)
    corner = random_corner(5, 0, seed=0)
    inner = compress(A, corner)
    # unitary basis change only: spectra are preserved
    for j in range(2):
        assert np.allclose(herm_eig(inner.mats[j])[0], herm_eig(A.mats[j])[0],
                           atol=1e-10)


def test_corner_spec_validation():
    with pytest.raises(DimensionError):
        random_corner(4, 4, seed=0)


def gue_cert(n, k, p, seed):
    """A level-p certificate on gue(2, n, 1) at a Haar n-by-k isometry."""
    return certify(gue(2, n, 1), random_isometry(n, k, seed), p)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: segment_witness(gue(2, 8, 1), gue_cert(8, 2, 1, 0),
                                         gue_cert(8, 2, 2, 1), 0.5),
                 r"different \(p, q\) levels", id="segment-levels"),
    pytest.param(lambda: segment_witness(gue(2, 8, 1), gue_cert(8, 1, 1, 0),
                                         gue_cert(6, 1, 1, 1), 0.5),
                 "different shapes", id="segment-shapes"),
    pytest.param(lambda: deflation_corner(gue(2, 8, 1), [gue_cert(6, 1, 1, 0)]),
                 "prior witness dimension", id="deflation-prior"),
    pytest.param(lambda: interlacing_support(gue(2, 8, 1), 1, 1, [1.0]), "m = 1", id="support-m2"),
    pytest.param(lambda: interlacing_support(gue(1, 5, 1), 1, 3, np.zeros(9)), "2 r q <= n",
                 id="support-2rq-above-n"),
])
def test_construction_refusals(call, match):
    with pytest.raises(DimensionError, match=match):
        call()


def test_annihilating_corner_refuses_empty_matrices():
    with pytest.raises(DimensionError):
        annihilating_corner(np.zeros((2, 0, 0), dtype=complex))


def test_annihilating_corner_kills_finite_rank_part():
    rng = np.random.default_rng(63)
    n, rank = 10, 2
    F = np.zeros((2, n, n), dtype=complex)
    for j in range(2):
        v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        F[j] = v @ np.conj(v.T)
    Ft = HermitianTuple(F)
    Y = annihilating_corner(Ft)
    assert n - Y.k <= 2 * rank * 2
    for j in range(2):
        assert np.max(np.abs(np.conj(Y.mat.T) @ F[j] @ Y.mat)) <= 1e-10
    # compressions of A and A + F agree on that corner
    A = gue(2, n, seed=64)
    AF = HermitianTuple(A.mats + F)
    assert np.allclose(compress(A, Y).mats, compress(AF, Y).mats, atol=1e-10)


# ---------------------------------------------------------------------------
# scalar star centers


def test_star_center_scalar_on_scalar_tuple():
    A = HermitianTuple(np.stack([2.0 * np.eye(6, dtype=complex),
                                 -1.0 * np.eye(6, dtype=complex)]))
    with pytest.warns(UserWarning):
        out = star_center_scalar(A, 1, 1, SolverOptions(seed=0))
    assert isinstance(out, StarCenter)
    assert np.allclose(out.center.scalar_values(), [2.0, -1.0], atol=1e-8)
    assert out.certificate.p == 1 * 1 * (2 + 2)


def test_star_center_scalar_interval_oracle():
    # m = 1, p = q = 1: the center solves a level-3 scalar compression, so it
    # must land in the rank-3 interval [3, 7] of diag(1..9); n = 9 meets the
    # guarantee bound (3 - 1)(1 + 1)^2 = 8, so no warning
    A = diag_tuple(np.arange(1.0, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = star_center_scalar(A, 1, 1, SolverOptions(seed=0))
    assert isinstance(out, StarCenter)
    c = out.center.scalar_values()[0]
    iv = rank_k_interval(A.mats[0], 3)
    assert iv.lo - 1e-7 <= c <= iv.hi + 1e-7
    out.certificate.revalidate(A)
    # the restricted certificate proves the center as an ordinary range point
    assert out.restricted.p == 1
    assert out.restricted.witness.k == 1
    assert out.restricted.residual <= 1e-7
    out.restricted.revalidate(A)


def test_star_center_scalar_warns_below_guarantee():
    A = diag_tuple(np.arange(1.0, 6.0))  # n = 5 < bound 8
    with pytest.warns(UserWarning, match="below the star-center guarantee"):
        out = star_center_scalar(A, 1, 1, SolverOptions(seed=0))
    assert isinstance(out, StarCenter)


def test_star_center_scalar_structural_error():
    A = gue(2, 3, seed=65)  # k = 4 > n = 3
    with pytest.raises(StructuralInfeasibility):
        star_center_scalar(A, 1, 1, SolverOptions(seed=0))


# ---------------------------------------------------------------------------
# matrix and complex star centers


def test_star_center_matrix_planted():
    # m = 1, q = 2, p = 1 puts the deep level at p~ = q^2 (m+1) + 1 = 9;
    # plant I_9 (x) B0 plus junk and require the center spectrum to match B0
    rng = np.random.default_rng(55)
    G0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B0 = (G0 + np.conj(G0.T)) / 2
    A = direct_sum(np.kron(np.eye(9), B0[None]), gue(1, 2, seed=56).mats)
    with pytest.warns(UserWarning):
        out = star_center_matrix(A, 1, 2, SolverOptions(seed=0))
    assert isinstance(out, StarCenter)
    assert out.certificate.p == 9
    assert out.certificate.residual <= 1e-8
    assert np.allclose(np.linalg.eigvalsh(out.center.blocks[0]),
                       np.linalg.eigvalsh(B0), atol=1e-6)
    assert out.restricted.p == 1
    assert out.restricted.residual <= 1e-7
    out.certificate.revalidate(A)


def test_star_center_matrix_structural_error():
    A = gue(1, 8, seed=66)  # p~ q = 9 * 1... m=1, q=1, p=1: p~ = 3, fine at 8
    with pytest.raises(StructuralInfeasibility):
        star_center_matrix(A, 2, 2, SolverOptions(seed=0))


def test_star_center_complex_planted():
    # T = c0 I_4 (+) random 4x4: the only level-4 simultaneous scalar
    # compression of the embedded pair sits at c0
    rng = np.random.default_rng(57)
    c0 = 1.5 - 0.5j
    J = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    T = np.zeros((8, 8), dtype=complex)
    T[:4, :4] = c0 * np.eye(4)
    T[4:, 4:] = J
    with pytest.warns(UserWarning):
        sc = star_center_scalar(hermitian_embed(T[None]), 1, 1, SolverOptions(seed=0))
    assert not isinstance(sc, Rejection)
    assert isinstance(sc, StarCenter)
    # pairing convention: real parts at even slots, imaginary at odd
    vals = sc.certificate.point.scalar_values()
    cc = vals[0::2] + 1j * vals[1::2]
    assert cc.shape == (1,)
    assert abs(cc[0] - c0) <= 1e-6
    assert np.isclose(cc[0], vals[0] + 1j * vals[1])


# ---------------------------------------------------------------------------
# segments from star centers


def assert_center_for_segment(A, star, cb, t):
    """center_for's witness is A-orthogonal to cb's, and the segment
    certificate at t revalidates within t res_b + (1 - t) res_c."""
    cc = center_for(A, star, cb)
    scale = max(1.0, frob(A.mats))
    Xb, Xc = cb.witness.mat, cc.witness.mat
    cross = max(frob(S) for S in np.conj(Xb.T) @ np.concatenate([Xc[None], A.mats @ Xc]))
    assert cross <= 1e-12 * scale
    assert np.array_equal(cc.point.blocks, star.center.blocks) and cc.p == cb.p
    seg = segment_witness(A, cb, cc, t)
    seg.revalidate(A)
    assert seg.residual <= t * cb.residual + (1 - t) * cc.residual + 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 3),
       pq=st.sampled_from([(1, 1), (2, 1), (1, 2)]), matrix=st.booleans(),
       extra=st.integers(0, 3), t=st.floats(0.0, 1.0))
def test_center_for_certifies_segments(seed, m, pq, matrix, extra, t):
    # GUE tuples at n = (m + 1) k + extra, k the center's witness columns:
    # every cert_b the solver finds gets a center witness orthogonal to it
    p, q = pq
    k = p * (q * q * (m + 1) + 1) * q if matrix else p * q * (m + 2)
    A = gue(m, (m + 1) * k + extra, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # below the guarantee
        star = (star_center_matrix if matrix else star_center_scalar)(
            A, p, q, SolverOptions(seed=seed))
    cb = solve_free(A, p, q, SolverOptions(seed=seed + 1))
    assert isinstance(star, StarCenter) and isinstance(cb, Certificate)
    assert_center_for_segment(A, star, cb, t)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 2), p=st.integers(1, 2),
       extra=st.integers(0, 3), t=st.floats(0.0, 1.0))
def test_center_for_on_planted_matrix_centers(seed, m, p, extra, t):
    # I_p~ (x) B0 plus junk: the coordinate witness certifies the matrix
    # center B0 exactly at the deep level p~ = p (q^2 (m + 1) + 1), q = 2
    q = 2
    p_deep = p * (q * q * (m + 1) + 1)
    A = direct_sum(np.kron(np.eye(p_deep), gue(m, q, seed).mats), gue(m, 1 + extra, seed + 1).mats)
    B0 = MatPoint(gue(m, q, seed).mats)
    cert = certify(A, coordinate_isometry(A.n, range(p_deep * q)), p_deep, B0)
    assert cert.residual <= 1e-14
    star = StarCenter(center=B0, certificate=cert,
                      restricted=_restrict_certificate(A, cert, p, B0))
    cb = solve_free(A, p, q, SolverOptions(seed=seed + 2))
    assert isinstance(cb, Certificate)
    assert_center_for_segment(A, star, cb, t)


# ---------------------------------------------------------------------------
# corner certificates


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 3), q=st.integers(1, 2),
       r=st.integers(1, 2), slack=st.integers(0, 1), extra=st.integers(0, 4),
       solved=st.booleans())
def test_corner_certificate_by_construction(seed, m, q, r, slack, extra, solved):
    # bases are solved points or any isometry's best block; the corner
    # witness Y* V lifts to a V in range(Y) and keeps the base's point
    p = q * r + 1 + slack
    n = p * q + r + extra
    A = gue(m, n, seed)
    base = certify(A, random_isometry(n, p * q, seed), p)
    if solved:
        got = solve_free(A, p, q, SolverOptions(seed=seed, max_restarts=3))
        base = got if isinstance(got, Certificate) else base
    corner = random_corner(n, r, seed + 1)
    cc = corner_certificate(A, base, corner)
    X, Y = base.witness.mat, corner.mat
    V = _block_null(X, p, q, X - Y @ (np.conj(Y.T) @ X), p - q * r)
    tol = 1e-12 * A.scale()
    assert frob(V - Y @ (np.conj(Y.T) @ V)) <= 1e-12
    assert frob(cc.witness.mat - np.conj(Y.T) @ V) <= 1e-14
    assert cc.p == p - q * r and np.array_equal(cc.point.blocks, base.point.blocks)
    cc.revalidate(compress(A, corner))
    assert cc.residual <= base.residual + tol


# ---------------------------------------------------------------------------
# segment witnesses


def test_segment_witness_diagonal_exact():
    A = diag_tuple([4.0, -2.0, 0.5, 9.0])
    cb = Certificate(point=MatPoint.scalar(np.array([4.0]), 1), p=1,
                     witness=coordinate_isometry(4, [0]), residual=0.0)
    cc = Certificate(point=MatPoint.scalar(np.array([-2.0]), 1), p=1,
                     witness=coordinate_isometry(4, [1]), residual=0.0)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        cert = segment_witness(A, cb, cc, t)
        want = t * 4.0 + (1 - t) * (-2.0)
        assert abs(cert.point.scalar_values()[0] - want) <= 1e-12
        assert cert.residual <= 1e-10
        cert.revalidate(A)
    # endpoints reproduce the ingredients
    assert np.allclose(segment_witness(A, cb, cc, 1.0).witness.mat, cb.witness.mat)
    assert np.allclose(segment_witness(A, cb, cc, 0.0).witness.mat, cc.witness.mat)


def test_segment_witness_after_deflation():
    A = gue(2, 12, seed=67)
    cb = solve_free(A, 1, 1, SolverOptions(seed=0))
    cc = deflated_solve(A, [cb], 1, 1, SolverOptions(seed=1))
    assert isinstance(cb, Certificate) and isinstance(cc, Certificate)
    mid = segment_witness(A, cb, cc, 0.5)
    assert mid.residual <= 1e-6
    assert np.allclose(mid.point.blocks,
                       0.5 * cb.point.blocks + 0.5 * cc.point.blocks)
    mid.revalidate(A)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(1, 3), p=st.integers(1, 2),
       q=st.integers(1, 2), extra=st.integers(0, 2), t=st.floats(0.0, 1.0),
       coupling=st.sampled_from([0.0, 1e-12, 1e-10, 1e-9]))
def test_segment_witness_within_stated_residual_bound(seed, m, p, q, extra, t, coupling):
    # witnesses on the two halves of A1 (+) A2, rotated by a unitary V, with a
    # coupling small enough to pass CROSS_TOL: the segment witness must stay
    # within t res_b + (1 - t) res_c plus the cross-term allowance
    # 2 sqrt(t (1 - t)) ||(X_b* A_j X_c)_j||
    k, h = p * q, p * q + extra
    A0 = direct_sum(gue(m, h, seed).mats, gue(m, h, seed + 1).mats).mats
    H = gue(m, 2 * h, seed + 2).mats
    V = random_isometry(2 * h, 2 * h, seed + 3).mat
    A = HermitianTuple(V @ (A0 + coupling * H / frob(H)) @ np.conj(V.T))
    Wb, Wc = (random_isometry(h, k, seed + i).mat for i in (4, 5))
    zero = np.zeros((h, k), dtype=complex)
    cb = certify(A, Isometry(V @ np.vstack([Wb, zero])), p)
    cc = certify(A, Isometry(V @ np.vstack([zero, Wc])), p)
    Xb, Xc = cb.witness.mat, cc.witness.mat
    cross = np.sqrt(sum(frob(np.conj(Xb.T) @ A.mats[j] @ Xc) ** 2 for j in range(m)))
    seg = segment_witness(A, cb, cc, t)
    bound = t * cb.residual + (1 - t) * cc.residual + 2 * np.sqrt(t * (1 - t)) * cross
    assert seg.residual <= bound + 1e-12 * max(1.0, frob(A.mats))
    assert np.allclose(seg.point.blocks, t * cb.point.blocks + (1 - t) * cc.point.blocks)
    seg.revalidate(A)


def test_segment_witness_rejects_crossing_witnesses():
    A = gue(2, 10, seed=68)
    cb = solve_free(A, 1, 1, SolverOptions(seed=0))
    cc = solve_free(A, 1, 1, SolverOptions(seed=99))
    assert isinstance(cb, Certificate) and isinstance(cc, Certificate)
    with pytest.raises(CrossOrthogonalityError, match="deflated_solve"):
        segment_witness(A, cb, cc, 0.5)


def test_segment_witness_refuses_nan_cross_terms():
    # A X_c overflows to inf below its first row, so X_b* A X_c = 0 * inf is
    # NaN: a cross term that no tolerance can vouch for
    M = np.zeros((3, 3))
    M[1:, 1:] = 1.7e308
    A = HermitianTuple(M[None])
    zero = MatPoint(np.zeros((1, 1, 1)))
    cb = Certificate(point=zero, p=1, witness=Isometry(np.eye(3)[:, :1]), residual=0.0)
    cc = Certificate(point=zero, p=1, residual=0.0,
                     witness=Isometry(np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(CrossOrthogonalityError, match="nan"):
        segment_witness(A, cb, cc, 0.5)


def test_segment_witness_validation():
    A = gue(1, 6, seed=69)
    c1 = solve_free(A, 1, 1, SolverOptions(seed=0))
    with pytest.raises(ValueError):
        segment_witness(A, c1, c1, 1.5)


# ---------------------------------------------------------------------------
# deflation


def test_deflation_corner_empty_prior():
    A = gue(2, 6, seed=70)
    corner = deflation_corner(A, [])
    assert A.n - corner.k == 0


def test_deflated_solve_orthogonality():
    A = gue(2, 14, seed=71)
    c1 = solve_free(A, 1, 1, SolverOptions(seed=0))
    c2 = deflated_solve(A, [c1], 1, 1, SolverOptions(seed=0))
    assert isinstance(c2, Certificate)
    X1, X2 = c1.witness.mat, c2.witness.mat
    assert np.max(np.abs(np.conj(X1.T) @ X2)) <= 1e-10
    for j in range(2):
        assert np.max(np.abs(np.conj(X1.T) @ A.mats[j] @ X2)) <= 1e-10
    c2.revalidate(A)


def test_deflated_solve_structural_error_names_requirement():
    A = gue(2, 4, seed=72)
    c1 = solve_free(A, 1, 1, SolverOptions(seed=0))
    with pytest.raises(StructuralInfeasibility, match="at least"):
        deflated_solve(A, [c1], 2, 1, SolverOptions(seed=0))


def test_orthogonal_block_family_free_mode():
    A = diag_tuple(np.arange(1.0, 13.0))
    fam = orthogonal_block_family(A, 1, 6, SolverOptions(seed=0))
    assert isinstance(fam, BlockFamily)
    assert len(fam) == 6
    assert fam.cross_tol <= 1e-9
    assert measure_cross(A, [c.witness for c in fam.members]) == fam.cross_tol
    for c in fam.members:
        v = c.point.scalar_values()[0]
        assert 1.0 - 1e-6 <= v <= 12.0 + 1e-6
        c.revalidate(A)


def test_orthogonal_block_family_stage_failure():
    # at norm 1e12 the rounding of X* A X alone exceeds accept_tol, so the
    # first block fails on its one Haar isometry
    A = HermitianTuple(1e12 * gue(2, 12, seed=0).mats)
    rej = orthogonal_block_family(A, 2, 2, SolverOptions(seed=0))
    assert isinstance(rej, Rejection)
    assert rej.stage == 0
    assert rej.restarts == 1
    assert 1e-8 < rej.best_residual < 1.0


def test_orthogonal_block_family_makes_no_solve(monkeypatch):
    # every block is a Haar isometry certified as it stands
    def refuse(*args, **kwargs):
        raise AssertionError("the family called a refused helper")

    monkeypatch.setattr(constructions, "solve_free", refuse)
    monkeypatch.setattr(feasibility, "_first_success", refuse)
    # nor does it compress A, compose certificates or take a joint corner
    for name in ("compress", "compose_certificate", "deflation_corner"):
        monkeypatch.setattr(constructions, name, refuse)
    A = gue(2, 40, seed=3)
    lift = tverberg_lift(A, 1, 2, SolverOptions(seed=0))
    assert len(lift.family) == 4
    lift.certificate.revalidate(A)


def test_orthogonal_block_family_structural_error_names_requirement():
    # on diag(1..4) a Haar x and its image A x span two dimensions, so each
    # stage protects two and the third block finds no room in dimension 4
    A = diag_tuple([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(StructuralInfeasibility,
                       match="deflation leaves 0 dimensions but the solve needs 1; "
                             "the tuple dimension must be at least 5"):
        orthogonal_block_family(A, 1, 5, SolverOptions(seed=0))


def test_tverberg_lift_returns_the_family_rejection():
    # at norm 1e12 the first block's rounding alone exceeds accept_tol, so
    # the lift returns the family's Rejection, at stage 0
    A = HermitianTuple(1e12 * random_hermitian_tuple(2, 40, 0).mats)
    rej = tverberg_lift(A, 1, 2, SolverOptions(seed=0))
    assert isinstance(rej, Rejection)
    assert (rej.stage, rej.restarts) == (0, 1)
    assert rej.best_residual > 1e-8


def test_tverberg_lift_p1_is_the_single_block():
    # d = 1: one block, no cross terms to measure, and a one-part partition
    A = gue(2, 6, seed=4)
    lift = tverberg_lift(A, 1, 1, SolverOptions(seed=0))
    (block,) = lift.family.members
    assert lift.family.cross_tol == 0.0
    assert lift.partition.parts == ((0,),)
    assert [w.tolist() for w in lift.partition.weights] == [[1.0]]
    assert np.array_equal(lift.certificate.witness.mat, block.witness.mat)
    assert np.allclose(lift.certificate.point.blocks, block.point.blocks, rtol=0, atol=1e-15)
    lift.certificate.revalidate(A)


@pytest.mark.parametrize("scale", [1.0, 1e7, 3e7, 1e8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tverberg_lift_never_returns_above_accept_tol(scale, seed):
    # rounding grows with the tuple's norm, so from about 3e7 an assembled
    # lift can exceed accept_tol; it must then be a Rejection at a stage
    # between block 0 and d = 4, the assembly
    A = HermitianTuple(scale * random_hermitian_tuple(2, 40, seed).mats)
    opts = SolverOptions(seed=seed)
    lift = tverberg_lift(A, 1, 2, opts)
    if isinstance(lift, Rejection):
        assert 0 <= lift.stage <= 4
        assert lift.best_residual > opts.accept_tol
        return
    assert lift.certificate.residual <= opts.accept_tol
    assert all(c.residual <= opts.accept_tol for c in lift.family.members)


@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 3), q=st.integers(1, 2), d=st.integers(2, 4),
       extra=st.integers(0, 3), scale=st.sampled_from([1e-3, 1.0, 1e4]),
       seed=st.integers(0, 2**31 - 1))
def test_in_corner_members_lie_in_the_global_corner(m, q, d, extra, scale, seed):
    # each member is built inside the corner shrunk stage by stage; its
    # witness must lie in the complement deflation_corner takes in C^n of
    # every earlier witness and its A-images, and it revalidates with a
    # residual at rounding level
    A = HermitianTuple(scale * gue(m, d * q * (m + 1) + q + extra, seed).mats)
    fam = orthogonal_block_family(A, q, d, SolverOptions(seed=seed % 1000))
    for c in fam.members:
        assert (c.p, c.q) == (1, q)
        c.revalidate(A)
        assert c.residual <= 1e-12 * A.scale()
    for s in range(1, d):
        Y = deflation_corner(A, list(fam.members[:s])).mat
        X = fam.members[s].witness.mat
        assert frob(X - Y @ (np.conj(Y.T) @ X)) <= 1e-12 * A.scale()


@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 3), q=st.integers(1, 2), k=st.integers(1, 3), more=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_block_family_prefix_is_the_smaller_family(m, q, k, more, seed):
    # stage s draws after stages 0..s-1 alone, so a family's first k blocks
    # are the size-k family's, bit for bit
    d = k + more
    A = gue(m, d * q * (m + 1) + q, seed)
    opts = SolverOptions(seed=seed % 1000)
    big, small = orthogonal_block_family(A, q, d, opts), orthogonal_block_family(A, q, k, opts)
    assert np.array_equal(big.witnesses[:k], small.witnesses)
    assert np.array_equal(big.points[:k], small.points)
    assert np.array_equal(big.residuals[:k], small.residuals)


def test_block_family_takes_only_thin_svds(monkeypatch):
    # no stage factors an n-by-n matrix: each SVD is a thin one of the new
    # block and its images, at most (m + 1) q columns
    calls = []
    svd = np.linalg.svd

    def spy(M, full_matrices=True, **kwargs):
        calls.append((M.shape, full_matrices))
        return svd(M, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    A, q = gue(2, 57, seed=8), 2
    fam = orthogonal_block_family(A, q, 6, SolverOptions(seed=0))
    assert len(fam) == 6 and len(calls) == 5
    assert all(full is False and shape[1] <= (A.m + 1) * q for shape, full in calls)


@pytest.mark.parametrize("build, message", [
    (lambda A: tverberg_lift(A, 0, 2), "need p >= 1 and q >= 1, got p=2, q=0"),
    (lambda A: tverberg_lift(A, 1, 0), "need p >= 1 and q >= 1, got p=0, q=1"),
    (lambda A: orthogonal_block_family(A, 1, -1), "need q >= 1 and d >= 1, got q=1, d=-1"),
    (lambda A: orthogonal_block_family(A, 0, 2), "need q >= 1 and d >= 1, got q=0, d=2"),
], ids=["lift-q0", "lift-p0", "family-d-1", "family-q0"])
def test_degenerate_lift_arguments_are_refused(build, message):
    with pytest.raises(DimensionError, match=message):
        build(diag_tuple([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# Tverberg lift


def test_tverberg_lift_diag_line():
    A = diag_tuple(np.arange(1.0, 13.0))
    lift = tverberg_lift(A, 1, 2, SolverOptions(seed=0))
    cert = lift.certificate
    assert cert.p == 2
    assert cert.witness.defect() <= 1e-8
    assert cert.residual <= 1e-8
    iv = rank_k_interval(A.mats[0], 2)
    c = cert.point.scalar_values()[0]
    assert iv.lo - 1e-6 <= c <= iv.hi + 1e-6
    # d = 3 level-1 points on a line, split into p = 2 parts
    assert len(lift.family) == 3
    assert lift.partition.partitions_scanned <= 3
    cert.revalidate(A)


def test_tverberg_lift_q2():
    A = gue(1, 26, seed=2026)
    lift = tverberg_lift(A, 2, 2, SolverOptions(seed=0))
    cert = lift.certificate
    assert cert.q == 2 and cert.p == 2
    assert cert.residual <= 1e-8
    assert cert.witness.defect() <= 1e-8
    assert lift.partition.partitions_scanned <= 31   # S(6, 2)
    cert.revalidate(A)


def test_tverberg_lift_identical_blocks():
    # every level-1 point of the scalar tuple is the same; p = 2 takes the
    # Radon split, which tries no colorful set
    A = HermitianTuple((3.0 * np.eye(7, dtype=complex))[None])
    lift = tverberg_lift(A, 1, 2, SolverOptions(seed=0))
    assert lift.partition.partitions_scanned == 0
    assert abs(lift.certificate.point.scalar_values()[0] - 3.0) <= 1e-9


def test_tverberg_lift_structural_error():
    A = diag_tuple([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(StructuralInfeasibility):
        tverberg_lift(A, 1, 2, SolverOptions(seed=0))


def test_tverberg_lift_room_is_the_familys(tmp_path):
    # m = 2, p = 2 needs d = 4 blocks; the last shields nothing after it, so
    # (d - 1)(m + 1) + 1 = 10 dimensions suffice and 9 leave it no room
    A = random_hermitian_tuple(2, 10, 0)
    lift = tverberg_lift(A, 1, 2, SolverOptions(seed=0))
    assert len(lift.family) == 4 and lift.certificate.residual <= 1e-8
    (tmp_path / "lift.json").write_text(canonical_dumps(certificate_doc(lift.certificate)))
    assert load_certificate(tmp_path / "lift.json", A).residual == lift.certificate.residual
    # the blocks are certified as drawn: no restart budget reaches the lift
    again = tverberg_lift(A, 1, 2, SolverOptions(seed=0, max_restarts=1))
    assert np.array_equal(again.certificate.witness.mat, lift.certificate.witness.mat)
    with pytest.raises(StructuralInfeasibility, match="must be at least 10"):
        tverberg_lift(random_hermitian_tuple(2, 9, 0), 1, 2, SolverOptions(seed=0))


def test_tverberg_lift_q2_p3_certifies():
    # the paper's q = 2, m = 2, p = 3 lift: d = 19 blocks in R^8, split by
    # the colorful exchange
    A = gue(2, 116, seed=5)
    lift = tverberg_lift(A, 2, 3, SolverOptions(seed=0))
    assert len(lift.family) == 19 and lift.partition.partitions_scanned >= 1
    assert all(lift.partition.parts)
    cert = lift.certificate
    assert cert.p == 3 and cert.q == 2
    assert cert.residual <= 1e-10
    assert cert.revalidate(A) == cert.residual


def test_tverberg_lift_beyond_the_bench_sizes():
    # m = 2, q = 2, p = 3 at n = 300: d = 19 blocks, each inside the corner
    # deflation_corner takes past the blocks before it
    A = random_hermitian_tuple(2, 300, 0)
    lift = tverberg_lift(A, 2, 3, SolverOptions(seed=0))
    cert = lift.certificate
    assert cert.residual <= 1e-8 and cert.revalidate(A) == cert.residual
    assert lift.family.cross_tol <= 1e-12 * A.scale()
    members = lift.family.members
    for s in range(1, len(members)):
        Y = deflation_corner(A, list(members[:s])).mat
        X = members[s].witness.mat
        assert frob(X - Y @ (np.conj(Y.T) @ X)) <= 1e-12 * A.scale()


def test_tverberg_lift_p2_beyond_scan_cap():
    # q = 2, m = 4, p = 2 needs d = D + 2 = 18 blocks; Radon's split reads
    # them off one affine dependence
    A = gue(4, 182, seed=5)
    lift = tverberg_lift(A, 2, 2, SolverOptions(seed=0))
    assert len(lift.family) == 18 and lift.partition.partitions_scanned == 0
    cert = lift.certificate
    assert cert.residual <= 1e-10
    assert cert.revalidate(A) == cert.residual


# ---------------------------------------------------------------------------
# direction sets


def test_direction_set_dim1_exact():
    D = direction_set(1, count=17)
    assert np.array_equal(D, np.array([[1.0], [-1.0]]))


def test_direction_set_properties():
    D = direction_set(3, count=40)
    assert D.shape == (40, 3)
    assert np.allclose(np.linalg.norm(D, axis=1), 1.0)
    assert np.array_equal(D, direction_set(3, count=40))
    # no two directions coincide
    gram = D @ D.T
    np.fill_diagonal(gram, 0.0)
    assert np.max(gram) < 1.0 - 1e-8


def test_direction_set_validation():
    with pytest.raises(DimensionError):
        direction_set(0)


# ---------------------------------------------------------------------------
# essential estimator


def test_essential_estimate_spiked_diagonal():
    vals = np.zeros(12)
    vals[0] = 5.0
    vals[1:6] = 1.0
    A = diag_tuple(vals)
    est = essential_estimate(A, 1, 3, SolverOptions(seed=0))
    lo, hi = est.interval()
    # level 1 sees the spike; levels >= 2 cannot, and [0, 1] remains
    assert est.failed_r is None
    assert est.r_max == 3
    up = np.where(est.directions[:, 0] > 0)[0][0]
    assert abs(est.supports[0, up] - 5.0) <= 1e-6
    assert abs(hi - 1.0) <= 1e-6
    assert abs(lo - 0.0) <= 1e-6
    # running minima are nonincreasing in r
    assert np.all(np.diff(est.intersection, axis=0) <= 1e-12)


def test_essential_estimate_scalar_tuple():
    A = HermitianTuple((2.5 * np.eye(8, dtype=complex))[None])
    est = essential_estimate(A, 1, 2, SolverOptions(seed=0))
    lo, hi = est.interval()
    assert abs(lo - 2.5) <= 1e-8 and abs(hi - 2.5) <= 1e-8


def test_essential_estimate_without_a_level_one_point():
    # at norm 1e13 no directed solve of level 1 reaches accept_tol, and with
    # no free samples the estimate keeps nothing to intersect
    A = HermitianTuple(1e13 * random_hermitian_tuple(2, 8, 0).mats)
    rej = essential_estimate(A, 1, 1, SolverOptions(max_restarts=2), n_dirs=4, n_free=0)
    assert isinstance(rej, Rejection)
    assert rej.stage == 1
    assert rej.best_residual == np.inf
    assert rej.restarts == SUPPORT_RESTARTS


def test_essential_estimate_depth_guard():
    A = gue(1, 8, seed=73)
    with pytest.raises(StructuralInfeasibility):
        essential_estimate(A, 1, 5, SolverOptions(seed=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3), r=st.integers(1, 2),
       extra=st.integers(0, 4), log_c=st.floats(-3.0, 3.0))
def test_interlacing_support_is_exact(seed, q, r, extra, log_c):
    n = 2 * r * q + extra
    A = HermitianTuple(10.0 ** log_c * gue(1, n, seed).mats)
    u = np.random.default_rng(seed).standard_normal(q * q)
    u /= np.linalg.norm(u)
    cert = interlacing_support(A, r, q, u)
    cert.revalidate(A, 1e-12)
    # the witness is exact up to the eigensolve's rounding
    assert cert.residual <= 64 * np.finfo(float).eps * frob(A.mats)
    # the support value sum nu_a beta_a, from the two spectra alone
    lam = np.linalg.eigvalsh(A.mats[0])[::-1]
    nu = np.linalg.eigvalsh(MatPoint.unflatten(u, 1, q).blocks[0])[::-1]
    a = np.arange(q)
    beta = np.where(nu >= 0, lam[r * (a + 1) - 1], lam[n - r * q + r * a])
    value = u @ cert.point.flatten()
    scale = max(1.0, frob(A.mats))
    assert abs(value - nu @ beta) <= 1e-12 * scale
    # the descent, as an oracle, gets no further than its residual times
    # ||U||_F = ||u|| = 1 allows
    found = solve_support(A, r, q, u, SolverOptions(seed=seed, max_restarts=10))
    if not isinstance(found, Rejection):
        assert u @ found.point.flatten() <= value + found.residual + 1e-12 * scale


def test_essential_estimate_single_matrix_makes_no_solve(monkeypatch):
    # at m = 1 every support is built by interlacing; with no free samples
    # nothing reaches the descent
    def refuse(*args, **kwargs):
        raise AssertionError("the estimate ran the descent")

    monkeypatch.setattr(feasibility, "_descend", refuse)
    A = HermitianTuple(40.0 * gue(1, 12, seed=5).mats)
    est = essential_estimate(A, 1, 3, SolverOptions(seed=0), n_free=0)
    lam = np.linalg.eigvalsh(A.mats[0])[::-1]
    tol = 1e-12 * max(1.0, frob(A.mats))
    # level r's supports along +1 and -1 are the rank-r window's endpoints
    for r in (1, 2, 3):
        assert abs(est.supports[r - 1, 0] - lam[r - 1]) <= tol
        assert abs(-est.supports[r - 1, 1] - lam[12 - r]) <= tol
    assert essential_estimate(A, 2, 2, SolverOptions(seed=0), n_free=0).failed_r is None


def test_essential_estimate_single_matrix_at_huge_norm():
    # at norm 1e10 the rounding of x* A x alone can exceed the absolute
    # accept_tol: the bottom eigenvector's compression carries an imaginary
    # part of about 5e-7 here, so that direction goes to the descent, as it
    # did before interlacing, and the estimate still reads both endpoints
    A = HermitianTuple(1e10 * gue(1, 8, seed=2).mats)
    assert interlacing_support(A, 1, 1, [-1.0]).residual > SolverOptions().accept_tol
    est = essential_estimate(A, 1, 1, SolverOptions(seed=0), n_free=0)
    lam = np.linalg.eigvalsh(A.mats[0])
    assert abs(est.supports[0, 0] - lam[-1]) <= 1e-12 * frob(A.mats)
    assert abs(-est.supports[0, 1] - lam[0]) <= 1e-12 * frob(A.mats)


def test_essential_interval_needs_dimension_one():
    A = gue(2, 8, seed=74)
    est = essential_estimate(A, 1, 2, SolverOptions(seed=0), n_dirs=8, n_free=2)
    with pytest.raises(DimensionError):
        est.interval()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 2), p=st.integers(2, 3),
       q=st.integers(1, 2), extra=st.integers(1, 4), data=st.data())
def test_restricted_certificate_is_valid_at_lower_level(seed, m, p, q, extra, data):
    # monotonicity in p: the first p' q columns of a (p, q) witness compress
    # each A_j to the top-left block of X* A_j X, whose misfit against
    # I_p' (x) B is a sub-block of the full misfit; so the (p, q) range lies in
    # the (p', q) range, and a certificate stays valid with no larger residual
    n = p * q + extra
    A = gue(m, n, seed)
    cert = solve_free(A, p, q, SolverOptions(seed=seed, max_restarts=3))
    if isinstance(cert, Rejection):
        cert = certify(A, random_isometry(n, p * q, seed + 1), p)
    p_low = data.draw(st.integers(1, p - 1))
    low = _restrict_certificate(A, cert, p_low, cert.point)
    assert low.p == p_low and low.witness.k == p_low * q
    assert low.point is cert.point
    low.revalidate(A)
    assert low.residual <= cert.residual + 1e-12 * max(1.0, frob(A.mats))
    if cert.residual <= SolverOptions().accept_tol:
        assert low.residual <= SolverOptions().accept_tol
