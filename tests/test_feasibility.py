"""Certifying solvers: membership, free search, support chasing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matrange.feasibility as feasibility
from matrange.constructions import essential_estimate, tverberg_lift
from matrange.feasibility import (
    Certificate,
    CertificateError,
    MatPoint,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    _polish,
    _tangent,
    _tangent_kick,
    certify,
    compose_certificate,
    flatten_blocks,
    membership,
    sample_range,
    solve_free,
    solve_support,
    unflatten_blocks,
)
from matrange.linalg import (
    ISO_TOL,
    DimensionError,
    HermitianTuple,
    Isometry,
    compress,
    frob,
    _qr_fix,
    random_isometry,
)
from matrange.ranges import rank_k_interval
from matrange.verify import random_hermitian_tuple


def gue(m, n, seed):
    rng = np.random.default_rng(seed)
    mats = np.empty((m, n, n), dtype=complex)
    for j in range(m):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats[j] = (G + np.conj(G.T)) / (2 * np.sqrt(n))
    return HermitianTuple(mats)


def random_matpoint(m, q, seed):
    rng = np.random.default_rng(seed)
    blocks = np.empty((m, q, q), dtype=complex)
    for j in range(m):
        G = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        blocks[j] = (G + np.conj(G.T)) / 2
    return MatPoint(blocks)


def test_matpoint_accepts_strided_input():
    B = random_matpoint(2, 3, seed=4).blocks
    view = B.conj().transpose(0, 2, 1)  # equal to B, last axis not contiguous
    assert not view.flags.c_contiguous
    assert np.allclose(MatPoint(view).blocks, B)


def test_zero_restarts_reject_with_infinite_residual():
    A = gue(2, 6, 3)
    opts = SolverOptions(max_restarts=0)
    for got in (solve_free(A, 1, 1, opts),
                membership(A, random_matpoint(2, 1, seed=1), 1, opts)):
        assert isinstance(got, Rejection)
        assert got.best_residual == np.inf and got.restarts == 0


@pytest.mark.parametrize("field,value", [
    ("accept_tol", np.nan), ("accept_tol", np.inf), ("accept_tol", 0.0),
    ("accept_tol", -1e-8), ("max_restarts", -3), ("max_restarts", True),
    ("max_restarts", 2.0), ("seed", -1), ("seed", False), ("seed", 0.5),
])
def test_solver_options_refuse_what_the_cli_refuses(field, value):
    # a NaN tolerance accepts nothing and an infinite one everything; a
    # negative budget or seed has no meaning
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})
    with pytest.raises(ValueError, match=field):
        SolverOptions().replace(**{field: value})


def test_huge_finite_accept_tol_ends_in_a_result():
    # (0.999 * 1e300)^2 is past the double range: the stopping threshold
    # saturates at inf, in the descent and in the polish, instead of raising
    opts = SolverOptions(accept_tol=1e300)
    A = gue(2, 6, 3)
    got = membership(A, random_matpoint(2, 1, seed=1), 1, opts)
    assert isinstance(got, (Certificate, Rejection))
    X0 = random_isometry(6, 1, seed=2).mat
    X, R2 = _polish(A.mats, X0, 1, 1, opts)
    assert X is X0 and np.isfinite(R2)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_huge_norm_solves_reject_without_a_warning(scale):
    # the products overflow; the residual says so, and the pytest filter
    # would turn a numpy RuntimeWarning into an error
    A = scale * random_hermitian_tuple(2, 5, 0).mats
    opts = SolverOptions(max_restarts=3)
    for got in (solve_free(A, 2, 1, opts),
                membership(A, MatPoint(np.zeros((2, 1, 1))), 2, opts)):
        assert isinstance(got, Rejection) and got.restarts == 3
        assert got.best_residual == np.inf if scale > 1e150 else got.best_residual > 1e149


def test_lane_with_a_nan_gradient_norm_stops_at_once(monkeypatch):
    # at norm 1e160 the gradient's squared norm is NaN, which neither passes
    # nor fails `> 1e-30`: such a lane once ran all MAX_ITERS iterations
    calls = [0]
    tangent = feasibility._tangent

    def counted(X, G):
        calls[0] += 1
        return tangent(X, G)

    monkeypatch.setattr(feasibility, "_tangent", counted)
    A = 1e160 * random_hermitian_tuple(2, 5, 0).mats
    with np.errstate(all="ignore"):
        got = solve_free(A, 2, 1, SolverOptions(max_restarts=3))
    assert isinstance(got, Rejection)
    assert (got.best_residual, got.restarts) == (np.inf, 3)
    assert calls[0] == 2  # restart 0, then restarts 1 and 2 as one stack


# ---------------------------------------------------------------------------
# flattening


def test_flatten_is_isometric():
    for seed in range(5):
        B = random_matpoint(2, 3, seed)
        v = flatten_blocks(B.blocks)
        assert v.shape == (2 * 9,)
        assert np.isclose(np.linalg.norm(v),
                          np.sqrt(sum(frob(B.blocks[j]) ** 2 for j in range(2))))
        back = unflatten_blocks(v, 2, 3)
        assert frob(back - B.blocks) <= 1e-14


def test_flatten_coordinate_order():
    # the cloud format's "hermitian-diag-sqrt2-offdiag" order: per block the
    # diagonal, then sqrt2 Re and sqrt2 Im of each i < k in row-major order
    B = np.array([[1, 2 + 3j, 4 + 5j],
                  [2 - 3j, 6, 7 + 8j],
                  [4 - 5j, 7 - 8j, 9]])
    s = np.sqrt(2.0)
    block = [1.0, 6.0, 9.0, s * 2, s * 3, s * 4, s * 5, s * 7, s * 8]
    expected = np.array(block + [-v for v in block])
    assert np.array_equal(flatten_blocks(np.stack([B, -B])), expected)
    assert np.allclose(unflatten_blocks(expected, 2, 3), np.stack([B, -B]), rtol=0, atol=1e-15)


def flatten_reference(blocks):
    """The flattening entry by entry, as the format describes it."""
    s2 = np.sqrt(2.0)
    out = []
    for B in blocks:
        out += [B[i, i].real for i in range(len(B))]
        for i in range(len(B)):
            for k in range(i + 1, len(B)):
                out += [s2 * B[i, k].real, s2 * B[i, k].imag]
    return np.array(out)


def unflatten_reference(vec, m, q):
    blocks = np.zeros((m, q, q), dtype=complex)
    pos = iter(vec)
    for j in range(m):
        for i in range(q):
            blocks[j, i, i] = next(pos)
        for i in range(q):
            for k in range(i + 1, q):
                re, im = next(pos), next(pos)
                blocks[j, i, k] = (re + 1j * im) / np.sqrt(2.0)
                blocks[j, k, i] = (re - 1j * im) / np.sqrt(2.0)
    return blocks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), q=st.integers(1, 4))
def test_flatten_matches_entrywise_reference_bit_for_bit(seed, m, q):
    # signed zeros included: the stacked forms must round exactly as the
    # entry-by-entry definition does
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, q, q)) + 1j * rng.standard_normal((m, q, q))
    B[rng.random(B.shape) < 0.3] = -0.0
    v = flatten_blocks(B)
    assert v.tobytes() == flatten_reference(B).tobytes()
    v[rng.random(v.shape) < 0.3] = -0.0
    assert unflatten_blocks(v, m, q).tobytes() == unflatten_reference(v, m, q).tobytes()


def test_unflattened_identity_is_an_orthonormal_hermitian_basis():
    # i times these matrices is _polish's skew-Hermitian basis: k^2 of them,
    # exactly Hermitian and orthonormal under Re tr(A* B).  _polish builds its
    # columns over the basis and reads its step's W back with one
    # unflatten_blocks call, so that call must sum the basis with the
    # solution's coefficients
    rng = np.random.default_rng(5)
    for k in range(1, 6):
        H = unflatten_blocks(np.eye(k * k).ravel(), k * k, k)
        assert np.array_equal(H, np.conj(np.swapaxes(H, 1, 2)))
        gram = np.einsum("iab,jab->ij", np.conj(H), H)
        assert np.allclose(gram, np.eye(k * k), rtol=0, atol=1e-15)
        c = rng.standard_normal(k * k)
        assert np.allclose(unflatten_blocks(c, 1, k)[0], np.tensordot(c, H, 1),
                           rtol=0, atol=1e-15 * np.linalg.norm(c))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(1, 4),
       cols=st.integers(1, 12), rank=st.integers(1, 12))
def test_flattened_rows_keep_singular_values(seed, m, k, cols, rank):
    # _polish's least-squares rows: the flatten_blocks coordinates of
    # Hermitian columns have the singular values of all their real and
    # imaginary parts, in half the rows, and so the same minimum-norm
    # solution; columns past `rank` repeat earlier ones, so some are null
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((cols, m, k, k)) + 1j * rng.standard_normal((cols, m, k, k))
    G[rank:] = G[np.arange(rank, max(rank, cols)) % rank]
    L = G + np.conj(np.swapaxes(G, -1, -2))
    half = flatten_blocks(L.reshape(-1, k, k)).reshape(cols, -1).T
    Lf = L.reshape(cols, -1).T
    full = np.concatenate([Lf.real, Lf.imag])
    assert 2 * len(half) == len(full)
    sv_half, sv_full = (np.linalg.svd(M, compute_uv=False) for M in (half, full))
    assert np.allclose(sv_half, sv_full[:len(sv_half)], rtol=0, atol=1e-13 * sv_full[0])
    assert np.all(sv_full[len(sv_half):] <= 1e-13 * sv_full[0])
    E = rng.standard_normal((m, k, k)) + 1j * rng.standard_normal((m, k, k))
    E += np.conj(np.swapaxes(E, -1, -2))
    x_half = np.linalg.lstsq(half, flatten_blocks(E), rcond=1e-12)[0]
    x_full = np.linalg.lstsq(full, np.concatenate([E.ravel().real, E.ravel().imag]),
                             rcond=1e-12)[0]
    assert np.allclose(x_half, x_full, rtol=0, atol=1e-10 * max(1.0, np.linalg.norm(x_full)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), q=st.integers(1, 4),
       scale=st.floats(1e-3, 1e3))
def test_flatten_isometry_property(seed, m, q, scale):
    B = scale * random_matpoint(m, q, seed).blocks
    C = random_matpoint(m, q, seed + 1).blocks
    vb, vc = flatten_blocks(B), flatten_blocks(C)
    norm = np.sqrt(sum(np.linalg.norm(B[j]) ** 2 for j in range(m)))
    assert abs(np.linalg.norm(vb) - norm) <= 1e-14 * norm
    inner = sum(np.real(np.trace(B[j] @ C[j])) for j in range(m))
    assert abs(vb @ vc - inner) <= 1e-13 * max(1.0, np.linalg.norm(vb) * np.linalg.norm(vc))
    back = MatPoint.unflatten(vb, m, q).blocks
    # diagonals are copied; an off-diagonal part goes through sqrt2 and
    # back, and x -> sqrt2 * x is not injective on doubles, so the round trip
    # is exact up to the last bit of each real and imaginary part
    diag = np.arange(q)
    assert np.array_equal(back[:, diag, diag], B[:, diag, diag])
    np.testing.assert_array_max_ulp(back.real, B.real, maxulp=1)
    np.testing.assert_array_max_ulp(back.imag, B.imag, maxulp=1)
    assert np.array_equal(back, np.conj(np.swapaxes(back, 1, 2)))


def test_matpoint_scalar_and_distance():
    B = MatPoint.scalar(np.array([1.0, -2.0]), 3)
    assert B.q == 3 and B.m == 2
    assert np.allclose(B.scalar_values() if B.q == 1 else [1.0, -2.0], [1.0, -2.0])
    C = MatPoint.scalar(np.array([1.0, -2.0]), 3)
    assert np.linalg.norm(B.blocks - C.blocks) <= 1e-15


def test_matpoint_rejects_non_hermitian():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(DimensionError):
        MatPoint(bad)


# ---------------------------------------------------------------------------
# residual plumbing


def test_residual_and_best_block_planted():
    B = random_matpoint(2, 2, 3)
    A = HermitianTuple(np.kron(np.eye(3), B.blocks))
    X = Isometry(np.eye(6, dtype=complex))
    assert certify(A, X, 3, B).residual <= 1e-14
    got = certify(A, X, 3).point
    assert frob(got.blocks - B.blocks) <= 1e-12


def test_certify_returns_best_block():
    A = gue(2, 8, seed=1)
    X = random_isometry(8, 2, seed=2)
    cert = certify(A, X, 2)
    # the averaged block minimizes the residual for this witness
    assert cert.residual <= certify(A, X, 2, random_matpoint(2, 1, 9)).residual + 1e-12


def test_certificate_revalidation_detects_tampering():
    A = gue(1, 6, seed=4)
    out = solve_free(A, 2, 1, SolverOptions(seed=0))
    assert isinstance(out, Certificate)
    out.revalidate(A)
    forged = Certificate(point=out.point, p=out.p, witness=out.witness,
                         residual=out.residual + 1e-3)
    with pytest.raises(CertificateError):
        forged.revalidate(A)


def test_certificate_revalidation_detects_a_mutated_witness():
    # the witness array is shared with the certificate, so an in-place edit
    # is caught by the defect check before any residual is recomputed
    A = gue(1, 6, seed=4)
    out = solve_free(A, 2, 1, SolverOptions(seed=0))
    out.witness.mat[0, 0] += 1e-6
    with pytest.raises(CertificateError, match="witness defect .* exceeds 1.0e-10"):
        out.revalidate(A)


# ---------------------------------------------------------------------------
# membership


def test_membership_planted_block():
    B = random_matpoint(2, 2, seed=7)
    junk = gue(2, 4, seed=8).mats
    planted = np.kron(np.eye(2), B.blocks)
    A = HermitianTuple(np.block([[planted, np.zeros((2, 4, 4))], [np.zeros((2, 4, 4)), junk]]))
    out = membership(A, B, 2, SolverOptions(seed=0))
    assert isinstance(out, Certificate)
    assert out.residual <= 1e-8
    out.revalidate(A)


def test_membership_rejects_outside_interval():
    # rank-2 points of diag(1,2,3,4) fill [2, 3]; 3.5 is 0.5 away, and
    # compressions cannot get closer than that by interlacing
    A = HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)[None])
    out = membership(A, MatPoint.scalar(np.array([3.5]), 1), 2,
                     SolverOptions(seed=0, max_restarts=20))
    assert isinstance(out, Rejection)
    assert out.best_residual >= 0.3
    assert out.restarts == 20


def test_membership_structural_error():
    A = gue(1, 3, seed=1)
    with pytest.raises(StructuralInfeasibility):
        membership(A, MatPoint.scalar(np.array([0.0]), 2), 2, SolverOptions())


# ---------------------------------------------------------------------------
# free solve and scalar points


def test_solve_free_certificate_accepts():
    A = gue(2, 10, seed=11)
    out = solve_free(A, 2, 2, SolverOptions(seed=0))
    assert isinstance(out, Certificate)
    assert out.residual <= 1e-8
    assert out.witness.defect() <= 1e-10
    assert out.q == 2 and out.p == 2


def test_find_scalar_point_in_interval():
    rng = np.random.default_rng(13)
    for t in range(10):
        n = int(rng.integers(5, 12))
        k = int(rng.integers(1, (n + 1) // 2 + 1))
        A = gue(1, n, seed=100 + t)
        out = solve_free(A, k, 1, SolverOptions(seed=t))
        assert not isinstance(out, Rejection)
        iv = rank_k_interval(A.mats[0], k)
        x = out.point.scalar_values()[0]
        assert not iv.empty and iv.lo - 1e-6 <= x <= iv.hi + 1e-6
        assert out.p == k


def test_scalar_tuple_everything_collapses():
    A = HermitianTuple(np.stack([2.0 * np.eye(5, dtype=complex),
                                 -1.0 * np.eye(5, dtype=complex)]))
    cert = solve_free(A, 3, 1, SolverOptions(seed=0))
    assert np.allclose(cert.point.scalar_values(), [2.0, -1.0], atol=1e-10)
    assert cert.residual <= 1e-10


# ---------------------------------------------------------------------------
# support-directed solve


def test_solve_support_reaches_diag_endpoints():
    A = HermitianTuple(np.diag([0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9])
                       .astype(complex)[None])
    iv = rank_k_interval(A.mats[0], 2)
    hi = solve_support(A, 2, 1, [1.0], SolverOptions(seed=0))
    lo = solve_support(A, 2, 1, [-1.0], SolverOptions(seed=0))
    assert isinstance(hi, Certificate) and isinstance(lo, Certificate)
    assert abs(hi.point.scalar_values()[0] - iv.hi) <= 1e-6
    assert abs(lo.point.scalar_values()[0] - iv.lo) <= 1e-6


@pytest.mark.filterwarnings("error")
def test_support_refuses_overflowing_scale():
    # the Frobenius norm overflows: scale() is inf without a warning, and the
    # penalty continuation refuses it instead of running at mu = 1 / inf = 0
    A = HermitianTuple(np.array([[[1e308, 1e308], [1e308, -1e308]]], dtype=complex))
    assert A.scale() == np.inf
    with pytest.raises(DimensionError, match="overflows"):
        solve_support(A, 1, 1, [1.0])
    with pytest.raises(DimensionError, match="overflows"):
        sample_range(A, 1, 1, 0, directions=[[1.0]])
    # the estimate builds its supports from the spectrum, with no penalty,
    # but the spectral gaps they mix across overflow here, so it refuses too
    with pytest.raises(DimensionError, match="overflows"):
        essential_estimate(A, 1, 1, n_free=0)


@pytest.mark.parametrize("call", [
    lambda A: solve_free(A, 0, 1),
    lambda A: solve_free(A, 1, 0),
    lambda A: sample_range(A, 0, 1, 2),
    lambda A: solve_support(A, 0, 1, [1.0, 0.0]),
    lambda A: membership(A, MatPoint.scalar(np.zeros(2), 1), 0),
    lambda A: essential_estimate(A, 1, 2, n_dirs=0),
    lambda A: certify(A, random_isometry(8, 2, seed=1), 0),
    lambda A: sample_range(A, 2, 1, -1),
    lambda A: essential_estimate(A, 1, 2, n_free=-2),
    lambda A: certify(A, random_isometry(7, 2, seed=1), 1),
], ids=["free-p0", "free-q0", "sample-p0", "support-p0",
        "membership-p0", "essential-dirs0", "certify-p0", "sample-count-neg",
        "essential-free-neg", "certify-rows"])
def test_zero_dimensions_refused(call):
    with pytest.raises(DimensionError):
        call(gue(2, 8, seed=3))


def test_descent_retraction_count(monkeypatch):
    # every trial of the line search costs one QR retraction call, stacked
    # over the lanes that try it; a unit first step per iteration needed
    # ~10x the counts bounded here
    calls = [0]
    qr_fix = feasibility._qr_fix

    def counted(M):
        calls[0] += 1
        return qr_fix(M)

    monkeypatch.setattr(feasibility, "_qr_fix", counted)
    for seed in range(5):
        cloud = sample_range(gue(2, 8, seed), 2, 1, 4, SolverOptions(seed=seed))
        assert len(cloud) == 4
    sampled = calls[0]
    calls[0] = 0
    out = solve_support(gue(2, 8, 0), 2, 1, [0.6, 0.8], SolverOptions(seed=0))
    assert isinstance(out, Certificate)
    supported = calls[0]
    assert sampled <= 800, sampled
    assert supported <= 7000, supported


@pytest.mark.parametrize("restarts", [None, 3])
def test_support_rejection_reports_its_restarts(monkeypatch, restarts):
    # with no descent at all no restart reaches accept_tol; the schedule is
    # read when the solve runs, so patched constants take effect
    monkeypatch.setattr(feasibility, "MAX_ITERS", 0)
    monkeypatch.setattr(feasibility, "SUPPORT_STAGE_ITERS", 0)
    if restarts is not None:
        monkeypatch.setattr(feasibility, "SUPPORT_RESTARTS", restarts)
    opts = SolverOptions(seed=0)
    out = solve_support(gue(2, 8, 0), 2, 1, [0.6, 0.8], opts)
    assert isinstance(out, Rejection)
    assert out.restarts == feasibility.SUPPORT_RESTARTS == (restarts or 2)
    assert out.message == "support-directed solve never reached tolerance"
    assert feasibility.POLISH_GATE * opts.accept_tol < out.best_residual < np.inf


# ---------------------------------------------------------------------------
# spectral outer bound


def spectral_bound(A, U, p):
    """q * lambda_p(sum_j A_j (x) U_j^T).  If X certifies B, the columns
    vec(X_a) / sqrt(q) of its p column blocks are orthonormal and compress
    this matrix to (<U, B> / q) I_p + F, with ||F|| <= residual * ||U|| / q,
    so Cauchy interlacing bounds <U, B> up to residual * ||U||."""
    q = U.shape[-1]
    K = sum(np.kron(A.mats[j], U[j].T) for j in range(A.m))
    return q * np.linalg.eigvalsh(K)[-p]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2), p=st.integers(1, 2),
       q=st.integers(1, 2), extra=st.integers(0, 4))
@example(seed=0, m=1, p=2, q=1, extra=1)  # support value on the bound itself
def test_certificates_respect_spectral_outer_bound(seed, m, p, q, extra):
    n = p * q + extra
    A = gue(m, n, seed)
    inside = certify(A, random_isometry(n, p * q, seed + 1), p).point
    dirs = [random_matpoint(m, q, seed + i).blocks for i in (2, 3, 4)]
    u = flatten_blocks(dirs[0])
    opts = SolverOptions(seed=seed, max_restarts=10)
    certs = [membership(A, inside, p, opts), solve_free(A, p, q, opts),
             solve_support(A, p, q, u / np.linalg.norm(u), opts)]
    for cert in certs:
        if isinstance(cert, Rejection):
            continue
        cert.revalidate(A)
        for U in dirs:
            # a certificate's point may sit up to its residual outside the range
            tol = 1e-9 * max(1.0, frob(A.mats)) + cert.residual * frob(U)
            assert flatten_blocks(U) @ cert.point.flatten() <= spectral_bound(A, U, p) + tol


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 3),
       case=st.sampled_from([(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 1, 3), (1, 2, 2), (1, 1, 4)]))
def test_tverberg_lift_respects_spectral_outer_bound(seed, extra, case):
    m, q, p = case
    d = (p - 1) * (q * q * m + 1) + 1
    A = gue(m, d * q * (m + 1) + q + extra, seed)
    cert = tverberg_lift(A, q, p, SolverOptions(seed=seed)).certificate
    cert.revalidate(A)
    for i in (1, 2, 3):
        U = random_matpoint(m, q, seed + i).blocks
        tol = 1e-9 * max(1.0, frob(A.mats)) + cert.residual * frob(U)
        assert flatten_blocks(U) @ cert.point.flatten() <= spectral_bound(A, U, p) + tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), p=st.integers(1, 2),
       q=st.integers(1, 2), extra=st.integers(0, 3))
def test_interlacing_gap_is_sound(seed, m, p, q, extra):
    # a witness of residual tau moves the eigenvalues of I_p (x) B by at most
    # tau from those of a compression, which interlace: no planted point's
    # gap exceeds its residual, on a shared tuple or a per-job stack
    n = p * q + extra
    A = gue(m, n, seed)
    cert = certify(A, random_isometry(n, p * q, seed + 1), p)
    tol = cert.residual + 1e-12 * max(1.0, frob(A.mats))
    for lam in (A.eigvals(), A.eigvals()[None]):
        [gap] = feasibility._interlacing_gap(lam, cert.point.blocks[None], p)
        assert gap <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), extra=st.integers(0, 4),
       t=st.floats(0.0, 1.0), beyond=st.floats(1e-9, 2.0), above=st.booleans())
def test_interlacing_gap_is_exact_for_one_matrix(seed, p, extra, t, beyond, above):
    # at m = 1, q = 1 the gap is <= 0 exactly on the rank-p interval
    # (Fan-Pall): inside it by 1e-9 or more, and outside it by 1e-9 or more
    A = gue(1, p + extra, seed)
    iv = rank_k_interval(A.mats[0], p)
    outside = iv.hi + beyond if above else iv.lo - beyond
    xs = [(outside, True)]
    if iv.hi - iv.lo >= 2e-9:
        xs.append((iv.lo + 1e-9 + t * (iv.hi - iv.lo - 2e-9), False))
    for x, out in xs:
        [gap] = feasibility._interlacing_gap(A.eigvals(), MatPoint.scalar([x], 1).blocks[None], p)
        assert (gap > 0) == out


# ---------------------------------------------------------------------------
# descent gradient check


def test_free_objective_gradient_matches_finite_differences():
    # the descent kernel's Euclidean gradient of R^2(X) at fixed target B
    # is 4 sum_j A_j X E_j with E_j = X*A_jX - I_p (x) B_j
    A = gue(2, 6, seed=17)
    B = random_matpoint(2, 1, seed=18)
    p = 2
    X0 = random_isometry(6, 2, seed=19).mat

    def f(X):
        S = [np.conj(X.T) @ A.mats[j] @ X for j in range(2)]
        E = [S[j] - np.kron(np.eye(p), B.blocks[j]) for j in range(2)]
        return sum(frob(e) ** 2 for e in E)

    G = np.zeros_like(X0)
    S = [np.conj(X0.T) @ A.mats[j] @ X0 for j in range(2)]
    for j in range(2):
        E = S[j] - np.kron(np.eye(p), B.blocks[j])
        G += 4.0 * (A.mats[j] @ X0 @ E)
    rng = np.random.default_rng(20)
    for _ in range(5):
        D = rng.standard_normal(X0.shape) + 1j * rng.standard_normal(X0.shape)
        D /= np.linalg.norm(D)
        h = 1e-6
        fd = (f(X0 + h * D) - f(X0 - h * D)) / (2 * h)
        an = 2.0 * np.real(np.sum(np.conj(G) * D)) / 2.0
        # real inner product on C^{n x k} viewed as a real space
        an = np.real(np.sum(np.conj(G) * D))
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


# ---------------------------------------------------------------------------
# determinism


def test_solver_determinism():
    A = gue(2, 9, seed=23)
    a = solve_free(A, 2, 1, SolverOptions(seed=5))
    b = solve_free(A, 2, 1, SolverOptions(seed=5))
    assert np.array_equal(a.witness.mat, b.witness.mat)
    assert a.residual == b.residual


def test_sample_range_deterministic_and_metadata():
    A = gue(2, 8, seed=29)
    opts = SolverOptions(seed=3)
    c1 = sample_range(A, 2, 1, 5, opts)
    c2 = sample_range(A, 2, 1, 5, opts)
    assert np.array_equal(c1.coords, c2.coords)
    assert c1.meta["seed"] == 3
    assert c1.meta["requested"] == 5
    assert c1.p == 2 and c1.q == 1
    assert len(c1.certificates) == len(c1)
    for cert in c1.certificates:
        cert.revalidate(A)


def test_sample_range_directed_solves_prepend():
    A = HermitianTuple(np.diag([0.0, 0.3, 0.7, 1.0, 0.5, 0.2])
                       .astype(complex)[None])
    iv = rank_k_interval(A.mats[0], 2)
    cloud = sample_range(A, 2, 1, 2, SolverOptions(seed=0),
                         directions=[[1.0], [-1.0]])
    vals = cloud.coords[:, 0]
    assert abs(np.max(vals) - iv.hi) <= 1e-6
    assert abs(np.min(vals) - iv.lo) <= 1e-6
    assert cloud.meta["directed"] == 2


# ---------------------------------------------------------------------------
# composition


def test_compose_certificate_through_corner():
    A = gue(2, 10, seed=31)
    Y = random_isometry(10, 7, seed=32)
    inner = compress(A, Y)
    got = solve_free(inner, 2, 1, SolverOptions(seed=0))
    assert isinstance(got, Certificate)
    lifted = compose_certificate(A, Y, got)
    assert lifted.residual <= got.residual + 1e-9
    assert lifted.witness.n == 10
    lifted.revalidate(A)


def test_compose_certificate_dimension_check():
    A = gue(1, 6, seed=33)
    Y = random_isometry(6, 4, seed=34)
    inner_cert = solve_free(gue(1, 5, seed=35), 1, 1, SolverOptions(seed=0))
    with pytest.raises(DimensionError):
        compose_certificate(A, Y, inner_cert)


# ---------------------------------------------------------------------------
# Gauss-Newton polish


def projected_basis_jacobian(Amats, X, p, q, free):
    """Reference Jacobian: every ambient unit direction e_ab and i e_ab,
    projected onto the tangent space at X, pushed through the linearization
    E_j(X + D) ~ E_j + X* A_j D + D* A_j X; free mode subtracts
    I_p (x) (average diagonal q-block) from every column."""
    n, k = X.shape
    m = Amats.shape[0]
    eye = np.eye(n * k)
    D = np.concatenate([eye, 1j * eye]).reshape(2 * n * k, n, k)
    XD = np.einsum("kn,dnl->dkl", np.conj(X.T), D)
    D = D - np.einsum("nk,dkl->dnl", X, 0.5 * (XD + np.conj(np.transpose(XD, (0, 2, 1)))))
    P = np.conj(X.T) @ Amats
    L = np.einsum("jkn,dnl->djkl", P, D) + np.einsum("dna,jnb->djab", np.conj(D), Amats @ X)
    if free:
        V = L.reshape(L.shape[:-2] + (p, q, p, q))
        avg = np.mean([V[..., i, :, i, :] for i in range(p)], axis=0)
        for i in range(p):
            V[..., i, :, i, :] -= avg
    Lf = L.reshape(2 * n * k, m * k * k).T
    return np.concatenate([Lf.real, Lf.imag])


def planted(m, p, q, extra, seed):
    """(A, X, B0): A = U* (I_p (x) B0 (+) C) U for seeded Hermitian m-tuples
    B0 (q-by-q) and C (extra-by-extra) and a Haar unitary U, and the exact
    witness X = U* [I_pq; 0] of B0 at level p."""
    n = p * q + extra
    B0 = random_hermitian_tuple(m, q, seed).mats
    D = np.zeros((m, n, n), dtype=complex)
    D[:, :p * q, :p * q] = np.kron(np.eye(p)[None], B0)
    if extra:
        D[:, p * q:, p * q:] = random_hermitian_tuple(m, extra, seed + 1).mats
    U = random_isometry(n, n, seed + 2).mat
    return np.conj(U.T) @ D @ U, np.conj(U.T)[:, :p * q], B0


def full_coordinate_step(Amats, X, p, q, opts, target):
    """One polish step solved over all 2nk real coordinates of an n-by-k
    step: lstsq on projected_basis_jacobian, the solution projected to the
    tangent space, then retracted by _polish's halving search.  Returns the
    new X and the condition number of the singular values lstsq kept."""
    def evaluate(X):
        E, _ = feasibility._misfit(np.conj(X.T) @ (Amats @ X), p, q, target)
        return E, float(np.sum(np.abs(E) ** 2))

    E, R2 = evaluate(X)
    M = projected_basis_jacobian(Amats, X, p, q, target is None)
    rhs = -np.concatenate([E.ravel().real, E.ravel().imag])
    sol, _, rank, sv = np.linalg.lstsq(M, rhs, rcond=1e-12)  # _polish's cut
    cond = sv[0] / sv[rank - 1] if rank else 1.0
    step = _tangent(X, (sol[:X.size] + 1j * sol[X.size:]).reshape(X.shape))
    t = 1.0
    for _ in range(30):
        Xt = _qr_fix(X + t * step)
        R2t = evaluate(Xt)[1]
        if R2t < R2 * (1.0 - 1e-6) or R2t <= feasibility._tol2(opts):
            return Xt, cond
        t *= 0.5
    return X, cond


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), p=st.integers(1, 3),
       q=st.integers(1, 2), extra=st.integers(0, 3), free=st.booleans())
def test_polish_step_matches_full_coordinate_step(seed, m, p, q, extra, free):
    # the tangent coordinates are orthonormal and the full system's
    # minimum-norm solution is already tangent, so both solve for one step;
    # extra = 0 puts X's complement at width 0.  lstsq's forward error grows
    # with the system's condition number: 1e-12 relative up to cond 10, and
    # in proportion beyond (seed=14762, m=2, p=3, q=2, extra=3 in target
    # mode has cond 6.2e3, where even the full-coordinate solves built two
    # ways differ by 2.2e-12 relative)
    n = p * q + extra
    A = gue(m, n, seed)
    X = random_isometry(n, p * q, seed + 1).mat
    target = None if free else random_matpoint(m, q, seed + 2).blocks
    opts = SolverOptions()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "POLISH_ITERS", 1)
        got, _ = _polish(A.mats, X, p, q, opts, target)
    want, cond = full_coordinate_step(A.mats, X, p, q, opts, target)
    assert frob(got - want) <= 1e-13 * max(10.0, cond) * frob(want)


@pytest.mark.parametrize("free", [True, False], ids=["free", "target"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), p=st.integers(1, 3),
       q=st.integers(1, 2), extra=st.integers(0, 3), exponent=st.integers(-7, -4))
def test_polish_never_raises_the_residual(free, seed, m, p, q, extra, exponent):
    # from a planted witness kicked 10^exponent along a tangent, the polish
    # keeps a step only when it lowers R^2, and every retraction is an isometry
    A, X, B0 = planted(m, p, q, extra, seed)
    X0 = _tangent_kick(X[None], 10.0 ** exponent, [seed])[0]
    target = None if free else B0
    E, _ = feasibility._misfit(np.conj(X0.T) @ (A @ X0), p, q, target)
    got, R2 = _polish(A, X0, p, q, SolverOptions(), target)
    assert R2 <= np.sum(np.abs(E) ** 2)
    assert Isometry(got).defect() <= ISO_TOL


def test_polish_memory_bounded():
    # n*k = 4000: the tangent system alone has 2nk - k^2 = 7936 real columns
    # and k^2 = 64 flatten_blocks rows, whereas a 2nk x nk identity basis
    # would take 488 MiB.  The planted matrix star centers' free solves, from
    # 1e-4 tangent kicks that take two steps each: at m = 2 (n = 28, k = 26)
    # the full complex rows peaked at 77 MiB and the flatten_blocks rows at
    # 55 MiB; at m = 3 (n = 36, k = 34) at 312 MiB and 226 MiB.  Each step's
    # system must be freed before the next is built: in target mode, where
    # no projection sets the peak, m = 2 peaks at 39 MiB, and at 55 MiB when
    # the first step's system outlives it
    A = gue(1, 500, seed=41).mats
    target = certify(A, random_isometry(500, 8, seed=42), 1).point.blocks
    planted_A, planted_X, planted_B0 = planted(2, 13, 2, 2, seed=2)
    triple_A, triple_X, _ = planted(3, 17, 2, 2, seed=1)
    cases = [(A, random_isometry(500, 8, seed=43).mat, 1, 8, target, 128),
             (planted_A, _tangent_kick(planted_X[None], 1e-6, [7])[0], 13, 2, None, 100),
             (planted_A, _tangent_kick(planted_X[None], 1e-4, [7])[0], 13, 2, None, 66),
             (triple_A, _tangent_kick(triple_X[None], 1e-4, [7])[0], 17, 2, None, 270),
             (planted_A, _tangent_kick(planted_X[None], 1e-4, [7])[0], 13, 2, planted_B0, 48)]
    for A, X0, p, q, target, mib in cases:
        tracemalloc.start()
        try:
            X, R2 = _polish(A, X0, p, q, SolverOptions(), target=target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, f"polish peaked at {peak / 2**20:.1f} MiB"
        assert np.sqrt(R2) <= SolverOptions().accept_tol
        point = None if target is None else MatPoint(target)
        assert certify(A, Isometry(X), p, point).residual <= 1e-8


# ---------------------------------------------------------------------------
# the polish gate


def count_polish(monkeypatch):
    """Record the starting residual of every _polish call the solver makes."""
    starts = []
    polish = feasibility._polish

    def counted(Amats, X, p, q, opts, target=None):
        E, _ = feasibility._misfit(np.conj(X.T) @ (Amats @ X), p, q, target)
        starts.append(float(np.linalg.norm(E)))
        return polish(Amats, X, p, q, opts, target=target)

    monkeypatch.setattr(feasibility, "_polish", counted)
    return starts


def test_solve_jobs_refuses_mismatched_points():
    A = gue(2, 6, seed=1)
    with pytest.raises(DimensionError):
        feasibility.solve_jobs(A, 1, 1, [0], [random_matpoint(3, 1, 2)])
    with pytest.raises(DimensionError):
        feasibility.solve_jobs([A, A], 1, 1, [0, 1], [random_matpoint(2, 1, 2),
                                                      random_matpoint(2, 2, 3)])
    with pytest.raises(DimensionError):
        feasibility.solve_jobs([A, A], 1, 1, [0])
    with pytest.raises(DimensionError):
        feasibility.solve_jobs(A, 1, 1, [0, 1], [random_matpoint(2, 1, 2)])
    assert feasibility.solve_jobs(A, 1, 1, []) == []


def test_interlacing_infeasible_membership_skips_polish(monkeypatch):
    # x lies delta beyond the pq-th largest eigenvalue of A_1, so by Cauchy
    # interlacing every compression misses x I_pq by delta or more: each
    # restart stalls far outside the gate, and none is polished
    starts = count_polish(monkeypatch)
    n, p, q, delta = 10, 2, 1, 0.05
    A = gue(1, n, seed=7)
    lam = np.linalg.eigvalsh(A.mats[0])[::-1]
    point = MatPoint.scalar([lam[p * q - 1] + delta], q)
    opts = SolverOptions(max_restarts=6, seed=3)
    got = membership(A, point, p, opts)
    assert isinstance(got, Rejection)
    assert got.best_residual >= delta * (1 - 1e-9) > feasibility.POLISH_GATE * opts.accept_tol
    assert starts == []


@pytest.mark.parametrize("n,p,q,delta", [
    (8, 2, 1, 0.05), (12, 2, 1, 0.05), (12, 1, 2, 0.3),
    (10, 3, 1, 0.1), (9, 1, 3, 0.02), (14, 2, 2, 0.1),
])
def test_rejection_reaches_interlacing_optimum(n, p, q, delta):
    # a compression's eigenvalues mu_i lie below the lambda_i of A_1 (both in
    # decreasing order), so the closest any compression gets to x I_pq is
    # r* = sqrt(sum_{i <= pq} max(0, x - lambda_i)^2), and the interlacing
    # bounds are attained; a stalled restart must stop there, not short of it
    A = gue(1, n, seed=n + 10 * p + 100 * q)
    lam = np.linalg.eigvalsh(A.mats[0])[::-1]
    x = lam[p * q - 1] + delta
    optimum = np.sqrt(np.sum(np.maximum(0.0, x - lam[:p * q]) ** 2))
    got = membership(A, MatPoint.scalar([x], q), p, SolverOptions(max_restarts=6, seed=n))
    assert isinstance(got, Rejection)
    assert abs(got.best_residual / optimum - 1) <= 1e-10


@pytest.mark.parametrize("n,p,q", [(8, 2, 1), (12, 1, 2)])
def test_near_boundary_rejection_polishes_every_restart(monkeypatch, n, p, q):
    # 1e-6 beyond the rank-pq window every restart stalls inside the polish
    # gate; each polish ends when its line search finds no decrease, and no
    # residual falls below the interlacing optimum
    starts = count_polish(monkeypatch)
    A = gue(1, n, seed=n + 10 * p + 100 * q)
    lam = np.linalg.eigvalsh(A.mats[0])[::-1]
    x = lam[p * q - 1] + 1e-6
    optimum = np.sqrt(np.sum(np.maximum(0.0, x - lam[:p * q]) ** 2))
    got = membership(A, MatPoint.scalar([x], q), p, SolverOptions(max_restarts=6, seed=n))
    assert isinstance(got, Rejection)
    assert len(starts) == 6
    assert got.best_residual >= optimum * (1 - 1e-9)


@pytest.mark.parametrize("kick,polished", [(1e-6, True), (1e-2, False)])
def test_polish_runs_only_within_gate(monkeypatch, kick, polished):
    # the only start lies `kick` away from an exact witness and MAX_ITERS = 0
    # stalls it there: within the gate the polish alone reaches accept_tol,
    # outside it the start's residual is reported unpolished
    starts = count_polish(monkeypatch)
    A = gue(2, 8, seed=5)
    X_exact = random_isometry(8, 2, seed=6).mat
    point = certify(A, Isometry(X_exact), 1).point
    rng = np.random.default_rng(8)
    T = feasibility._tangent(X_exact, rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))
    X0 = Isometry(_qr_fix(X_exact + kick * T / frob(T)))
    monkeypatch.setattr(feasibility, "random_isometry", lambda n, k, seed: X0)
    monkeypatch.setattr(feasibility, "MAX_ITERS", 0)
    opts = SolverOptions(max_restarts=1)
    start = certify(A, X0, 1, point).residual
    assert (start <= feasibility.POLISH_GATE * opts.accept_tol) == polished
    got = membership(A, point, 1, opts)
    if polished:
        assert len(starts) == 1 and abs(starts[0] - start) <= 1e-15
        assert isinstance(got, Certificate) and got.residual <= opts.accept_tol
    else:
        assert starts == []
        assert isinstance(got, Rejection)
        assert abs(got.best_residual - start) <= 1e-12 * start


# ---------------------------------------------------------------------------
# certificate properties


certificate_shapes = dict(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
                          p=st.integers(1, 3), q=st.integers(1, 2), extra=st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(**certificate_shapes)
def test_certify_revalidates_to_stored_residual(seed, m, p, q, extra):
    n = p * q + extra
    A = gue(m, n, seed)
    X = random_isometry(n, p * q, seed + 1)
    cert = certify(A, X, p)
    assert cert.revalidate(A) == cert.residual
    # both modes against plain numpy: the best block is the mean B of the
    # diagonal blocks, and the given-point mode is checked at B and at an
    # unrelated point
    S = np.conj(X.mat.T) @ A.mats @ X.mat
    mean = sum(S[:, i * q:(i + 1) * q, i * q:(i + 1) * q] for i in range(p)) / p
    B = MatPoint(0.5 * (mean + np.conj(np.swapaxes(mean, 1, 2))))
    C = random_matpoint(m, q, seed)
    for got, point in ((cert, B), (certify(A, X, p, B), B), (certify(A, X, p, C), C)):
        ref = np.sqrt(sum(np.linalg.norm(S[j] - np.kron(np.eye(p), point.blocks[j])) ** 2
                          for j in range(m)))
        assert abs(got.residual - ref) <= 1e-12 * ref + 1e-14


@settings(max_examples=40, deadline=None)
@given(**certificate_shapes)
def test_compose_certificate_keeps_residual(seed, m, p, q, extra):
    n = p * q + extra
    A = gue(m, n + 2, seed)
    Y = random_isometry(n + 2, n, seed + 1)
    inner = certify(compress(A, Y), random_isometry(n, p * q, seed + 2), p)
    lifted = compose_certificate(A, Y, inner)
    assert abs(lifted.residual - inner.residual) <= 1e-12 * max(1.0, inner.residual)
    lifted.revalidate(A)


@settings(max_examples=40, deadline=None)
@given(**certificate_shapes, entry=st.integers(0, 10**6), imag=st.booleans())
def test_witness_entry_change_fails_revalidation(seed, m, p, q, extra, entry, imag):
    n = p * q + extra
    A = gue(m, n, seed)
    cert = certify(A, random_isometry(n, p * q, seed + 1), p)
    X = cert.witness.mat.copy()
    X.flat[entry % X.size] += 1j * 1e-6 if imag else 1e-6
    # a tolerance loose enough to pass the defect check, so the residual
    # comparison has to catch the change
    forged = Certificate(point=cert.point, p=p, witness=Isometry(X, tol=1e-5),
                         residual=cert.residual)
    with pytest.raises(CertificateError):
        forged.revalidate(A)


@settings(max_examples=30, deadline=None)
@given(**certificate_shapes, scale=st.sampled_from([1e-3, 1.0, 1e3]), solved=st.booleans())
def test_unitary_covariance(seed, m, p, q, extra, scale, solved):
    # X* A_j X = (U* X)* (U* A_j U) (U* X): a certificate for A with witness X
    # is one for U* A U with witness U* X, with the same point and residual
    n = p * q + extra
    A = HermitianTuple(scale * gue(m, n, seed).mats)
    cert = solve_free(A, p, q, SolverOptions(seed=seed % 2**31, max_restarts=3)) \
        if solved else certify(A, random_isometry(n, p * q, seed + 1), p)
    if isinstance(cert, Rejection):
        cert = certify(A, random_isometry(n, p * q, seed + 1), p)
    U = random_isometry(n, n, seed + 2).mat
    UAU = np.conj(U.T) @ A.mats @ U
    B = HermitianTuple(0.5 * (UAU + np.conj(np.swapaxes(UAU, 1, 2))))
    moved = Certificate(point=cert.point, p=p, witness=Isometry(np.conj(U.T) @ cert.witness.mat),
                        residual=cert.residual)
    tol = 1e-12 * max(1.0, frob(A.mats))
    assert abs(certify(B, moved.witness, p, moved.point).residual - cert.residual) <= tol
    moved.revalidate(B, res_tol=tol)
