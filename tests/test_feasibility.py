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
    _jacobian,
    _polish,
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
    DimensionError,
    HermitianTuple,
    Isometry,
    compress,
    frob,
    _qr_fix,
    random_isometry,
)
from matrange.ranges import rank_k_interval


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), p=st.integers(1, 3),
       q=st.integers(1, 2), extra=st.integers(0, 3), free=st.booleans())
def test_jacobian_matches_projected_basis(seed, m, p, q, extra, free):
    n = p * q + extra
    A = gue(m, n, seed)
    X = random_isometry(n, p * q, seed + 1).mat
    target = None if free else random_matpoint(m, q, seed + 2).blocks
    got = _jacobian(A.mats, X, p, q, target)
    want = projected_basis_jacobian(A.mats, X, p, q, free)
    assert got.shape == want.shape == (2 * m * (p * q) ** 2, 2 * n * p * q)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, frob(A.mats))


def test_polish_memory_bounded():
    # n*k = 4000: a 2nk x nk identity tangent basis alone would take 488 MiB
    n, k = 500, 8
    A = gue(1, n, seed=41)
    target = certify(A, random_isometry(n, k, seed=42), 1).point.blocks
    X0 = random_isometry(n, k, seed=43).mat
    tracemalloc.start()
    try:
        X, R2 = _polish(A.mats, X0, 1, k, SolverOptions(), target=target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20, f"polish peaked at {peak / 2**20:.1f} MiB"
    assert np.sqrt(R2) <= SolverOptions().accept_tol
    assert certify(A, Isometry(X), 1, MatPoint(target)).residual <= 1e-8


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
