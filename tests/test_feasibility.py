"""Certifying solvers: membership, free search, support chasing."""

import numpy as np
import pytest

from matrange.feasibility import (
    Certificate,
    CertificateError,
    MatPoint,
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    best_block,
    certify,
    compose_certificate,
    find_scalar_point,
    flatten_blocks,
    membership,
    residual,
    sample_range,
    solve_free,
    solve_support,
    unflatten_blocks,
)
from matrange.linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    coordinate_isometry,
    direct_sum,
    frob,
    kron_block,
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


def test_matpoint_scalar_and_distance():
    B = MatPoint.scalar(np.array([1.0, -2.0]), 3)
    assert B.q == 3 and B.m == 2
    assert np.allclose(B.scalar_values() if B.q == 1 else [1.0, -2.0], [1.0, -2.0])
    C = MatPoint.scalar(np.array([1.0, -2.0]), 3)
    assert B.distance(C) <= 1e-15


def test_matpoint_rejects_non_hermitian():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(DimensionError):
        MatPoint(bad)


# ---------------------------------------------------------------------------
# residual plumbing


def test_residual_and_best_block_planted():
    B = random_matpoint(2, 2, 3)
    A = kron_block(3, HermitianTuple(B.blocks))
    X = Isometry(np.eye(6, dtype=complex))
    assert residual(A, X, 3, B) <= 1e-14
    got = best_block(A, X, 3)
    assert frob(got.blocks - B.blocks) <= 1e-12


def test_certify_returns_best_block():
    A = gue(2, 8, seed=1)
    X = random_isometry(8, 2, seed=2)
    cert = certify(A, X, 2)
    # the averaged block minimizes the residual for this witness
    assert cert.residual <= residual(A, X, 2, random_matpoint(2, 1, 9)) + 1e-12


def test_certificate_revalidation_detects_tampering():
    A = gue(1, 6, seed=4)
    out = solve_free(A, 2, 1, SolverOptions(seed=0))
    assert isinstance(out, Certificate)
    out.revalidate(A)
    forged = Certificate(point=out.point, p=out.p, witness=out.witness,
                         residual=out.residual + 1e-3)
    with pytest.raises(CertificateError):
        forged.revalidate(A)


# ---------------------------------------------------------------------------
# membership


def test_membership_planted_block():
    B = random_matpoint(2, 2, seed=7)
    junk = gue(2, 4, seed=8)
    A = direct_sum(kron_block(2, HermitianTuple(B.blocks)), junk)
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
        out = find_scalar_point(A, k, SolverOptions(seed=t))
        assert not isinstance(out, Rejection)
        values, cert = out
        iv = rank_k_interval(A.mats[0], k)
        assert iv.contains(values[0], tol=1e-6)
        assert cert.p == k


def test_scalar_tuple_everything_collapses():
    A = HermitianTuple(np.stack([2.0 * np.eye(5, dtype=complex),
                                 -1.0 * np.eye(5, dtype=complex)]))
    values, cert = find_scalar_point(A, 3, SolverOptions(seed=0))
    assert np.allclose(values, [2.0, -1.0], atol=1e-10)
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


def test_solver_determinism_and_thread_independence():
    A = gue(2, 9, seed=23)
    a = solve_free(A, 2, 1, SolverOptions(seed=5, threads=1))
    b = solve_free(A, 2, 1, SolverOptions(seed=5, threads=1))
    c = solve_free(A, 2, 1, SolverOptions(seed=5, threads=3))
    assert np.array_equal(a.witness.mat, b.witness.mat)
    assert np.array_equal(a.witness.mat, c.witness.mat)
    assert a.residual == b.residual == c.residual


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
    from matrange.linalg import compress
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
