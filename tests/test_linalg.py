"""Eigensolver, orthonormalization, Haar sampling, and block assembly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange.linalg import (
    DimensionError,
    HermitianTuple,
    Isometry,
    RankDeficiencyError,
    as_tuple,
    compress,
    coordinate_isometry,
    direct_sum,
    empty_tuple,
    frob,
    herm_eig,
    kron_block,
    orthonormalize,
    random_isometry,
)


def random_hermitian(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + np.conj(G.T)) / 2


# ---------------------------------------------------------------------------
# herm_eig


def test_eig_already_diagonal():
    w, V = herm_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [3.0, 2.0, 1.0], atol=1e-14)
    P = np.abs(V)
    assert np.allclose(P, np.eye(3)[:, [0, 2, 1]], atol=1e-14)


def test_eig_identity():
    w, V = herm_eig(np.eye(4, dtype=complex))
    assert np.allclose(w, np.ones(4), atol=1e-14)
    assert frob(np.conj(V.T) @ V - np.eye(4)) <= 1e-12


def test_eig_reconstruction_batch():
    rng = np.random.default_rng(42)
    for i in range(1000):
        n = 2 + i % 31
        A = random_hermitian(n, rng)
        w, V = herm_eig(A)
        scale = max(1.0, frob(A))
        assert frob(A @ V - V @ np.diag(w)) <= 1e-10 * scale
        assert frob(np.conj(V.T) @ V - np.eye(n)) <= 1e-10
        assert np.all(np.diff(w) <= 1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(DimensionError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eig_agrees_with_lapack():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        A = random_hermitian(n, rng)
        w, _ = herm_eig(A)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(w, ref, atol=1e-10 * max(1, frob(A)))


def test_eig_rejects_non_hermitian_slice_of_stack():
    stack = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]).astype(complex)
    with pytest.raises(DimensionError, match="slice"):
        herm_eig(stack)


def hermitian_stack(seed, shape, n, ties):
    """Stack U diag(w) U* of Hermitian matrices; with ties, w repeats values."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    U, _ = np.linalg.qr(G)
    if ties:
        w = rng.integers(-2, 3, size=shape + (n,)).astype(float)
    else:
        w = rng.standard_normal(shape + (n,))
    A = (U * w[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
       n=st.integers(1, 12), ties=st.booleans(),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_eig_stack_properties(seed, shape, n, ties, scale):
    A = scale * hermitian_stack(seed, shape, n, ties)
    w, V = herm_eig(A)
    assert w.shape == shape + (n,) and V.shape == shape + (n, n)
    assert np.all(np.diff(w, axis=-1) <= 0)
    unit = np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
    resid = np.linalg.norm(A @ V - V * w[..., None, :], axis=(-2, -1))
    assert np.all(resid <= 1e-10 * unit)
    VhV = np.conj(np.swapaxes(V, -1, -2)) @ V
    assert np.all(np.linalg.norm(VhV - np.eye(n), axis=(-2, -1)) <= 1e-10)
    ref = np.linalg.eigvalsh(A)[..., ::-1]
    assert np.all(np.abs(w - ref) <= 1e-12 * unit[..., None])


# ---------------------------------------------------------------------------
# orthonormalize


def test_orthonormalize_identity_fixed():
    X = orthonormalize(np.eye(4, dtype=complex)[:, :2])
    assert np.allclose(X.mat, np.eye(4)[:, :2], atol=1e-14)


def test_orthonormalize_scales_column():
    X = orthonormalize(np.array([[2.0], [0.0]], dtype=complex))
    assert np.allclose(X.mat, [[1.0], [0.0]], atol=1e-14)


def test_orthonormalize_random_defect():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    X = orthonormalize(M)
    assert X.defect() <= 1e-12
    # same span: original columns reproduce through the projector
    P = X.mat @ np.conj(X.mat.T)
    assert frob(P @ M - M) <= 1e-10 * frob(M)


def test_orthonormalize_names_failing_column():
    M = np.ones((4, 2), dtype=complex)
    with pytest.raises(RankDeficiencyError, match="column 1"):
        orthonormalize(M)


# ---------------------------------------------------------------------------
# random_isometry


def test_random_isometry_square_is_unitary():
    U = random_isometry(3, 3, seed=5)
    assert frob(np.conj(U.mat.T) @ U.mat - np.eye(3)) <= 1e-12


def test_random_isometry_deterministic():
    A = random_isometry(5, 2, seed=7)
    B = random_isometry(5, 2, seed=7)
    assert np.array_equal(A.mat, B.mat)
    C = random_isometry(5, 2, seed=8)
    assert not np.allclose(A.mat, C.mat)


def test_random_isometry_rejects_k_gt_n():
    with pytest.raises(DimensionError):
        random_isometry(2, 3, seed=0)


def test_random_isometry_isotropic_mean_projector():
    # the Haar average of X X* is (k/n) I; that isotropy is exactly
    # invariance of the column-space distribution under fixed rotations
    n, k, N = 5, 2, 10000
    acc = np.zeros((n, n), dtype=complex)
    for s in range(N):
        X = random_isometry(n, k, seed=s).mat
        acc += X @ np.conj(X.T)
    acc /= N
    assert frob(acc - (k / n) * np.eye(n)) <= 0.05


# ---------------------------------------------------------------------------
# compress / block assembly


def test_compress_identity_is_noop():
    rng = np.random.default_rng(1)
    A = HermitianTuple(np.stack([random_hermitian(4, rng) for _ in range(2)]))
    out = compress(A, Isometry(np.eye(4, dtype=complex)))
    assert np.allclose(out.mats, A.mats, atol=1e-14)


def test_compress_coordinate_picks_submatrix():
    A = HermitianTuple(np.diag([1.0, 2.0]).astype(complex)[None])
    out = compress(A, coordinate_isometry(2, [0]))
    assert np.allclose(out.mats[0], [[1.0]], atol=1e-15)


def test_compress_interlacing():
    # Cauchy: eigenvalues of a k-dim compression interlace the originals
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, k = 9, 5
        A = random_hermitian(n, rng)
        X = random_isometry(n, k, seed=int(rng.integers(10**6)))
        lam = np.sort(np.linalg.eigvalsh(A))[::-1]
        mu = np.sort(np.linalg.eigvalsh(np.conj(X.mat.T) @ A @ X.mat))[::-1]
        for i in range(k):
            assert lam[i] >= mu[i] - 1e-10
            assert mu[i] >= lam[i + n - k] - 1e-10


def test_compress_composes_as_product():
    rng = np.random.default_rng(13)
    A = HermitianTuple(np.stack([random_hermitian(8, rng) for _ in range(2)]))
    X = random_isometry(8, 5, seed=1)
    Z = random_isometry(5, 3, seed=2)
    once = compress(compress(A, X), Z)
    prod = compress(A, Isometry(X.mat @ Z.mat))
    assert frob(once.mats - prod.mats) <= 1e-12


def test_unitary_transport():
    # compressing a conjugated tuple equals conjugating the isometry:
    # (U X)* A (U X) = X* (U* A U) X, which is what makes ranges
    # unitarily invariant
    rng = np.random.default_rng(17)
    A = HermitianTuple(np.stack([random_hermitian(6, rng) for _ in range(2)]))
    U = random_isometry(6, 6, seed=3).mat
    X = random_isometry(6, 2, seed=4)
    conj = HermitianTuple(np.stack([np.conj(U.T) @ A.mats[j] @ U for j in range(2)]))
    left = compress(A, Isometry(U @ X.mat))
    right = compress(conj, X)
    assert frob(left.mats - right.mats) <= 1e-12


def test_kron_block_identities():
    rng = np.random.default_rng(19)
    B = HermitianTuple(np.stack([random_hermitian(2, rng)]))
    assert np.allclose(kron_block(1, B).mats, B.mats)
    K = kron_block(3, B)
    assert K.n == 6
    assert np.isclose(np.trace(K.mats[0]), 3 * np.trace(B.mats[0]))
    one = HermitianTuple(np.array([[[1.0]]], dtype=complex))
    assert np.allclose(kron_block(2, one).mats[0], np.eye(2))


def test_direct_sum_spectra_union():
    rng = np.random.default_rng(23)
    A = HermitianTuple(np.stack([random_hermitian(3, rng)]))
    B = HermitianTuple(np.stack([random_hermitian(4, rng)]))
    S = direct_sum(A, B)
    assert S.n == 7
    got = np.sort(np.linalg.eigvalsh(S.mats[0]))
    want = np.sort(np.concatenate([np.linalg.eigvalsh(A.mats[0]),
                                   np.linalg.eigvalsh(B.mats[0])]))
    assert np.allclose(got, want, atol=1e-10)


def test_direct_sum_with_empty_is_noop():
    rng = np.random.default_rng(29)
    A = HermitianTuple(np.stack([random_hermitian(3, rng)]))
    S = direct_sum(A, empty_tuple(1))
    assert np.allclose(S.mats, A.mats)


def test_direct_sum_m_mismatch():
    rng = np.random.default_rng(31)
    A = HermitianTuple(np.stack([random_hermitian(2, rng)]))
    B = HermitianTuple(np.stack([random_hermitian(2, rng) for _ in range(2)]))
    with pytest.raises(DimensionError):
        direct_sum(A, B)


# ---------------------------------------------------------------------------
# types


def test_tuple_validation():
    bad = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(DimensionError):
        HermitianTuple(bad)
    with pytest.raises(DimensionError):
        HermitianTuple(np.full((1, 2, 2), np.nan, dtype=complex))


def test_tuple_accepts_strided_input():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    H = (G + np.conj(np.transpose(G, (0, 2, 1)))) / 2
    view = H.conj().transpose(0, 2, 1)  # equal to H, last axis not contiguous
    assert not view.flags.c_contiguous
    assert np.allclose(HermitianTuple(view).mats, H)


def test_as_tuple_coercions():
    M = np.diag([1.0, 2.0]).astype(complex)
    assert as_tuple(M).m == 1
    assert as_tuple(M[None]).m == 1
    A = as_tuple(M)
    assert as_tuple(A) is A


def test_isometry_validation():
    with pytest.raises(DimensionError):
        Isometry(np.ones((3, 2), dtype=complex))
    X = Isometry(np.eye(3, dtype=complex)[:, :2])
    assert X.n == 3 and X.k == 2 and X.defect() <= 1e-15
