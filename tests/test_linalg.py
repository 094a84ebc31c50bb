"""Eigensolver, Haar sampling, compression and the container types."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange.linalg import (
    DimensionError,
    HERM_TOL,
    HermitianTuple,
    Isometry,
    as_tuple,
    compress,
    coordinate_isometry,
    frob,
    herm_eig,
    herm_eigvals,
    hermitian_stack as checked_stack,
    _herm_defects,
    _qr_fix,
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


# skew matrices whose entries sit near the top of the double range: ||M|| and
# ||M - M*|| overflow unless the check scales them first
NEAR_RANGE = [np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex),
              np.array([[1e300, 1.7e308j], [1.7e308j, -1e300]], dtype=complex)]


@pytest.mark.parametrize("M", NEAR_RANGE)
def test_herm_defect_near_double_range(M):
    assert _herm_defects(M) == pytest.approx(2.0)
    assert _herm_defects(np.array([[1e308, 1.7e308], [1.7e308, -1e308]])) == 0.0
    assert np.isnan(_herm_defects(np.array([[np.nan]])))


@pytest.mark.parametrize("M", NEAR_RANGE)
def test_eig_rejects_skew_matrix_near_double_range(M):
    with pytest.raises(DimensionError, match="not Hermitian"):
        herm_eig(M)
    with pytest.raises(DimensionError, match="matrix 1 is not Hermitian"):
        herm_eig(np.stack([np.eye(2, dtype=complex), M]))


@pytest.mark.parametrize("M", NEAR_RANGE)
def test_tuple_rejects_skew_matrix_near_double_range(M):
    with pytest.raises(DimensionError, match="member 0"):
        HermitianTuple(M[None])


def test_hermitian_stack_names_first_bad_item():
    good = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    assert np.array_equal(checked_stack(good), good)
    bad = good.copy()
    bad[1, 0, 1] = np.inf
    with pytest.raises(DimensionError, match=r"member 1 has a non-finite entry at \(0, 1\)"):
        HermitianTuple(bad)
    bad = np.concatenate([good, good])
    bad[2, 0, 1], bad[3, 1, 0] = 1.0, 1.0
    with pytest.raises(DimensionError, match=r"block 2 is not Hermitian: entry \(0, 1\)"):
        checked_stack(bad, "block")
    with pytest.raises(DimensionError, match="at least one member"):
        HermitianTuple(np.zeros((0, 2, 2)))
    with pytest.raises(DimensionError, match="got shape"):
        HermitianTuple(np.zeros((2, 2, 3)))


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
    with pytest.raises(DimensionError, match=r"matrix 1 is not Hermitian: entry \(0, 1\)"):
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


@pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
def test_eigvals_match_eig(shape):
    A = hermitian_stack(11, shape, 7, ties=True)
    assert np.all(np.abs(herm_eigvals(A) - herm_eig(A)[0]) <= 1e-12 * max(1.0, frob(A)))


# one matrix is measured by BLAS dot products, a stack under errstate; each
# case must get the same verdict both ways
DEFECT_CASES = NEAR_RANGE + [
    np.array([[1e308, 1.7e308], [1.7e308, -1e308]]),
    np.array([[0.0, 8e153], [-8e153, 0.0]]),  # ||M||^2 finite, ||M - M*||^2 not
    np.array([[1e200, 0.0], [0.0, 1e200]]),
    1e-200 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
    random_hermitian(6, np.random.default_rng(3)),
    random_hermitian(6, np.random.default_rng(3)) + 1e-13j,  # within HERM_TOL
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[np.nan]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
]


@pytest.mark.parametrize("M", DEFECT_CASES)
def test_herm_defect_same_verdict_for_matrix_and_stack(M):
    one, stacked = _herm_defects(M), _herm_defects(M[None])[0]
    assert (one <= HERM_TOL) == (stacked <= HERM_TOL)
    assert np.isnan(one) == np.isnan(stacked)
    if np.isfinite(stacked):
        assert abs(one - stacked) <= 1e-15 * max(1.0, stacked)


@pytest.mark.parametrize("A,match", [
    pytest.param(np.array([[1.0, np.nan], [np.nan, 1.0]]),
                 r"matrix has a non-finite entry at \(0, 1\)", id="nan"),
    pytest.param(np.stack([np.eye(2), np.diag([1.0, -np.inf])]),
                 r"matrix 1 has a non-finite entry at \(1, 1\)", id="inf-in-stack"),
])
def test_eig_names_non_finite_entry(A, match):
    for f in (herm_eig, herm_eigvals):
        with pytest.raises(DimensionError, match=match):
            f(A)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Isometry(np.ones(3)), id="isometry-1d"),
    pytest.param(lambda: Isometry(np.eye(3)[:2]), id="isometry-k-above-n"),
    pytest.param(lambda: herm_eig(np.ones((2, 3))), id="eig-not-square"),
    pytest.param(lambda: herm_eigvals(np.float64(1.0)), id="eigvals-scalar"),
    pytest.param(lambda: compress(np.eye(3)[None], random_isometry(4, 2, seed=0)),
                 id="compress-rows"),
])
def test_linalg_shape_refusals(call):
    with pytest.raises(DimensionError):
        call()


# ---------------------------------------------------------------------------
# QR retraction


def qr_fix_reference(M):
    """The retraction through np.linalg.qr, with the np.sign phase and 0 -> 1."""
    Q, R = np.linalg.qr(M)
    phase = np.sign(R.diagonal(0, -2, -1))
    phase[phase == 0] = 1.0
    return Q * phase.conj()[..., None, :]


def qr_outcome(f, M):
    """f(M) under errstate(all="raise"): the result's bits, or the error type.

    The bits are those of the float64 view, so signs of zeros and NaN
    payloads count.  M itself must come through unchanged.
    """
    before = M.copy()
    try:
        with np.errstate(all="raise"):
            out = ("ok", f(M).view(np.uint64).tobytes())
    except (FloatingPointError, np.linalg.LinAlgError) as e:
        out = (type(e).__name__, None)
    assert np.array_equal(M.view(np.uint64), before.view(np.uint64)), "input was modified"
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([None, 1, 2, 6]),
       n=st.integers(1, 12), kfrac=st.floats(0.0, 1.0),
       zero_col=st.booleans(), real=st.booleans())
def test_qr_fix_matches_numpy_qr_bit_for_bit(seed, L, n, kfrac, zero_col, real):
    # L = None is a bare 2-D matrix; real gives complex input with zero imaginary parts
    k = 1 + int(kfrac * (n - 1))
    rng = np.random.default_rng(seed)
    shape = (n, k) if L is None else (L, n, k)
    M = rng.standard_normal(shape) + 1j * (0.0 if real else rng.standard_normal(shape))
    if zero_col:
        M[..., int(rng.integers(k))] = 0.0
    Q = _qr_fix(M)
    assert Q.shape == shape and Q.dtype == complex
    assert qr_outcome(_qr_fix, M) == qr_outcome(qr_fix_reference, M)


def _with(v, at):
    rng = np.random.default_rng(3)
    M = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    M[at] = v
    return M


@pytest.mark.parametrize("M", [
    _with(np.inf, (0, 1, 0)),
    _with(complex(0.0, -np.inf), (1, 3, 1)),
    _with(np.nan, (0, 1, 0)),
    _with(1e308, (0, 1, 0)),
    _with(1e308, 1),
    np.full((1, 3, 2), 1e308 + 1e308j),
    np.full((3, 2), complex(np.nan, 1.0)),
], ids=["inf", "imag-inf", "nan", "one-1e308", "slice-1e308", "all-1e308", "2d-nan"])
def test_qr_fix_non_finite_and_huge_inputs_match_numpy_qr(M):
    assert qr_outcome(_qr_fix, M) == qr_outcome(qr_fix_reference, M)


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
# compress


def test_compress_identity_is_noop():
    rng = np.random.default_rng(1)
    A = HermitianTuple(np.stack([random_hermitian(4, rng) for _ in range(2)]))
    out = compress(A, Isometry(np.eye(4, dtype=complex)))
    assert np.allclose(out.mats, A.mats, atol=1e-14)


def test_compress_matches_memberwise_products_bit_for_bit():
    rng = np.random.default_rng(17)
    A = HermitianTuple(np.stack([random_hermitian(9, rng) for _ in range(3)]))
    X = random_isometry(9, 4, seed=5)
    Xc = np.conj(X.mat.T)
    ref = [(Xc @ (M @ X.mat) + np.conj(Xc @ (M @ X.mat)).T) / 2 for M in A.mats]
    assert compress(A, X).mats.tobytes() == np.stack(ref).tobytes()


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
