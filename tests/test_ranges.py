"""Classical boundary, rank-k intervals and embeddings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange.linalg import DimensionError, frob
from matrange.ranges import (
    STACK_ENTRIES,
    hermitian_embed,
    numrange_boundary,
    rank_k_interval,
)


def random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# numrange_boundary


def test_jordan_block_circle():
    # W([[0, 2], [0, 0]]) is the closed disk of radius 1 at the origin
    J = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    bd = numrange_boundary(J, n_angles=256)
    assert np.allclose(np.abs(bd.vertices), 1.0, atol=1e-9)
    assert np.allclose(bd.support, 1.0, atol=1e-12)
    # sampling oracle: a million quadratic forms stay inside
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10**6, 2)) + 1j * rng.standard_normal((10**6, 2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    vals = np.einsum("si,ij,sj->s", np.conj(X), J, X)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-9


def test_hermitian_matrix_gives_segment():
    bd = numrange_boundary(np.diag([0.0, 1.0]).astype(complex))
    assert bd.degenerate == "segment"
    assert np.max(bd.vertices.real) <= 1.0 + 1e-12
    assert np.min(bd.vertices.real) >= -1e-12
    assert np.max(np.abs(bd.vertices.imag)) <= 1e-12


def test_scalar_matrix_gives_point():
    bd = numrange_boundary(np.array([[2.0 + 1.0j]]))
    assert bd.degenerate == "point"
    assert np.allclose(bd.vertices, 2.0 + 1.0j, atol=1e-12)


def boundary_gap(bd):
    """Largest distance, along the mid-angle normal of two consecutive
    supporting lines, from the inner vertex polygon out to the corner where
    the lines meet.  The vertices follow the convex boundary, so at a
    mid-angle the inner polygon's support is attained at one of the two
    adjacent vertices."""
    step = np.mod(np.roll(bd.angles, -1) - bd.angles, 2.0 * np.pi)
    mid = np.exp(-1j * (bd.angles + 0.5 * step))
    outer = (bd.support + np.roll(bd.support, -1)) / (2.0 * np.cos(0.5 * step))
    inner = np.maximum(np.real(mid * bd.vertices), np.real(mid * np.roll(bd.vertices, -1)))
    return float(np.max(outer - inner))


def test_boundary_refinement_shrinks_gap():
    rng = np.random.default_rng(9)
    M = random_complex(6, rng)
    gaps = [boundary_gap(numrange_boundary(M, n_angles=a)) for a in (8, 32, 128)]
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0


@pytest.mark.parametrize("n_angles", [8, 32, 256])
def test_gap_of_disk_matches_closed_form(n_angles):
    # W([[0, 2], [0, 0]]) is the unit disk: the supporting lines cut out a
    # circumscribed regular polygon (corner support 1/cos(pi/N)) and the
    # vertices form an inscribed one (mid-angle support cos(pi/N))
    J = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    c = np.cos(np.pi / n_angles)
    assert abs(boundary_gap(numrange_boundary(J, n_angles=n_angles)) - (1 / c - c)) <= 1e-12


def check_boundary_against_eigvalsh(M, n_angles):
    """Supports equal a per-angle eigvalsh reference, and each vertex
    attains its own supporting line."""
    bd = numrange_boundary(M, n_angles=n_angles)
    ref = np.array([
        np.max(np.linalg.eigvalsh(0.5 * (np.exp(-1j * t) * M + np.exp(1j * t) * np.conj(M.T))))
        for t in bd.angles
    ])
    tol = 1e-9 * max(1.0, frob(M))
    assert np.all(np.abs(bd.support - ref) <= tol)
    attained = np.real(np.exp(-1j * bd.angles) * bd.vertices)
    assert np.all(np.abs(attained - bd.support) <= tol)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
       n_angles=st.integers(3, 80), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_boundary_supports_match_eigvalsh(seed, n, n_angles, scale):
    check_boundary_against_eigvalsh(scale * random_complex(n, np.random.default_rng(seed)),
                                    n_angles)


def test_boundary_across_several_stacks():
    n, n_angles = 64, 300
    assert n_angles * n * n > STACK_ENTRIES  # more than one stack
    check_boundary_against_eigvalsh(random_complex(n, np.random.default_rng(12)), n_angles)


def test_boundary_accepts_strided_input():
    M = random_complex(5, np.random.default_rng(14))
    bd = numrange_boundary(M.T, n_angles=16)
    ref = numrange_boundary(np.ascontiguousarray(M.T), n_angles=16)
    assert np.allclose(bd.support, ref.support, atol=1e-12)


@pytest.mark.parametrize("hermitian", [False, True])
def test_degeneracy_tag_memory_bounded_and_continuous(hermitian):
    # the tag's diameter estimate must not form the n_angles^2 vertex
    # differences, nor change its formula at some angle count
    M = random_complex(4, np.random.default_rng(16))
    if hermitian:
        M = M + np.conj(M.T)
    tracemalloc.start()
    try:
        bd = numrange_boundary(M, n_angles=1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert bd.degenerate == numrange_boundary(M, n_angles=1501).degenerate
    assert bd.degenerate == ("segment" if hermitian else "full")


def test_boundary_vertices_on_supporting_lines():
    rng = np.random.default_rng(10)
    M = random_complex(5, rng)
    bd = numrange_boundary(M, n_angles=64)
    # each vertex attains its own supporting line value
    attained = np.real(np.exp(-1j * bd.angles) * bd.vertices)
    assert np.allclose(attained, bd.support, atol=1e-9)


def boundary_cases():
    """{name: (matrix, expected tag)}: generic, Hermitian, normal with
    collinear eigenvalues (flat edges at two opposite angles), scalar."""
    rng = np.random.default_rng(18)
    U = np.linalg.qr(random_complex(5, rng))[0]
    line = (1.0 + 2.0j) + np.exp(0.7j) * np.array([-2.0, -2.0, 0.5, 3.0, 3.0])
    H = random_complex(5, rng)
    return {"generic": (random_complex(5, rng), "full"),
            "hermitian": (H + np.conj(H.T), "segment"),
            "normal-collinear": ((U * line) @ np.conj(U.T), "segment"),
            "scalar": ((0.5 - 1.5j) * np.eye(4), "point")}


BOUNDARY_CASES = boundary_cases()


@pytest.mark.parametrize("n_angles", [3, 4, 7, 8, 64, 65])
@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_paired_supporting_lines(case, n_angles):
    # an even n_angles reads the line at t + pi off -H_t's eigendecomposition;
    # on a flat edge its vertex may be another point of that edge, but every
    # vertex stays on its own line and inside every half-plane
    M, tag = BOUNDARY_CASES[case]
    bd = numrange_boundary(M, n_angles=n_angles)
    ref = np.array([
        np.max(np.linalg.eigvalsh(0.5 * (np.exp(-1j * t) * M + np.exp(1j * t) * np.conj(M.T))))
        for t in bd.angles
    ])
    tol = 1e-12 * max(1.0, frob(M))
    assert np.max(np.abs(bd.support - ref)) <= tol
    proj = np.real(np.exp(-1j * bd.angles)[:, None] * bd.vertices[None, :])
    assert np.max(np.abs(np.diag(proj) - bd.support)) <= tol
    assert np.max(proj - bd.support[:, None]) <= tol
    assert bd.degenerate == tag


# ---------------------------------------------------------------------------
# rank_k_interval


def test_rank_k_interval_indexing():
    A = np.diag([5.0, 3.0, 2.0, 1.0]).astype(complex)
    iv = rank_k_interval(A, 2)
    assert np.isclose(iv.lo, 2.0) and np.isclose(iv.hi, 3.0)
    assert not iv.empty
    iv1 = rank_k_interval(A, 1)
    assert np.isclose(iv1.lo, 1.0) and np.isclose(iv1.hi, 5.0)


def test_rank_k_interval_against_eigvalsh():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        G = random_complex(n, rng)
        A = (G + np.conj(G.T)) / 2
        lam = np.sort(np.linalg.eigvalsh(A))[::-1]
        for k in range(1, n + 1):
            iv = rank_k_interval(A, k)
            if k > (n + 1) // 2 and lam[n - k] < lam[k - 1] - 1e-12:
                pass  # can only be empty when the formula inverts
            if iv.empty:
                assert lam[n - k] > lam[k - 1] - 1e-15
            else:
                assert np.isclose(iv.lo, lam[n - k], atol=1e-10)
                assert np.isclose(iv.hi, lam[k - 1], atol=1e-10)


def test_rank_k_interval_empty_case():
    iv = rank_k_interval(np.diag([2.0, 1.0, 0.0]).astype(complex), 3)
    assert iv.empty


def test_rank_k_interval_matches_eigvalsh_to_rounding():
    rng = np.random.default_rng(22)
    for n in (1, 2, 5, 12):
        A = (lambda G: (G + np.conj(G.T)) / 2)(random_complex(n, rng))
        lam = np.linalg.eigvalsh(A)[::-1]
        tol = 4 * np.finfo(float).eps * max(1.0, frob(A))
        for k in range(1, n + 1):
            iv = rank_k_interval(A, k)
            assert abs(iv.lo - lam[n - k]) <= tol and abs(iv.hi - lam[k - 1]) <= tol
            assert iv.empty == (iv.lo > iv.hi)


def test_rank_k_interval_accepts_one_matrix_stack():
    A = np.diag([3.0, 1.0, 2.0]).astype(complex)
    assert rank_k_interval(A[None], 2) == rank_k_interval(A, 2)


@pytest.mark.parametrize("A,k,match", [
    pytest.param(np.float64(2.0), 1, "single Hermitian matrix", id="scalar"),
    pytest.param(np.eye(2)[None].repeat(2, axis=0), 1, "single Hermitian matrix",
                 id="stack-of-two"),
    pytest.param(np.eye(3), 0, "1 <= k <= 3", id="k-zero"),
    pytest.param(np.eye(3), 4, "1 <= k <= 3", id="k-above-n"),
    pytest.param(np.ones((2, 3)), 1, "square", id="not-square"),
    pytest.param(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1,
                 r"non-finite entry at \(0, 1\)", id="nan"),
    pytest.param(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1,
                 r"non-finite entry at \(0, 0\)", id="inf"),
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, "not Hermitian", id="not-hermitian"),
])
def test_rank_k_interval_refusals(A, k, match):
    with pytest.raises(DimensionError, match=match):
        rank_k_interval(A, k)


# ---------------------------------------------------------------------------
# embeddings and transforms


def test_hermitian_embed_reconstructs():
    rng = np.random.default_rng(41)
    M = random_complex(4, rng)
    E = hermitian_embed(M[None])
    assert E.m == 2
    assert frob(E.mats[0] + 1j * E.mats[1] - M) <= 1e-12 * frob(M)


def test_hermitian_embed_of_hermitian_has_zero_imag_part():
    A = np.diag([1.0, 2.0]).astype(complex)
    E = hermitian_embed(A[None])
    assert frob(E.mats[1]) <= 1e-14


def test_hermitian_embed_accepts_one_matrix():
    M = random_complex(3, np.random.default_rng(43))
    assert np.array_equal(hermitian_embed(M).mats, hermitian_embed(M[None]).mats)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: hermitian_embed(np.ones((1, 2, 3))), "expected", id="embed-not-square"),
    pytest.param(lambda: hermitian_embed(np.array([[np.inf]])), "finite", id="embed-inf"),
    pytest.param(lambda: numrange_boundary(np.ones((2, 3))), "square", id="boundary-not-square"),
    pytest.param(lambda: numrange_boundary(np.array([[np.nan]])), "finite", id="boundary-nan"),
    pytest.param(lambda: numrange_boundary(np.eye(2), n_angles=2), "3 angles",
                 id="boundary-two-angles"),
])
def test_embed_and_boundary_refusals(call, match):
    with pytest.raises(DimensionError, match=match):
        call()

