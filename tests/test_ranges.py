"""Classical boundary, rank-k intervals, embeddings, joint sampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrange.linalg import HermitianTuple, frob
from matrange.ranges import (
    STACK_ENTRIES,
    hermitian_embed,
    joint_numrange_sample,
    numrange_boundary,
    rank_k_interval,
    support_value,
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


def test_boundary_refinement_shrinks_gap():
    rng = np.random.default_rng(9)
    M = random_complex(6, rng)
    gaps = [numrange_boundary(M, n_angles=a).gap() for a in (8, 32, 128)]
    assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0


@pytest.mark.parametrize("n_angles", [8, 32, 256])
def test_gap_of_disk_matches_closed_form(n_angles):
    # W([[0, 2], [0, 0]]) is the unit disk: the supporting lines cut out a
    # circumscribed regular polygon (corner support 1/cos(pi/N)) and the
    # vertices form an inscribed one (mid-angle support cos(pi/N))
    J = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    c = np.cos(np.pi / n_angles)
    assert abs(numrange_boundary(J, n_angles=n_angles).gap() - (1 / c - c)) <= 1e-12


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
    assert not iv.contains(1.0)


def test_interval_contains_tolerance():
    iv = rank_k_interval(np.diag([1.0, 0.0]).astype(complex), 1)
    assert iv.contains(1.0 + 1e-9, tol=1e-8)
    assert not iv.contains(1.1)


# ---------------------------------------------------------------------------
# support_value


def test_support_value_is_max_eigenvalue():
    rng = np.random.default_rng(33)
    A = HermitianTuple(np.stack([
        (lambda G: (G + np.conj(G.T)) / 2)(random_complex(6, rng))
        for _ in range(2)
    ]))
    u = np.array([0.6, -0.8])
    got = support_value(A, u)
    H = u[0] * A.mats[0] + u[1] * A.mats[1]
    assert np.isclose(got, np.max(np.linalg.eigvalsh(H)), atol=1e-10)


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


# ---------------------------------------------------------------------------
# joint sampling


def test_joint_sample_matches_direct_forms():
    rng = np.random.default_rng(47)
    mats = np.stack([(lambda G: (G + np.conj(G.T)) / 2)(random_complex(4, rng))
                     for _ in range(3)])
    A = HermitianTuple(mats)
    cloud = joint_numrange_sample(A, 16, seed=5)
    assert cloud.coords.shape == (16, 3)
    redo = joint_numrange_sample(A, 16, seed=5)
    assert np.array_equal(cloud.coords, redo.coords)
