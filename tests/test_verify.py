"""Property suites and their report container."""

import warnings

import numpy as np
import pytest

import matrange.verify as verify
from matrange.feasibility import SolverOptions, solve_jobs
from matrange.verify import (
    SuiteReport,
    add_tuples,
    bound_dimension,
    check_convexity,
    check_corner_inclusions,
    check_nonempty_bounds,
    check_pauli_nonconvexity,
    check_perturbation_equivalence,
    check_star_shaped,
    pauli_tuple,
    planted_star_instance,
    random_finite_rank_tuple,
    random_hermitian_tuple,
)


# ---------------------------------------------------------------------------
# report container


def test_report_invariant():
    with pytest.raises(ValueError, match="2 failures > 1 trials"):
        SuiteReport(suite="x", trials=1, failures=(("s", "d"), ("t", "e")), tolerances={})


def test_report_rates():
    rep = SuiteReport(suite="x", trials=4, failures=((1, "boom"),), tolerances={})
    assert rep.passes == 3
    assert rep.pass_rate == 0.75
    assert rep.passed(0.75)
    assert not rep.passed(0.95)
    empty = SuiteReport(suite="x", trials=0, failures=(), tolerances={})
    assert empty.pass_rate == 1.0


# ---------------------------------------------------------------------------
# ensembles


def test_random_hermitian_tuple_deterministic():
    A = random_hermitian_tuple(2, 7, seed=11)
    B = random_hermitian_tuple(2, 7, seed=11)
    assert np.array_equal(A.mats, B.mats)
    assert A.m == 2 and A.n == 7


def test_pauli_tuple_values():
    P = pauli_tuple()
    assert P.m == 3 and P.n == 2
    for j in range(3):
        assert np.allclose(np.linalg.eigvalsh(P.mats[j]), [-1.0, 1.0])
    # anticommutation: sx sy + sy sx = 0
    s = P.mats
    assert np.allclose(s[0] @ s[1] + s[1] @ s[0], 0.0)


def test_planted_star_instance_exactness():
    A, certs = planted_star_instance(2, 2, 1, d=4, seed=21)
    assert A.n == 4 * 2
    assert len(certs) == 4
    for c in certs:
        assert c.residual <= 1e-14
        c.revalidate(A)
    # distinct witnesses are exactly A-orthogonal
    X0, X1 = certs[0].witness.mat, certs[1].witness.mat
    assert np.max(np.abs(np.conj(X0.T) @ X1)) == 0.0
    for j in range(2):
        assert np.max(np.abs(np.conj(X0.T) @ A.mats[j] @ X1)) == 0.0


def test_add_tuples_shape_check():
    with pytest.raises(ValueError):
        add_tuples(random_hermitian_tuple(1, 4, 0), random_hermitian_tuple(2, 4, 0))


def test_random_finite_rank_tuple_rank():
    F = random_finite_rank_tuple(2, 10, rank=2, seed=31)
    for j in range(2):
        s = np.linalg.svd(F.mats[j], compute_uv=False)
        assert np.sum(s > 1e-10) <= 2


# ---------------------------------------------------------------------------
# star-shapedness


def test_star_shaped_planted_exact():
    A, certs = planted_star_instance(2, 1, 1, d=5, seed=81)
    rep = check_star_shaped(A, 1, 1, exact=certs)
    assert rep.suite == "star-shaped-planted"
    assert rep.trials == (5 - 1) * 3
    assert rep.passes == rep.trials
    assert rep.tolerances["residual"] == 1e-9


def test_star_shaped_solver_mode(monkeypatch):
    # segments are built from the center's witness, never re-solved
    def no_solve(*args, **kw):
        raise AssertionError("check_star_shaped re-solved a segment point")

    monkeypatch.setattr(verify, "solve_jobs", no_solve)
    A = random_hermitian_tuple(1, 9, seed=82)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # n = 9 >= bound 8: must not warn
        rep = check_star_shaped(A, 1, 1, n_points=4, opts=SolverOptions(seed=0))
    assert rep.suite == "star-shaped"
    assert rep.trials == 4 * 3
    assert rep.passes == rep.trials


@pytest.mark.parametrize("seed", [84, 85, 86])
def test_star_shaped_below_the_center_guarantee(seed):
    # m = 2, k = 4: n = 12 is below (k - 1)(m + 1)^2 = 27, which only
    # guarantees that a center exists; the one found passes every segment
    A = random_hermitian_tuple(2, 12, seed=seed)
    with pytest.warns(UserWarning, match="below the star-center guarantee"):
        rep = check_star_shaped(A, 1, 1, n_points=6, opts=SolverOptions(seed=seed))
    assert rep.trials == 6 * 3
    assert rep.passes == rep.trials, rep.failures


# ---------------------------------------------------------------------------
# dimension bounds


def test_bound_dimension_values():
    assert bound_dimension(2, 2, "general") == 9
    assert bound_dimension(1, 3, "general") == 8
    assert bound_dimension(2, 2, "refined") == 4
    assert bound_dimension(1, 3, "refined") == 5
    # the floor keeps the dimension workable for tiny k
    assert bound_dimension(1, 1, "general") == 1
    with pytest.raises(ValueError):
        bound_dimension(3, 2, "refined")
    with pytest.raises(ValueError):
        bound_dimension(1, 2, "sharpest")


def test_nonempty_bounds_m0_vacuous():
    rep = check_nonempty_bounds(0, 3, trials=7)
    assert rep.passes == 7 and rep.trials == 7
    assert rep.pass_rate == 1.0


def test_nonempty_bounds_refined_m1():
    rep = check_nonempty_bounds(1, 2, trials=5, bound="refined",
                                opts=SolverOptions(seed=0))
    assert rep.tolerances["n"] == 3
    assert rep.passes == 5


# ---------------------------------------------------------------------------
# corner inclusions


def test_corner_inclusions_small(monkeypatch):
    # one solve_jobs batch, for the bases; every corner witness is built
    calls = []

    def spy(A, p, q, seeds, points=None, opts=SolverOptions()):
        calls.append((len(seeds), p, q, points))
        return solve_jobs(A, p, q, seeds, points, opts)

    monkeypatch.setattr(verify, "solve_jobs", spy)
    rep = check_corner_inclusions(trials=3, corners=2, opts=SolverOptions(seed=0))
    assert calls == [(3, 3, 1, None)]
    assert rep.trials == 6
    assert rep.passes == 6
    assert rep.tolerances["p"] == 3 and rep.tolerances["r"] == 1


def test_corner_inclusions_validation():
    with pytest.raises(ValueError):
        check_corner_inclusions(p=2, q=1, r=2)


# ---------------------------------------------------------------------------
# convexity, both readings


def test_convexity_single_hermitian():
    A = random_hermitian_tuple(1, 6, seed=83)
    rep = check_convexity(A, 1, 1, pairs=5, opts=SolverOptions(seed=0))
    assert rep.trials == 5
    assert rep.passes == 5


def test_pauli_nonconvexity():
    rep = check_pauli_nonconvexity()
    assert rep.trials == 1
    assert rep.passes == 1
    assert rep.failures == ()


def test_pauli_margin_is_one(monkeypatch):
    # the symmetric-square compression of sum_j sigma_j (x) sigma_j is the
    # identity, so the origin's margin is 1 to rounding
    monkeypatch.setattr(verify, "PAULI_MARGIN_TOL", 1.0 - 1e-12)
    assert check_pauli_nonconvexity().failures == ()
    monkeypatch.setattr(verify, "PAULI_MARGIN_TOL", 1.0 + 1e-12)
    assert check_pauli_nonconvexity().failures == (
        (0, "origin not excluded: margin 1.000e+00"),)


# ---------------------------------------------------------------------------
# perturbation equivalence


def test_perturbation_equivalence_small():
    rep = check_perturbation_equivalence(trials=3, opts=SolverOptions(seed=0))
    assert rep.passes == 3


# ---------------------------------------------------------------------------
# determinism of whole suites


def test_suite_determinism():
    a = check_corner_inclusions(trials=2, corners=2, opts=SolverOptions(seed=7))
    b = check_corner_inclusions(trials=2, corners=2, opts=SolverOptions(seed=7))
    assert (a.suite, a.trials, a.passes, a.failures) == \
           (b.suite, b.trials, b.passes, b.failures)
    assert a.tolerances == b.tolerances
