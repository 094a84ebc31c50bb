"""Acceptance suite.

Each test pins one end-to-end contract of the library: oracle agreement,
pass-rate floors for the randomized verification suites, witness-quality
bars for the constructive routines, and byte determinism of the CLI.  Time
budgets are asserted alongside the numerical tolerances.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest

import matrange.feasibility as feasibility
from matrange.cli import main
from matrange.constructions import essential_estimate, random_corner, tverberg_lift
from matrange.feasibility import Rejection, SolverOptions, solve_free, solve_support
from matrange.io import save_tuple
from matrange.linalg import HermitianTuple, compress
from matrange.ranges import numrange_boundary, rank_k_interval
from matrange.verify import (check_corner_inclusions, check_nonempty_bounds,
                             check_pauli_nonconvexity, check_star_shaped,
                             pauli_tuple, planted_star_instance,
                             random_hermitian_tuple)

# light restart budget; the quadratic polish supplies the final accuracy
FAST = SolverOptions(max_restarts=8)


@pytest.fixture
def fast_schedule(monkeypatch):
    """A short descent and penalty schedule: fewer and shorter stages with
    steeper growth, one support restart."""
    for name, value in (("MAX_ITERS", 400), ("SUPPORT_STAGES", 4),
                        ("SUPPORT_STAGE_ITERS", 50), ("SUPPORT_GROWTH", 15.0),
                        ("SUPPORT_RESTARTS", 1)):
        monkeypatch.setattr(feasibility, name, value)


def gue(m, n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return HermitianTuple((G + np.conj(np.transpose(G, (0, 2, 1)))) / (2 * np.sqrt(n)))


def test_rank_k_interval_oracle_agreement(fast_schedule):
    """100 random Hermitian matrices: scalar points land in the eigenvalue
    interval, directed solves approach both endpoints."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250819)
    for i in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, min(5, (n + 1) // 2) + 1))
        A = gue(1, n, seed=9000 + i)
        out = solve_free(A, k, 1, FAST)
        assert not isinstance(out, Rejection), f"instance {i} rejected"
        vals = out.point.scalar_values()
        iv = rank_k_interval(A.mats[0], k)
        assert iv.lo - 1e-6 <= vals[0] <= iv.hi + 1e-6, f"instance {i}"
        for sgn, bound in ((1.0, iv.hi), (-1.0, iv.lo)):
            cert = solve_support(A, k, 1, np.array([sgn]), FAST)
            assert not isinstance(cert, Rejection), f"instance {i} endpoint"
            val = cert.point.scalar_values()[0]
            assert abs(val - bound) <= 1e-3, f"instance {i} endpoint gap"
    assert time.perf_counter() - start < 30.0


def test_nonempty_bound_pass_rate():
    """At the guaranteed dimension, rank-2 points of 50 random pairs are
    found at least 48 times."""
    start = time.perf_counter()
    report = check_nonempty_bounds(2, 2, trials=50,
                                   opts=SolverOptions(max_restarts=50))
    assert report.trials == 50
    assert report.passes >= 48, report.failures
    assert time.perf_counter() - start < 120.0


def test_star_shaped_segments_certify():
    """Segments from a scalar star center to 20 sampled points of a random
    pair at n = 63 certify at three interior parameters."""
    start = time.perf_counter()
    A = random_hermitian_tuple(2, 63, seed=2063)
    report = check_star_shaped(A, 1, 1, n_points=20, opts=SolverOptions())
    assert report.trials == 60
    assert report.passes >= 0.95 * report.trials, report.failures
    assert report.tolerances["accept_tol"] <= 1e-8
    assert time.perf_counter() - start < 300.0


def test_tverberg_lift_witness_quality():
    """Scalar lift on diag(1..12) and a matrix lift at q = 2 on a GUE
    tuple, both split by Radon's theorem."""
    start = time.perf_counter()
    A = HermitianTuple(np.diag(np.arange(1.0, 13.0))[None])
    lift = tverberg_lift(A, q=1, p=2, opts=SolverOptions())
    X = lift.certificate.witness.mat
    assert np.linalg.norm(np.conj(X.T) @ X - np.eye(2)) <= 1e-8
    assert lift.certificate.residual <= 1e-8
    c = lift.certificate.point.scalar_values()[0]
    assert 2.0 - 1e-6 <= c <= 11.0 + 1e-6
    assert time.perf_counter() - start < 10.0

    start = time.perf_counter()
    B = gue(1, 26, 2026)
    lift2 = tverberg_lift(B, q=2, p=2, opts=SolverOptions())
    assert len(lift2.family) == 6
    assert lift2.partition.partitions_scanned <= 31
    assert lift2.certificate.residual <= 1e-8
    assert time.perf_counter() - start < 10.0


def test_corner_inclusion_pass_rate():
    """50 certified points of random pairs re-certify under 5 random corners
    each; the diagonal single-matrix sub-case agrees with eigenvalue
    interlacing exactly."""
    start = time.perf_counter()
    report = check_corner_inclusions(m=2, n=18, p=3, q=1, r=1,
                                     trials=50, corners=5)
    assert report.trials == 250
    assert report.passes >= 0.95 * report.trials, report.failures

    rng = np.random.default_rng(5150)
    checks = 0
    for t in range(10):
        diag = np.sort(rng.standard_normal(12))
        A = HermitianTuple(np.diag(diag)[None])
        out = solve_free(A, 3, 1, FAST)
        assert not isinstance(out, Rejection)
        vals = out.point.scalar_values()
        for j in range(5):
            B = compress(A, random_corner(12, 1, seed=7000 + 10 * t + j))
            iv = rank_k_interval(B.mats[0], 2)
            assert iv.lo - 1e-6 <= vals[0] <= iv.hi + 1e-6
            checks += 1
    assert checks == 50
    assert time.perf_counter() - start < 120.0


def test_segment_witnesses_exact_on_planted_instances():
    """Planted block-diagonal instances: assembled segment witnesses are
    exact at five parameters including both endpoints."""
    start = time.perf_counter()
    A, certs = planted_star_instance(2, 1, 1, 5, seed=606)
    report = check_star_shaped(A, 1, 1, t_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
                               exact=certs)
    assert report.trials == (len(certs) - 1) * 5
    assert report.passes == report.trials, report.failures
    assert report.tolerances["residual"] <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_essential_estimate_converges_and_ignores_finite_rank():
    """Spiked diagonal: the estimate reaches the essential interval [0, 1]
    by depth 2 and moves at most 2e-6 under a random rank-1 corner."""
    start = time.perf_counter()
    A = HermitianTuple(np.diag([5.0] + [1.0] * 5 + [0.0] * 6).astype(complex)[None])
    est = essential_estimate(A, q=1, r_max=2, opts=SolverOptions())
    lo, hi = est.interval()
    assert abs(lo - 0.0) <= 1e-6
    assert abs(hi - 1.0) <= 1e-6

    corner = random_corner(12, 1, seed=77)
    est2 = essential_estimate(compress(A, corner), q=1, r_max=2,
                              opts=SolverOptions())
    lo2, hi2 = est2.interval()
    assert abs(lo2 - lo) <= 2e-6
    assert abs(hi2 - hi) <= 2e-6
    assert time.perf_counter() - start < 30.0


def test_pauli_midpoint_rejected_samples_on_sphere():
    """The sphere ensemble: the origin, the midpoint of antipodal sphere
    points, is proved outside the range by a positive margin."""
    start = time.perf_counter()
    report = check_pauli_nonconvexity()
    assert report.trials == 1
    assert report.passes == 1, report.failures
    assert 0.0 < report.tolerances["margin_tol"] <= 1e-12
    assert time.perf_counter() - start < 60.0


def test_classical_range_midpoints_inside_outer_hull():
    """Convexity of the classical range at tolerance: vertex midpoints stay
    inside the supporting-line outer hull."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    for i in range(20):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        bd = numrange_boundary(M, n_angles=256)
        idx = rng.integers(0, len(bd.vertices), size=(100, 2))
        mids = (bd.vertices[idx[:, 0]] + bd.vertices[idx[:, 1]]) / 2.0
        gaps = (np.exp(-1j * bd.angles)[None, :] * mids[:, None]).real \
            - bd.support[None, :]
        assert float(gaps.max()) <= 1e-6, f"matrix {i}"
    assert time.perf_counter() - start < 60.0


def test_cli_byte_determinism(tmp_path):
    """Every command class, run twice with identical flags and seed, writes
    byte-identical files."""
    d4 = tmp_path / "d4.json"
    save_tuple(HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0])[None]), d4)
    d9 = tmp_path / "d9.json"
    save_tuple(HermitianTuple(np.diag(np.arange(1.0, 10.0))[None]), d9)
    d12 = tmp_path / "d12.json"
    save_tuple(HermitianTuple(np.diag(np.arange(1.0, 13.0))[None]), d12)
    pair = tmp_path / "pair.json"
    save_tuple(gue(2, 10, 5), pair)
    pauli = tmp_path / "pauli.json"
    save_tuple(pauli_tuple(), pauli)

    cases = [
        ["compute", "numrange", "--input", str(d9), "--angles", "64"],
        ["sample", "pq", "--input", str(d4), "--p", "2", "--q", "1",
         "--count", "6"],
        ["construct", "star-center", "--input", str(d9), "--p", "1",
         "--q", "1", "--restarts", "8"],
        ["construct", "segment", "--input", str(pair), "--p", "1", "--q", "1",
         "--restarts", "8"],
        ["construct", "tverberg", "--input", str(d12), "--p", "2", "--q", "1"],
        ["construct", "tverberg", "--input", str(d12), "--p", "3", "--q", "1"],
        ["construct", "essential", "--input", str(d12), "--q", "1",
         "--r-max", "1", "--n-free", "2"],
        ["verify", "star-planted", "--m", "2", "--blocks", "3"],
        ["verify", "bounds", "--m", "1", "--k", "2", "--trials", "3",
         "--restarts", "8"],
        ["verify", "inclusions", "--m", "1", "--n", "8", "--p", "2",
         "--q", "1", "--r", "1", "--trials", "2", "--corners", "2",
         "--restarts", "8"],
        ["verify", "pauli"],
        ["verify", "perturbation", "--n", "8", "--trials", "2",
         "--restarts", "8"],
    ]
    for i, argv in enumerate(cases):
        outs = []
        for tag in ("a", "b"):
            f = tmp_path / f"case{i}_{tag}.json"
            rc = main(argv + ["--out", str(f)])
            assert rc == 0, argv
            outs.append(f.read_bytes())
        assert outs[0] == outs[1], argv


def test_readme_example_runs(capsys):
    # the quick start in README.md is run as written, so a renamed or removed
    # name it uses fails here instead of in a reader's session
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    start = time.perf_counter()
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "(12, 2)" in capsys.readouterr().out
    assert time.perf_counter() - start < 10.0
