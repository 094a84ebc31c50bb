"""Seeded inputs and the fixed operation list of each workload.

`setup` is the whole set-up a user pays before the first answer: it generates
every input of a run from the workload seed, writes the tuples as canonical
tuple files with `matrange.io.save_tuple`, and returns the operations in the
order they run.  An operation is one CLI command (through
`matrange.cli.main`, in-process) or one public library call.

A run is a fixed number of rounds, set by --seconds, and has no time box.
Each round is the same list of operations with fresh solver seeds drawn
from (seed, round), so every run attempts whole rounds and the mix of heavy
and light operations never changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import matrange.cli
import matrange.feasibility
import matrange.ranges
from matrange.io import save_tuple
from matrange.linalg import HermitianTuple

import checks

# Nominal length of one round on the reference host (2-core x86-64 VM,
# Python 3.11, numpy 2.4, one BLAS thread).  A run makes
# round(seconds / ROUND_SECONDS) whole rounds, at least one.
ROUND_SECONDS = {
    "certify-mix": 8.0,
    "reject-budget": 1.6,
    "tverberg-lift": 0.65,
    "spectral": 0.55,
}

ACCEPT_TOL = 1e-8  # the CLI default --accept-tol, which every command keeps
CAP_FAULT = "partition scan capped at"


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Op:
    """One timed call and the independent check of what it returned.

    `call` runs the operation and returns its raw result; `check` raises
    checks.CheckError when that result is wrong.  `known_fault` names the
    error text of an operation that fails on every input because of a
    documented fault in the program; such a failure leaves `correct` true.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    out: str | None = None
    known_fault: str | None = None


# ---------------------------------------------------------------------------
# input generation (numpy only; the program sees the written files)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def gue(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m GUE matrices scaled so the spectrum fills about [-2, 2]."""
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    H = (G + np.conj(np.transpose(G, (0, 2, 1)))) / (2.0 * np.sqrt(n))
    return np.ascontiguousarray(H)


def semicircle_quantiles(n: int) -> np.ndarray:
    """The n midpoint quantiles of the semicircle law on [-2, 2], descending."""
    target = (np.arange(n) + 0.5) / n
    lo, hi = np.full(n, -2.0), np.full(n, 2.0)
    for _ in range(60):
        x = 0.5 * (lo + hi)
        cdf = 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi
        lo = np.where(cdf < target, x, lo)
        hi = np.where(cdf < target, hi, x)
    return 0.5 * (lo + hi)[::-1]


def rotated_spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(semicircle quantiles) U* with Haar-random U.

    Every seed poses the same problem up to a unitary change of basis, so the
    seed moves the solver's effective starting frames but not the problem's
    difficulty.
    """
    G = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    U = Q * (d / np.abs(d))
    M = (U * semicircle_quantiles(n)) @ np.conj(U.T)
    return 0.5 * (M + np.conj(M.T))


def complex_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)


class Inputs:
    """Names and writes the tuple files of one run directory."""

    def __init__(self, rundir: str):
        self.rundir = rundir

    def tuple_file(self, name: str, mats: np.ndarray, hermitian: bool = True) -> str:
        path = os.path.join(self.rundir, name + ".json")
        save_tuple(HermitianTuple(mats) if hermitian else list(mats), path)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.rundir, name + ".out.json")


def _cli_op(label, argv, out, check, known_fault=None) -> Op:
    argv = argv + ["--out", out]
    return Op(label=label, call=lambda: matrange.cli.main(argv), out=out,
              check=check, known_fault=known_fault)


def _seeded(rng: np.random.Generator, argv: list) -> list:
    """The command with a fresh solver seed from the workload's generator."""
    return argv + ["--seed", str(int(rng.integers(0, 2**31 - 1)))]


# ---------------------------------------------------------------------------
# workloads
#
# Each function below returns the operations of `rounds` whole rounds.  The cost of
# a solve varies with the solver's random starts far more than with the
# draw of its tuple, so certify-mix and spectral write fresh small tuples
# each round, while reject-budget and tverberg-lift write their larger
# tuples once per run and vary only the solver seeds between rounds.


# The light operations of certify-mix, as (label, tuple (m, n), arguments).
# Their typical latencies sit close together (20-80 ms) so that the median
# operation falls inside one dense band.  Samples use p >= 2 throughout: at
# p = 1 the best block of X*AX is X*AX itself, so any start is exact and
# such a sample measures nothing of the solver.
CERTIFY_LIGHT = (
    ("sample-pq", (2, 8), ["sample", "pq", "--p", "2", "--q", "1", "--count", "4"]),
    ("sample-pq", (2, 8), ["sample", "pq", "--p", "2", "--q", "2", "--count", "1"]),
    ("sample-pq", (2, 12), ["sample", "pq", "--p", "3", "--q", "1", "--count", "3"]),
    ("sample-pq", (1, 8), ["sample", "pq", "--p", "2", "--q", "1", "--count", "4"]),
    ("star-center", (2, 27), ["construct", "star-center", "--p", "1", "--q", "1"]),
    ("segment", (2, 12), ["construct", "segment", "--p", "2", "--q", "1", "--t", "0.3"]),
    # --threshold 0: a suite's pass rate is a stochastic verdict, not an
    # error, and one failed trial must not make the run's outcome depend on
    # the seed; the check holds the report to passes + failures = trials
    ("verify-bounds", None, ["verify", "bounds", "--m", "2", "--k", "2", "--trials", "5",
                             "--threshold", "0"]),
    ("verify-inclusions", None, ["verify", "inclusions", "--trials", "1", "--corners", "2",
                                 "--threshold", "0"]),
)
CERTIFY_REPS = 9  # light blocks per round, each with fresh solver seeds


def _certify_check(label, path):
    if label == "sample-pq":
        return lambda rc, out: checks.cloud(rc, out, path, ACCEPT_TOL)
    if label == "star-center":
        return lambda rc, out: checks.star_center(rc, out, path, ACCEPT_TOL)
    if label == "segment":
        return lambda rc, out: checks.segment(rc, out, path, ACCEPT_TOL)
    return checks.report


def certify_mix(inp: Inputs, seed: int, rounds: int) -> list[Op]:
    """Accept-path CLI commands on GUE tuples; every solve ends in a
    certificate.  A round is one essential estimate and CERTIFY_REPS blocks
    of the light commands.  The light commands of a round share one tuple
    per command and draw fresh solver seeds: their cost varies with the
    solver's starts far more than with the draw of the tuple.  The essential
    estimate runs on a rotated spectrum: its level-2 support solves take
    seconds, and on GUE draws their cost varies by +-15%, more than a run of
    two estimates can average."""
    ops = []
    for rnd in range(rounds):
        rng = _rng(seed, 1, rnd)
        paths = [inp.tuple_file(f"c{rnd}-{i}", gue(*shape, rng)) if shape else None
                 for i, (_, shape, _) in enumerate(CERTIFY_LIGHT)]

        def add(label, argv, check):
            out = inp.out(f"c{rnd}-{len(ops)}")
            ops.append(_cli_op(label, _seeded(rng, argv), out,
                               lambda rc, out=out: check(rc, out)))

        for rep in range(CERTIFY_REPS):
            for (label, _, argv), path in zip(CERTIFY_LIGHT, paths):
                add(label, argv + (["--input", path] if path else []),
                    _certify_check(label, path))
            if rep == CERTIFY_REPS // 2:
                path = inp.tuple_file(f"c{rnd}-essential", rotated_spectrum(6, rng)[None])
                add("essential", ["construct", "essential", "--input", path, "--q", "1",
                                  "--r-max", "2", "--n-free", "0"],
                    lambda rc, out, path=path: checks.essential(rc, out, path, ACCEPT_TOL))
    return ops


# (n, p, q, restart budget, delta) of the reject-path membership calls
REJECT_CASES = ((8, 2, 1, 6, 0.05), (12, 2, 1, 6, 0.05), (12, 1, 2, 6, 0.3),
                (10, 3, 1, 6, 0.1),
                # n pq = 480: the polish's (n pq)^2 memory shows in peak RSS
                (120, 4, 1, 1, 0.05))


def reject_budget(inp: Inputs, seed: int, rounds: int) -> list[Op]:
    """Library membership calls on scalar points a distance delta beyond the
    pq-th largest eigenvalue of A_1.  By Cauchy interlacing every compression
    has its smallest eigenvalue at most lambda_pq < x, so each call spends
    its whole restart budget and polishes after every restart."""
    rng = _rng(seed, 2)
    cases = []
    for n, p, q, budget, delta in REJECT_CASES:
        mats = rotated_spectrum(n, rng)[None]
        inp.tuple_file(f"r-n{n}-p{p}q{q}", mats)
        lam = np.linalg.eigvalsh(mats[0])[::-1]
        point = matrange.feasibility.MatPoint.scalar([lam[p * q - 1] + delta], q)
        cases.append((HermitianTuple(mats), point, n, p, budget, delta))
    ops = []
    for rnd in range(rounds):
        rng = _rng(seed, 2, rnd)
        for A, point, n, p, budget, delta in cases:
            opts = matrange.feasibility.SolverOptions(
                max_restarts=budget, seed=int(rng.integers(0, 2**31 - 1)))
            ops.append(Op(
                label=f"membership-n{n}",
                call=lambda A=A, point=point, p=p, opts=opts:
                    matrange.feasibility.membership(A, point, p, opts),
                check=lambda got, budget=budget, delta=delta:
                    checks.rejection(got, budget, delta)))
    return ops


# (m, p): q = 1 lifts with d = (p - 1)(m + 1) + 1 between 7 and 10 blocks, each
# at the smallest dimension d (m + 1) + 1 the deflation needs.  The p >= 3
# lifts with d >= 9 are left out: their scan length has a heavy tail (a
# 0.2-4 s spread from one draw to the next) that a run cannot average.
TVERBERG_CASES = ((1, 4), (2, 3), (5, 2), (6, 2), (7, 2), (8, 2))
# the paper's q = 2, m = 2, p = 3 lift: d = 19 blocks, n = 19 * 2 * 3 + 2
TVERBERG_CAPPED = (2, 3, 2, 116)


def tverberg_lift(inp: Inputs, seed: int, rounds: int) -> list[Op]:
    """CLI Tverberg lifts; the partition scan and its phase-1 simplex carry
    the cost.  The capped q = 2 lift uses one fixed input in every run."""
    rng = _rng(seed, 3)
    cases = []
    for m, p in TVERBERG_CASES:
        d = (p - 1) * (m + 1) + 1
        cases.append((inp.tuple_file(f"t-m{m}p{p}", gue(m, d * (m + 1) + 1, rng)), p, d))
    cm, cp, cq, cn = TVERBERG_CAPPED
    capped = inp.tuple_file("t-capped", gue(cm, cn, np.random.default_rng(2017)))
    ops = []
    for rnd in range(rounds):
        rng = _rng(seed, 3, rnd)
        for path, p, d in cases:
            out = inp.out(f"t{rnd}-d{d}p{p}")
            ops.append(_cli_op(
                f"tverberg-d{d}",
                _seeded(rng, ["construct", "tverberg", "--input", path, "--p", str(p),
                              "--q", "1"]), out,
                lambda rc, out=out, path=path: checks.tverberg(rc, out, path, ACCEPT_TOL)))
        out = inp.out(f"t{rnd}-capped")
        ops.append(_cli_op(
            "tverberg-d19-q2",
            ["construct", "tverberg", "--input", capped, "--p", str(cp), "--q", str(cq),
             "--seed", "0"], out,
            lambda rc, out=out: checks.tverberg(rc, out, capped, ACCEPT_TOL),
            known_fault=CAP_FAULT))
    return ops


def spectral(inp: Inputs, seed: int, rounds: int) -> list[Op]:
    """Classical boundaries and rank-k intervals: the Jacobi herm_eig is
    nearly the whole cost; the solver and the partition scan never run."""
    ops = []
    for rnd in range(rounds):
        rng = _rng(seed, 4, rnd)
        for i, (n, angles) in enumerate(((8, 64), (6, 32), (6, 32))):
            path = inp.tuple_file(f"s{rnd}-{i}-n{n}", complex_matrix(n, rng)[None],
                                  hermitian=False)
            out = inp.out(f"s{rnd}-{i}")
            ops.append(_cli_op(
                f"numrange-n{n}", ["compute", "numrange", "--input", path,
                                   "--angles", str(angles)], out,
                lambda rc, out=out, path=path, angles=angles:
                    checks.numrange(rc, out, path, angles)))
        for n, ks in ((6, (1, 2, 3)), (8, (1, 2, 3, 4)), (12, (1, 3, 6))):
            H = gue(1, n, rng)
            inp.tuple_file(f"s{rnd}-h{n}", H)
            for k in ks:
                ops.append(Op(
                    label=f"rank-k-n{n}",
                    call=lambda H=H, k=k: matrange.ranges.rank_k_interval(H[0], k),
                    check=lambda got, H=H, k=k: checks.interval(got, H[0], k)))
    return ops


OPERATION_LISTS = {
    "certify-mix": certify_mix,
    "reject-budget": reject_budget,
    "tverberg-lift": tverberg_lift,
    "spectral": spectral,
}


def setup(workload: str, seed: int, rounds: int, rundir: str) -> list[Op]:
    """Generate and write every input of a run; return its operations."""
    os.makedirs(rundir, exist_ok=True)
    return OPERATION_LISTS[workload](Inputs(rundir), seed, rounds)
