"""Property suites over random ensembles, with structured reports.

Each check packages one provable property of matricial ranges as a pass/fail
suite: star-shapedness via segment witnesses, nonemptiness at the
dimension bound, corner inclusions, convexity of midpoints, and the
finite-rank perturbation equivalence.  The star and corner-inclusion suites
build each witness they check by the paper's construction from solved ones,
so a failure there is a defect.  The other suites are stochastic surrogates
run through a heuristic certifying solver: thresholds are pass rates, and
every failure records its seed.  The Pauli suite proves its nonconvexity
with one eigenvalue and calls no solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import (
    annihilating_corner,
    center_for,
    corner_certificate,
    random_corner,
    segment_witness,
    star_center_scalar,
)
from .feasibility import (
    MatPoint,
    Rejection,
    SolverOptions,
    certify,
    compose_certificate,
    sample_range,
    solve_jobs,
)
from .linalg import (
    HermitianTuple,
    as_tuple,
    compress,
    coordinate_isometry,
)

PAULI_MARGIN_TOL = 1e-12  # rounding bar on the Pauli suite's exclusion margin


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one property suite.

    failures holds (seed, diagnostic) pairs, one per failed trial, enough to
    replay the trial deterministically; every other trial passed.
    """

    suite: str
    trials: int
    failures: tuple
    tolerances: dict

    def __post_init__(self):
        if len(self.failures) > self.trials:
            raise ValueError(f"inconsistent report: {len(self.failures)} failures "
                             f"> {self.trials} trials")

    @property
    def passes(self) -> int:
        return self.trials - len(self.failures)

    @property
    def pass_rate(self) -> float:
        return 1.0 if self.trials == 0 else self.passes / self.trials

    def passed(self, threshold: float = 0.95) -> bool:
        return self.pass_rate >= threshold


# ---------------------------------------------------------------------------
# ensembles and named instances


def random_hermitian_tuple(m: int, n: int, seed: int) -> HermitianTuple:
    """m independent GUE matrices, normalized so spectra stay O(1) in n."""
    rng = np.random.default_rng(seed)
    mats = np.empty((m, n, n), dtype=complex)
    for j in range(m):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats[j] = (G + np.conj(G.T)) / (2.0 * np.sqrt(n))
    return HermitianTuple(mats)


def pauli_tuple() -> HermitianTuple:
    """The three Pauli matrices; their joint range is the unit sphere."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return HermitianTuple(np.stack([sx, sy, sz]))


def planted_star_instance(m: int, p: int, q: int, d: int, seed: int):
    """A block-scalar tuple whose range points come with exact witnesses.

    A_j is the direct sum of d blocks c_j^(r) I_pq, so the coordinate
    isometry onto block r certifies the scalar point c^(r) at level p with
    zero residual, and distinct blocks are exactly A-orthogonal.  Returns
    (tuple, certificates), one certificate per block.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=(d, m))
    n = d * p * q
    mats = np.zeros((m, n, n), dtype=complex)
    mats[:, range(n), range(n)] = np.repeat(values.T, p * q, axis=1)
    A = HermitianTuple(mats)
    certs = [certify(A, coordinate_isometry(n, range(r * p * q, (r + 1) * p * q)), p,
                     MatPoint.scalar(values[r], q)) for r in range(d)]
    return A, certs


def add_tuples(A, F) -> HermitianTuple:
    A, F = as_tuple(A), as_tuple(F)
    if A.m != F.m or A.n != F.n:
        raise ValueError("tuple shapes do not match")
    return HermitianTuple(A.mats + F.mats)


def random_finite_rank_tuple(m: int, n: int, rank: int, seed: int) -> HermitianTuple:
    """m Hermitian matrices of rank at most `rank`, moderate norm."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((m, n, n), dtype=complex)
    for j in range(m):
        for _ in range(rank):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            s = rng.uniform(-1.0, 1.0)
            mats[j] += s * np.outer(v, np.conj(v))
    return HermitianTuple(mats)


# ---------------------------------------------------------------------------
# suites


def check_star_shaped(A, p: int, q: int, n_points: int = 20,
                      t_grid=(0.25, 0.5, 0.75),
                      opts: SolverOptions = SolverOptions(),
                      exact=None) -> SuiteReport | Rejection:
    """Certify segments from a star center C to range points B, by construction.

    segment_witness certifies t B + (1-t) C, for t in t_grid, from
    A-orthogonal certificates of B and C; a residual above the bar fails,
    keyed by B's index.  Solver mode finds a scalar center (or returns its
    Rejection), samples n_points of the (p, q) range and pairs each with
    center_for's certificate of C; the bar is accept_tol.  With `exact`
    (zero-residual certificates whose first entry is the center, as from
    planted_star_instance), the bar is residual 1e-9.
    """
    A = as_tuple(A)
    if exact is not None:
        suite, bar = "star-shaped-planted", 1e-9
        pairs = [(r, exact[r], exact[0]) for r in range(1, len(exact))]
        tolerances = {"residual": bar, "t_grid": list(t_grid)}
    else:
        star = star_center_scalar(A, p, q, opts)
        if isinstance(star, Rejection):
            return star
        cloud = sample_range(A, p, q, n_points, opts.replace(seed=opts.seed + 1))
        suite, bar = "star-shaped", opts.accept_tol
        pairs = [(i, c, center_for(A, star, c)) for i, c in enumerate(cloud.certificates)]
        tolerances = {"accept_tol": bar, "t_grid": list(t_grid), "n_points": n_points}
    segments = [(i, t, segment_witness(A, b, c, t).residual) for i, b, c in pairs for t in t_grid]
    failures = [(i, f"t={t}: residual {res:.3e}") for i, t, res in segments if not res <= bar]
    return SuiteReport(suite=suite, trials=len(segments), failures=tuple(failures),
                       tolerances=tolerances)


def bound_dimension(m: int, k: int, bound: str = "general") -> int:
    """Smallest dimension at which the rank-k scalar range is guaranteed
    nonempty: (k-1)(m+1)^2 in general, (m+1)k - m for m <= 2."""
    if bound == "general":
        n = (k - 1) * (m + 1) ** 2
    elif bound == "refined":
        if m > 2:
            raise ValueError("the refined bound applies only to m <= 2")
        n = (m + 1) * k - m
    else:
        raise ValueError(f"unknown bound {bound!r}")
    return max(n, k, 1)


def check_nonempty_bounds(m: int, k: int, trials: int = 50,
                          opts: SolverOptions = SolverOptions(),
                          bound: str = "general") -> SuiteReport:
    """Random tuples at the guarantee dimension must yield a rank-k scalar
    point within the restart budget.  m = 0 is vacuously true."""
    if m == 0:
        return SuiteReport(suite=f"nonempty-{bound}", trials=trials, failures=(),
                           tolerances={"note": "empty tuple, vacuous"})
    n = bound_dimension(m, k, bound)
    failures = []
    seeds = [opts.seed + 1009 * (i + 1) for i in range(trials)]
    tuples = [random_hermitian_tuple(m, n, seed_i) for seed_i in seeds]
    # a rank-k scalar point is a free solve at level p = k, q = 1
    for seed_i, out in zip(seeds, solve_jobs(tuples, k, 1, seeds, opts=opts)):
        if isinstance(out, Rejection):
            failures.append((seed_i, f"best residual {out.best_residual:.3e} "
                                     f"after {out.restarts} restarts"))
    return SuiteReport(suite=f"nonempty-{bound}", trials=trials, failures=tuple(failures),
                       tolerances={"m": m, "k": k, "n": n,
                                   "accept_tol": opts.accept_tol,
                                   "max_restarts": opts.max_restarts})


def check_corner_inclusions(m: int = 2, n: int = 18, p: int = 3, q: int = 1,
                            r: int = 1, trials: int = 10, corners: int = 5,
                            opts: SolverOptions = SolverOptions()) -> SuiteReport:
    """Certified (p, q) points must re-certify at level p - q r inside
    random codimension-r corners.  One report trial per (tuple, corner); the
    bases are solved and corner_certificate builds the rest, so a failed
    corner is a defect."""
    if not 1 <= q * r < p:
        raise ValueError(f"need 1 <= q*r < p, got q*r = {q * r}, p = {p}")
    failures = []
    seeds = [opts.seed + 7717 * (i + 1) for i in range(trials)]
    tuples = [random_hermitian_tuple(m, n, seed_i) for seed_i in seeds]
    for seed_i, A, base in zip(seeds, tuples, solve_jobs(tuples, p, q, seeds, opts=opts)):
        for c in range(corners):
            if isinstance(base, Rejection):
                failures.append((seed_i, f"base solve rejected, corner {c} skipped"))
                continue
            seed_c = seed_i + 31 * (c + 1)
            res = corner_certificate(A, base, random_corner(n, r, seed_c)).residual
            if not res <= opts.accept_tol:
                failures.append((seed_c, f"corner re-cert failed: residual {res:.3e}"))
    total = trials * corners
    return SuiteReport(suite="corner-inclusions", trials=total, failures=tuple(failures),
                       tolerances={"m": m, "n": n, "p": p, "q": q, "r": r,
                                   "corners": corners,
                                   "accept_tol": opts.accept_tol})


def check_convexity(A, p: int, q: int, pairs: int = 10,
                    opts: SolverOptions = SolverOptions()) -> SuiteReport:
    """Midpoints of certified range points must themselves certify.

    A true statement for p = 1 scalar clouds of one or two Hermitian
    matrices (and for every convex range); a stochastic surrogate elsewhere.
    Each of the `pairs` trials takes two consecutive certified samples; a
    pair left without two fails, recorded under the sampling seed.
    """
    A = as_tuple(A)
    cloud = sample_range(A, p, q, 2 * pairs, opts)
    pts = cloud.points()
    failures = []
    firsts = range(0, 2 * (len(pts) // 2), 2)
    seeds = [opts.seed + 53 * (i + 1) for i in firsts]
    mids = [MatPoint((pts[i].blocks + pts[i + 1].blocks) / 2.0) for i in firsts]
    for i, seed_i, got in zip(firsts, seeds, solve_jobs(A, p, q, seeds, mids, opts)):
        best = got.best_residual if isinstance(got, Rejection) else got.residual
        if not best <= opts.accept_tol:  # true of every Rejection
            failures.append((seed_i, f"midpoint {i}-{i + 1}: best {best:.3e}"))
    for i in range(2 * len(firsts), 2 * pairs, 2):
        failures.append((opts.seed, f"pair {i}-{i + 1}: {len(pts)} of {2 * pairs} "
                                    "samples certified"))
    return SuiteReport(suite="convexity-midpoints", trials=pairs, failures=tuple(failures),
                       tolerances={"p": p, "q": q,
                                   "accept_tol": opts.accept_tol,
                                   "requested_pairs": pairs})


def check_pauli_nonconvexity() -> SuiteReport:
    """The Pauli triple's joint range is the unit sphere, so it omits the
    origin, the midpoint of antipodal points.

    One trial, keyed 0, proves the origin outside: a unit x with x*A_j x = 0
    for all j gives y = x (x) x in the symmetric square with y*My = 0, but
    M = sum_j A_j (x) A_j is the identity there (margin 1).  A witness with
    residual tau has y*My <= tau^2, so a margin mu excludes residuals below
    sqrt(mu).
    """
    A = pauli_tuple()
    failures = []
    r = np.sqrt(0.5)  # e00, e11 and (e01 + e10)/sqrt2 span the symmetric square
    S = np.array([[1, 0, 0], [0, r, 0], [0, r, 0], [0, 0, 1]])
    margin = float(np.linalg.eigvalsh(S.T @ sum(np.kron(a, a) for a in A.mats) @ S)[0])
    if not margin > PAULI_MARGIN_TOL:
        failures.append((0, f"origin not excluded: margin {margin:.3e}"))
    return SuiteReport(suite="pauli-nonconvexity", trials=1, failures=tuple(failures),
                       tolerances={"margin_tol": PAULI_MARGIN_TOL})


def check_perturbation_equivalence(m: int = 2, n: int = 16, p: int = 1,
                                   q: int = 1, trials: int = 10, rank: int = 2,
                                   opts: SolverOptions = SolverOptions()) -> SuiteReport:
    """Range points survive finite-rank perturbations via annihilating corners.

    For random F of small rank, the corner Y killing every F_j compresses A
    and A + F to the same tuple; a point certified in that corner therefore
    re-certifies in the perturbed tuple by composing witnesses.
    """
    failures = []
    seeds = [opts.seed + 4409 * (i + 1) for i in range(trials)]
    perturbed = []  # (A, F, corner killing F) per trial
    for seed_i in seeds:
        F = random_finite_rank_tuple(m, n, rank, seed_i + 1)
        perturbed.append((random_hermitian_tuple(m, n, seed_i), F, annihilating_corner(F)))
    inner = [compress(A, corner) for A, _, corner in perturbed]
    for seed_i, (A, F, corner), got in zip(seeds, perturbed,
                                           solve_jobs(inner, p, q, seeds, opts=opts)):
        if isinstance(got, Rejection):
            failures.append((seed_i, f"corner solve rejected: best "
                                     f"{got.best_residual:.3e}"))
            continue
        lifted = compose_certificate(add_tuples(A, F), corner, got)
        if not lifted.residual <= opts.accept_tol:
            failures.append((seed_i, f"perturbed residual {lifted.residual:.3e}"))
    return SuiteReport(suite="perturbation-equivalence", trials=trials, failures=tuple(failures),
                       tolerances={"m": m, "n": n, "p": p, "q": q, "rank": rank,
                                   "accept_tol": opts.accept_tol})
