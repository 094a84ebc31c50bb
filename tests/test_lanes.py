"""The batched Stiefel engine: lanes, waves and chunks against a serial reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrange.feasibility as feasibility
from matrange.feasibility import (
    ARMIJO_INIT,
    ARMIJO_MAX_BACKTRACKS,
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    BB_MAX,
    BB_MIN,
    NONMONOTONE_ETA,
    POLISH_GATE,
    STAGNATION_REL,
    STAGNATION_WINDOW,
    SUPPORT_WINDOW,
    MatPoint,
    Rejection,
    SolverOptions,
    _descend,
    _first_success,
    _misfit,
    _polish,
    _tangent,
    _witness_columns,
    membership,
    solve_free,
    solve_jobs,
)
from matrange.linalg import HermitianTuple, Isometry, _inflate, _qr_fix, frob, random_isometry
from matrange.verify import random_hermitian_tuple


def gue(m, n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return HermitianTuple((G + np.conj(np.swapaxes(G, 1, 2))) / (2 * np.sqrt(n)))


def hermitian_blocks(m, q, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, q, q)) + 1j * rng.standard_normal((m, q, q))
    return (G + np.conj(np.swapaxes(G, 1, 2))) / 2


# ---------------------------------------------------------------------------
# serial reference: the one-lane descent and the restart-by-restart driver
# the engine replaced, kept verbatim apart from names, the polish gate and
# the stagnation windows


def serial_descend(Amats, X, p, q, opts, max_iters, target=None, direction=None, mu=0.0):
    IpU = _inflate(direction, p) if direction is not None else None

    def evaluate(X):
        AX = Amats @ X
        E, B = _misfit(np.conj(X.T) @ AX, p, q, target)
        R2 = float(np.sum(np.abs(E) ** 2))
        if direction is None:
            h = R2
        else:
            h = mu * R2 - float(np.real(np.sum(np.conj(direction) * B)))
        return h, R2, AX, E, B

    h, R2, AX, E, B = evaluate(X)
    tol2 = (0.999 * opts.accept_tol) ** 2
    C, Q = h, 1.0
    tau = ARMIJO_INIT
    hist = [h]
    for it in range(max_iters):
        if direction is None and R2 <= tol2:
            break
        if direction is None:
            G = 4.0 * np.einsum("jnk,jkl->nl", AX, E)
        else:
            G = mu * 4.0 * np.einsum("jnk,jkl->nl", AX, E) \
                - (2.0 / p) * np.einsum("jnk,jkl->nl", AX, IpU)
        Gt = _tangent(X, G)
        if it > 0:
            S, Y = X - X_prev, Gt - Gt_prev
            sy = abs(float(np.real(np.vdot(S, Y))))
            num, den = (float(np.real(np.vdot(S, S))), sy) if it % 2 == 1 \
                else (sy, float(np.real(np.vdot(Y, Y))))
            tau = min(max(num / den, BB_MIN), BB_MAX) if num > 0 and den > 0 \
                else ARMIJO_INIT
        g2 = float(np.sum(np.abs(Gt) ** 2))
        if g2 <= 1e-30:
            break
        t = tau
        for _ in range(ARMIJO_MAX_BACKTRACKS):
            Xt = _qr_fix(X - t * Gt)
            ht, R2t, AXt, Et, Bt = evaluate(Xt)
            if ht <= C - ARMIJO_SLOPE * t * g2:
                break
            t *= ARMIJO_SHRINK
        else:
            break
        X_prev, Gt_prev = X, Gt
        X, h, R2, AX, E, B = Xt, ht, R2t, AXt, Et, Bt
        Q = NONMONOTONE_ETA * Q + 1.0
        C += (h - C) / Q
        hist.append(min(hist[-1], h))
        window = STAGNATION_WINDOW if direction is None else SUPPORT_WINDOW
        if len(hist) > window:
            drop = hist[-window - 1] - hist[-1]
            limit = STAGNATION_REL * hist[-1] if direction is None \
                else 1e-13 * max(1.0, abs(hist[-1]))
            if drop < limit:
                break
    return X, B, R2


def serial_first_success(A, p, q, opts, target=None):
    """(r, X, residual) of the first restart that reaches accept_tol."""
    k = _witness_columns(A, p, q)
    best = np.inf
    for r in range(opts.max_restarts):
        X0 = feasibility.random_isometry(A.n, k, opts.seed + r)
        X, _, R2 = serial_descend(A.mats, X0.mat, p, q, opts, feasibility.MAX_ITERS,
                                  target=target)
        if opts.accept_tol < np.sqrt(R2) <= POLISH_GATE * opts.accept_tol:
            X, R2 = _polish(A.mats, X, p, q, opts, target=target)
        res = float(np.sqrt(R2))
        if res <= opts.accept_tol:
            return r, X, res
        best = min(best, res)
    return None, None, best


# ---------------------------------------------------------------------------
# lane independence


def lane_problem(seed, m, p, q, extra, lanes, mode):
    """Tuple, starts, and the keyword arguments of one descent mode."""
    n = p * q + extra
    A = gue(m, n, seed)
    X = np.stack([random_isometry(n, p * q, seed + 1 + i).mat for i in range(lanes)])
    if mode == "target":
        return A, X, dict(target=hermitian_blocks(m, q, seed + 100))
    if mode == "support":
        U = np.stack([hermitian_blocks(m, q, seed + 200 + i) for i in range(lanes)])
        return A, X, dict(direction=U, mu=1.0 / A.scale())
    return A, X, {}


def descend_lanes(A, X, p, q, iters, lanes, kw):
    """_descend on the given lanes only."""
    kw = dict(kw)
    if "direction" in kw:
        kw["direction"] = kw["direction"][lanes]
    return _descend(A.mats, X[lanes], p, q, SolverOptions(), iters, **kw)


modes = st.sampled_from(["target", "free", "support"])
shapes = dict(seed=st.integers(0, 2**31), m=st.integers(1, 2), p=st.integers(1, 3),
              q=st.integers(1, 2), extra=st.integers(0, 4), lanes=st.integers(2, 6))


@settings(max_examples=25, deadline=None)
@given(**shapes, mode=modes, iters=st.sampled_from([1, 7, 80]), data=st.data())
def test_lanes_do_not_depend_on_their_stack(seed, m, p, q, extra, lanes, mode, iters, data):
    A, X, kw = lane_problem(seed, m, p, q, extra, lanes, mode)
    whole = descend_lanes(A, X, p, q, iters, np.arange(lanes), kw)
    order = data.draw(st.permutations(range(lanes)))
    cuts = sorted(data.draw(st.sets(st.integers(1, lanes - 1))))
    groupings = [[[i] for i in range(lanes)],                      # each alone
                 np.split(np.array(order), cuts)]                   # random split
    for groups in groupings:
        for group in groups:
            part = descend_lanes(A, X, p, q, iters, np.asarray(group), kw)
            for got, want in zip(part, whole):
                assert np.array_equal(got, want[group])
    # across a chunk boundary: stacks of `size` lanes
    size = data.draw(st.integers(1, lanes - 1))
    entries = A.m * X[0].size * size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "LANE_ENTRIES", entries)
        chunked = descend_lanes(A, X, p, q, iters, np.arange(lanes), kw)
    for got, want in zip(chunked, whole):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(**shapes, mode=modes)
def test_one_step_per_lane_matches_serial_reference(seed, m, p, q, extra, lanes, mode):
    A, X, kw = lane_problem(seed, m, p, q, extra, lanes, mode)
    Xs, R2s = descend_lanes(A, X, p, q, 1, np.arange(lanes), kw)
    tol = 1e-12 * max(1.0, frob(A.mats))
    for i in range(lanes):
        one = dict(kw)
        if "direction" in one:
            one["direction"] = one["direction"][i]
        Xr, _, R2r = serial_descend(A.mats, X[i], p, q, SolverOptions(), 1, **one)
        assert np.max(np.abs(Xs[i] - Xr)) <= tol
        assert abs(R2s[i] - R2r) <= tol * max(1.0, R2r)


# ---------------------------------------------------------------------------
# restart waves


def stationary_starts(monkeypatch, n, k, bases, stuck):
    """Make restarts bases + r for r in `stuck` start on coordinate
    subspaces, exact stationary points of a diagonal tuple."""
    haar = feasibility.random_isometry

    def start(n_, k_, seed):
        for b in bases:
            if seed - b in stuck:
                r = seed - b
                return Isometry(np.eye(n_, dtype=complex)[:, r * k_:(r + 1) * k_])
        return haar(n_, k_, seed)

    monkeypatch.setattr(feasibility, "random_isometry", start)


@pytest.mark.parametrize("stuck, cap", [((0,), None), ((0, 1), None), ((0, 1, 2), None),
                                        ((0, 1, 2, 3, 4), 2)],
                         ids=["stuck0", "stuck1", "stuck2", "stuck3"])
def test_later_restart_wins_as_in_serial_reference(monkeypatch, stuck, cap):
    # diag(1, ..., 8): the scalar target 4.5 lies inside the rank-1 range,
    # but a coordinate start is an exact stationary point with residual
    # |j - 4.5| >= 0.5 that neither the descent nor the polish can leave.
    # With stacks of cap lanes the waves are [0], [1, 2], [3, 4], [5, 6], ...,
    # so the winner sits past the second wave
    A = HermitianTuple(np.diag(np.arange(1.0, 9.0)).astype(complex)[None])
    target = MatPoint.scalar([4.5], 1).blocks
    opts = SolverOptions(seed=11, max_restarts=8)
    stationary_starts(monkeypatch, 8, 1, [opts.seed], stuck)
    if cap is not None:
        monkeypatch.setattr(feasibility, "LANE_ENTRIES", A.m * A.n * cap)
    r_ref, X_ref, res_ref = serial_first_success(A, 1, 1, opts, target=target)
    [(r, X, res)] = _first_success(A, 1, 1, opts, [opts.seed], target=target)
    assert r_ref == r == len(stuck)
    assert res <= opts.accept_tol and res_ref <= opts.accept_tol
    cert = membership(A, MatPoint(target), 1, opts)
    assert cert.residual <= opts.accept_tol


def test_wave_jobs_match_one_job_at_a_time(monkeypatch):
    # jobs that share a stack of waves give what each gives alone
    A = HermitianTuple(np.diag(np.arange(1.0, 9.0)).astype(complex)[None])
    target = MatPoint.scalar([4.5], 1).blocks
    opts = SolverOptions(max_restarts=6)
    bases = [100, 200, 300]
    stationary_starts(monkeypatch, 8, 1, [100], (0, 1))
    stationary_starts(monkeypatch, 8, 1, [300], (0,))
    together = _first_success(A, 1, 1, opts, bases, target=target)
    alone = [_first_success(A, 1, 1, opts, [b], target=target)[0] for b in bases]
    assert [r for r, _, _ in together] == [2, 0, 1]
    for (r, X, res), (r1, X1, res1) in zip(together, alone):
        assert r == r1 and res == res1 and np.array_equal(X, X1)


def test_failed_job_reports_best_residual_over_all_waves():
    A = HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)[None])
    target = MatPoint.scalar([3.5], 1).blocks
    opts = SolverOptions(seed=0, max_restarts=7)  # waves of 1 and 6 lanes
    [(r, X, res)] = _first_success(A, 2, 1, opts, [opts.seed], target=target)
    r_ref, X_ref, res_ref = serial_first_success(A, 2, 1, opts, target=target)
    assert r is X is r_ref is X_ref is None
    assert res >= 0.3 and abs(res - res_ref) <= 1e-6


def test_shared_target_is_polished_against_the_target():
    # restart 1 stalls within POLISH_GATE after 20 iterations; one (m, q, q)
    # target shared by every job must polish toward that target, as a
    # per-job target does, and not in free mode
    A = random_hermitian_tuple(2, 6, 3)
    B = feasibility.certify(A, random_isometry(6, 2, 4), 2).point.blocks
    opts = SolverOptions(max_restarts=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "MAX_ITERS", 20)
        [(r, X, res)] = _first_success(A, 2, 1, opts, [0], target=B)
        [(r1, X1, res1)] = _first_success(A, 2, 1, opts, [0], target=B[None])
    assert r == r1 == 1
    assert res == pytest.approx(feasibility.certify(A, Isometry(X), 2, MatPoint(B)).residual,
                                rel=1e-9)
    assert res == res1 and np.array_equal(X, X1)


def test_waves_after_restart_zero_fill_one_stack():
    # restart 0 runs alone, then the rest of the budget in waves of one
    # stack's lanes; the second job fails every restart, so its waves read
    # [1, 19] in one stack and [1, 3, 3, 3, 3, 3, 3, 1] in stacks of 3 lanes,
    # with bitwise the same results
    A = gue(2, 6, 3)
    points = [feasibility.certify(A, random_isometry(6, 2, 4), 2).point,
              MatPoint(10.0 * np.ones((2, 1, 1)))]
    opts, cap = SolverOptions(max_restarts=20), 3
    assert feasibility._stack_lanes(A.mats, 2) >= 19  # one stack holds the rest
    widths = {}
    descend = feasibility._descend

    def spy(*args, job, **kw):
        widths[feasibility.LANE_ENTRIES].append(int(np.sum(job == 1)))
        return descend(*args, job=job, **kw)

    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "MAX_ITERS", 60)
        mp.setattr(feasibility, "_descend", spy)
        for entries in (feasibility.LANE_ENTRIES, A.m * A.n * 2 * cap):
            mp.setattr(feasibility, "LANE_ENTRIES", entries)
            widths[entries] = []
            results.append(solve_jobs(A, 2, 1, [7, 8], points, opts))
    wide, capped = widths.values()
    assert wide == [1, 19] and capped == [1, 3, 3, 3, 3, 3, 3, 1]
    assert isinstance(results[0][1], Rejection) and results[0][1] == results[1][1]
    got, want = results[1][0], results[0][0]
    assert np.array_equal(got.witness.mat, want.witness.mat) and got.residual == want.residual


def test_rejecting_membership_descends_in_two_waves(monkeypatch):
    # a point far outside the range fails all 6 restarts: restart 0 alone,
    # then restarts 1-5 as one stack, not waves of 1, 2 and 3 lanes
    A = gue(2, 6, 3)
    lanes = []
    descend = feasibility._descend

    def spy(Amats, X, *args, **kw):
        lanes.append(len(X))
        return descend(Amats, X, *args, **kw)

    monkeypatch.setattr(feasibility, "_descend", spy)
    got = membership(A, MatPoint(10.0 * np.ones((2, 1, 1))), 2, SolverOptions(max_restarts=6))
    assert isinstance(got, Rejection) and got.restarts == 6
    assert lanes == [1, 5]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(1, 2), p=st.integers(1, 2),
       q=st.integers(1, 2), extra=st.integers(0, 3), jobs=st.integers(2, 4),
       free=st.booleans(), size=st.sampled_from([None, 1, 3]))
def test_jobs_on_own_tuples_and_targets_match_each_alone(seed, m, p, q, extra, jobs,
                                                         free, size):
    # each job has its own tuple, seed and (in membership mode) target; even
    # jobs aim at a point certified by a random isometry, odd ones at random
    # blocks.  size cuts the stacks into that many lanes each
    n = p * q + extra
    tuples = [gue(m, n, seed + j) for j in range(jobs)]
    points = None if free else [
        feasibility.certify(tuples[j], random_isometry(n, p * q, seed + 50 + j), p).point
        if j % 2 == 0 else MatPoint(hermitian_blocks(m, q, seed + 100 + j))
        for j in range(jobs)]
    seeds = [seed + 1000 * j for j in range(jobs)]
    opts = SolverOptions(max_restarts=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "MAX_ITERS", 60)
        with pytest.MonkeyPatch.context() as lanes:
            if size is not None:
                lanes.setattr(feasibility, "LANE_ENTRIES", m * (n * p * q + n * n) * size)
            together = solve_jobs(tuples, p, q, seeds, points, opts)
        for j, got in enumerate(together):
            one = opts.replace(seed=seeds[j])
            alone = solve_free(tuples[j], p, q, one) if free \
                else membership(tuples[j], points[j], p, one)
            assert type(got) is type(alone)
            if isinstance(got, Rejection):
                assert got == alone
            else:
                assert np.array_equal(got.witness.mat, alone.witness.mat)
                assert np.array_equal(got.point.blocks, alone.point.blocks)
                assert got.residual == alone.residual
