"""End-to-end tests of the command line interface.

Every invocation goes through matrange.cli.main(argv) in-process, so exit
codes and emitted documents are checked without spawning subprocesses.
"""

import argparse
import ast
import dataclasses
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrange.cli as cli
from matrange.cli import COMMANDS, build_parser, main, parse_args
from matrange.constructions import annihilating_corner, deflated_solve
from matrange.feasibility import (
    Certificate,
    CertificateError,
    Rejection,
    SolverOptions,
    solve_free,
)
from matrange.io import canonical_dumps, load_certificate, report_doc, save_tuple
from matrange.linalg import HermitianTuple, compress
from matrange.ranges import hermitian_embed
from matrange.verify import (
    SuiteReport,
    pauli_tuple,
    random_finite_rank_tuple,
    random_hermitian_tuple,
)


def gue(m, n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return HermitianTuple((G + np.conj(np.transpose(G, (0, 2, 1)))) / (2 * np.sqrt(n)))


@pytest.fixture
def diag12(tmp_path):
    path = tmp_path / "diag12.json"
    save_tuple(HermitianTuple(np.diag(np.arange(1.0, 13.0))[None]), path)
    return str(path)


@pytest.fixture
def diag9(tmp_path):
    path = tmp_path / "diag9.json"
    save_tuple(HermitianTuple(np.diag(np.arange(1.0, 10.0))[None]), path)
    return str(path)


@pytest.fixture
def pair10(tmp_path):
    path = tmp_path / "pair10.json"
    save_tuple(gue(2, 10, 5), path)
    return str(path)


@pytest.fixture
def shown_warnings():
    """Show every warning on stderr through warnings.formatwarning, as
    Python's default display does (pytest records them instead)."""
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


@pytest.fixture
def pauli_file(tmp_path):
    path = tmp_path / "pauli.json"
    save_tuple(pauli_tuple(), path)
    return str(path)


# ---------------------------------------------------------------------------
# compute numrange


class TestNumrange:
    def test_boundary_doc(self, tmp_path):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        src = tmp_path / "m.json"
        save_tuple((M,), src)
        out = tmp_path / "bd.json"
        rc = main(["compute", "numrange", "--input", str(src),
                   "--angles", "64", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "numrange-boundary"
        assert len(doc["angles"]) == 64
        assert len(doc["support"]) == 64
        # every vertex satisfies all the supporting half-planes it came from
        verts = np.array([complex(x, y) for x, y in doc["vertices"]])
        for theta, s in zip(doc["angles"], doc["support"]):
            assert np.max((np.exp(-1j * theta) * verts).real) <= s + 1e-9

    def test_svg_written(self, tmp_path):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        src = tmp_path / "m.json"
        save_tuple((M,), src)
        svg = tmp_path / "bd.svg"
        rc = main(["compute", "numrange", "--input", str(src),
                   "--angles", "32", "--svg", str(svg),
                   "--out", str(tmp_path / "bd.json")])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_identity_degenerates_to_point(self, tmp_path):
        src = tmp_path / "eye.json"
        save_tuple(HermitianTuple(np.eye(3)[None]), src)
        svg = tmp_path / "bd.svg"
        out = tmp_path / "bd.json"
        rc = main(["compute", "numrange", "--input", str(src),
                   "--svg", str(svg), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["degenerate"] == "point"
        assert all(abs(x - 1.0) < 1e-12 and abs(y) < 1e-12
                   for x, y in doc["vertices"])
        assert "circle" in svg.read_text()

    def test_flagged_pair_is_a1_plus_i_a2(self, tmp_path, pair10):
        # W(T) of T = A_1 + i A_2 is the joint range of the pair (A_1, A_2):
        # the pair's document is bit for bit that of T saved unflagged
        A = gue(2, 10, 5).mats
        T = tmp_path / "t.json"
        save_tuple([A[0] + 1j * A[1]], T)
        outs = [tmp_path / "pair.json", tmp_path / "t.out"]
        for path, out in zip((pair10, T), outs):
            assert main(["compute", "numrange", "--input", str(path), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_rejects_tuple_of_two(self, tmp_path, capsys):
        # an unflagged pair holds two complex matrices, and a flagged triple
        # is more than a pair: neither names one matrix T
        rng = np.random.default_rng(2)
        pair, triple = tmp_path / "pair.json", tmp_path / "triple.json"
        save_tuple(list(rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))),
                   pair)
        save_tuple(gue(3, 4, 1), triple)
        for path in (pair, triple):
            out = tmp_path / "bd.json"
            assert main(["compute", "numrange", "--input", str(path), "--out", str(out)]) == 3
            assert not out.exists()
            assert "one complex matrix or a Hermitian pair" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample pq


class TestSamplePQ:
    def test_rank_two_diagonal(self, tmp_path):
        src = tmp_path / "d4.json"
        save_tuple(HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0])[None]), src)
        out = tmp_path / "cloud.json"
        rc = main(["sample", "pq", "--input", str(src), "--p", "2", "--q", "1",
                   "--count", "8", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "cloud"
        assert len(doc["points"]) == 8
        assert len(doc["certificates"]) == 8
        # rank-2 range of diag(1,2,3,4) is [2, 3]
        for pt in doc["points"]:
            assert 2.0 - 1e-6 <= pt[0] <= 3.0 + 1e-6

    def test_embed_flag_for_non_hermitian(self, tmp_path):
        rng = np.random.default_rng(9)
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        src = tmp_path / "t.json"
        save_tuple((T,), src)
        flagged = tmp_path / "h.json"
        save_tuple(hermitian_embed(T[None]), flagged)

        def sample(path, out, *extra):
            return main(["sample", "pq", "--input", str(path), "--p", "1", "--q", "1",
                         "--count", "4", "--out", str(out), *extra])

        # the file's flag decides: an unflagged tuple is read as its
        # embedding, which splits T into two Hermitian members, so it writes
        # the bytes of the embedded tuple saved flagged
        out, ref = tmp_path / "c.json", tmp_path / "h.out"
        assert sample(src, out) == 0 and sample(flagged, ref) == 0
        assert all(len(pt) == 2 for pt in json.loads(out.read_text())["points"])
        assert out.read_bytes() == ref.read_bytes()
        out.unlink()
        assert sample(src, out, "--embed") == 2
        assert not out.exists()

    @settings(max_examples=10, deadline=None)
    @given(m=st.integers(1, 2), n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_unflagged_file_reads_as_its_flagged_embedding(self, m, n, seed, scale):
        rng = np.random.default_rng(seed)
        T = scale * (rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        with tempfile.TemporaryDirectory() as tmp:
            src, flagged = Path(tmp, "t.json"), Path(tmp, "h.json")
            save_tuple(list(T), src)
            save_tuple(hermitian_embed(T), flagged)
            assert json.loads(src.read_text())["hermitian"] is False
            for command in (["sample", "pq", "--count", "2"],
                            ["construct", "segment", "--restarts", "4"]):
                got = []
                for path in (src, flagged):
                    out = Path(tmp, "out.json")
                    rc = main([*command, "--input", str(path), "--p", "1", "--q", "1",
                               "--seed", str(seed % 1000), "--out", str(out)])
                    got.append((rc, out.read_bytes() if out.exists() else None))
                    out.unlink(missing_ok=True)
                assert got[0] == got[1], command

    def test_structural_infeasibility(self, tmp_path, diag9):
        rc = main(["sample", "pq", "--input", diag9, "--p", "5", "--q", "2",
                   "--count", "2", "--out", str(tmp_path / "c.json")])
        assert rc == 3


# ---------------------------------------------------------------------------
# construct


class TestConstruct:
    def test_star_center_scalar(self, tmp_path, diag9):
        out = tmp_path / "sc.json"
        rc = main(["construct", "star-center", "--input", diag9,
                   "--p", "1", "--q", "1", "--restarts", "8",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "star-center"
        assert doc["style"] == "scalar"
        assert doc["level"] == 3
        center = doc["certificate"]["point"][0][0][0][0]
        # rank-3 range of diag(1..9) is [3, 7]
        assert 3.0 - 1e-6 <= center <= 7.0 + 1e-6
        assert doc["restricted"]["p"] == 1

    def test_star_center_complex_planted(self, tmp_path):
        # T = (1.5 - 0.5i) I_4 (+) J, written unflagged, is solved as its
        # embedded pair; one restart certifies only because the polish's rank
        # cut drops its degenerate system's rounding noise, and numpy alone
        # rechecks the witness against ((T + T*)/2, (T - T*)/2i)
        rng = np.random.default_rng(57)
        T = np.zeros((8, 8), dtype=complex)
        T[:4, :4] = (1.5 - 0.5j) * np.eye(4)
        T[4:, 4:] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        src, out = tmp_path / "T.json", tmp_path / "sc.json"
        save_tuple(T[None], src)
        with pytest.warns(UserWarning, match="below the star-center guarantee"):
            rc = main(["construct", "star-center", "--input", str(src), "--p", "1",
                       "--q", "1", "--restarts", "1", "--out", str(out)])
        assert rc == 0
        cert = json.loads(out.read_text())["certificate"]
        X = np.array(cert["witness"]) @ [1, 1j]
        B = np.array(cert["point"]) @ [1, 1j]
        A = np.array([T + np.conj(T.T), (T - np.conj(T.T)) / 1j]) / 2
        E = np.conj(X.T) @ A @ X - [np.kron(np.eye(cert["p"]), b) for b in B]
        assert np.linalg.norm(E) <= 1e-8
        assert np.linalg.norm(np.conj(X.T) @ X - np.eye(X.shape[1])) <= cert["witness_tol"]

    def test_star_center_rejection(self, tmp_path, pauli_file):
        # sigma_j (x) I_3 admits no scalar compression at level 5
        P = pauli_tuple()
        padded = HermitianTuple(np.stack([np.kron(P.mats[j], np.eye(3))
                                          for j in range(3)]))
        src = tmp_path / "padded.json"
        save_tuple(padded, src)
        out = tmp_path / "sc.json"
        with pytest.warns(UserWarning, match="below the star-center guarantee"):
            rc = main(["construct", "star-center", "--input", str(src),
                       "--p", "1", "--q", "1", "--restarts", "6",
                       "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rejection"
        assert doc["best_residual"] > 0.5
        assert doc["restarts"] == 6

    @pytest.mark.parametrize("argv", [
        # the first of the segment's two solves
        ["construct", "segment", "--p", "1", "--q", "1"],
        ["construct", "star-center", "--matrix", "--p", "1", "--q", "1"],
    ], ids=["segment", "star-center-matrix"])
    def test_solve_rejection_has_no_stage(self, tmp_path, pair10, argv):
        # no block certifies at accept-tol 1e-300; a plain solve's rejection
        # names no construction stage
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            # pair10 is below the matrix-center guarantee
            warnings.simplefilter("ignore", UserWarning)
            rc = main(argv + ["--input", pair10, "--accept-tol", "1e-300",
                              "--restarts", "1", "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["best_residual", "kind", "message", "restarts"]
        assert doc["kind"] == "rejection" and doc["restarts"] == 1
        assert doc["best_residual"] > 1e-300

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_second_solve_rejection(self, tmp_path, seed):
        # the first solve certifies and the deflated second one rejects; its
        # rejection is written as a plain solve's, without a stage
        A = random_hermitian_tuple(2, 8, 0)
        src, out = tmp_path / "g.json", tmp_path / "r.json"
        save_tuple(A, src)
        rc = main(["construct", "segment", "--input", str(src), "--p", "2", "--q", "1",
                   "--restarts", "2", "--seed", str(seed), "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["best_residual", "kind", "message", "restarts"]
        opts = SolverOptions(max_restarts=2, seed=seed)
        first = solve_free(A, 2, 1, opts)
        assert isinstance(first, Certificate)
        second = deflated_solve(A, [first], 2, 1, opts.replace(seed=seed + 1))
        assert isinstance(second, Rejection)
        assert (doc["best_residual"], doc["restarts"]) == (second.best_residual, 2)

    def test_star_center_rejection_overflowing_tuple(self, tmp_path):
        # every restart overflows, so the best residual is not finite: it is
        # written as null and the command still exits with the rejection code
        src = tmp_path / "huge.json"
        save_tuple(np.full((1, 3, 3), 1e308), src)
        out = tmp_path / "sc.json"
        with np.errstate(all="ignore"), \
                pytest.warns(UserWarning, match="below the star-center guarantee"):
            rc = main(["construct", "star-center", "--input", str(src),
                       "--p", "1", "--q", "1", "--restarts", "2", "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rejection"
        assert doc["best_residual"] is None
        assert doc["restarts"] == 2

    def test_overflowing_tuple_writes_no_numpy_warnings(self, tmp_path, capsys,
                                                       shown_warnings):
        # the overflow is reported through the residuals, and only the
        # star-center guarantee warning reaches stderr
        src = tmp_path / "huge.json"
        save_tuple(np.full((1, 3, 3), 1e308), src)
        rc_center = main(["construct", "star-center", "--input", str(src),
                          "--p", "1", "--q", "1", "--restarts", "2",
                          "--out", str(tmp_path / "sc.json")])
        rc_sample = main(["sample", "pq", "--input", str(src), "--p", "1", "--q", "1",
                          "--count", "2", "--out", str(tmp_path / "cloud.json")])
        assert (rc_center, rc_sample) == (4, 0)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "below the star-center guarantee" in err[0]

    def test_warning_is_one_line(self, tmp_path, capsys, shown_warnings, pair10):
        # below the dimension guarantee the warning is one line of its own,
        # without the library's or the command line's source
        out = tmp_path / "sc.json"
        rc = main(["construct", "star-center", "--matrix", "--input", pair10,
                   "--p", "1", "--q", "1", "--out", str(out)])
        assert rc == 0 and json.loads(out.read_text())["kind"] == "star-center"
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cli.py" not in err
        assert err.startswith("warning: dimension 10 is below the matrix-center guarantee 27;")

    def test_segment(self, tmp_path, pair10):
        out = tmp_path / "seg.json"
        rc = main(["construct", "segment", "--input", pair10, "--p", "1",
                   "--q", "1", "--t", "0.25", "--restarts", "8",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "segment"
        assert doc["t"] == 0.25
        assert len(doc["endpoints"]) == 2
        assert doc["certificate"]["residual"] <= 1e-8
        # the certified point is t*first + (1-t)*second
        mid = doc["certificate"]["point"][0][0][0][0]
        a = doc["endpoints"][0]["point"][0][0][0][0]
        b = doc["endpoints"][1]["point"][0][0][0][0]
        assert abs(mid - (0.25 * a + 0.75 * b)) <= 1e-7

    def test_tverberg(self, tmp_path, diag12):
        out = tmp_path / "tv.json"
        rc = main(["construct", "tverberg", "--input", diag12, "--p", "2",
                   "--q", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "tverberg-lift"
        assert doc["d"] == 3
        assert doc["partitions_scanned"] <= 3
        assert len(doc["parts"]) == 2
        assert doc["certificate"]["p"] == 2
        value = doc["certificate"]["point"][0][0][0][0]
        assert 2.0 - 1e-6 <= value <= 11.0 + 1e-6

    def test_tverberg_rereads_a_rewritten_input(self, tmp_path):
        # one process, one path, two contents: the second lift answers for
        # the second tuple, not for a remembered first one
        src, out, cert = tmp_path / "pair.json", tmp_path / "tv.json", tmp_path / "cert.json"
        old, new = gue(2, 10, 5), gue(2, 10, 6)
        for A in (old, new):
            save_tuple(A, src)
            rc = main(["construct", "tverberg", "--input", str(src), "--p", "2", "--q", "1",
                       "--out", str(out)])
            assert rc == 0
        cert.write_text(canonical_dumps(json.loads(out.read_text())["certificate"]))
        load_certificate(cert, new)
        with pytest.raises(CertificateError):
            load_certificate(cert, old)

    def test_essential(self, tmp_path, diag12):
        out = tmp_path / "ess.json"
        rc = main(["construct", "essential", "--input", diag12, "--q", "1",
                   "--r-max", "1", "--n-free", "2",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "essential-estimate"
        assert "interval" in doc
        lo, hi = doc["interval"]
        assert 1.0 - 1e-6 <= lo <= hi <= 12.0 + 1e-6


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_star_planted_passes(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "star-planted", "--m", "2", "--blocks", "3",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "report"
        assert doc["passes"] == doc["trials"]

    def test_star_needs_a_source(self, tmp_path):
        rc = main(["verify", "star", "--out", str(tmp_path / "r.json")])
        assert rc == 2

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "star-planted", "--input", "{missing}"], "--input"),
        (["verify", "star-planted", "--embed"], "--embed"),
        (["verify", "pauli", "--input", "{missing}"], "--input"),
        (["verify", "pauli", "--embed"], "--embed"),
        (["verify", "star-planted", "--points", "1"], "--points"),
        (["verify", "star-planted", "--restarts", "1"], "--restarts"),
        (["verify", "pauli", "--p", "3"], "--p"),
        (["verify", "pauli", "--q", "3"], "--q"),
        (["verify", "pauli", "--pairs", "1"], "--pairs"),
        (["verify", "star", "--input", "{missing}", "--m", "2"], "--m"),
        (["verify", "convexity", "--input", "{missing}", "--floor", "0.1"], "--floor"),
        (["verify", "star-planted", "--accept-tol", "1e-300"], "--accept-tol"),
        (["verify", "star", "--input", "{missing}", "--blocks", "3"], "--blocks"),
        *(([*command, "--embed"], "--embed") for command in (
            ["compute", "numrange", "--input", "{missing}"],
            ["sample", "pq", "--input", "{missing}", "--p", "1", "--q", "1"],
            ["construct", "star-center", "--input", "{missing}", "--p", "1", "--q", "1"],
            ["construct", "segment", "--input", "{missing}", "--p", "1", "--q", "1"],
            ["construct", "tverberg", "--input", "{missing}", "--p", "1", "--q", "1"],
            ["construct", "essential", "--input", "{missing}", "--q", "1", "--r-max", "1"],
            ["verify", "star", "--input", "{missing}"],
            ["verify", "bounds", "--m", "1", "--k", "1"],
            ["verify", "inclusions"],
            ["verify", "convexity", "--input", "{missing}"],
            ["verify", "perturbation"],
        )),
        # the Pauli suite proves its exclusion, runs no solver and draws no
        # random numbers
        (["verify", "pauli", "--accept-tol", "1e-8"], "--accept-tol"),
        (["verify", "pauli", "--restarts", "3"], "--restarts"),
        (["verify", "pauli", "--floor", "0.5"], "--floor"),
        (["verify", "pauli", "--floor", "nan"], "--floor"),
        (["verify", "pauli", "--floor", "inf"], "--floor"),
        (["verify", "pauli", "--seed", "-1"], "--seed"),
    ])
    def test_mode_refuses_input_flags(self, tmp_path, capsys, argv, flag):
        # a suite that builds its own tuple is a command of its own, so a flag
        # that only another suite reads is refused before any work; no
        # command takes --embed, since the tuple file's flag decides
        out = tmp_path / "r.json"
        argv = [a.format(missing=tmp_path / "missing.json") for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.split(": unrecognized arguments: ")[1].split()[0] == flag
        assert not out.exists()

    def test_star_input_without_center_is_a_rejection(self, tmp_path):
        # at accept-tol 1e-300 no star center certifies
        src = tmp_path / "g.json"
        save_tuple(gue(2, 16, 7), src)
        out = tmp_path / "r.json"
        with pytest.warns(UserWarning, match="below the star-center guarantee"):
            rc = main(["verify", "star", "--input", str(src), "--p", "1", "--q", "1",
                       "--points", "2", "--restarts", "2", "--accept-tol", "1e-300",
                       "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rejection"
        assert doc["restarts"] == 2 and doc["best_residual"] > 1e-300

    @pytest.mark.parametrize("argv, seeds, instance, message", [
        (["bounds", "--m", "2", "--k", "2", "--trials", "2"], [1009, 2018],
         lambda s: (random_hermitian_tuple(2, 9, s), 2),
         "best residual {:.3e} after 1 restarts"),
        (["inclusions", "--trials", "1", "--corners", "1"], [7717],
         lambda s: (random_hermitian_tuple(2, 18, s), 3),
         "base solve rejected, corner 0 skipped"),
        (["perturbation", "--trials", "1"], [4409],
         lambda s: (compress(random_hermitian_tuple(2, 16, s),
                             annihilating_corner(random_finite_rank_tuple(2, 16, 2, s + 1))), 1),
         "corner solve rejected: best {:.3e}"),
    ], ids=["bounds", "inclusions", "perturbation"])
    def test_suite_failures_keyed_by_replaying_seed(self, tmp_path, argv, seeds,
                                                    instance, message):
        # at accept-tol 1e-300 every solve rejects; each failure is keyed by
        # the seed whose (tuple, p) instance and solve, rerun alone, reject
        # with the same message
        out = tmp_path / "r.json"
        rc = main(["verify", *argv, "--accept-tol", "1e-300", "--restarts", "1",
                   "--threshold", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passes"] == 0
        expected = []
        for seed in seeds:
            A, p = instance(seed)
            got = solve_free(A, p, 1, SolverOptions(accept_tol=1e-300, max_restarts=1,
                                                    seed=seed))
            assert isinstance(got, Rejection)
            expected.append([seed, message.format(got.best_residual)])
        assert doc["failures"] == expected

    def test_pauli_failure_when_origin_is_in_range(self, tmp_path, monkeypatch):
        # (sx, sy, 0) has the unit disk as its range, so the origin's margin
        # is 0 and the one trial fails, keyed 0
        P = pauli_tuple().mats
        monkeypatch.setattr("matrange.verify.pauli_tuple",
                            lambda: HermitianTuple(np.stack([P[0], P[1], 0 * P[2]])))
        out = tmp_path / "r.json"
        rc = main(["verify", "pauli", "--out", str(out)])
        assert rc == 5
        doc = json.loads(out.read_text())
        assert (doc["trials"], doc["passes"]) == (1, 0)
        ((key, margin),) = doc["failures"]
        assert key == 0
        assert margin.startswith("origin not excluded: margin ")
        assert abs(float(margin.rsplit(" ", 1)[1])) <= 1e-12

    def test_bounds(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "bounds", "--m", "1", "--k", "2", "--trials", "3",
                   "--restarts", "8", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passes"] == 3

    def test_inclusions(self, tmp_path):
        rc = main(["verify", "inclusions", "--m", "1", "--n", "8", "--p", "2",
                   "--q", "1", "--r", "1", "--trials", "2", "--corners", "2",
                   "--restarts", "8", "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_perturbation(self, tmp_path):
        rc = main(["verify", "perturbation", "--n", "8", "--trials", "2",
                   "--restarts", "8", "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_convexity_needs_a_source(self, tmp_path):
        rc = main(["verify", "convexity", "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_convexity_pauli_ensemble(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "pauli", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passes"] == 1

    def test_convexity_failure_exit_code(self, tmp_path, pauli_file):
        # midpoints of sphere points are interior, so membership must fail
        out = tmp_path / "r.json"
        rc = main(["verify", "convexity", "--input", pauli_file,
                   "--p", "1", "--q", "1", "--pairs", "3", "--restarts", "5",
                   "--out", str(out)])
        assert rc == 5
        doc = json.loads(out.read_text())
        assert doc["passes"] == 0
        assert len(doc["failures"]) == 3

    def test_convexity_without_certified_samples_fails(self, tmp_path, pair10):
        # no sample certifies at accept-tol 1e-300: both requested pairs fail
        out = tmp_path / "r.json"
        rc = main(["verify", "convexity", "--input", pair10, "--p", "1", "--q", "1",
                   "--pairs", "2", "--restarts", "2", "--accept-tol", "1e-300",
                   "--out", str(out)])
        assert rc == 5
        doc = json.loads(out.read_text())
        assert (doc["trials"], doc["passes"]) == (2, 0)
        assert [msg for _, msg in doc["failures"]] == [
            "pair 0-1: 0 of 4 samples certified", "pair 2-3: 0 of 4 samples certified"]


# ---------------------------------------------------------------------------
# error handling


class TestErrors:
    def test_missing_file(self, tmp_path):
        rc = main(["compute", "numrange", "--input", str(tmp_path / "no.json"),
                   "--out", str(tmp_path / "bd.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag,verb", [("--input", "read"), ("--out", "write")])
    def test_directory_path(self, tmp_path, capsys, diag9, flag, verb):
        args = {"--input": diag9, "--out": str(tmp_path / "bd.json")}
        args[flag] = str(tmp_path)
        rc = main(["compute", "numrange", *(a for kv in args.items() for a in kv)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot {verb} {tmp_path}: ")

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_in_missing_directory(self, tmp_path, capsys, diag9, flag):
        out = tmp_path / "no" / "bd"
        args = {"--input": diag9, "--out": str(tmp_path / "bd.json"), flag: str(out)}
        rc = main(["compute", "numrange", *(a for kv in args.items() for a in kv)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("bad", ["--out", "--svg"])
    def test_failed_write_leaves_no_output(self, tmp_path, diag9, bad):
        paths = {"--out": tmp_path / "bd.json", "--svg": tmp_path / "bd.svg"}
        paths[bad] = tmp_path / "no" / "x"
        rc = main(["compute", "numrange", "--input", diag9,
                   *(a for kv in paths.items() for a in map(str, kv))])
        assert rc == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diag9.json"]

    def test_non_utf8_file(self, tmp_path, capsys):
        src = tmp_path / "latin1.json"
        src.write_bytes(b'{"schema_version":"1","kind":"tupl\xe9"}\n')
        rc = main(["compute", "numrange", "--input", str(src),
                   "--out", str(tmp_path / "bd.json")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: not UTF-8 text: invalid continuation byte (byte 34)\n"

    def test_corrupt_json(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{oops")
        rc = main(["compute", "numrange", "--input", str(src),
                   "--out", str(tmp_path / "bd.json")])
        assert rc == 2

    def test_wrong_document_kind(self, tmp_path):
        src = tmp_path / "report.json"
        src.write_text(canonical_dumps(report_doc(
            SuiteReport(suite="s", trials=1, failures=(), tolerances={}))))
        rc = main(["compute", "numrange", "--input", str(src),
                   "--out", str(tmp_path / "bd.json")])
        assert rc == 2

    @pytest.mark.parametrize("op", [["compute", "numrange"],
                                    ["sample", "pq", "--p", "1", "--q", "1"]])
    def test_malformed_tuple_file(self, tmp_path, capsys, op):
        src, out = tmp_path / "t.json", tmp_path / "o.json"
        for matrices, message in (
                ("5", "matrices must be a list"),
                # a boolean among numbers would read as 0 or 1
                ("[[[[true,0]]]]", "entries must be [re, im] pairs"),
                ("[[[[true,0.5]]]]", "entries must be [re, im] pairs"),
                # rows of different lengths
                ("[[[[1,0]],[[1,0],[0,0]]]]", "entries must be [re, im] pairs"),
                # m = n = 1 in the header
                ("[[[[1,0]]],[[[2,0]]]]", "list of m = 1 matrices, found 2"),
                ("[[[[1,0],[0,0]],[[0,0],[1,0]]]]", "shape (2, 2), expected (1, 1)"),
                # valid JSON that Python will not build
                ("[" * 100_000 + "]" * 100_000, "nested past Python's recursion limit"),
                ("1" + "0" * 5000, "integer literal with more digits")):
            src.write_text('{"schema_version":"1","kind":"tuple","m":1,"n":1,'
                           f'"hermitian":true,"matrices":{matrices}}}\n')
            rc = main(op + ["--input", str(src), "--out", str(out)])
            assert rc == 2, matrices
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err
            assert not out.exists()

    def test_tuple_file_not_an_object(self, tmp_path, capsys):
        src, out = tmp_path / "t.json", tmp_path / "o.json"
        src.write_text("[1]\n")
        rc = main(["sample", "pq", "--input", str(src), "--p", "1", "--q", "1",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: expected a JSON object, got list\n"
        assert not out.exists()

    def test_tverberg_assembled_lift_above_accept_tol(self, tmp_path):
        # at norm 1e8 every block passes but the assembled lift does not; the
        # rejection names stage d = 4, the assembly
        src, out = tmp_path / "big.json", tmp_path / "tv.json"
        save_tuple(HermitianTuple(1e8 * random_hermitian_tuple(2, 40, 1).mats), src)
        rc = main(["construct", "tverberg", "--input", str(src), "--p", "2", "--q", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 4
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rejection" and doc["stage"] == 4
        assert doc["best_residual"] > 1e-8

    def test_essential_without_a_level_one_point(self, tmp_path, capsys):
        # at norm 1e13 level 1 certifies no support point: a rejection at
        # stage 1, not a traceback
        src, out = tmp_path / "big.json", tmp_path / "ess.json"
        save_tuple(HermitianTuple(1e13 * random_hermitian_tuple(2, 8, 0).mats), src)
        rc = main(["construct", "essential", "--input", str(src), "--q", "1",
                   "--r-max", "1", "--n-free", "0", "--n-dirs", "4",
                   "--out", str(out)])
        assert rc == 4
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["kind"] == "rejection" and doc["stage"] == 1
        assert doc["best_residual"] is None

    @pytest.mark.parametrize("argv", [
        ["sample", "pq", "--input", "{pair}", "--p", "1", "--q", "1"],
        ["construct", "segment", "--input", "{pair}", "--p", "1", "--q", "1"],
        ["verify", "bounds", "--m", "1", "--k", "2", "--trials", "3"],
    ], ids=["sample-pq", "segment", "bounds"])
    def test_huge_accept_tol_ends_in_an_exit_code(self, tmp_path, capsys, pair10, argv):
        # a finite --accept-tol whose square overflows is valid: the solver's
        # stopping threshold saturates at inf instead of raising
        rc = main([a.format(pair=pair10) for a in argv] + ["--accept-tol", "1e200"])
        assert rc in (0, 3, 4, 5)
        assert "Traceback" not in capsys.readouterr().err

    def test_tverberg_exchange_cap(self, tmp_path, capsys, monkeypatch, diag12):
        # a p = 3 lift needs at least one colorful exchange
        monkeypatch.setattr("matrange.tverberg.EXCHANGE_CAP", 0)
        out = tmp_path / "tv.json"
        rc = main(["construct", "tverberg", "--input", diag12, "--p", "3", "--q", "1",
                   "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap of 0 exchanges" in err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--restarts", "0"],
        ["sample", "pq", "--input", "{pair}", "--p", "0", "--q", "1"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "0"],
        ["construct", "essential", "--input", "{pair}", "--q", "1", "--r-max", "0"],
        ["construct", "essential", "--input", "{pair}", "--q", "1", "--r-max", "1",
         "--n-dirs", "0"],
        ["verify", "bounds", "--m", "2", "--k", "2", "--threshold", "1.5"],
        ["verify", "bounds", "--m", "2", "--k", "2", "--threshold", "-0.1"],
        ["verify", "star-planted", "--blocks", "0"],
        ["verify", "star-planted", "--blocks", "1"],
        ["verify", "star", "--input", "{pair}", "--points", "0"],
        ["verify", "bounds", "--m", "2", "--k", "2", "--trials", "0"],
        ["verify", "inclusions", "--trials", "0"],
        ["verify", "inclusions", "--corners", "0"],
        ["verify", "convexity", "--input", "{pair}", "--pairs", "0"],
        ["verify", "perturbation", "--trials", "0"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--count", "0"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--count", "-1"],
        ["construct", "essential", "--input", "{pair}", "--q", "1", "--r-max", "1",
         "--n-free", "-3"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--threads", "2"],
        ["verify", "bounds", "--m", "1", "--k", "0", "--trials", "1"],
        ["verify", "bounds", "--m", "-1", "--k", "2", "--trials", "1"],
        ["verify", "perturbation", "--rank", "0", "--trials", "1"],
        ["verify", "perturbation", "--rank", "-1", "--trials", "1"],
        ["verify", "inclusions", "--r", "0", "--trials", "1"],
        ["verify", "perturbation", "--n", "0", "--trials", "1"],
        ["verify", "inclusions", "--n", "0", "--trials", "1"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--accept-tol", "nan"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--accept-tol", "-1"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--accept-tol", "inf"],
        ["verify", "pauli", "--threshold", "nan"],
        ["verify", "star-planted", "--m", "-1"],
        ["verify", "star-planted", "--m", "0"],
        ["verify", "inclusions", "--m", "-1", "--n", "8", "--trials", "1"],
        ["verify", "inclusions", "--m", "0", "--n", "8", "--trials", "1"],
        ["verify", "perturbation", "--m", "-1", "--trials", "1"],
        ["verify", "perturbation", "--m", "0", "--trials", "1"],
        ["construct", "segment", "--input", "{pair}", "--p", "1", "--q", "1", "--t", "1.5"],
        ["construct", "segment", "--input", "{pair}", "--p", "1", "--q", "1", "--t", "nan"],
        ["compute", "numrange", "--input", "{pair}", "--angles", "0"],
        ["compute", "numrange", "--input", "{pair}", "--angles", "2"],
        ["construct", "star-center", "--input", "{pair}", "--p", "1", "--q", "1", "--seed", "-5"],
        ["sample", "pq", "--input", "{pair}", "--p", "2", "--q", "1", "--seed", "-1"],
        # flags a command never reads are not parsed
        ["compute", "numrange", "--input", "{pair}", "--seed", "0"],
        ["construct", "tverberg", "--input", "{pair}", "--p", "2", "--q", "1",
         "--restarts", "8"],
        ["construct", "essential", "--input", "{pair}", "--q", "1", "--r-max", "1",
         "--restarts", "3"],
    ])
    def test_invalid_argument_exit_code(self, tmp_path, capsys, argv):
        path = tmp_path / "pair8.json"
        save_tuple(gue(2, 8, 11), path)
        out = tmp_path / "out.json"
        rc = main([a.replace("{pair}", str(path)) for a in argv] + ["--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


# ---------------------------------------------------------------------------
# parsers


def minimal_argv(group, op):
    """The command with "1" for each of its required flags."""
    _, specs = COMMANDS[group][op]
    return [group, op] + [a for flag, kw in specs if kw.get("required")
                          for a in (flag, "1")]


ENTRIES = [(group, op) for group, ops in COMMANDS.items() for op in ops]
CLI_FUNCTIONS = {node.name: node for node in ast.parse(Path(cli.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef)}


def args_reads(name, seen=()) -> set:
    """The attributes that cli function `name` reads off args, with those of
    every cli function it passes args to."""
    reads = set()
    for node in ast.walk(CLI_FUNCTIONS[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in CLI_FUNCTIONS
              and node.func.id not in seen + (name,)
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            reads |= args_reads(node.func.id, seen + (name,))
    return reads


class TestParser:
    def test_every_solver_option_is_set_by_a_command(self):
        # a SolverOptions field that no flag reaches is schedule, not an option
        args = argparse.Namespace(accept_tol=1e-6, restarts=7, seed=3)
        got, default = cli._opts(args), SolverOptions()
        for f in dataclasses.fields(SolverOptions):
            assert getattr(got, f.name) != getattr(default, f.name), f.name

    @pytest.mark.parametrize("group,op", ENTRIES)
    def test_command_parser_matches_full_tree(self, group, op):
        # compute numrange takes no --seed
        seed = ["--seed", "3"] if cli.SEED in COMMANDS[group][op][1] else []
        for argv in (minimal_argv(group, op), minimal_argv(group, op) + seed):
            assert parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("group,op", ENTRIES)
    def test_every_flag_has_a_reader(self, group, op):
        # a flag counts as read when its handler, a cli function the handler
        # passes args to, or _finish reads args.<dest>
        handler, _ = COMMANDS[group][op]
        flags = vars(parse_args(minimal_argv(group, op))).keys() - {"group", "op", "func"}
        read = args_reads(handler.__name__) | args_reads("_finish")
        assert not flags - read, f"parsed but never read: {sorted(flags - read)}"

    @pytest.mark.parametrize("group,op", ENTRIES)
    def test_command_help_matches_full_tree(self, group, op, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (parse_args, build_parser().parse_args):
            with pytest.raises(SystemExit) as exit_:
                parse([group, op, "--help"])
            assert exit_.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: matrange {group} {op} [-h]")

    def test_valid_command_builds_one_parser(self, monkeypatch, tmp_path, diag9):
        built = []

        class Counted(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counted)
        assert main(["compute", "numrange", "--input", diag9, "--angles", "8",
                     "--out", str(tmp_path / "bd.json")]) == 0
        assert built == ["matrange compute numrange"]
        built.clear()
        assert main(["sample"]) == 2
        assert len(built) == 1 + len(COMMANDS) + len(ENTRIES)

    @pytest.mark.parametrize("argv,message", [
        ([], "matrange: the following arguments are required: group"),
        (["bogus"], "matrange: argument group: invalid choice: 'bogus'"),
        (["sample"], "matrange sample: the following arguments are required: op"),
        (["sample", "bogus"], "matrange sample: argument op: invalid choice: 'bogus'"),
    ])
    def test_missing_or_unknown_command(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {message}")

    def test_unrecognized_argument_names_the_command(self, capsys, diag9):
        assert main(["sample", "pq", "--input", diag9, "--p", "1", "--q", "1",
                     "--threads", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: matrange sample pq: unrecognized arguments: --threads 2\n")

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["matrange", "sample", "bogus"])
        assert main() == 2
        assert "argument op: invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output discipline


class TestOutputs:
    def test_stdout_matches_out_file(self, tmp_path, capsys):
        src = tmp_path / "d4.json"
        save_tuple(HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0])[None]), src)
        argv = ["sample", "pq", "--input", str(src), "--p", "2", "--q", "1",
                "--count", "4"]
        out = tmp_path / "cloud.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_byte_identical_reruns(self, tmp_path, diag12, diag9, pair10,
                                   pauli_file):
        d4 = tmp_path / "d4.json"
        save_tuple(HermitianTuple(np.diag([1.0, 2.0, 3.0, 4.0])[None]), d4)
        cases = [
            ["compute", "numrange", "--input", diag9, "--angles", "64"],
            ["sample", "pq", "--input", str(d4), "--p", "2", "--q", "1",
             "--count", "6"],
            ["construct", "star-center", "--input", diag9,
             "--p", "1", "--q", "1", "--restarts", "8"],
            ["construct", "segment", "--input", pair10, "--p", "1", "--q", "1",
             "--restarts", "8"],
            ["construct", "tverberg", "--input", diag12, "--p", "2", "--q", "1"],
            ["construct", "essential", "--input", diag12, "--q", "1",
             "--r-max", "1", "--n-free", "2"],
            ["verify", "star-planted", "--m", "2", "--blocks", "3"],
            ["verify", "bounds", "--m", "1", "--k", "2", "--trials", "3",
             "--restarts", "8"],
            ["verify", "convexity", "--input", pauli_file, "--p", "1",
             "--q", "1", "--pairs", "2", "--restarts", "5"],
        ]
        for i, argv in enumerate(cases):
            f1 = tmp_path / f"run{i}_a.json"
            f2 = tmp_path / f"run{i}_b.json"
            rc1 = main(argv + ["--out", str(f1)])
            rc2 = main(argv + ["--out", str(f2)])
            assert rc1 == rc2
            assert f1.read_bytes() == f2.read_bytes(), argv

    def test_svg_byte_identical(self, tmp_path, diag9):
        svgs = []
        for name in ("a.svg", "b.svg"):
            svg = tmp_path / name
            rc = main(["compute", "numrange", "--input", diag9,
                       "--svg", str(svg), "--out", str(tmp_path / "bd.json")])
            assert rc == 0
            svgs.append(svg.read_bytes())
        assert svgs[0] == svgs[1]
