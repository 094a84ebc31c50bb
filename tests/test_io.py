"""Canonical JSON round-trips and schema policing."""

import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matrange.io as mio
from matrange.feasibility import (
    Certificate,
    CertificateError,
    MatPoint,
    PointCloud,
    SolverOptions,
    sample_range,
    solve_free,
)
from matrange.io import (
    FLATTEN_TAG,
    ParseError,
    SchemaError,
    canonical_dumps,
    certificate_doc,
    cloud_doc,
    load_certificate,
    load_cloud,
    load_tuple,
    report_doc,
    save_tuple,
)
from matrange.linalg import DimensionError, HermitianTuple, Isometry, herm_eig, herm_eigvals
from matrange.ranges import hermitian_embed
from matrange.verify import SuiteReport, random_hermitian_tuple


def herm(n, seed):
    return random_hermitian_tuple(2, n, seed)


# ---------------------------------------------------------------------------
# tuples


def test_tuple_roundtrip_hermitian(tmp_path):
    A = herm(5, seed=1)
    f = tmp_path / "a.json"
    save_tuple(A, f)
    B = load_tuple(f)
    assert isinstance(B, HermitianTuple)
    assert np.array_equal(A.mats, B.mats)


def test_tuple_roundtrip_is_byte_stable(tmp_path):
    A = herm(4, seed=2)
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    save_tuple(A, f1)
    save_tuple(load_tuple(f1), f2)
    assert f1.read_bytes() == f2.read_bytes()
    # canonical form: no spaces, trailing newline
    raw = f1.read_bytes()
    assert raw.endswith(b"\n")
    assert b": " not in raw and b", " not in raw


def matrix_doc_reference(M):
    """The per-entry document builder the canonical writer must match."""
    M = np.asarray(M, dtype=complex)
    return [[[float(M[i, j].real), float(M[i, j].imag)]
             for j in range(M.shape[1])] for i in range(M.shape[0])]


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               -1.0e-310, 0.1, 1.0e300])


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
       layout=st.sampled_from(["c", "f", "strided"]), data=st.data())
def test_tuple_json_roundtrips_byte_for_byte(shape, layout, data):
    m, n = shape
    entries = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
    size = 2 * m * n * n
    vals = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
    # set parts one by one: re + 1j * im would lose the sign of a zero
    base = np.empty((m, n, n), dtype=complex)
    base.real, base.imag = vals[0::2].reshape(m, n, n), vals[1::2].reshape(m, n, n)
    if layout == "f":
        mats = [np.asfortranarray(M) for M in base]
    elif layout == "strided":
        wide = np.zeros((m, 2 * n, 3 * n), dtype=complex)
        wide[:, ::2, ::3] = base
        mats = list(wide[:, ::2, ::3])
    else:
        mats = list(base)
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_tuple(mats, f1)
        with open(f1, "rb") as fh:
            raw = fh.read()
        reference = {**json.loads(raw), "matrices": [matrix_doc_reference(M) for M in mats]}
        assert raw == canonical_dumps(reference).encode()
        back = load_tuple(f1)
        loaded = back.mats if isinstance(back, HermitianTuple) else np.stack(back)
        assert loaded.tobytes() == base.tobytes()
        save_tuple(back, f2)
        with open(f2, "rb") as fh:
            assert fh.read() == raw


def test_tuple_nonhermitian_comes_back_raw(tmp_path):
    T = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
    f = tmp_path / "t.json"
    save_tuple([T], f)
    out = load_tuple(f)
    assert isinstance(out, tuple)
    assert np.array_equal(out[0], T)
    emb = load_tuple(f, embed=True)
    assert isinstance(emb, HermitianTuple)
    assert emb.m == 2
    assert np.allclose(emb.mats[0], (T + T.conj().T) / 2)


# ||M|| overflows unless the Hermitian check scales M first, which once made
# the tolerance inf and the defect NaN
NEAR_RANGE_SKEW = np.array([[0, 1e308], [-1e308, 0]], dtype=complex)


def test_save_tuple_flags_near_range_skew_non_hermitian(tmp_path):
    f = tmp_path / "t.json"
    save_tuple([NEAR_RANGE_SKEW], f)
    assert json.loads(f.read_text())["hermitian"] is False
    out = load_tuple(f)
    assert isinstance(out, tuple) and np.array_equal(out[0], NEAR_RANGE_SKEW)


def test_load_tuple_refuses_near_range_skew_flagged_hermitian(tmp_path):
    f = tmp_path / "t.json"
    save_tuple([NEAR_RANGE_SKEW], f)
    doc = json.loads(f.read_text())
    doc["hermitian"] = True
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError, match=r"member 0 is not Hermitian: entry \(0, 1\)"):
        load_tuple(f)


def test_tuple_hermitian_flag_violation_names_entry(tmp_path):
    A = herm(3, seed=3)
    f = tmp_path / "a.json"
    save_tuple(A, f)
    doc = json.loads(f.read_text())
    doc["matrices"][1][0][2] = [99.0, 1.0]  # break Hermitian symmetry
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError, match=r"member 1 is not Hermitian: entry \(0, 2\)"):
        load_tuple(f)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), n=st.integers(2, 5),
       kind=st.sampled_from(["nan", "inf", "-inf", "asym"]), imag=st.booleans(),
       size=st.floats(1e-6, 1e3), data=st.data())
def test_every_hermitian_check_names_the_same_entry(seed, m, n, kind, imag, size, data):
    # one corrupted entry (i, k) of matrix j; an asymmetric change is measured
    # against the conjugate entry too, so it is named by its upper-triangle twin
    j = data.draw(st.integers(0, m - 1))
    i, k = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda ik: kind != "asym" or ik[0] != ik[1]))
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    A = 0.5 * (G + np.conj(G.transpose(0, 2, 1)))
    if kind == "asym":
        A[j, i, k] += size * (1j if imag else 1.0)
        want = (min(i, k), max(i, k))
    else:
        A[j, i, k] = complex(A[j, i, k].real, float(kind)) if imag else \
            complex(float(kind), A[j, i, k].imag)
        want = (i, k)

    def named(err):
        msg = str(err.value)
        assert re.search(r"(?:member|block|matrix) (\d+)", msg).group(1) == str(j), msg
        assert re.search(r"entry (?:at )?\((\d+), (\d+)\)", msg).groups() == \
            tuple(map(str, want)), msg

    for call in (HermitianTuple, MatPoint, herm_eig, herm_eigvals):
        with pytest.raises(DimensionError) as err:
            call(A)
        named(err)
    # JSON numbers cannot spell NaN, and a NaN constant is refused before any
    # matrix is read, so the file carries a non-finite entry as an overflow
    doc = {"schema_version": "1", "kind": "tuple", "m": m, "n": n, "hermitian": True,
           "matrices": np.stack([A.real, A.imag], -1).tolist()}
    text = json.dumps(doc).replace("-Infinity", "-1e999").replace("Infinity", "1e999")
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "t.json")
        with open(f, "w") as fh:
            fh.write(text.replace("NaN", "1e999"))
        with pytest.raises(SchemaError) as err:
            load_tuple(f)
        named(err)


def test_tuple_schema_errors(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"schema_version":"1","kind":"cloud"}\n')
    with pytest.raises(SchemaError, match="expected kind 'tuple'"):
        load_tuple(f)
    f.write_text('{"schema_version":"2","kind":"tuple"}\n')
    with pytest.raises(SchemaError, match="schema_version"):
        load_tuple(f)
    f.write_text('{"schema_version":"1","kind":"tuple","m":1,"n":2}\n')
    with pytest.raises(SchemaError, match="missing keys"):
        load_tuple(f)
    good = {"schema_version": "1", "kind": "tuple", "m": 1, "n": 1,
            "hermitian": True, "matrices": [[[[1.0, 0.0]]]]}
    for change, match in [({"matrices": 5}, "matrices must be a list"),
                          ({"matrices": None}, "matrices must be a list"),
                          ({"m": True}, "m must be a positive integer"),
                          ({"n": False}, "n must be a positive integer"),
                          ({"hermitian": "no"}, "hermitian flag"),
                          ({"hermitian": 1}, "hermitian flag"),
                          ({"matrices": [[[[1, 0, 7]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[["1", 0]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[[None, 0]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[[True, False]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[[True, 0]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[[True, 0.5]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[[2**70, 0]]]]}, r"\[re, im\] pairs"),
                          ({"matrices": [[[1.0, 0.0]]]}, "not a matrix")]:
        f.write_text(canonical_dumps({**good, **change}))
        with pytest.raises(SchemaError, match=match):
            load_tuple(f)


def test_booleans_among_matrix_entries_are_refused(tmp_path):
    # numpy reads [true, 0] as the pair (1, 0) and [0.5, false] as (0.5, 0)
    f = tmp_path / "t.json"
    rows = '[[[1.0,0.0],[0.5,false]],[[0.5,0.0],[2,0]]]'
    for text in ('{"schema_version":"1","kind":"tuple","m":1,"n":2,"hermitian":false,'
                 f'"matrices":[{rows}]}}\n',
                 # matrices ahead of the other keys: the text after them holds t and f anyway
                 f'{{"matrices":[{rows}],"schema_version":"1","kind":"tuple","m":1,"n":2,'
                 '"hermitian":false}\n'):
        f.write_text(text)
        with pytest.raises(SchemaError, match=r"matrix 0: entries must be \[re, im\] pairs"):
            load_tuple(f)
        f.write_text(text.replace("[0.5,false]", "[0.5,0.0]"))
        assert np.array_equal(load_tuple(f)[0], [[1.0, 0.5], [0.5, 2.0]])
    A = herm(8, seed=7)
    c = tmp_path / "c.json"
    c.write_text(canonical_dumps(certificate_doc(solve_free(A, 2, 1, SolverOptions(seed=0)))))
    good = json.loads(c.read_text())
    witness = [[list(pair) for pair in row] for row in good["witness"]]
    witness[3][1][0] = True
    point = [[[[True, 0.0]]], good["point"][1]]
    for change, match in [({"witness": witness}, r"witness: entries must be \[re, im\]"),
                          ({"point": point}, r"point block 0: entries must be \[re, im\]")]:
        c.write_text(canonical_dumps({**good, **change}))
        with pytest.raises(SchemaError, match=match):
            load_certificate(c)
    # a cloud's certificates carry witnesses too
    c.write_text(canonical_dumps(cloud_doc(sample_range(A, 1, 1, 2, SolverOptions(seed=0)))))
    cloud = json.loads(c.read_text())
    cloud["certificates"][1]["witness"][0][0] = [0.5, False]
    c.write_text(canonical_dumps(cloud))
    with pytest.raises(SchemaError, match=r"certificate 1 witness: entries must be \[re, im\]"):
        load_cloud(c)


def test_truncated_file_is_parse_error(tmp_path):
    A = herm(3, seed=4)
    f = tmp_path / "a.json"
    save_tuple(A, f)
    raw = f.read_text()
    f.write_text(raw[: len(raw) // 2])
    with pytest.raises(ParseError) as exc:
        load_tuple(f)
    assert exc.value.pos > 0


def test_parse_error_offset_counts_bytes(tmp_path):
    f = tmp_path / "a.json"
    f.write_text('{"kind":"\u00e9\u20ac" oops}', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_tuple(f)
    assert exc.value.pos == len('{"kind":"\u00e9\u20ac" '.encode("utf-8")) == 16


@pytest.mark.parametrize("at", [0, 40])
def test_non_utf8_file_is_parse_error_at_its_byte(tmp_path, at):
    f = tmp_path / "a.json"
    save_tuple(herm(3, seed=4), f)
    raw = f.read_bytes()
    f.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_tuple(f)
    assert exc.value.pos == at


def test_nonfinite_rejection_both_paths(tmp_path):
    f = tmp_path / "nan.json"
    # the JSON constant path
    f.write_text('{"schema_version":"1","kind":"tuple","m":1,"n":1,'
                 '"hermitian":true,"matrices":[[[[NaN,0.0]]]]}\n')
    with pytest.raises(SchemaError, match="non-finite"):
        load_tuple(f)
    # the overflow-to-inf path: 1e999 parses as a float but is not finite
    f.write_text('{"schema_version":"1","kind":"tuple","m":1,"n":1,'
                 '"hermitian":true,"matrices":[[[[1e999,0.0]]]]}\n')
    with pytest.raises(SchemaError, match="non-finite"):
        load_tuple(f)


def test_save_tuple_refuses_a_bare_matrix(tmp_path):
    # a plain sequence must stack to (m, n, n); one n-by-n array would
    # otherwise be written as n members of one row each
    with pytest.raises(ValueError, match="sequence of square matrices"):
        save_tuple(np.eye(3), tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


def test_save_rejects_nonfinite_values(tmp_path):
    M = np.array([[np.nan]], dtype=complex)
    with pytest.raises(ValueError):
        save_tuple([M], tmp_path / "x.json")


# ---------------------------------------------------------------------------
# the tuple cache


@pytest.fixture
def cache(monkeypatch):
    """A fresh, empty tuple cache for one test."""
    monkeypatch.setattr(mio, "_tuples", {})
    return mio._tuples


def arrays(A):
    return [A.mats] if isinstance(A, HermitianTuple) else list(A)


def cached(cache):
    """The results the cache holds, least recently used first."""
    return [A for A, _ in cache.values()]


def retained(cache):
    return sum(M.nbytes for A in cached(cache) for M in arrays(A))


def test_reload_is_the_same_object_for_the_same_bytes(tmp_path, cache):
    f, g = tmp_path / "a.json", tmp_path / "copy.json"
    save_tuple(herm(4, seed=1), f)
    A = load_tuple(f)
    assert load_tuple(f) is A
    g.write_bytes(f.read_bytes())
    assert load_tuple(g) is A
    assert len(cache) == 1


def test_same_length_rewrite_at_the_same_mtime_is_read_anew(tmp_path, cache):
    f = tmp_path / "a.json"
    save_tuple(HermitianTuple(np.diag([1.0, 3.0])[None]), f)
    assert load_tuple(f).mats[0, 0, 0] == 1.0
    before = os.stat(f)
    raw = f.read_bytes()
    f.write_bytes(raw.replace(b"[1.0,0.0]", b"[2.0,0.0]", 1))
    os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(f)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert load_tuple(f).mats[0, 0, 0] == 2.0


def test_embed_values_are_separate_entries(tmp_path, cache):
    f = tmp_path / "t.json"
    save_tuple([np.array([[1.0, 2.0j], [0.0, 1.0]])], f)
    raw, emb = load_tuple(f), load_tuple(f, embed=True)
    assert isinstance(raw, tuple) and isinstance(emb, HermitianTuple)
    assert len(cache) == 2
    assert load_tuple(f) is raw and load_tuple(f, embed=True) is emb


@pytest.mark.parametrize("order", [(False, True), (True, False)])
def test_flagged_file_is_one_entry_whatever_embed(tmp_path, cache, monkeypatch, order):
    # embed changes nothing for a Hermitian-flagged file, so the second load
    # in either order is a hit: the same object, one entry, one parse
    f = tmp_path / "h.json"
    save_tuple(herm(4, seed=0), f)
    parses, parse = [], mio._loads
    monkeypatch.setattr(mio, "_loads", lambda text: parses.append(1) or parse(text))
    first = load_tuple(f, embed=order[0])
    assert load_tuple(f, embed=order[1]) is first
    assert load_tuple(f, embed=order[0]) is first
    assert len(cache) == 1 and len(parses) == 1


@pytest.mark.parametrize("hermitian, embed", [(True, False), (True, True),
                                              (False, False), (False, True)])
def test_every_returned_array_is_read_only(tmp_path, cache, hermitian, embed):
    f = tmp_path / "t.json"
    save_tuple(herm(3, seed=5) if hermitian else [np.triu(np.ones((3, 3)))], f)
    for _ in ("miss", "hit"):
        for M in arrays(load_tuple(f, embed=embed)):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 7.0


@pytest.mark.parametrize("text, error", [
    ('{"schema_version":"1","kind":"tuple","m":1', ParseError),
    ('{"schema_version":"1","kind":"cloud"}\n', SchemaError),
    ('{"schema_version":"1","kind":"tuple","m":1,"n":1,"hermitian":true,'
     '"matrices":[[[[1.0,1.0]]]]}\n', SchemaError),
])
def test_a_failed_load_fails_again_and_stores_nothing(tmp_path, cache, text, error):
    f = tmp_path / "bad.json"
    f.write_text(text)
    with pytest.raises(error) as first:
        load_tuple(f)
    with pytest.raises(error) as second:
        load_tuple(f)
    assert str(first.value) == str(second.value)
    assert cache == {}


def test_cache_keeps_least_recently_used_within_its_bound(tmp_path, cache, monkeypatch):
    size = herm(4, seed=0).mats.nbytes  # 512 bytes: two fit, three do not
    monkeypatch.setattr(mio, "TUPLE_CACHE_BYTES", 2 * size + 100)
    paths = []
    for seed in range(4):
        paths.append(tmp_path / f"t{seed}.json")
        save_tuple(herm(4, seed=seed), paths[-1])
    a = load_tuple(paths[0])
    b = load_tuple(paths[1])
    assert load_tuple(paths[0]) is a  # a is now the most recently used
    c = load_tuple(paths[2])  # evicts b, not a
    assert retained(cache) <= mio.TUPLE_CACHE_BYTES
    assert [id(A) for A in cached(cache)] == [id(a), id(c)]
    assert load_tuple(paths[0]) is a
    assert load_tuple(paths[1]) is not b  # read again; evicts c
    assert retained(cache) <= mio.TUPLE_CACHE_BYTES and len(cache) == 2
    assert all(A is not c for A in cached(cache))
    # a result larger than the bound is returned but not kept
    big = tmp_path / "big.json"
    save_tuple(herm(9, seed=9), big)
    kept = cached(cache)
    B = load_tuple(big)
    assert B.mats.nbytes > mio.TUPLE_CACHE_BYTES
    assert cached(cache) == kept
    assert load_tuple(big) is not B and np.array_equal(load_tuple(big).mats, B.mats)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 6), hermitian=st.booleans(), data=st.data())
def test_reload_is_bitwise_the_first_load(m, n, hermitian, data):
    # magnitudes to 1e300 so that the embedding's sums stay finite
    entries = st.one_of(EDGE_FLOATS, st.floats(-1e300, 1e300))
    size = 2 * m * n * n
    vals = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
    base = np.empty((m, n, n), dtype=complex)
    base.real, base.imag = vals[0::2].reshape(m, n, n), vals[1::2].reshape(m, n, n)
    if hermitian:
        # mirror the strict upper triangle; the diagonal keeps its real part
        # and the sign of its zero imaginary part
        low = np.tril_indices(n, -1)
        for M in base:
            M[low] = np.conj(M.T[low])
            M.imag[np.diag_indices(n)] *= 0.0
        saved = HermitianTuple(base)
    else:
        saved = list(base)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(mio, "_tuples", {})
        f = os.path.join(tmp, "t.json")
        save_tuple(saved, f)
        flagged = json.loads(open(f).read())["hermitian"]
        for embed in (False, True):
            want = hermitian_embed(base).mats if embed and not flagged else base
            for _ in ("miss", "hit"):
                A = load_tuple(f, embed=embed)
                got = A.mats if isinstance(A, HermitianTuple) else np.stack(A)
                assert np.array_equal(bits(got), bits(want))


def test_cold_load_peak_stays_near_the_parse(tmp_path, cache):
    # the bytes are freed before json.loads, and the text before the
    # matrices are built; holding either adds a file size to the peak
    f = tmp_path / "t.json"
    save_tuple(random_hermitian_tuple(4, 64, 3), f)
    text = f.read_text()
    tracemalloc.start()
    try:
        json.loads(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        del text
        load_tuple(f)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    file_size = os.path.getsize(f)
    assert load_peak <= parse_peak + 2 * file_size, \
        f"load peaked {(load_peak - parse_peak) / file_size:.2f} file sizes above json.loads"


# ---------------------------------------------------------------------------
# certificates


def test_certificate_roundtrip_with_revalidation(tmp_path):
    A = herm(8, seed=5)
    cert = solve_free(A, 2, 1, SolverOptions(seed=0))
    f = tmp_path / "c.json"
    f.write_text(canonical_dumps(certificate_doc(cert)))
    back = load_certificate(f, A=A)
    assert back.p == cert.p and back.q == cert.q
    assert back.residual == cert.residual
    assert np.array_equal(back.witness.mat, cert.witness.mat)
    # byte stability through a load-save cycle
    f2 = tmp_path / "c2.json"
    f2.write_text(canonical_dumps(certificate_doc(back)))
    assert f.read_bytes() == f2.read_bytes()


def test_certificate_revalidation_catches_stale_residual(tmp_path):
    A = herm(8, seed=6)
    cert = solve_free(A, 2, 1, SolverOptions(seed=0))
    f = tmp_path / "c.json"
    f.write_text(canonical_dumps(certificate_doc(cert)))
    doc = json.loads(f.read_text())
    doc["residual"] = doc["residual"] + 1e-3
    f.write_text(canonical_dumps(doc))
    load_certificate(f)          # loads fine without the tuple
    with pytest.raises(CertificateError):
        load_certificate(f, A=A)


def test_certificate_with_overflowing_witness_gram_is_refused(tmp_path):
    # X*X overflows to inf - inf = NaN, which no defect tolerance admits
    f = tmp_path / "c.json"
    cert = solve_free(herm(4, seed=8), 1, 2, SolverOptions(seed=0))
    f.write_text(canonical_dumps(certificate_doc(cert)))
    doc = json.loads(f.read_text())
    doc["witness"] = [[[1e300, 0.0], [1e300, 0.0]], [[1e300, 0.0], [-1e300, 0.0]]]
    f.write_text(canonical_dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DimensionError, match="defect nan"):
        load_certificate(f)


def test_certificate_with_infinite_recomputed_residual_is_refused(tmp_path):
    # X* A X overflows, so the recomputed residual is inf; a stored 0.0 must
    # not match it through the relative bar 1e-12 * inf
    A = HermitianTuple(np.full((1, 2, 2), 1e308))
    X = Isometry(np.ones((2, 1)) / np.sqrt(2.0))
    f = tmp_path / "c.json"
    cert = Certificate(point=MatPoint(np.ones((1, 1, 1))), p=1, witness=X, residual=0.0)
    f.write_text(canonical_dumps(certificate_doc(cert)))
    load_certificate(f)          # loads fine without the tuple
    with np.errstate(over="ignore"), pytest.raises(CertificateError, match="recomputed inf"):
        load_certificate(f, A=A)


def test_certificate_block_shape_check(tmp_path):
    A = herm(8, seed=7)
    cert = solve_free(A, 1, 2, SolverOptions(seed=0))
    f = tmp_path / "c.json"
    f.write_text(canonical_dumps(certificate_doc(cert)))
    doc = json.loads(f.read_text())
    doc["q"] = 3
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError):
        load_certificate(f)


def test_certificate_schema_errors(tmp_path):
    A = herm(8, seed=7)
    f = tmp_path / "c.json"
    f.write_text(canonical_dumps(certificate_doc(solve_free(A, 2, 1, SolverOptions(seed=0)))))
    good = json.loads(f.read_text())
    for change, match in [({"m": 5}, "list of m = 5 matrices"),
                          ({"m": True}, "m must be a positive integer"),
                          ({"q": "1"}, "q must be a positive integer"),
                          ({"point": 5}, "point must be a list of m = 2 matrices"),
                          # blocks of two shapes once escaped as numpy's ValueError
                          ({"point": [good["point"][0], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
                           r"point block 1: shape \(2, 2\), expected \(1, 1\)"),
                          ({"p": "x"}, "p must be a positive integer"),
                          ({"p": 0}, "p must be a positive integer"),
                          ({"witness_tol": None}, "witness_tol must be a finite number"),
                          ({"residual": "nan"}, "residual must be a finite number"),
                          ({"residual": 10**400}, "residual must be a finite number"),
                          ({"residual": False}, "residual must be a finite number")]:
        f.write_text(canonical_dumps({**good, **change}))
        with pytest.raises(SchemaError, match=match):
            load_certificate(f)


# ---------------------------------------------------------------------------
# clouds


def test_cloud_roundtrip_with_certificates(tmp_path):
    A = herm(7, seed=8)
    cloud = sample_range(A, 1, 1, 4, SolverOptions(seed=0))
    f = tmp_path / "cl.json"
    f.write_text(canonical_dumps(cloud_doc(cloud)))
    back = load_cloud(f, A=A)
    assert np.array_equal(back.coords, cloud.coords)
    assert back.meta == cloud.meta
    assert len(back.certificates) == len(cloud.certificates)
    f2 = tmp_path / "cl2.json"
    f2.write_text(canonical_dumps(cloud_doc(back)))
    assert f.read_bytes() == f2.read_bytes()


def test_cloud_flattening_tag_policing(tmp_path):
    A = herm(7, seed=10)
    cloud = sample_range(A, 1, 1, 2, SolverOptions(seed=0))
    f = tmp_path / "cl.json"
    f.write_text(canonical_dumps(cloud_doc(cloud)))
    doc = json.loads(f.read_text())
    for tag in ("row-major", "affine-image"):
        doc["flattening"] = tag
        f.write_text(canonical_dumps(doc))
        with pytest.raises(SchemaError, match="flattening"):
            load_cloud(f)


def test_cloud_certificate_count_mismatch(tmp_path):
    A = herm(7, seed=11)
    cloud = sample_range(A, 1, 1, 3, SolverOptions(seed=0))
    f = tmp_path / "cl.json"
    f.write_text(canonical_dumps(cloud_doc(cloud)))
    doc = json.loads(f.read_text())
    doc["certificates"] = doc["certificates"][:-1]
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError, match="count"):
        load_cloud(f)


def test_cloud_coordinate_width_check(tmp_path):
    f = tmp_path / "cl.json"
    doc = {"schema_version": "1", "kind": "cloud", "m": 2, "p": 1, "q": 1,
           "flattening": FLATTEN_TAG, "points": [[1.0, 2.0, 3.0]],
           "certificates": None, "meta": {}}
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError, match="m\\*q"):
        load_cloud(f)


def test_cloud_schema_errors(tmp_path):
    A = herm(7, seed=11)
    f = tmp_path / "cl.json"
    f.write_text(canonical_dumps(cloud_doc(sample_range(A, 1, 1, 2, SolverOptions(seed=0)))))
    good = json.loads(f.read_text())
    for change, match in [({"certificates": 5}, "certificates must be a list or null"),
                          ({"certificates": [5, 5]}, "certificate 0: expected a JSON object"),
                          ({"meta": 5}, "meta must be a JSON object"),
                          ({"points": [["2"]], "certificates": None}, "rows of numbers"),
                          ({"points": [[None]], "certificates": None}, "rows of numbers"),
                          ({"points": [[1.0], [1.0, 2.0]]}, "rows of numbers"),
                          ({"points": 5}, "rows of numbers"),
                          ({"points": [[True], [1.5]], "m": 1, "certificates": None},
                           "rows of numbers"),
                          ({"m": True}, "m must be a positive integer"),
                          ({"q": 0}, "q must be a positive integer"),
                          ({"p": 1.0}, "p must be a positive integer")]:
        f.write_text(canonical_dumps({**good, **change}))
        with pytest.raises(SchemaError, match=match):
            load_cloud(f)


def test_cloud_row_refusals(tmp_path):
    A = herm(7, seed=11)
    f = tmp_path / "cl.json"
    good = canonical_dumps(cloud_doc(sample_range(A, 1, 1, 2, SolverOptions(seed=0))))
    doc = json.loads(good)
    del doc["certificates"][1]["witness_tol"]
    f.write_text(canonical_dumps(doc))
    with pytest.raises(SchemaError, match="certificate 1: missing 'witness_tol'"):
        load_cloud(f)
    # JSON reads 1e999 as an overflowed float, not as a named constant
    doc = json.loads(good)
    doc["points"][0][0] = "coordinate"
    f.write_text(canonical_dumps(doc).replace('"coordinate"', "1e999"))
    with pytest.raises(SchemaError, match="non-finite coordinate"):
        load_cloud(f)


# ---------------------------------------------------------------------------
# reports


def test_report_doc_bytes():
    # sorted tolerances, passes as trials minus failures, and no wall time
    rep = SuiteReport(suite="demo", trials=3, failures=((17, "one bad"),),
                      tolerances={"b": 2.0, "a": 1.0})
    assert canonical_dumps(report_doc(rep)) == (
        '{"schema_version":"1","kind":"report","suite":"demo","trials":3,"passes":2,'
        '"failures":[[17,"one bad"]],"tolerances":{"a":1.0,"b":2.0}}\n')


# ---------------------------------------------------------------------------
# byte-for-byte round trips of clouds and certificates


ANY_FLOAT = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.0e-310])


def roundtrip_bytes(doc, load, value):
    """Write doc(value), load it and write it again: byte-identical."""
    raw = canonical_dumps(doc(value))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(raw)
        back = load(path)
    assert canonical_dumps(doc(back)) == raw
    assert raw == canonical_dumps(json.loads(raw))
    return back


def edge_witness(data, n, k):
    """The first k coordinate columns of C^n, with the zeros replaced by
    signed zeros and subnormals: still an isometry to within 1e-300."""
    W = np.eye(n, k, dtype=complex)
    for part in (W.real, W.imag):
        zeros = part == 0.0
        part[zeros] = data.draw(st.lists(TINY, min_size=int(zeros.sum()),
                                         max_size=int(zeros.sum())))
    return Isometry(W)


def edge_certificate(data, m, p, q, coords):
    point = MatPoint.unflatten(coords, m, q)
    n = p * q + data.draw(st.integers(0, 2))
    residual = data.draw(st.one_of(TINY, st.floats(0.0, 1e-6)))
    return Certificate(point=point, p=p, witness=edge_witness(data, n, p * q),
                       residual=residual)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 2), p=st.integers(1, 2), q=st.integers(1, 2),
       rows=st.integers(0, 3), kind=st.sampled_from(["matpoint", "bare"]),
       data=st.data())
def test_cloud_json_roundtrips_byte_for_byte(m, p, q, rows, kind, data):
    width = m * q * q
    vals = data.draw(st.lists(ANY_FLOAT, min_size=rows * width, max_size=rows * width))
    coords = np.array(vals, dtype=float).reshape(rows, width)
    certs = None
    if kind == "matpoint":
        certs = tuple(edge_certificate(data, m, p, q, row) for row in coords)
    meta = {"seed": data.draw(st.integers(0, 2**31)), "rate": data.draw(ANY_FLOAT),
            "tiny": data.draw(TINY)}
    cloud = PointCloud(coords=coords, m=m, p=p, q=q, certificates=certs, meta=meta)
    back = roundtrip_bytes(cloud_doc, load_cloud, cloud)
    assert back.coords.tobytes() == coords.tobytes()
    assert repr(back.meta) == repr(dict(sorted(meta.items())))
    for got, want in zip(back.certificates or (), certs or ()):
        assert got.witness.mat.tobytes() == want.witness.mat.tobytes()
        assert repr(got.residual) == repr(want.residual)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 2), p=st.integers(1, 2), q=st.integers(1, 3), data=st.data())
def test_certificate_json_roundtrips_byte_for_byte(m, p, q, data):
    vals = data.draw(st.lists(ANY_FLOAT, min_size=m * q * q, max_size=m * q * q))
    cert = edge_certificate(data, m, p, q, np.array(vals, dtype=float))
    back = roundtrip_bytes(certificate_doc, load_certificate, cert)
    assert back.point.blocks.tobytes() == cert.point.blocks.tobytes()
    assert back.witness.mat.tobytes() == cert.witness.mat.tobytes()
    assert repr(back.residual) == repr(cert.residual) and back.p == cert.p
