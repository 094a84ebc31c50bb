"""Canonical JSON file formats for tuples, clouds, certificates, reports.

canonical_dumps is the one serialization: fixed key order, no whitespace,
shortest round-trip decimals, complex entries as [re, im] pairs, and a
trailing newline.  save_tuple writes tuple files; certificate_doc,
cloud_doc and report_doc build the documents the CLI writes through
canonical_dumps.  load_tuple, load_certificate and load_cloud read their
kinds back, so a certificate or cloud can be rechecked against its tuple;
a report has no reader.  load_tuple parses each file content once per
process and returns read-only arrays, shared by every load of those bytes.
Reading a canonical file and serializing the result again gives the same
bytes, which is what makes seeded CLI runs byte-reproducible.

Schemas (shared fields: "schema_version": "1", "kind"):

* kind "tuple": m, n, hermitian flag, matrices as m row-major n x n arrays
  of [re, im].
* kind "cloud": m, p, q, the flattening tag "hermitian-diag-sqrt2-offdiag"
  (the only one; loaders refuse any other), the rows of flattened matricial
  points, optional per-row certificates (witness + residual), and
  provenance meta.
* kind "certificate": a single point with its witness.
* kind "report": a suite report without its wall time (timings are not
  reproducible and would break byte determinism).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .feasibility import Certificate, MatPoint, PointCloud
from .linalg import HERM_TOL, DimensionError, HermitianTuple, Isometry, _herm_defects
from .ranges import hermitian_embed
from .verify import SuiteReport

SCHEMA_VERSION = "1"
FLATTEN_TAG = "hermitian-diag-sqrt2-offdiag"


class ParseError(ValueError):
    """File is not valid UTF-8 JSON; carries the byte offset of the failure."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (byte {pos})")


class SchemaError(ValueError):
    """File is valid JSON but not a valid document of the expected kind."""


def canonical_dumps(doc) -> str:
    """The one serialization every writer uses."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def _reject_constant(name):
    raise SchemaError(f"non-finite constant {name!r} in file")


def _loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:  # e.pos counts characters, not bytes
        raise ParseError(e.msg, len(text[:e.pos].encode("utf-8"))) from None


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes) -> str:
    """The file's text; ParseError at the offset of its first non-UTF-8 byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e.reason}", e.start) from None


def _require(doc, kind: str, keys) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SchemaError(f"missing keys: {missing}")


def _count(doc, key: str, what: str) -> int:
    v = doc[key]
    # type() and not isinstance(): JSON true would pass as the int 1
    if type(v) is not int or v < 1:
        raise SchemaError(f"{what}: {key} must be a positive integer, got {v!r}")
    return v


def _number(doc, key: str, what: str) -> float:
    v = doc[key]
    try:
        x = float(v) if type(v) in (int, float) else math.nan
    except OverflowError:  # a JSON integer beyond the double range
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{what}: {key} must be a finite number, got {v!r}")
    return x


def _matrix_doc(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def _boolean_at(text: str, key: str, items) -> int | None:
    """Index of the first of `items`, the nested lists under the document
    key `key`, that holds a JSON true or false; None when none does.

    numpy reads a boolean mixed with numbers as 0 or 1, so np.array alone
    lets one through.  A JSON number holds no t or f, so the items are
    scanned only when the file text after the key's first mention holds
    one: never in a canonical tuple file, whose matrices come last.
    """
    at = text.find(f'"{key}"')
    start = at + len(key) + 2 if at >= 0 else 0
    if text.find("t", start) < 0 and text.find("f", start) < 0:
        return None
    for i, item in enumerate(items):
        stack = [item]
        while stack:
            v = stack.pop()
            if type(v) is list:
                stack.extend(v)
            elif type(v) is bool:
                return i
    return None


def _matrix_parse(rows, what: str) -> np.ndarray:
    try:
        arr = np.array(rows)
    except ValueError:  # ragged nesting
        arr = None
    # strings, booleans, nulls and out-of-range integers are not numbers here
    if arr is None or arr.dtype.kind not in "iuf" or (arr.ndim == 3 and arr.shape[2] != 2):
        raise SchemaError(f"{what}: entries must be [re, im] pairs")
    if arr.ndim != 3:
        raise SchemaError(f"{what}: not a matrix")
    # a view keeps each part's bits, the sign of a zero included
    M = np.ascontiguousarray(arr, dtype=np.float64).view(complex)[..., 0]
    if not np.isfinite(M).all():
        ik = tuple(map(int, np.argwhere(~np.isfinite(M))[0]))
        raise SchemaError(f"{what}: non-finite entry at {ik}")
    return M


def _matrix_list(doc, key: str, text: str, m: int, s: int, what: str) -> list:
    """doc[key] as m s-by-s complex matrices of [re, im] pairs, or SchemaError
    naming the first bad `what`.  Each item is dropped from doc[key] once
    parsed, so the peak stays the parse's."""
    items = doc[key]
    if not isinstance(items, list) or len(items) != m:
        found = len(items) if isinstance(items, list) else type(items).__name__
        raise SchemaError(f"{key} must be a list of m = {m} matrices, found {found}")
    j = _boolean_at(text, key, items)
    if j is not None:
        raise SchemaError(f"{what} {j}: entries must be [re, im] pairs")
    mats = []
    for j, rows in enumerate(items):
        mats.append(M := _matrix_parse(rows, f"{what} {j}"))
        items[j] = None
        if M.shape != (s, s):
            raise SchemaError(f"{what} {j}: shape {M.shape}, expected ({s}, {s})")
    return mats


# ---------------------------------------------------------------------------
# tuples


def save_tuple(A, path) -> None:
    """Write an m-tuple of square complex matrices.

    HermitianTuple inputs are flagged hermitian; plain sequences of square
    arrays are flagged by measuring them.
    """
    if isinstance(A, HermitianTuple):
        mats, hermitian = A.mats, True
    else:
        mats = np.asarray(A, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a sequence of square matrices, got shape {mats.shape}")
        hermitian = (_herm_defects(mats) <= HERM_TOL).all()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tuple",
        "m": len(mats),
        "n": int(mats.shape[1]),
        "hermitian": bool(hermitian),
        "matrices": _matrix_doc(mats),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_dumps(doc))


TUPLE_CACHE_BYTES = 2**24  # array bytes (16 MiB) load_tuple keeps, as ranges.STACK_ENTRIES
# (sha256 of a tuple file's bytes, embed; False for a flagged file) -> (its
# read-only load_tuple result, the result's array bytes), least recently used
# first
_tuples: dict = {}


def load_tuple(path, embed: bool = False):
    """Read a tuple file.

    Hermitian-flagged files come back as a HermitianTuple (Hermiticity is
    re-checked; violations name the offending matrix and its entry that
    differs most from its conjugate).
    Unflagged files come back as a tuple of complex arrays, or, when embed
    is set (as by every CLI command but numrange), as the Hermitian 2m-tuple
    of the members' Hermitian and anti-Hermitian parts: the same range.

    Every returned array is read-only, and a process parses each file
    content once (an unflagged one once per embed value): a later load of
    the same bytes, from any path, returns the same object.  The key is the
    content's SHA-256, not the path, so a rewritten file is read anew.  Results are kept up to
    TUPLE_CACHE_BYTES of arrays, the least recently used evicted first; a
    larger one is returned but not kept.
    """
    data = _read(path)
    digest = hashlib.sha256(data).digest()
    flagged = _tuples.get((digest, False))
    # embed changes nothing for a flagged file, so its one entry serves both
    if flagged and isinstance(flagged[0], HermitianTuple):
        embed = False
    key = (digest, bool(embed))
    if key in _tuples:
        _tuples[key] = hit = _tuples.pop(key)
        return hit[0]
    text = _decode(data)
    del data  # freed before the parse
    doc = _loads(text)
    _require(doc, "tuple", ("m", "n", "hermitian", "matrices"))
    m, n = _count(doc, "m", "tuple"), _count(doc, "n", "tuple")
    if not isinstance(doc["hermitian"], bool):
        raise SchemaError(f"hermitian flag must be true or false, got {doc['hermitian']!r}")
    mats = _matrix_list(doc, "matrices", text, m, n, "matrix")
    if doc["hermitian"]:
        key = (digest, False)
        try:
            A = HermitianTuple(mats)
        except DimensionError as e:
            raise SchemaError(f"flagged hermitian, but {e}") from None
    else:
        A = hermitian_embed(mats) if embed else tuple(mats)
    arrays = (A.mats,) if isinstance(A, HermitianTuple) else A
    for M in arrays:
        M.flags.writeable = False
    size = sum(M.nbytes for M in arrays)
    if size <= TUPLE_CACHE_BYTES:
        _tuples[key] = (A, size)
        while sum(s for _, s in _tuples.values()) > TUPLE_CACHE_BYTES:
            _tuples.pop(next(iter(_tuples)), None)
    return A


# ---------------------------------------------------------------------------
# certificates


def _cert_doc(cert: Certificate) -> dict:
    """A certificate's fields without its point: p, q, residual and witness."""
    return {
        "p": int(cert.p),
        "q": int(cert.q),
        "residual": float(cert.residual),
        "witness_tol": float(cert.witness.tol),
        "witness": _matrix_doc(cert.witness.mat),
    }


def _cert_parse(doc, point: MatPoint, what: str, text: str) -> Certificate:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    for key in ("p", "residual", "witness", "witness_tol"):
        if key not in doc:
            raise SchemaError(f"{what}: missing {key!r}")
    if _boolean_at(text, "witness", [doc["witness"]]) is not None:
        raise SchemaError(f"{what} witness: entries must be [re, im] pairs")
    W = _matrix_parse(doc["witness"], f"{what} witness")
    return Certificate(point=point, p=_count(doc, "p", what),
                       witness=Isometry(W, tol=_number(doc, "witness_tol", what)),
                       residual=_number(doc, "residual", what))


def certificate_doc(cert: Certificate) -> dict:
    doc = _cert_doc(cert)
    return {"schema_version": SCHEMA_VERSION, "kind": "certificate", "m": int(cert.point.m),
            "p": doc.pop("p"), "q": doc.pop("q"), "point": _matrix_doc(cert.point.blocks),
            **doc}


def load_certificate(path, A=None) -> Certificate:
    """Read a certificate; when the generating tuple is supplied, recompute
    the residual and insist it matches the stored value to 1e-12."""
    text = _decode(_read(path))
    doc = _loads(text)
    _require(doc, "certificate", ("m", "p", "q", "point", "residual",
                                  "witness", "witness_tol"))
    m, q = _count(doc, "m", "certificate"), _count(doc, "q", "certificate")
    point = MatPoint(_matrix_list(doc, "point", text, m, q, "point block"))
    cert = _cert_parse(doc, point, "certificate", text)
    if A is not None:
        cert.revalidate(A)
    return cert


# ---------------------------------------------------------------------------
# clouds


def cloud_doc(cloud: PointCloud) -> dict:
    certs = None
    if cloud.certificates is not None:
        certs = [_cert_doc(c) for c in cloud.certificates]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cloud",
        "m": int(cloud.m),
        "p": int(cloud.p),
        "q": int(cloud.q),
        "flattening": FLATTEN_TAG,
        "points": cloud.coords.tolist(),
        "certificates": certs,
        "meta": {k: cloud.meta[k] for k in sorted(cloud.meta)},
    }


def load_cloud(path, A=None) -> PointCloud:
    """Read a cloud; certificates, if present, are revalidated against the
    supplied tuple (isometry defect and residual recomputation)."""
    text = _decode(_read(path))
    doc = _loads(text)
    _require(doc, "cloud", ("m", "p", "q", "flattening", "points",
                            "certificates", "meta"))
    m, p, q = (_count(doc, key, "cloud") for key in ("m", "p", "q"))
    tag = doc["flattening"]
    if tag != FLATTEN_TAG:
        raise SchemaError(f"unknown flattening tag {tag!r}")
    rows = doc["points"]
    try:
        coords = np.array(rows) if rows != [] else np.zeros((0, m * q * q))
    except ValueError:  # ragged rows
        coords = None
    # strings, nulls and booleans are not coordinates
    if coords is None or coords.dtype.kind not in "iuf" or coords.ndim != 2 \
            or _boolean_at(text, "points", rows) is not None:
        raise SchemaError("points must be a list of equal-length rows of numbers")
    coords = coords.astype(float)
    if not np.all(np.isfinite(coords)):
        raise SchemaError("non-finite coordinate")
    if coords.shape[1] != m * q * q:
        raise SchemaError(
            f"rows have {coords.shape[1]} coordinates, expected m*q^2 = {m * q * q}"
        )
    if not isinstance(doc["meta"], dict):
        raise SchemaError(f"meta must be a JSON object, got {type(doc['meta']).__name__}")
    certs = None
    if doc["certificates"] is not None:
        if not isinstance(doc["certificates"], list):
            raise SchemaError("certificates must be a list or null")
        if len(doc["certificates"]) != len(rows):
            raise SchemaError("certificate count does not match point count")
        certs = tuple(
            _cert_parse(cdoc, MatPoint.unflatten(coords[i], m, q), f"certificate {i}", text)
            for i, cdoc in enumerate(doc["certificates"])
        )
        if A is not None:
            for c in certs:
                c.revalidate(A)
    return PointCloud(coords=coords, m=m, p=p, q=q,
                      certificates=certs, meta=dict(doc["meta"]))


# ---------------------------------------------------------------------------
# reports


def report_doc(report: SuiteReport) -> dict:
    """Serializable form of a suite report; passes is trials minus failures."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "suite": report.suite,
        "trials": int(report.trials),
        "passes": int(report.passes),
        "failures": [[s, d] for s, d in report.failures],
        "tolerances": {k: report.tolerances[k] for k in sorted(report.tolerances)},
    }
