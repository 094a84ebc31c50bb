"""Canonical JSON file formats for tuples, clouds, certificates, reports.

Every writer emits a single canonical byte sequence per value: fixed key
order, no whitespace, shortest round-trip decimals, complex entries as
[re, im] pairs, and a trailing newline.  parse(serialize(x)) == x and
serialize(parse(f)) == f for canonical files, which is what makes seeded
CLI runs byte-reproducible.

Schemas (shared fields: "schema_version": "1", "kind"):

* kind "tuple": m, n, hermitian flag, matrices as m row-major n x n arrays
  of [re, im].
* kind "cloud": m, p, q, a flattening tag ("hermitian-diag-sqrt2-offdiag"
  for raw matricial points, "affine-image" for mapped clouds), the rows,
  optional per-row certificates (witness + residual), and provenance meta.
* kind "certificate": a single point with its witness.
* kind "report": a suite report without its wall time (timings are not
  reproducible and would break byte determinism).
"""

from __future__ import annotations

import json

import numpy as np

from .feasibility import Certificate, MatPoint, PointCloud
from .linalg import HERM_TOL, HermitianTuple, Isometry, frob
from .ranges import hermitian_embed
from .verify import SuiteReport

SCHEMA_VERSION = "1"
FLATTEN_TAG = "hermitian-diag-sqrt2-offdiag"
AFFINE_TAG = "affine-image"


class ParseError(ValueError):
    """File is not valid JSON; carries the byte offset of the failure."""

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
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.pos) from None


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_dumps(doc))


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


def _matrix_doc(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(M[i, j].real), float(M[i, j].imag)]
             for j in range(M.shape[1])] for i in range(M.shape[0])]


def _matrix_parse(rows, what: str) -> np.ndarray:
    try:
        arr = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError, ValueError):
        raise SchemaError(f"{what}: entries must be [re, im] pairs") from None
    if arr.ndim != 2:
        raise SchemaError(f"{what}: not a matrix")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what}: non-finite entry")
    return arr


# ---------------------------------------------------------------------------
# tuples


def save_tuple(A, path) -> None:
    """Write an m-tuple of square complex matrices.

    HermitianTuple inputs are flagged hermitian; plain sequences of square
    arrays are flagged by measuring them.
    """
    if isinstance(A, HermitianTuple):
        mats = [A.mats[j] for j in range(A.m)]
        hermitian = True
    else:
        mats = [np.asarray(M, dtype=complex) for M in A]
        hermitian = all(
            frob(M - np.conj(M.T)) <= HERM_TOL * max(1.0, frob(M)) for M in mats
        )
    n = mats[0].shape[0]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tuple",
        "m": len(mats),
        "n": int(n),
        "hermitian": bool(hermitian),
        "matrices": [_matrix_doc(M) for M in mats],
    }
    _write(path, doc)


def load_tuple(path, embed: bool = False):
    """Read a tuple file.

    Hermitian-flagged files come back as a HermitianTuple (Hermiticity is
    re-checked entry-wise; violations name the offending matrix and entry).
    Unflagged files come back as a tuple of complex arrays, or as the
    Hermitian 2m-tuple of real and imaginary parts when embed is set.
    """
    doc = _loads(_read(path))
    _require(doc, "tuple", ("m", "n", "hermitian", "matrices"))
    m, n = doc["m"], doc["n"]
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise SchemaError(f"bad dimensions m={m!r}, n={n!r}")
    if len(doc["matrices"]) != m:
        raise SchemaError(f"expected {m} matrices, found {len(doc['matrices'])}")
    mats = []
    for j, rows in enumerate(doc["matrices"]):
        M = _matrix_parse(rows, f"matrix {j}")
        if M.shape != (n, n):
            raise SchemaError(f"matrix {j}: shape {M.shape}, expected ({n}, {n})")
        mats.append(M)
    if doc["hermitian"]:
        for j, M in enumerate(mats):
            D = np.abs(M - np.conj(M.T))
            if D.max() > HERM_TOL * max(1.0, frob(M)):
                i, i2 = np.unravel_index(np.argmax(D), D.shape)
                raise SchemaError(
                    f"matrix {j} flagged hermitian but entry ({i}, {i2}) "
                    f"differs from its conjugate by {D[i, i2]:.3e}"
                )
        return HermitianTuple(np.stack(mats))
    if embed:
        return hermitian_embed(np.stack(mats))
    return tuple(mats)


# ---------------------------------------------------------------------------
# certificates


def _cert_doc(cert: Certificate) -> dict:
    return {
        "p": int(cert.p),
        "q": int(cert.q),
        "residual": float(cert.residual),
        "witness_tol": float(cert.witness.tol),
        "witness": _matrix_doc(cert.witness.mat),
    }


def _cert_parse(doc, point: MatPoint, what: str) -> Certificate:
    for key in ("p", "residual", "witness", "witness_tol"):
        if key not in doc:
            raise SchemaError(f"{what}: missing {key!r}")
    W = _matrix_parse(doc["witness"], f"{what} witness")
    return Certificate(point=point, p=int(doc["p"]),
                       witness=Isometry(W, tol=float(doc["witness_tol"])),
                       residual=float(doc["residual"]))


def certificate_doc(cert: Certificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate",
        "m": int(cert.point.m),
        "p": int(cert.p),
        "q": int(cert.q),
        "point": [_matrix_doc(cert.point.blocks[j]) for j in range(cert.point.m)],
        "residual": float(cert.residual),
        "witness_tol": float(cert.witness.tol),
        "witness": _matrix_doc(cert.witness.mat),
    }


def save_certificate(cert: Certificate, path) -> None:
    _write(path, certificate_doc(cert))


def load_certificate(path, A=None) -> Certificate:
    """Read a certificate; when the generating tuple is supplied, recompute
    the residual and insist it matches the stored value to 1e-12."""
    doc = _loads(_read(path))
    _require(doc, "certificate", ("m", "p", "q", "point", "residual",
                                  "witness", "witness_tol"))
    m, q = doc["m"], doc["q"]
    blocks = np.stack([_matrix_parse(doc["point"][j], f"point block {j}")
                       for j in range(m)])
    if blocks.shape != (m, q, q):
        raise SchemaError(f"point blocks shaped {blocks.shape}, expected ({m}, {q}, {q})")
    cert = _cert_parse(doc, MatPoint(blocks), "certificate")
    if A is not None:
        cert.revalidate(A)
    return cert


# ---------------------------------------------------------------------------
# clouds


def cloud_doc(cloud: PointCloud) -> dict:
    certs = None
    if cloud.kind == "matpoint" and cloud.certificates is not None:
        certs = [_cert_doc(c) for c in cloud.certificates]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "cloud",
        "m": int(cloud.m),
        "p": int(cloud.p),
        "q": int(cloud.q),
        "flattening": FLATTEN_TAG if cloud.kind == "matpoint" else AFFINE_TAG,
        "points": [[float(v) for v in row] for row in cloud.coords],
        "certificates": certs,
        "meta": {k: cloud.meta[k] for k in sorted(cloud.meta)},
    }


def save_cloud(cloud: PointCloud, path) -> None:
    _write(path, cloud_doc(cloud))


def load_cloud(path, A=None) -> PointCloud:
    """Read a cloud; certificates, if present, are revalidated against the
    supplied tuple (isometry defect and residual recomputation)."""
    doc = _loads(_read(path))
    _require(doc, "cloud", ("m", "p", "q", "flattening", "points",
                            "certificates", "meta"))
    m, p, q = doc["m"], doc["p"], doc["q"]
    tag = doc["flattening"]
    if tag not in (FLATTEN_TAG, AFFINE_TAG):
        raise SchemaError(f"unknown flattening tag {tag!r}")
    rows = doc["points"]
    coords = np.array(rows, dtype=float) if rows else np.zeros((0, m * q * q))
    if coords.ndim != 2:
        raise SchemaError("points must be a list of equal-length rows")
    if not np.all(np.isfinite(coords)):
        raise SchemaError("non-finite coordinate")
    kind = "matpoint" if tag == FLATTEN_TAG else "affine"
    if kind == "matpoint" and coords.shape[1] != m * q * q:
        raise SchemaError(
            f"rows have {coords.shape[1]} coordinates, expected m*q^2 = {m * q * q}"
        )
    certs = None
    if doc["certificates"] is not None:
        if kind != "matpoint":
            raise SchemaError("certificates require the matricial flattening")
        if len(doc["certificates"]) != len(rows):
            raise SchemaError("certificate count does not match point count")
        certs = tuple(
            _cert_parse(cdoc, MatPoint.unflatten(coords[i], m, q), f"certificate {i}")
            for i, cdoc in enumerate(doc["certificates"])
        )
        if A is not None:
            for c in certs:
                c.revalidate(A)
    cloud = PointCloud(coords=coords, m=m, p=p, q=q, kind=kind,
                       certificates=certs, meta=dict(doc["meta"]))
    return cloud


# ---------------------------------------------------------------------------
# reports


def report_doc(report: SuiteReport) -> dict:
    """Serializable form of a suite report.  Wall time is deliberately not
    stored: timings are not reproducible and would break byte determinism."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "suite": report.suite,
        "trials": int(report.trials),
        "passes": int(report.passes),
        "failures": [[s, d] for s, d in report.failures],
        "tolerances": {k: report.tolerances[k] for k in sorted(report.tolerances)},
    }


def save_report(report: SuiteReport, path) -> None:
    _write(path, report_doc(report))


def load_report(path) -> SuiteReport:
    doc = _loads(_read(path))
    _require(doc, "report", ("suite", "trials", "passes", "failures", "tolerances"))
    failures = tuple((f[0], f[1]) for f in doc["failures"])
    return SuiteReport(suite=doc["suite"], trials=int(doc["trials"]),
                       passes=int(doc["passes"]), failures=failures,
                       tolerances=dict(doc["tolerances"]), wall_time=0.0)
