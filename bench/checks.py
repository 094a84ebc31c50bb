"""Output checks computed apart from the program, with plain numpy.

Nothing here imports matrange.  Every check reads the tuple file and the
output document as JSON, recomputes what the document claims, and raises
CheckError on the first disagreement.  No check compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import json
import os

import numpy as np

RES_MATCH = 1e-12   # recomputed vs stored residual, relative to max(1, r)
WEIGHT_SUM = 1e-12  # Tverberg part weights must sum to one within this
SPECTRAL = 1e-9     # eigenvalue agreement, relative to max(1, ||M||_F)


class CheckError(AssertionError):
    """An output disagrees with the independent recomputation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


_tuples: dict = {}


def load_tuple(path: str) -> np.ndarray:
    """The (m, n, n) complex array of a tuple file, parsed once per version
    of the file."""
    key = (path, os.stat(path).st_mtime_ns)
    if key not in _tuples:
        with open(path, encoding="utf-8") as fh:
            _tuples[key] = matrix(json.load(fh)["matrices"])
    return _tuples[key]


def read_doc(rc: int, out: str, kind: str) -> dict:
    require(rc == 0, f"exit code {rc}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    require(doc.get("kind") == kind, f"document kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def matrix(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def unflatten(row, m: int, q: int) -> np.ndarray:
    """Inverse of the hermitian-diag-sqrt2-offdiag flattening."""
    row = np.asarray(row, dtype=float)
    require(row.shape == (m * q * q,), f"point has {row.size} coordinates, expected {m * q * q}")
    B = np.zeros((m, q, q), dtype=complex)
    pos = 0
    for j in range(m):
        B[j][np.diag_indices(q)] = row[pos:pos + q]
        pos += q
        for a in range(q):
            for b in range(a + 1, q):
                z = (row[pos] + 1j * row[pos + 1]) / np.sqrt(2.0)
                B[j, a, b], B[j, b, a] = z, np.conj(z)
                pos += 2
    return B


def descending_eigs(M: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (M + np.conj(M.T)))[::-1]


def certificate(A: np.ndarray, point: np.ndarray, cert: dict, accept_tol: float) -> float:
    """Recompute sqrt(sum_j ||X* A_j X - I_p (x) B_j||_F^2) and the witness
    Gram defect; for m = 1 scalar points also the rank-pq eigenvalue window."""
    p, q = int(cert["p"]), int(point.shape[1])
    X = matrix(cert["witness"])
    n = A.shape[1]
    require(X.shape == (n, p * q), f"witness shaped {X.shape}, expected {(n, p * q)}")
    S = np.conj(X.T)[None] @ A @ X
    E = S - np.stack([np.kron(np.eye(p), B) for B in point])
    r = float(np.sqrt(np.sum(np.abs(E) ** 2)))
    stored = float(cert["residual"])
    require(r <= accept_tol, f"recomputed residual {r:.3e} exceeds accept_tol {accept_tol:.1e}")
    require(abs(r - stored) <= RES_MATCH * max(1.0, r),
            f"stored residual {stored:.17g} differs from recomputed {r:.17g}")
    defect = float(np.linalg.norm(np.conj(X.T) @ X - np.eye(p * q)))
    require(defect <= float(cert["witness_tol"]),
            f"witness Gram defect {defect:.3e} exceeds witness_tol {cert['witness_tol']:.1e}")
    x = float(point[0, 0, 0].real)
    if A.shape[0] == 1 and np.array_equal(point[0], x * np.eye(q)):
        k = p * q
        lam = descending_eigs(A[0])
        tol = r + 1e-12 * max(1.0, float(np.linalg.norm(A[0])))
        require(lam[n - k] - tol <= x <= lam[k - 1] + tol,
                f"scalar point {x:.6g} outside the rank-{k} window "
                f"[{lam[n - k]:.6g}, {lam[k - 1]:.6g}]")
    return r


def cert_doc(A: np.ndarray, doc: dict, accept_tol: float) -> np.ndarray:
    """Check a certificate document; return its point blocks."""
    point = np.stack([matrix(b) for b in doc["point"]])
    require(point.shape == (int(doc["m"]), int(doc["q"]), int(doc["q"])),
            f"point blocks shaped {point.shape}")
    certificate(A, point, doc, accept_tol)
    return point


# ---------------------------------------------------------------------------
# per-command checks


def cloud(rc: int, out: str, tuple_path: str, accept_tol: float) -> None:
    doc = read_doc(rc, out, "cloud")
    A = load_tuple(tuple_path)
    m, q = int(doc["m"]), int(doc["q"])
    pts, certs = doc["points"], doc["certificates"]
    require(len(pts) > 0 and certs is not None and len(certs) == len(pts),
            f"{len(pts)} points with {0 if certs is None else len(certs)} certificates")
    require(int(doc["meta"]["requested"]) == len(pts) + int(doc["meta"]["rejected"]),
            "points + rejected != requested")
    for row, cert in zip(pts, certs):
        require(int(cert["p"]) == int(doc["p"]), "certificate level differs from the cloud's")
        certificate(A, unflatten(row, m, q), cert, accept_tol)


def star_center(rc: int, out: str, tuple_path: str, accept_tol: float) -> None:
    doc = read_doc(rc, out, "star-center")
    A = load_tuple(tuple_path)
    full = cert_doc(A, doc["certificate"], accept_tol)
    restricted = cert_doc(A, doc["restricted"], accept_tol)
    m = A.shape[0]
    require(int(doc["certificate"]["p"]) == int(doc["p"]) * int(doc["q"]) * (m + 2),
            "center level is not p q (m + 2)")
    values = full[:, 0, 0].real
    q = int(doc["q"])
    require(np.array_equal(restricted, np.stack([v * np.eye(q) for v in values])),
            "restricted point is not the scalar lift of the center")


def segment(rc: int, out: str, tuple_path: str, accept_tol: float) -> None:
    doc = read_doc(rc, out, "segment")
    A = load_tuple(tuple_path)
    mid = cert_doc(A, doc["certificate"], accept_tol)
    b, c = (cert_doc(A, e, accept_tol) for e in doc["endpoints"])
    t = float(doc["t"])
    require(np.max(np.abs(mid - (t * b + (1.0 - t) * c))) <= 1e-12 * max(1.0, np.max(np.abs(mid))),
            "segment point is not t B + (1 - t) C")


def tverberg(rc: int, out: str, tuple_path: str, accept_tol: float) -> None:
    doc = read_doc(rc, out, "tverberg-lift")
    A = load_tuple(tuple_path)
    m = A.shape[0]
    p, q, d = int(doc["p"]), int(doc["q"]), int(doc["d"])
    require(d == (p - 1) * (q * q * m + 1) + 1, f"family size {d} is not (p-1)(q^2 m+1)+1")
    parts, weights = doc["parts"], doc["weights"]
    require(len(parts) == p and all(len(part) > 0 for part in parts),
            f"{len(parts)} parts, expected {p} nonempty ones")
    require(sorted(i for part in parts for i in part) == list(range(d)),
            "parts do not split {0..d-1}")
    for part, w in zip(parts, weights):
        w = np.asarray(w, dtype=float)
        require(w.shape == (len(part),), "one weight per member of each part")
        require(bool(np.all(w >= 0.0)), "negative barycentric weight")
        require(abs(float(w.sum()) - 1.0) <= WEIGHT_SUM, f"part weights sum to {w.sum():.17g}")
    cert_doc(A, doc["certificate"], accept_tol)


def essential(rc: int, out: str, tuple_path: str, accept_tol: float) -> None:
    """m = 1: each level-r support is a certified scalar point, so it lies in
    the rank-r window [lambda_(n-r+1), lambda_r]; the summary is the running
    minimum of the supports and the interval reads off its last row."""
    doc = read_doc(rc, out, "essential-estimate")
    A = load_tuple(tuple_path)
    require(A.shape[0] == 1, "essential check expects a single matrix")
    lam = descending_eigs(A[0])
    n = A.shape[1]
    dirs = np.asarray(doc["directions"], dtype=float)
    require(np.array_equal(dirs, np.array([[1.0], [-1.0]])), "m = 1 directions are not +-1")
    S = np.asarray(doc["supports"], dtype=float)
    require(S.shape == (int(doc["r_max"]), 2) and doc["failed_r"] is None,
            f"supports shaped {S.shape}, failed_r {doc['failed_r']}")
    for r in range(1, S.shape[0] + 1):
        lo, hi = lam[n - r], lam[r - 1]
        for x in (S[r - 1, 0], -S[r - 1, 1]):
            require(lo - accept_tol <= x <= hi + accept_tol,
                    f"level-{r} support {x:.6g} outside [{lo:.6g}, {hi:.6g}]")
    require(np.array_equal(np.asarray(doc["intersection"]), np.minimum.accumulate(S, axis=0)),
            "intersection is not the running minimum of the supports")
    require(doc["interval"] == [-S[:, 1].min(), S[:, 0].min()], "interval does not match")


def report(rc: int, out: str) -> None:
    doc = read_doc(rc, out, "report")
    require(int(doc["passes"]) + len(doc["failures"]) == int(doc["trials"]),
            "passes + failures != trials")


def numrange(rc: int, out: str, tuple_path: str, angles: int) -> None:
    """Supports are top eigenvalues of Re(e^{-i theta} M); each vertex lies
    on its own supporting line and inside every half-plane."""
    doc = read_doc(rc, out, "numrange-boundary")
    M = load_tuple(tuple_path)[0]
    tol = SPECTRAL * max(1.0, float(np.linalg.norm(M)))
    th = np.asarray(doc["angles"], dtype=float)
    require(th.shape == (angles,), f"{th.size} angles, expected {angles}")
    supp = np.asarray(doc["support"], dtype=float)
    v = np.asarray(doc["vertices"], dtype=float)
    z = v[:, 0] + 1j * v[:, 1]
    rot = np.exp(-1j * th)
    top = np.array([descending_eigs(0.5 * (e * M + np.conj(e * M).T))[0] for e in rot])
    require(np.max(np.abs(top - supp)) <= tol,
            f"support off its eigenvalue by {np.max(np.abs(top - supp)):.3e}")
    proj = np.real(rot[:, None] * z[None, :])          # proj[k, i] = Re(e^{-i th_k} z_i)
    require(np.max(np.abs(np.diag(proj) - supp)) <= tol, "vertex off its supporting line")
    require(np.max(proj - supp[:, None]) <= tol, "vertex outside a supporting half-plane")


def interval(got, H: np.ndarray, k: int) -> None:
    lam = descending_eigs(H)
    n = H.shape[0]
    tol = SPECTRAL * max(1.0, float(np.linalg.norm(H)))
    lo, hi = lam[n - k], lam[k - 1]
    require(abs(got.lo - lo) <= tol and abs(got.hi - hi) <= tol,
            f"interval [{got.lo:.6g}, {got.hi:.6g}] vs eigvalsh [{lo:.6g}, {hi:.6g}]")
    require(got.empty == (lo > hi), "empty flag disagrees with the endpoints")


def rejection(got, budget: int, delta: float) -> None:
    """Cauchy interlacing bounds every residual below by delta."""
    require(type(got).__name__ == "Rejection", f"expected a Rejection, got {type(got).__name__}")
    require(got.restarts == budget, f"{got.restarts} restarts, budget {budget}")
    require(got.best_residual >= delta * (1.0 - 1e-9),
            f"best residual {got.best_residual:.6g} below the interlacing bound {delta}")
