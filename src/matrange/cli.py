"""Command-line surface.

Commands mirror the library: `compute numrange` for classical boundaries,
`sample pq` for certified clouds, `construct ...` for the witness
constructions, `verify ...` for the property suites.  A command runs one
path and parses only the flags it reads, so a suite that builds its own
tuple (`verify star-planted`, `verify pauli`) is a command of its own.
All outputs are canonical JSON (stdout or --out), so identical flags and
seed give byte-identical bytes; `compute numrange --svg` adds a flat
polyline rendering.  Every command but `compute numrange` reads an
unflagged tuple file as its Hermitian 2m-tuple (load_tuple's embed).

Each handler returns what it computed: a document, a Rejection or a
SuiteReport (`compute numrange` writes its document and --svg file itself).
`main` writes it through `_finish`, and the two pick every exit code: 0
success / accepted; 2 unreadable or invalid input file, an unwritable
output, or an invalid command-line argument (one-line message); 3
structural impossibility (dimensions, preconditions); 4 solver rejection
or a failed construction stage, written as a rejection document (advisory,
not a proof of non-membership); 5 verify suite below its pass-rate
threshold (report still written).  A warning is printed as one stderr
line, `warning: <message>`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from .constructions import (
    deflated_solve,
    essential_estimate,
    segment_witness,
    star_center_matrix,
    star_center_scalar,
    tverberg_lift,
)
from .feasibility import (
    Rejection,
    SolverOptions,
    StructuralInfeasibility,
    sample_range,
    solve_free,
)
from .io import (
    ParseError,
    SchemaError,
    canonical_dumps,
    certificate_doc,
    cloud_doc,
    load_tuple,
    report_doc,
)
from .linalg import DimensionError, HermitianTuple
from .ranges import numrange_boundary
from .verify import (
    SuiteReport,
    check_convexity,
    check_corner_inclusions,
    check_nonempty_bounds,
    check_pauli_nonconvexity,
    check_perturbation_equivalence,
    check_star_shaped,
    planted_star_instance,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURAL = 3
EXIT_REJECTED = 4
EXIT_THRESHOLD = 5


class UsageError(Exception):
    """An invalid command line or an unwritable output; reported in one line
    with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def checked(convert, ok, expected: str):
    """An argparse type: convert(text), refused unless ok(value)."""
    def parse(text: str):
        value = convert(text)  # argparse reports a ValueError as an invalid value
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its message
    return parse


def int_at_least(low: int):
    return checked(int, lambda v: v >= low, f"an integer >= {low}")


positive_int = int_at_least(1)
positive_float = checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
unit_interval = checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _emit(text: str, out_path) -> None:
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {out_path or 'stdout'}: {e.strerror}") from None


def _opts(args) -> SolverOptions:
    return SolverOptions(accept_tol=args.accept_tol, max_restarts=args.restarts,
                         seed=args.seed)


def _finish(result, args) -> int:
    """Write a handler's result to --out (or stdout) and return its exit
    code.  A best residual that is not finite (an overflowed tuple, or none
    kept) is written as null; a rejection's stage is written only when set."""
    if isinstance(result, int):  # compute numrange wrote its own files
        return result
    code = EXIT_OK
    if isinstance(result, Rejection):
        best, stage = float(result.best_residual), result.stage
        code, result = EXIT_REJECTED, {
            "kind": "rejection", "best_residual": best if math.isfinite(best) else None,
            "restarts": int(result.restarts), "message": result.message}
        if stage is not None:
            result["stage"] = stage
    elif isinstance(result, SuiteReport):
        if not result.passed(args.threshold):
            code = EXIT_THRESHOLD
        result = report_doc(result)
    _emit(canonical_dumps(result), args.out)
    return code


# ---------------------------------------------------------------------------
# compute


def boundary_svg(bd) -> str:
    """Flat polyline rendering with a fixed 800x800 viewBox."""
    v = bd.vertices
    xs, ys = v.real, v.imag
    xmin, ymin = float(xs.min()), float(ys.min())
    span = max(float(xs.max() - xmin), float(ys.max() - ymin), 1e-9)
    side, pad = 720.0, 40.0

    def fx(x):
        return pad + (x - xmin) / span * side

    def fy(y):
        return pad + side - (y - ymin) / span * side

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">']
    if bd.degenerate == "point":
        lines.append(f'<circle cx="{fx(xs[0]):.3f}" cy="{fy(ys[0]):.3f}" '
                     'r="4" fill="black"/>')
    else:
        pts = " ".join(f"{fx(x):.3f},{fy(y):.3f}" for x, y in zip(xs, ys))
        first = f"{fx(xs[0]):.3f},{fy(ys[0]):.3f}"
        lines.append(f'<polyline points="{pts} {first}" fill="none" '
                     'stroke="black" stroke-width="1.5"/>')
    lines.append("</svg>\n")
    return "\n".join(lines)


def cmd_numrange(args) -> int:
    A = load_tuple(args.input)
    mats = A.mats if isinstance(A, HermitianTuple) else A
    if len(mats) != 1:
        raise DimensionError("numrange needs exactly one matrix")
    bd = numrange_boundary(mats[0], n_angles=args.angles)
    doc = {
        "kind": "numrange-boundary",
        "angles": [float(t) for t in bd.angles],
        "vertices": [[float(z.real), float(z.imag)] for z in bd.vertices],
        "support": [float(s) for s in bd.support],
        "degenerate": bd.degenerate,
    }
    _emit(canonical_dumps(doc), args.out)
    if args.svg:
        try:
            _emit(boundary_svg(bd), args.svg)
        except UsageError:
            if args.out:  # a failed run leaves no output behind
                os.remove(args.out)
            raise
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample_pq(args) -> dict:
    A = load_tuple(args.input, embed=True)
    return cloud_doc(sample_range(A, args.p, args.q, args.count, _opts(args)))


# ---------------------------------------------------------------------------
# construct


def cmd_star_center(args):
    A = load_tuple(args.input, embed=True)
    fn = star_center_matrix if args.matrix else star_center_scalar
    out = fn(A, args.p, args.q, _opts(args))
    if isinstance(out, Rejection):
        return out
    return {
        "kind": "star-center",
        "style": "matrix" if args.matrix else "scalar",
        "p": args.p,
        "q": args.q,
        "level": int(out.certificate.p),
        "certificate": certificate_doc(out.certificate),
        "restricted": certificate_doc(out.restricted),
    }


def cmd_segment(args):
    A = load_tuple(args.input, embed=True)
    opts = _opts(args)
    first = solve_free(A, args.p, args.q, opts)
    if isinstance(first, Rejection):
        return first
    second = deflated_solve(A, [first], args.p, args.q,
                            opts.replace(seed=opts.seed + 1))
    if isinstance(second, Rejection):
        return second
    cert = segment_witness(A, first, second, args.t)
    return {
        "kind": "segment",
        "t": float(args.t),
        "certificate": certificate_doc(cert),
        "endpoints": [certificate_doc(first), certificate_doc(second)],
    }


def cmd_tverberg(args):
    A = load_tuple(args.input, embed=True)
    # the blocks are certified as drawn: the lift has no restart budget
    lift = tverberg_lift(A, args.q, args.p,
                         SolverOptions(accept_tol=args.accept_tol, seed=args.seed))
    if isinstance(lift, Rejection):
        return lift
    return {
        "kind": "tverberg-lift",
        "p": args.p,
        "q": args.q,
        "d": len(lift.family),
        "parts": [list(part) for part in lift.partition.parts],
        "weights": [[float(w) for w in ws] for ws in lift.partition.weights],
        "partitions_scanned": int(lift.partition.partitions_scanned),
        "family_cross_tol": float(lift.family.cross_tol),
        "certificate": certificate_doc(lift.certificate),
    }


def cmd_essential(args):
    A = load_tuple(args.input, embed=True)
    est = essential_estimate(A, args.q, args.r_max,
                             SolverOptions(accept_tol=args.accept_tol, seed=args.seed),
                             n_dirs=args.n_dirs, n_free=args.n_free)
    if isinstance(est, Rejection):
        return est
    doc = {
        "kind": "essential-estimate",
        "q": args.q,
        "r_max": int(est.r_max),
        "directions": [[float(v) for v in row] for row in est.directions],
        "supports": [[float(v) for v in row] for row in est.supports],
        "intersection": [[float(v) for v in row] for row in est.intersection],
        "failed_r": est.failed_r,
    }
    if est.directions.shape[1] == 1:
        lo, hi = est.interval()
        doc["interval"] = [lo, hi]
    return doc


# ---------------------------------------------------------------------------
# verify


def cmd_verify_star(args):
    A = load_tuple(args.input, embed=True)
    return check_star_shaped(A, args.p, args.q, n_points=args.points, opts=_opts(args))


def cmd_verify_star_planted(args) -> SuiteReport:
    A, certs = planted_star_instance(args.m, args.p, args.q, args.blocks, args.seed)
    return check_star_shaped(A, args.p, args.q, exact=certs)


def cmd_verify_bounds(args) -> SuiteReport:
    return check_nonempty_bounds(args.m, args.k, trials=args.trials,
                                 opts=_opts(args), bound=args.bound)


def cmd_verify_inclusions(args) -> SuiteReport:
    return check_corner_inclusions(m=args.m, n=args.n, p=args.p, q=args.q,
                                   r=args.r, trials=args.trials,
                                   corners=args.corners, opts=_opts(args))


def cmd_verify_convexity(args) -> SuiteReport:
    A = load_tuple(args.input, embed=True)
    return check_convexity(A, args.p, args.q, pairs=args.pairs, opts=_opts(args))


def cmd_verify_pauli(args) -> SuiteReport:
    return check_pauli_nonconvexity()


def cmd_verify_perturbation(args) -> SuiteReport:
    return check_perturbation_equivalence(m=args.m, n=args.n, p=args.p,
                                          q=args.q, trials=args.trials,
                                          rank=args.rank, opts=_opts(args))


# ---------------------------------------------------------------------------
# parser

# Every command is one entry {group: {op: (handler, argument specs)}}; a spec
# is (flag, add_argument keywords).  Every command takes OUT, and lists only
# the flags its handler reads.
OUT = ("--out", dict(help="output path (stdout if omitted)"))
SEED = ("--seed", dict(type=int_at_least(0), default=0))
ACCEPT_TOL = ("--accept-tol", dict(type=positive_float, default=1e-8))
SOLVER = (SEED, ACCEPT_TOL, ("--restarts", dict(type=positive_int, default=50)))
INPUT = ("--input", dict(required=True))
P = ("--p", dict(type=positive_int, required=True))
Q = ("--q", dict(type=positive_int, required=True))
THRESHOLD = ("--threshold", dict(type=unit_interval, default=0.95))


def optional(spec, default):
    """A required shared flag made optional with the given default."""
    flag, kw = spec
    return flag, {k: v for k, v in kw.items() if k != "required"} | {"default": default}


COMMANDS = {
    "compute": {
        "numrange": (cmd_numrange, (
            INPUT, ("--angles", dict(type=int_at_least(3), default=256)), ("--svg", {}))),
    },
    "sample": {
        "pq": (cmd_sample_pq, SOLVER + (
            INPUT, P, Q, ("--count", dict(type=positive_int, default=16)))),
    },
    "construct": {
        "star-center": (cmd_star_center, SOLVER + (
            INPUT, P, Q,
            ("--matrix", dict(action="store_true",
                              help="matrix-valued center at deep level instead of scalar")))),
        "segment": (cmd_segment, SOLVER + (
            INPUT, P, Q, ("--t", dict(type=unit_interval, default=0.5)))),
        "tverberg": (cmd_tverberg, (SEED, ACCEPT_TOL, INPUT, P, Q)),
        "essential": (cmd_essential, (
            SEED, ACCEPT_TOL, INPUT, Q,
            ("--r-max", dict(type=positive_int, required=True)),
            ("--n-dirs", dict(type=positive_int, default=64)),
            ("--n-free", dict(type=int_at_least(0), default=4)))),
    },
    "verify": {
        "star": (cmd_verify_star, SOLVER + (
            INPUT, optional(P, 1), optional(Q, 1),
            ("--points", dict(type=positive_int, default=20)),
            THRESHOLD)),
        "star-planted": (cmd_verify_star_planted, (
            SEED, optional(P, 1), optional(Q, 1),
            ("--m", dict(type=positive_int, default=2)),
            ("--blocks", dict(type=int_at_least(2), default=4)),
            THRESHOLD)),
        "bounds": (cmd_verify_bounds, SOLVER + (
            ("--m", dict(type=int_at_least(0), required=True)),
            ("--k", dict(type=positive_int, required=True)),
            ("--trials", dict(type=positive_int, default=50)),
            ("--bound", dict(choices=("general", "refined"), default="general")),
            THRESHOLD)),
        "inclusions": (cmd_verify_inclusions, SOLVER + (
            ("--m", dict(type=positive_int, default=2)),
            ("--n", dict(type=positive_int, default=18)),
            optional(P, 3), optional(Q, 1),
            ("--r", dict(type=positive_int, default=1)),
            ("--trials", dict(type=positive_int, default=10)),
            ("--corners", dict(type=positive_int, default=5)),
            THRESHOLD)),
        "convexity": (cmd_verify_convexity, SOLVER + (
            INPUT, optional(P, 1), optional(Q, 1),
            ("--pairs", dict(type=positive_int, default=10)),
            THRESHOLD)),
        "pauli": (cmd_verify_pauli, (THRESHOLD,)),
        "perturbation": (cmd_verify_perturbation, SOLVER + (
            ("--m", dict(type=positive_int, default=2)),
            ("--n", dict(type=positive_int, default=16)),
            optional(P, 1), optional(Q, 1),
            ("--trials", dict(type=positive_int, default=10)),
            ("--rank", dict(type=positive_int, default=2)),
            THRESHOLD)),
    },
}


def command_parser(parser, handler, specs) -> argparse.ArgumentParser:
    """Add specs and OUT to parser and bind handler as args.func."""
    for flag, kw in specs + (OUT,):
        parser.add_argument(flag, **kw)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full tree of every group and command, for help and usage errors."""
    parser = _Parser(prog="matrange",
                     description="generalized numerical ranges with certificates")
    top = parser.add_subparsers(dest="group", required=True)
    for group, ops in COMMANDS.items():
        sub = top.add_parser(group).add_subparsers(dest="op", required=True)
        for op, (handler, specs) in ops.items():
            command_parser(sub.add_parser(op), handler, specs)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse with one command's parser when argv[:2] names a command, so a
    run builds no parser it does not use; otherwise with the full tree."""
    group, op = (argv + [None, None])[:2]
    entry = COMMANDS.get(group, {}).get(op)
    if entry is None:
        return build_parser().parse_args(argv)
    parser = command_parser(_Parser(prog=f"matrange {group} {op}"), *entry)
    return parser.parse_args(argv[2:], argparse.Namespace(group=group, op=op))


def main(argv=None) -> int:
    formatwarning = warnings.formatwarning  # restored on return
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        # a tuple whose entries overflow is reported through its residuals
        # (written as null), not through numpy's floating-point warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _finish(args.func(args), args)
    except OSError as e:  # _emit reports its own failures as writes
        print(f"error: cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, ParseError, SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (DimensionError, StructuralInfeasibility, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
