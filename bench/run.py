"""matrange benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  The run

1. builds every seeded input of the run and runs the workload's fixed
   operation list once, timing each operation alone and checking its output
   afterwards with plain numpy (checks.py);
2. measures set-up: SETUP_PROBES fresh child processes, started between
   operations, each import matrange, generate the run's inputs and write the
   tuple files; the median of their times is `setup_s`;
3. prints one JSON object as the last line of standard output.

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb).  With --trace 1 there are no set-up probes; the
operation list runs untraced, then again under spans (spans.py), and the
first round's solver operations run a third time under tracemalloc; the
metrics are the per-layer ones plus the tracing overhead, and the spans are
written to bench/traces/.

Threads are pinned to one (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS) before
numpy loads.  Exit status: 0 when every output checked out (a documented
known fault may still fail), 1 otherwise, 2 when the source tree is absent.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr

# one BLAS thread: the installed OpenBLAS otherwise spreads small products
# over both cores, and the child set-up probes inherit the setting
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# the keys of workloads.OPERATION_LISTS, repeated so that parsing imports no numpy
WORKLOADS = ("certify-mix", "reject-budget", "tverberg-lift", "spectral")
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="RUNDIR", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Put ./src first on the path and import matrange from it."""
    sys.path.insert(0, SRC)
    import matrange
    if os.path.dirname(os.path.dirname(os.path.abspath(matrange.__file__))) != SRC:
        raise SystemExit(f"error: matrange imported from {matrange.__file__}, not {SRC}")
    return matrange


def setup_probe(args) -> None:
    """Child mode: time import + input generation + tuple writing."""
    start = time.perf_counter()
    import_program()
    import workloads
    workloads.setup(args.workload, args.seed,
                    workloads.rounds_for(args.workload, args.seconds), args.setup_probe)
    print(repr(time.perf_counter() - start))


def setup_time(args, probedir: str) -> float:
    """One set-up, timed inside a fresh child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--setup-probe", probedir],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_ops(ops, out_bytes=None):
    """Run every operation once; return per-op (seconds, status, note).

    status is "ok", "known" (failed by the documented fault its op names) or
    "failed" (error or wrong output).  Check time is never timed.
    """
    import checks
    rows = []
    for op in ops:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        gc.collect()
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err):
                result = op.call()
        except Exception:  # the run must go on; the op is recorded as failed
            dt = time.perf_counter() - t0
            rows.append((dt, "failed", traceback.format_exc(limit=3)))
            continue
        dt = time.perf_counter() - t0
        if out_bytes is not None and op.out and os.path.exists(op.out):
            out_bytes[0] += os.path.getsize(op.out)
        if op.known_fault and result != 0 and op.known_fault in err.getvalue():
            rows.append((dt, "known", err.getvalue().strip()))
            continue
        try:
            op.check(result)
        except checks.CheckError as e:
            rows.append((dt, "failed", f"{e}; stderr: {err.getvalue().strip()[:300]}"))
            continue
        rows.append((dt, "ok", ""))
    return rows


def summarize(ops, rows) -> None:
    """Per-label counts and median times, for people reading the log."""
    by = {}
    for op, (dt, status, _) in zip(ops, rows):
        by.setdefault(op.label, []).append((dt, status))
    for label, vals in by.items():
        ts = [dt for dt, _ in vals]
        bad = sum(s != "ok" for _, s in vals)
        print(f"  {label:22s} n={len(ts):3d} failed={bad:2d} "
              f"p50={statistics.median(ts):.4f}s total={sum(ts):.3f}s")
    seen = set()
    for op, (dt, status, note) in zip(ops, rows):
        line = f"  {status}: {op.label}: {note.splitlines()[-1] if note else ''}"
        if status != "ok" and line not in seen:
            seen.add(line)
            print(line)


def metric(value, unit):
    return {"value": value, "unit": unit}


def traced_pass(args, ops, rounds, untraced_rows):
    """Run the list again under spans, then measure the allocation peak.

    Returns the merged per-op rows and the per-layer metrics.
    """
    import spans
    tracer = spans.Tracer()
    out_bytes = [0]
    traced_rows = []
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            traced_rows += run_ops([op], out_bytes)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(BENCH, "traces"), exist_ok=True)
    tracer.write(os.path.join(BENCH, "traces", f"{args.workload}-seed{args.seed}.jsonl"))

    # tracemalloc slows numpy-heavy Python several times over, so the peak
    # is taken in a pass of its own over the first operation of each label
    # in the first round (every round repeats the same shapes) that entered
    # feasibility
    entered = {span[4] for span in tracer.spans if span[0].startswith("feasibility.")}
    first = {}
    for i, op in enumerate(ops[:len(ops) // rounds]):
        if i in entered:
            first.setdefault(op.label, op)
    alloc = spans.Tracer(alloc=True)
    alloc.install()
    t0 = time.perf_counter()
    try:
        run_ops(list(first.values()))
    finally:
        alloc.uninstall()
    print(f"traced pass {sum(dt for dt, _, _ in traced_rows):.3f}s, "
          f"{len(tracer.spans)} spans; allocation pass {len(first)} ops "
          f"{time.perf_counter() - t0:.3f}s")

    untraced = sum(dt for dt, _, _ in untraced_rows)
    metrics = {k: metric(v, u) for k, (v, u) in tracer.layer_metrics().items()}
    metrics["feasibility.peak_alloc_mb"] = metric(alloc.peak_alloc / 2**20, "MB")
    metrics["io.out_bytes"] = metric(out_bytes[0], "bytes")
    metrics["trace.untraced_s"] = metric(untraced, "s")
    metrics["trace.overhead_s"] = metric(sum(dt for dt, _, _ in traced_rows) - untraced, "s")
    rows = [a if a[1] != "ok" else b for a, b in zip(untraced_rows, traced_rows)]
    return rows, metrics


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if not os.path.isfile(os.path.join(SRC, "matrange", "__init__.py")):
        print(f"error: no matrange sources under {SRC}", file=sys.stderr)
        return 2

    rundir = os.path.join(BENCH, ".runs", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        import_program()
        import workloads
        rounds = workloads.rounds_for(args.workload, args.seconds)
        ops = workloads.setup(args.workload, args.seed, rounds, rundir)
        gc.collect()
        gc.freeze()  # later collections skip the set-up's objects
        # the set-up probes are spread over the run, between operations, so
        # that their median averages over the host's drift like the rest
        cuts = [len(ops) * i // (SETUP_PROBES - 1) for i in range(SETUP_PROBES)]
        rows, setup_times = [], []
        for i in range(SETUP_PROBES):
            if not args.trace:
                setup_times.append(setup_time(args, os.path.join(rundir, "probe")))
            if i + 1 < SETUP_PROBES:
                rows += run_ops(ops[cuts[i]:cuts[i + 1]])
        untraced = sum(dt for dt, _, _ in rows)
        if args.trace:
            rows, metrics = traced_pass(args, ops, rounds, rows)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(rows)
    known = sum(s == "known" for _, s, _ in rows)
    failed = sum(s != "ok" for _, s, _ in rows)
    correct = failed == known
    print(f"{args.workload} seed={args.seed} rounds={rounds} ops={attempted} "
          f"failed={failed} (known fault {known}) op_time={untraced:.3f}s "
          f"set-up probes={sum(setup_times):.3f}s wall={time.perf_counter() - start:.3f}s")
    summarize(ops, rows)
    if not args.trace:
        # a failed operation counts as missing every latency bound
        p50 = statistics.median(dt if s == "ok" else math.inf for dt, s, _ in rows)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "ops_per_s": metric((attempted - failed) / untraced, "1/s"),
            "op_p50_s": metric(p50 if math.isfinite(p50) else None, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
