"""Span tracing of matrange's layers from outside the program.

`Tracer.install` replaces each traced public function at every module
binding of `matrange` that holds it (the defining module and every module
that imported it by name), so calls are caught where the callers make them.
Spans are kept in memory; `write` stores them as JSON lines when the run
ends, and `layer_metrics` turns them into per-layer counts and self times.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# (defining module, function) of every traced layer boundary; the span is
# named "<module>.<function>" without the package prefix
TARGETS = (
    ("cli", "main"),
    ("io", "load_tuple"),
    ("io", "canonical_dumps"),
    ("constructions", "star_center_scalar"),
    ("constructions", "segment_witness"),
    ("constructions", "deflated_solve"),
    ("constructions", "deflation_corner"),
    ("constructions", "tverberg_lift"),
    ("constructions", "essential_estimate"),
    ("feasibility", "membership"),
    ("feasibility", "solve_free"),
    ("feasibility", "solve_support"),
    ("feasibility", "sample_range"),
    ("tverberg", "tverberg_partition"),
    ("tverberg", "lp_common_point"),
    ("ranges", "numrange_boundary"),
    ("ranges", "rank_k_interval"),
    ("linalg", "herm_eig"),
    ("linalg", "random_isometry"),
    ("linalg", "compress"),
)
SOLVERS = ("feasibility.membership", "feasibility.solve_free", "feasibility.solve_support")

# the per-layer metrics, in the order BENCHMARK.json lists them
SELF_TIMES = (
    "cli.main", "io.load_tuple", "io.canonical_dumps",
    "constructions.star_center_scalar", "constructions.segment_witness",
    "constructions.deflation_corner", "constructions.tverberg_lift",
    "constructions.essential_estimate", "verify.suites",
    "feasibility.membership", "feasibility.solve_free", "feasibility.solve_support",
    "feasibility.sample_range", "tverberg.tverberg_partition", "tverberg.lp_common_point",
    "ranges.numrange_boundary", "ranges.rank_k_interval",
    "linalg.herm_eig", "linalg.random_isometry", "linalg.compress",
)
CALLS = (
    "constructions.deflated_solve", "feasibility.membership", "feasibility.solve_free",
    "feasibility.solve_support", "tverberg.tverberg_partition", "tverberg.lp_common_point",
    "linalg.herm_eig",
)


class Tracer:
    def __init__(self, alloc: bool = False):
        # alloc=False records spans; alloc=True only measures the tracemalloc
        # peak of each outermost feasibility call, whose allocation tracing
        # would otherwise inflate every span's self time many times over
        self.alloc = alloc
        # each span is [name, start, end, parent index or -1, op index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.restarts = 0
        self.results = 0
        self.scanned = 0
        self.peak_alloc = 0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        import matrange.verify
        out = [(mod, fn) for mod, fn in TARGETS]
        out += [("verify", name) for name in sorted(vars(matrange.verify))
                if name.startswith("check_") and callable(getattr(matrange.verify, name))]
        return out

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "matrange" or name.startswith("matrange.")]
        for mod, fn in self._targets():
            if self.alloc and mod != "feasibility":
                continue
            orig = getattr(sys.modules["matrange." + mod], fn)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        binding = m.__name__.rpartition(".")[2]
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, self._wrap(f"{mod}.{fn}", orig, binding))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, binding: str):
        if self.alloc:
            return self._wrap_alloc(fn)
        counts_restart = name == "linalg.random_isometry" and binding == "feasibility"
        tracer = self

        def traced(*args, **kwargs):
            if counts_restart:
                tracer.restarts += 1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if name in SOLVERS:
                tracer.results += 1
            elif name == "tverberg.tverberg_partition":
                tracer.scanned += int(result.partitions_scanned)
            return result

        return traced

    def _wrap_alloc(self, fn):
        tracer = self

        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.peak_alloc = max(tracer.peak_alloc, peak)

        return measured

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self times, call counts and counters; peak_alloc_mb comes from a
        separate alloc-mode tracer."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            key = "verify.suites" if name.startswith("verify.check_") else name
            self_s[key] = self_s.get(key, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        out = {f"{k}.self_s": (self_s.get(k, 0.0), "s") for k in SELF_TIMES}
        out.update({f"{k}.calls": (calls.get(k, 0), "count") for k in CALLS})
        out["feasibility.restarts"] = (self.restarts, "count")
        out["feasibility.restarts_per_result"] = (
            self.restarts / self.results if self.results else 0.0, "ratio")
        out["tverberg.partitions_scanned"] = (self.scanned, "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
