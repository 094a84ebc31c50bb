"""A fuzzer over the command table: every argv ends in a documented exit.

The strategy is built from `cli.COMMANDS` itself, so a new command or flag
is drawn without editing this file.  Every flag that takes a value gets one
from a small pool of valid and invalid spellings; whole numbers in the pool
stay at 3 or below, so a drawn `--restarts`, `--count` or `--trials` keeps a
run short, and 1e308 stays in it for `--accept-tol`.  Optional flags with a
value are always given, so no large default applies; a required flag is
sometimes left out, and a switch is drawn on or off.  The input files hold
tiny tuples (n <= 6), some scaled to the edges of the double range, and
files that are not tuples at all.
"""

import argparse
import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matrange.cli import COMMANDS, main
from matrange.io import save_tuple
from matrange.linalg import HermitianTuple
from matrange.verify import random_hermitian_tuple

VALUES = ("0", "-1", "1", "2", "3", "0.5", "x", "nan", "inf", "1e308", "1e-320")
DOCS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
# every kind docs/formats.md documents, as `kind: "..."` or a `- "..."` entry
KINDS = {kind for pair in re.findall(r'kind: "([a-z-]+)"|^- `"([a-z-]+)"`',
                                    DOCS.read_text(encoding="utf-8"), re.M)
         for kind in pair if kind}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(paths of tiny tuple files, paths of no tuple file, their directory)."""
    d = tmp_path_factory.mktemp("fuzz")

    def tuple_file(name, mats):
        save_tuple(mats, d / name)
        return str(d / name)

    paths = [tuple_file(f"gue-{m}-{n}.json", random_hermitian_tuple(m, n, m + n))
             for m, n in ((1, 1), (1, 6), (2, 4), (3, 6))]
    paths += [
        tuple_file("huge.json", HermitianTuple(1e300 * random_hermitian_tuple(2, 5, 0).mats)),
        tuple_file("tiny.json", HermitianTuple(1e-300 * random_hermitian_tuple(2, 5, 1).mats)),
        tuple_file("zero.json", HermitianTuple(np.zeros((2, 3, 3)))),
        tuple_file("scalar.json", HermitianTuple(np.stack([np.eye(4), -2 * np.eye(4)]))),
        tuple_file("complex.json", [np.array([[1, 2j, 0], [0, 1, 1], [1j, 0, 0]])]),
    ]
    others = []
    for name, text in (("schema.json", '{"kind":"tuple"}\n'),
                       ("truncated.json", '{"schema_version":"1","kind":"tu'),
                       ("nan.json", '{"schema_version":"1","kind":"tuple","m":1,"n":1,'
                                    '"hermitian":true,"matrices":[[[[NaN,0]]]]}\n')):
        (d / name).write_text(text)
        others.append(str(d / name))
    return paths, others + [str(d), str(d / "missing.json")], d


def parses(kw, value) -> bool:
    """Whether the flag's own argparse type (or choices) takes value."""
    if "choices" in kw:
        return value in kw["choices"]
    try:
        kw.get("type", str)(value)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return False
    return True


def mostly(good, other, every=10):
    """Strategy for an item of good, and about once in `every` draws of
    other (always of other when good is empty)."""
    # hypothesis favours the ends of a range, so other sits in its middle
    return st.integers(0, every - 1).flatmap(
        lambda i: st.sampled_from(other if i == every // 2 or not good else good))


def flag_values(flag, kw, inputs):
    """Strategy for the argv words of one flag: [], [flag] or [flag, value].
    A value mostly parses and an input mostly holds a tuple, so that most
    runs get past the parser and the reader."""
    tuples, others, d = inputs
    if kw.get("action") == "store_true":
        return st.sampled_from([[], [flag]])
    if flag == "--input":
        values = mostly(tuples, others, every=5)
    elif flag == "--svg":
        values = st.sampled_from([str(d / "out.svg"), str(d / "nodir" / "out.svg")])
    else:
        pool = list(kw.get("choices", ())) + list(VALUES)
        values = mostly([v for v in pool if parses(kw, v)], pool)
    words = values.map(lambda v: [flag, v])
    if kw.get("required"):  # now and then left out: the parser refuses it
        return mostly([True], [False], every=20).flatmap(
            lambda keep: words if keep else st.just([]))
    return words


def argv_for(inputs, out):
    """Strategy for whole argv lists of every command in COMMANDS."""
    commands = []
    for group, ops in COMMANDS.items():
        for op, (_, specs) in ops.items():
            words = [flag_values(flag, kw, inputs) for flag, kw in specs]
            commands.append(st.tuples(st.just([group, op]), *words))
    to_out = st.sampled_from([[], ["--out", out]])
    return st.tuples(st.one_of(commands), to_out).map(
        lambda t: [w for part in t[0] for w in part] + t[1])


@pytest.fixture(scope="module")
def out_path(inputs):
    return str(inputs[2] / "doc.json")


def show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; a UserWarning
    goes to stderr as Python shows it outside pytest, and the suite's
    error::RuntimeWarning filter still holds."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = show
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def test_kinds_are_read_from_the_format_docs():
    assert {"cloud", "report", "rejection", "tverberg-lift", "numrange-boundary"} <= KINDS


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit(inputs, out_path, data):
    argv = data.draw(argv_for(inputs, out_path), label="argv")
    Path(out_path).unlink(missing_ok=True)
    code, stdout, stderr = run(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code, stderr)
    lines = stderr.splitlines()
    if code in (2, 3):  # refused: one line, and no document
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, stderr)
        assert not Path(out_path).exists()
        return
    assert all(line.startswith("warning: ") for line in lines), (argv, stderr)
    text = Path(out_path).read_text() if "--out" in argv else stdout
    doc = json.loads(text)
    want = {0: KINDS - {"rejection"}, 4: {"rejection"}, 5: {"report"}}[code]
    assert doc["kind"] in want, (argv, doc["kind"])
    if argv[0] == "verify" and code != 4:  # a suite may reject its star center
        assert doc["kind"] == "report"
