"""The reference runs of `ocquad analyze`, one in-process runner and one
report differ.

RUNS is the one list of reference runs outside `perfbench/`: the six
built-ins and `sr-2-3`/`sr-2-3-5 --poly-degree 4` at seeds 42, 7 and 3, a
rank gate that reads past its first five seeds, the implicit backend, three
small `--poly-degree` searches and one text report.  The fifteen runs with a
`golden` file are pinned by `tests/golden/`.  `tests/test_golden.py`
compares the golden runs with their files, and `tools/compare_runs.py`
diffs JSON_RUNS between two trees and checks every run of the working tree.

`run(argv)` gives a run's document: its exit code, stderr, warnings and
report.  `diff(before, after)` sorts every change between two documents
into floats that moved and structural changes.

    PYTHONPATH=src python tools/reference_runs.py > OUT.json

runs RUNS in one interpreter, then `problems --dump` and `analyze` on the
dumped `dubins.json`, so the file loader runs too.  All of it runs under
`sys.settrace` with call events only, and the import of `ocquad.cli` counts
as the first run's.  It writes {"ocquad": the package file, "runs": {label:
document}, "entered": [[file, first line] of every code object of the
package that was entered]} to stdout.  A run's label is its `args`; the two
file runs name the dump directory DIR.  `compare_runs.py` starts one such
child per tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
FLOAT_TOL = 1e-9    # how far a golden float may move


class Run(NamedTuple):
    args: str                   # after `ocquad analyze`, split on spaces
    golden: str | None = None   # its report under tests/golden/

    @property
    def argv(self) -> list[str]:
        return ["analyze", *self.args.split()]


RUNS = (
    Run("dubins --seed 42", "dubins.json"),
    Run("martinet --seed 42", "martinet.json"),
    Run("trailer --seed 42", "trailer.json"),
    Run("sr-2-3 --seed 42", "sr-2-3.json"),
    Run("sr-2-3-4 --seed 42", "sr-2-3-4.json"),
    Run("sr-2-3-5 --seed 42", "sr-2-3-5.json"),
    # the benchmark's poly-dense workload
    Run("sr-2-3 --poly-degree 4 --seed 42", "poly/sr-2-3.json"),
    Run("sr-2-3-5 --poly-degree 4 --seed 42", "poly/sr-2-3-5.json"),
    Run("dubins --seed 7", "seed7/dubins.json"),
    Run("martinet --seed 7", "seed7/martinet.json"),
    Run("trailer --seed 7", "seed7/trailer.json"),
    Run("sr-2-3 --seed 7", "seed7/sr-2-3.json"),
    Run("sr-2-3-4 --seed 7", "seed7/sr-2-3-4.json"),
    Run("sr-2-3-5 --seed 7", "seed7/sr-2-3-5.json"),
    Run("sr-2-3 --poly-degree 4 --seed 7"),
    Run("sr-2-3-5 --poly-degree 4 --seed 7"),
    Run("dubins --seed 3"),
    Run("martinet --seed 3"),
    Run("trailer --seed 3"),
    Run("sr-2-3 --seed 3"),
    Run("sr-2-3-4 --seed 3"),
    Run("sr-2-3-5 --seed 3"),
    Run("sr-2-3 --poly-degree 4 --seed 3"),
    Run("sr-2-3-5 --poly-degree 4 --seed 3"),
    # a rank gate reads seeds past its first five after one diverges: the
    # sixth seed diverges too, and the seventh converges
    Run("martinet --seed 17", "seed17/martinet.json"),
    # the generated RK4 step through Newton-solved stages and trigonometric
    # calls
    Run("dubins --backend implicit"),
    # the sampled dense search, whose H is not a polynomial
    Run("dubins --poly-degree 3"),
    Run("martinet --poly-degree 3"),
    Run("trailer --poly-degree 2"),
    Run("martinet --format text"),
)
# a text report prints its floats rounded, so a float that moves changes its
# text: the differ reads JSON reports only
JSON_RUNS = tuple(r for r in RUNS if "--format text" not in r.args)
FILE_RUN = "dubins"     # read back from the file `problems --dump` writes


def run(argv: list[str]) -> dict:
    """`ocquad <argv>` in this interpreter, as the document
    {"exit_code", "stderr", "warnings", "report"}.

    `ocquad.cli` is imported inside the first call, so a tracer set before
    it sees the modules load, and what the import writes or warns is that
    run's.  Every warning is recorded each time it is raised, as
    "Category: message".  The report is stdout read as JSON, or stdout as
    text when it is not JSON (a text report, or nothing after an error).  An
    exception other than SystemExit raises through.
    """
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        from ocquad import cli
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # a flag refused by argparse in a tree older than cli._Parser
            code = exc.code
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = out.getvalue()
    return {"exit_code": code, "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "report": report}


@dataclass
class Diff:
    """The changes between two run documents: one line per structural
    change, and (path, before, after) per float that moved."""

    structural: list[str] = field(default_factory=list)
    moved: list[tuple[str, float, float]] = field(default_factory=list)

    def beyond(self, tol: float) -> list[str]:
        """The structural changes, then each float that moved by more than `tol`."""
        return self.structural + [f"{path}: {a!r} -> {b!r}"
                                  for path, a, b in self.moved if not abs(b - a) <= tol]

    def largest_move(self) -> tuple[float, str, float, float]:
        """(relative move, path, before, after) of the float that moved most."""
        return max((abs(b - a) / (max(abs(a), abs(b)) or 1.0), path, a, b)
                   for path, a, b in self.moved)


def diff(before, after, path: str = "$", into: Diff | None = None) -> Diff:
    """Every change from `before` to `after`, two JSON documents.  A float
    that changes by any amount, one ulp included, has moved.  Any change of
    a string, int, bool or null, a key set, a list length or a type is
    structural."""
    into = Diff() if into is None else into
    if type(before) is float and type(after) is float:
        if repr(before) != repr(after):     # bit for bit; NaN equals NaN
            into.moved.append((path, before, after))
    elif isinstance(before, dict) and isinstance(after, dict):
        if before.keys() != after.keys():
            into.structural.append(f"{path}: keys {sorted(before.keys() - after.keys())} "
                                   f"gone, {sorted(after.keys() - before.keys())} new")
        for key in before:      # in the report's order, not a set's
            if key in after:
                diff(before[key], after[key], f"{path}.{key}", into)
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        for i, (b, a) in enumerate(zip(before, after)):
            diff(b, a, f"{path}[{i}]", into)
    elif type(before) is not type(after) or before != after:
        into.structural.append(f"{path}: {_short(before)} -> {_short(after)}")
    return into


def keep_unmoved(stored, new, tol: float = FLOAT_TOL):
    """`new`, with each float of `stored` kept where the new value at the
    same path is within `tol` of it."""
    if type(stored) is float and type(new) is float:
        return stored if abs(new - stored) <= tol else new
    if isinstance(stored, dict) and isinstance(new, dict):
        return {k: keep_unmoved(stored[k], v, tol) if k in stored else v
                for k, v in new.items()}
    if isinstance(stored, list) and isinstance(new, list) and len(stored) == len(new):
        return [keep_unmoved(s, v, tol) for s, v in zip(stored, new)]
    return new


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def trace_runs() -> tuple[dict, list]:
    """(label -> document of every run, sorted [file, first line] of every
    code object of the `ocquad` package that the runs entered)."""
    documents, entered = {}, set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))   # returns None: no line events

    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            argvs = {r.args: r.argv for r in RUNS}
            argvs["problems --dump DIR"] = ["problems", "--dump", tmp]
            argvs[f"DIR/{FILE_RUN}.json"] = ["analyze", os.path.join(tmp, f"{FILE_RUN}.json")]
            for label, argv in argvs.items():
                try:
                    documents[label] = run(argv)
                except Exception as exc:    # a traceback is a result to compare
                    documents[label] = {"exit_code": None,
                                        "stderr": f"{type(exc).__name__}: {exc}",
                                        "warnings": [], "report": ""}
    finally:
        sys.settrace(None)
    package = os.path.dirname(os.path.realpath(sys.modules["ocquad"].__file__))
    files = {f: os.path.realpath(f) for f, _ in entered}
    return documents, sorted([files[f], line] for f, line in entered
                             if os.path.dirname(files[f]) == package)


if __name__ == "__main__":
    runs, entered = trace_runs()
    json.dump({"ocquad": sys.modules["ocquad"].__file__, "runs": runs, "entered": entered},
              sys.stdout)
