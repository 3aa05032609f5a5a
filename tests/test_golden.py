"""Golden reports: `ocquad analyze <builtin>` at seed 42 with default flags.

Each `golden/<problem>.json` holds the exit code and the full JSON report.
Strings, integers, booleans and the shape of the report must match exactly
(family expressions, `rational` flags, verdict, selection, lambdas, xi,
admissible levels, rank list, diagnostics); floats must agree within 1e-9.

A change that alters a report on purpose rewrites the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
"""

import json
import os
import sys

import pytest

from ocquad.cli import build_parser, run_analyze
from ocquad.problems import BUILTIN_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FLOAT_TOL = 1e-9


def analyze(name):
    options = build_parser().parse_args(["analyze", name, "--seed", "42"])
    report, code = run_analyze(name, options)
    # through JSON, as the CLI prints it: tuples become lists
    return {"exit_code": code, "report": json.loads(json.dumps(report))}


def assert_matches(got, want, path="$"):
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{path}: {got!r} is not a number"
        assert abs(got - want) <= FLOAT_TOL, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: {got!r} is not an object"
        assert sorted(got) == sorted(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{path}: {got!r} is not a list"
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_matches_golden(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        want = json.load(fh)
    assert_matches(analyze(name), want)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for problem in BUILTIN_NAMES:
        with open(os.path.join(GOLDEN_DIR, f"{problem}.json"), "w") as out:
            json.dump(analyze(problem), out, indent=2)
            out.write("\n")
        print(problem, file=sys.stderr)
