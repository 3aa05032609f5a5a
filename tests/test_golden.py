"""Golden reports: `ocquad analyze <builtin>` at fixed seeds and flags.

Each `golden/<problem>.json` (seed 42), `golden/seed7/<problem>.json`
(seed 7) and `golden/poly/<problem>.json` (seed 42, `--poly-degree 4`, for
`sr-2-3` and `sr-2-3-5` only) holds the exit code and the full JSON report.
Strings, integers, booleans and the shape of the report must match exactly
(family expressions, `rational` flags, verdict, selection, lambdas, xi,
admissible levels, rank list, diagnostics, polynomial family); floats must
agree within 1e-9.

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
POLY_NAMES = ("sr-2-3", "sr-2-3-5")
POLY_FLAGS = ("--poly-degree", "4")
# case -> (directory, seed, extra flags, problems)
GOLDEN_CASES = {
    "seed42": (GOLDEN_DIR, 42, (), BUILTIN_NAMES),
    "seed7": (os.path.join(GOLDEN_DIR, "seed7"), 7, (), BUILTIN_NAMES),
    "poly": (os.path.join(GOLDEN_DIR, "poly"), 42, POLY_FLAGS, POLY_NAMES),
}
FLOAT_TOL = 1e-9


def analyze(name, seed, flags=()):
    options = build_parser().parse_args(["analyze", name, "--seed", str(seed), *flags])
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


def check_golden(name, case):
    directory, seed, flags, _ = GOLDEN_CASES[case]
    with open(os.path.join(directory, f"{name}.json")) as fh:
        want = json.load(fh)
    assert_matches(analyze(name, seed, flags), want)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_matches_golden(name):
    check_golden(name, "seed42")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_matches_golden_seed7(name):
    check_golden(name, "seed7")


@pytest.mark.parametrize("name", POLY_NAMES)
def test_report_matches_golden_poly(name):
    check_golden(name, "poly")


if __name__ == "__main__":
    for case, (directory, seed, flags, problems) in GOLDEN_CASES.items():
        os.makedirs(directory, exist_ok=True)
        for problem in problems:
            with open(os.path.join(directory, f"{problem}.json"), "w") as out:
                json.dump(analyze(problem, seed, flags), out, indent=2)
                out.write("\n")
            print(case, problem, file=sys.stderr)
