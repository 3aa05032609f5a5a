"""Seeded random problem files through `ocquad analyze FILE --degree 1`.

A problem file, however hostile, ends with exit code 0 or 2 and nothing on
stderr, or with exit code 1 and one `error:` line: never a traceback or a
warning.  A report that verified no extremal has no numeric drift.
`problem_file(seed)` builds one file from numpy's RNG:

- 1 to 3 states and 1 or 2 controls;
- sum(u_j^2)/2 as the Lagrangian 90% of the time, else a free expression;
- each dynamics entry u_j * e(x, t) 60% of the time, else a free expression;
- expression trees of depth up to 3 over the symbols, small rationals,
  10^20, 10^30 and 0.001, with + - * /, the powers 2, 3, 1/2, -1, 3/2 and
  0, and sin, cos, tan, exp, ln and sqrt;
- an excluded denominator 30% of the time, and a wide x1 box 20% of the
  time.

Each file runs in-process through `reference_runs.run`, the runner of the
reference runs.  Tier-1 runs the seeds in SEEDS: the first 60 of the sweep
(about 4 s on a 2-vCPU Xeon host); seeds 241, 401, 916 and 2966, whose
files hold a constant that is not real under a fractional power and must
exit 1; seeds 1572, 2374 and 2867, whose residual systems overflow and must
exit 1; seed 1074, whose excluded denominator turns complex along an
extremal; seed 1953, whose rank-gate projection loses every column; and
seed 181, whose family brackets overflow at the sampled points and must
exit 1.  It also runs the seeds of IMPLICIT_SEEDS with `--backend
implicit`.  A sweep over seeds 0..COUNT-1 runs with

    PYTHONPATH=src python tests/test_fuzz.py [COUNT [FLAG ...]]

which passes each FLAG on to `analyze` (`--backend implicit`, say), and
prints each seed's exit code and seconds, and every seed that breaks the
rule.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from reference_runs import run  # noqa: E402

CONSTANTS = ("1", "2", "3", "1/2", "2/3", "-1", "10^20", "10^30", "0.001")
POWERS = ("2", "3", "(1/2)", "(-1)", "(3/2)", "0")
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")

# (-1)^(3/2), (sqrt(-1))^(1/2), sqrt(ln(x2) * sqrt(-1)) and
# sqrt(2/3 - sqrt(3)): a constant that is not real, refused where the file
# is read
NON_REAL = (241, 401, 916, 2966)
# the family's holdout monomials overflow, as its sampled system's would
NOT_FINITE = (1572, 2374, 2867)
# the family's values near 8e160 overflow in its bracket tensors
SPAN_NOT_FINITE = (181,)
SEEDS = [*range(60), *NON_REAL, *NOT_FINITE, *SPAN_NOT_FINITE,
         # an excluded denominator that turns complex along an extremal
         1074,
         # the rank gate's projection loses every column
         1953]
# with `--backend implicit`: a component that overflows along an extremal
# which grows without bound, whose drift is missing, with the reason
IMPLICIT_SEEDS = (29,)


def expression(rng, symbols, depth):
    """A random expression tree of at most `depth` levels over `symbols`."""
    pick = rng.random()
    if depth == 0 or pick < 0.25:
        pool = symbols if rng.random() < 0.6 else CONSTANTS
        return str(pool[rng.integers(len(pool))])
    if pick < 0.6:
        op = "+-*/"[rng.integers(4)]
        return f"({expression(rng, symbols, depth - 1)} {op} {expression(rng, symbols, depth - 1)})"
    if pick < 0.8:
        return f"({expression(rng, symbols, depth - 1)})^{POWERS[rng.integers(len(POWERS))]}"
    return f"{FUNCTIONS[rng.integers(len(FUNCTIONS))]}({expression(rng, symbols, depth - 1)})"


def problem_file(seed):
    """The problem document of one seed."""
    rng = np.random.default_rng(seed)
    states = [f"x{i}" for i in range(1, int(rng.integers(1, 4)) + 1)]
    controls = [f"u{j}" for j in range(1, int(rng.integers(1, 3)) + 1)]
    free = states + ["t"]
    if rng.random() < 0.9:
        lagrangian = " + ".join(f"{u}^2/2" for u in controls)
    else:
        lagrangian = expression(rng, free + controls, 3)
    dynamics = [f"{controls[rng.integers(len(controls))]}*{expression(rng, free, 3)}"
                if rng.random() < 0.6 else expression(rng, free + controls, 3)
                for _ in states]
    doc = {"name": f"fz{seed}", "states": states, "controls": controls, "time": "t",
           "lagrangian": lagrangian, "dynamics": dynamics}
    if rng.random() < 0.3:
        doc["excluded_denominators"] = [expression(rng, free, 2)]
    if rng.random() < 0.2:
        doc["sampling_box"] = {"x1": [-100, 100]}
    return doc


def analyze(seed, directory, flags=()):
    """The run document of `ocquad analyze` on the seed's file, with `flags`
    after the default ones."""
    path = Path(directory) / f"fz{seed}.json"
    path.write_text(json.dumps(problem_file(seed)))
    return run(["analyze", str(path), "--degree", "1", *flags])


def broken(doc):
    """Why a run breaks the rule, or None."""
    code, err, caught = doc["exit_code"], doc["stderr"], doc["warnings"]
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if caught:
        return f"warned: {caught}"
    if code == 1:
        if not (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")):
            return f"exit 1 with stderr {err!r}"
    elif err:
        return f"exit {code} with stderr {err!r}"
    else:
        verification = doc["report"]["verification"]
        if not verification["trajectories"] and any(
                d["max_drift"] is not None for d in verification["drift"]):
            return "a drift with no extremal behind it"
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_problem_file_ends_in_a_report_or_one_error_line(seed, tmp_path):
    doc = analyze(seed, tmp_path)
    assert broken(doc) is None
    code, err = doc["exit_code"], doc["stderr"]
    if seed in NON_REAL:
        assert code == 1 and err.endswith(" is not real\n")
    if seed in NOT_FINITE:
        assert code == 1 and err.startswith("error: the sampled residual system is not finite")
    if seed in SPAN_NOT_FINITE:
        assert code == 1 and err.startswith("error: the family's sampled values or brackets")


@pytest.mark.parametrize("seed", IMPLICIT_SEEDS)
def test_implicit_backend_file_ends_in_a_report_or_one_error_line(seed, tmp_path):
    doc = analyze(seed, tmp_path, ["--backend", "implicit"])
    assert broken(doc) is None
    assert doc["exit_code"] == 0
    missing = [d for d in doc["report"]["verification"]["drift"] if d["max_drift"] is None]
    assert [d["missing"] for d in missing] == ["not finite along an extremal"]


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    flags = sys.argv[2:]
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for seed in range(count):
            start = time.monotonic()
            try:
                doc = analyze(seed, directory, flags)
                code, why = doc["exit_code"], broken(doc)
            except Exception as exc:    # a traceback in a test run
                code, why = None, f"raised {type(exc).__name__}: {exc}"
            failures += why is not None
            print(f"seed {seed}: exit {code} in {time.monotonic() - start:.2f} s"
                  + (f"  BROKEN: {why}" if why else ""), flush=True)
    print(f"{failures} of {count} seeds broke the rule")
    sys.exit(1 if failures else 0)
