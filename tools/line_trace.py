"""Run the reference analyses and list the functions of `src/ocquad` that
they never enter.

    python tools/line_trace.py

Runs `ocquad.cli.main` in-process under `sys.settrace`, recording call
events only.  The trace starts before `ocquad` is imported, so functions
called while the modules load count as entered.  The runs are the six
built-ins and `sr-2-3`/`sr-2-3-5 --poly-degree 4` at seeds 42, 7 and 3,
`martinet --seed 11`, `dubins --backend implicit`, the three small
`--poly-degree` runs, `martinet --format text`, and `dubins` read back from
a file that `ocquad problems --dump` wrote, so the file loader runs.

A run fails when it exits with a code other than 0 or 2, or writes to
stderr: a traceback, an error line or a warning.  Warnings are shown every
time inside the runs, so one that an earlier run raised is not hidden, and
the import of `ocquad.cli` is held to the same rule.

Every function or method defined in `src/ocquad` (nested ones included)
that no run entered is printed with its allow-list reason.  The exit status
is 1 when a never-entered function is missing from `line_trace_allow.txt`,
when an entry there was entered or names no function, or when a run fails;
otherwise 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ocquad"
ALLOW_LIST = Path(__file__).resolve().parent / "line_trace_allow.txt"
REASONS = ("error path", "file input", "test helper", "paper claim")

BUILTINS = ("dubins", "martinet", "trailer", "sr-2-3", "sr-2-3-4", "sr-2-3-5")
# The benchmark's smoke run discards its children's stderr, so a new
# RuntimeWarning or traceback shows here only.  Newton solves and RK4 stages
# run on Python floats, which raise where numpy scalars warn.
RUNS = [
    # the 24 reference runs; the two --poly-degree 4 runs are the benchmark's
    # poly-dense workload
    *([*run.split(), "--seed", str(seed)]
      for seed in (42, 7, 3)
      for run in (*BUILTINS, "sr-2-3 --poly-degree 4", "sr-2-3-5 --poly-degree 4")),
    # a rank gate reads seeds past its first five after one diverges, then
    # converges one
    ["martinet", "--seed", "11"],
    # the generated RK4 step through Newton-solved stages and trigonometric
    # calls
    ["dubins", "--backend", "implicit"],
    # the sampled dense search, whose H is not a polynomial
    ["dubins", "--poly-degree", "3"],
    ["martinet", "--poly-degree", "3"],
    ["trailer", "--poly-degree", "2"],
    ["martinet", "--format", "text"],
]
FILE_RUN = "dubins"


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> `module.qualname` of every def."""
    out = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(path, line)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), f"{path.stem}.")
    return out


def read_allow_list() -> dict[str, str]:
    """`module.qualname` -> reason, one entry a line; `#` starts a comment."""
    entries = {}
    for line in ALLOW_LIST.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, reason = line.split(None, 1)
            entries[name] = reason.strip()
    return entries


def entered_codes():
    """Code objects entered by `cli.main` over all runs; failed runs as text."""
    entered = set()
    failures = []

    def tracer(frame, event, arg):
        entered.add(frame.f_code)      # returns None: no line events

    def quiet(label, call, *args):
        """call(*args) with stdout discarded; a failure if anything reaches
        stderr, warnings included."""
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("always")
            result = call(*args)
        if err.getvalue():
            failures.append(f"{label} wrote to stderr: {err.getvalue().strip()}")
        return result

    def run(cli, argv):
        code = quiet(" ".join(argv), cli.main, argv)
        if code not in (0, 2):
            failures.append(f"{' '.join(argv)} exited with {code}")

    sys.settrace(tracer)
    try:
        cli = quiet("import ocquad.cli", importlib.import_module, "ocquad.cli")
        for argv in RUNS:
            run(cli, ["analyze", *argv])
        with tempfile.TemporaryDirectory() as tmp:
            run(cli, ["problems", "--dump", tmp])
            run(cli, ["analyze", os.path.join(tmp, f"{FILE_RUN}.json")])
    finally:
        sys.settrace(None)
    return entered, failures


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    functions = defined_functions()
    allowed = read_allow_list()
    start = time.monotonic()
    codes, failures = entered_codes()
    seconds = time.monotonic() - start
    entered = {functions[key] for key in
               ((os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes)
               if key in functions}
    never = sorted(set(functions.values()) - entered)
    print(f"{len(RUNS) + 1} analyses in {seconds:.1f} s; {len(never)} of "
          f"{len(functions)} functions in src/ocquad never entered:")
    for name in never:
        print(f"  {name}  ({allowed.get(name, 'NOT IN THE ALLOW-LIST')})")
    problems = failures + [f"{name} was entered; drop it from the allow-list"
                           for name in sorted(entered & set(allowed))]
    problems += [f"{name} is in the allow-list but defined nowhere in src/ocquad"
                 for name in sorted(set(allowed) - set(functions.values()))]
    problems += [f"{name}: reason {reason!r} is not one of {', '.join(REASONS)}"
                 for name, reason in allowed.items() if reason not in REASONS]
    problems += [f"{name} is never entered and not in the allow-list"
                 for name in never if name not in allowed]
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
