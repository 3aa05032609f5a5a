"""Run the reference analyses and list the functions of `src/ocquad` that
they never enter.

    python tools/line_trace.py

Runs every run of the manifest, `reference_runs.RUNS`, and then `dubins`
read back from a file that `ocquad problems --dump` wrote, so the file
loader runs.  Each goes in-process through `reference_runs.run` under
`sys.settrace`, recording call events only.  The runner imports
`ocquad.cli` inside the trace, so functions called while the modules load
count as entered.

A run fails when it exits with a code other than 0 or 2, writes to stderr
(a traceback or an error line), or warns.  The runner records every
warning each time it is raised, so one that an earlier run raised is not
hidden, and the import of `ocquad.cli` counts as the first run's.  The
benchmark's smoke run discards its children's stderr, so a new
RuntimeWarning or traceback shows here only.

Every function or method defined in `src/ocquad` (nested ones included)
that no run entered is printed with its allow-list reason.  The exit status
is 1 when a never-entered function is missing from `line_trace_allow.txt`,
when an entry there was entered or names no function, or when a run fails;
otherwise 0.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import time
from pathlib import Path

from reference_runs import RUNS, run

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ocquad"
ALLOW_LIST = Path(__file__).resolve().parent / "line_trace_allow.txt"
REASONS = ("error path", "file input", "test helper", "paper claim")

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

    def check(argv):
        doc = run(argv)
        label = " ".join(argv)
        if doc["exit_code"] not in (0, 2):
            failures.append(f"{label} exited with {doc['exit_code']}")
        if doc["stderr"]:
            failures.append(f"{label} wrote to stderr: {doc['stderr'].strip()}")
        failures.extend(f"{label} warned {w}" for w in doc["warnings"])

    sys.settrace(tracer)
    try:
        for r in RUNS:
            check(r.argv)
        with tempfile.TemporaryDirectory() as tmp:
            check(["problems", "--dump", tmp])
            check(["analyze", os.path.join(tmp, f"{FILE_RUN}.json")])
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
