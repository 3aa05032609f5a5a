"""Diff the reference runs of a git revision against the working tree, and
check every run of the working tree.

    python tools/compare_runs.py REV

Writes the `src` of `git archive REV` to a temporary directory.  Then two
child interpreters run at once, one per tree: each runs
`tools/reference_runs.py` of the working tree, which runs the manifest and
the two file runs under its call tracer, with only its own tree's `src` on
PYTHONPATH and no PYTHONHASHSEED, so each draws its own hash seed.  Each
child starts with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 unless the
caller set them.
`compare_runs.py HEAD` on a clean tree thus runs the same code twice, and a
report that depends on the hash seed shows as a change.

Prints one line per JSON run, REV's document against the working tree's:
identical; floats moved (how many, and the largest relative move with its
path and both values); or structural (the first change: an exit code,
stderr, a warning, a string, int, bool, key set or list length).  Then one
summary line.

Then two checks on the working tree's child.  Run health: each run exits 0
or 2, writes nothing to stderr and raises no warning (the benchmark's smoke
run discards its children's stderr, so a new RuntimeWarning or traceback
shows here only).  The design rule: every function or method defined in
`src/ocquad`, nested ones included, is entered by some run or named in
`line_trace_allow.txt` with a reason from REASONS, and no entry there was
entered or names a missing function.  Prints every function that no run
entered, with its allow-list reason, and each failed check as an `error:`
line on stderr.

Exits 1 on a structural change, a failed check or a child that fails,
else 0.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from reference_runs import JSON_RUNS, diff

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "ocquad"
CHILD = Path(__file__).resolve().parent / "reference_runs.py"
ALLOW_LIST = Path(__file__).resolve().parent / "line_trace_allow.txt"
REASONS = ("error path", "file input", "test helper", "paper claim")


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


def failed_runs(documents: dict[str, dict]) -> list[str]:
    """Why each run fails: an exit code other than 0 or 2, stderr, a warning."""
    out = []
    for label, doc in documents.items():
        if doc["exit_code"] not in (0, 2):
            out.append(f"{label} exited with {doc['exit_code']}")
        if doc["stderr"]:
            out.append(f"{label} wrote to stderr: {doc['stderr'].strip()}")
        out.extend(f"{label} warned {w}" for w in doc["warnings"])
    return out


def design_rule(defined: set[str], entered: set[str], allowed: dict[str, str]) -> list[str]:
    """Each breach of the design rule, given the names of the functions
    defined and entered and the allow-list."""
    out = [f"{name} was entered; drop it from the allow-list"
           for name in sorted(entered & set(allowed))]
    out += [f"{name} is in the allow-list but defined nowhere in src/ocquad"
            for name in sorted(set(allowed) - defined)]
    out += [f"{name}: reason {reason!r} is not one of {', '.join(REASONS)}"
            for name, reason in allowed.items() if reason not in REASONS]
    out += [f"{name} is never entered and not in the allow-list"
            for name in sorted(defined - entered) if name not in allowed]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/compare_runs.py REV", file=sys.stderr)
        return 1
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(f"error: git archive {rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 1
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        trees = {rev: Path(tmp) / "src", "working tree": REPO / "src"}
        outputs = {name: Path(tmp) / f"{i}.json" for i, name in enumerate(trees)}
        # one BLAS thread per child unless the caller chose a count: two
        # children with the default count each oversubscribe a small host
        env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               **{k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}}
        children = {}
        for name, src in trees.items():
            with open(outputs[name], "w") as out:     # the child holds its own handle
                children[name] = subprocess.Popen(
                    [sys.executable, str(CHILD)], env={**env, "PYTHONPATH": str(src)},
                    stdout=out, stderr=subprocess.PIPE, text=True)
        errors = {name: child.communicate()[1] for name, child in children.items()}
        results = {}
        for name, child in children.items():
            if child.returncode:
                print(f"error: the child on {name} exited with {child.returncode}:\n"
                      f"{errors[name]}", file=sys.stderr)
                return 1
            result = json.loads(outputs[name].read_text())
            if not Path(result["ocquad"]).resolve().is_relative_to(trees[name].resolve()):
                print(f"error: the child on {name} imported {result['ocquad']}", file=sys.stderr)
                return 1
            results[name] = result
    counts = {"identical": 0, "floats moved": 0, "structural": 0}
    for r in JSON_RUNS:
        d = diff(results[rev]["runs"][r.args], results["working tree"]["runs"][r.args])
        if d.structural:
            kind = "structural"
            detail = d.structural[0] + (f" (+{len(d.structural) - 1} more)"
                                        if len(d.structural) > 1 else "")
        elif d.moved:
            kind = "floats moved"
            move, path, a, b = d.largest_move()
            detail = (f"{len(d.moved)} floats, largest relative move {move:.1e} "
                      f"at {path}: {a!r} -> {b!r}")
        else:
            kind, detail = "identical", ""
        counts[kind] += 1
        print(f"{kind:<12} {r.args}" + (f": {detail}" if detail else ""))
    print(f"{len(JSON_RUNS)} runs, {rev} against the working tree: "
          + ", ".join(f"{n} {kind}" for kind, n in counts.items()))

    work = results["working tree"]
    functions = defined_functions()
    allowed = read_allow_list()
    defined = set(functions.values())
    entered = {functions[key] for key in map(tuple, work["entered"]) if key in functions}
    never = sorted(defined - entered)
    print(f"{len(work['runs'])} runs of the working tree; {len(never)} of "
          f"{len(functions)} functions in src/ocquad never entered:")
    for name in never:
        print(f"  {name}  ({allowed.get(name, 'NOT IN THE ALLOW-LIST')})")
    problems = failed_runs(work["runs"]) + design_rule(defined, entered, allowed)
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    return 1 if counts["structural"] or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
