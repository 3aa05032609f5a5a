"""Diff the reference runs of a git revision against the working tree.

    python tools/compare_runs.py REV

Writes the `src` of `git archive REV` to a temporary directory.  Then two
child interpreters run at once, one per tree: each runs
`tools/reference_runs.py` of the working tree, which runs the manifest's
JSON runs, with only its own tree's `src` on PYTHONPATH and no
PYTHONHASHSEED, so each draws its own hash seed.  `compare_runs.py HEAD` on
a clean tree thus runs the same code twice, and a report that depends on the
hash seed shows as a change.

Prints one line per run, REV's document against the working tree's:
identical; floats moved (how many, and the largest relative move with its
path and both values); or structural (the first change: an exit code,
stderr, a warning, a string, int, bool, key set or list length).  Then one
summary line.  Exits 1 on a structural change or a child that fails,
else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from reference_runs import JSON_RUNS, diff

REPO = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "reference_runs.py"


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
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        children = {}
        for name, src in trees.items():
            with open(outputs[name], "w") as out:     # the child holds its own handle
                children[name] = subprocess.Popen(
                    [sys.executable, str(CHILD)], env={**env, "PYTHONPATH": str(src)},
                    stdout=out, stderr=subprocess.PIPE, text=True)
        errors = {name: child.communicate()[1] for name, child in children.items()}
        documents = {}
        for name, child in children.items():
            if child.returncode:
                print(f"error: the child on {name} exited with {child.returncode}:\n"
                      f"{errors[name]}", file=sys.stderr)
                return 1
            result = json.loads(outputs[name].read_text())
            if not Path(result["ocquad"]).resolve().is_relative_to(trees[name].resolve()):
                print(f"error: the child on {name} imported {result['ocquad']}", file=sys.stderr)
                return 1
            documents[name] = result["runs"]
    counts = {"identical": 0, "floats moved": 0, "structural": 0}
    for r in JSON_RUNS:
        d = diff(documents[rev][r.args], documents["working tree"][r.args])
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
    return 1 if counts["structural"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
