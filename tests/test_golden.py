"""Golden reports: the reference runs of `tools/reference_runs.py` that name
a file under `tests/golden/`.

Each file holds the exit code and the full JSON report of one run: the six
built-ins at seed 42 (`golden/<problem>.json`) and at seed 7
(`golden/seed7/`), `sr-2-3` and `sr-2-3-5 --poly-degree 4` at seed 42
(`golden/poly/`), and `martinet --seed 17` (`golden/seed17/`).  There the
exact pre-gate `kk.level_rank_bound` decides every rank gate without a
projection; with the pre-gate patched out, four of its gates read seeds past
their first five after one diverges.  Each run must write nothing to
stderr and raise no warning.  Through `reference_runs.diff`, strings,
integers, booleans and the shape of the report must match exactly (family
expressions, `rational` flags, verdict, selection, lambdas, xi, admissible
levels, rank list, diagnostics, polynomial family); floats must agree within
1e-9.

A change that alters a report on purpose rewrites the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why in CHANGES.md.
The rewrite keeps each stored float whose new value is within 1e-9 of it,
so a file changes only where a report moved beyond the test's tolerance.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from reference_runs import FLOAT_TOL, GOLDEN_DIR, RUNS, diff, keep_unmoved, run  # noqa: E402

GOLDEN_RUNS = [r for r in RUNS if r.golden]


def stored(golden: str) -> dict:
    """The golden document: the stored exit code and report, no stderr and
    no warnings."""
    return {"stderr": "", "warnings": [], **json.loads((GOLDEN_DIR / golden).read_text())}


@pytest.mark.parametrize("reference", GOLDEN_RUNS, ids=lambda r: r.golden.removesuffix(".json"))
def test_report_matches_golden(reference):
    changes = diff(stored(reference.golden), run(reference.argv)).beyond(FLOAT_TOL)
    assert not changes, "\n".join(changes)


def test_manifest_names_every_golden_file():
    files = sorted(p.relative_to(GOLDEN_DIR).as_posix() for p in GOLDEN_DIR.rglob("*.json"))
    assert sorted(r.golden for r in GOLDEN_RUNS) == files
    assert len(files) == 15


if __name__ == "__main__":
    for reference in GOLDEN_RUNS:
        path = GOLDEN_DIR / reference.golden
        doc = run(reference.argv)
        if doc["stderr"] or doc["warnings"]:
            sys.exit(f"{reference.args}: {doc['stderr']}{doc['warnings']}")
        new = {"exit_code": doc["exit_code"], "report": doc["report"]}
        if path.exists():
            new = keep_unmoved(json.loads(path.read_text()), new)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(new, indent=2) + "\n")
        print(reference.golden, file=sys.stderr)
