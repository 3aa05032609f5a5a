"""The report differ and the golden rewrite of `tools/reference_runs.py`, on
hand-built documents: no analysis runs here."""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from reference_runs import FLOAT_TOL, RUNS, diff, keep_unmoved  # noqa: E402

DOC = {
    "exit_code": 0,
    "stderr": "",
    "warnings": [],
    "report": {
        "family": [{"expression": "psi1", "rational": True, "holdout_residual": 1e-12}],
        "certificate": {"verdict": "Solvable", "selection": [0, 1], "closure_residual": 0.0},
        "verification": {"steps": 1000, "max_drift": 3.5e-13},
    },
}


def changed(path, value):
    """DOC with the leaf at `path` (keys and indices) set to `value`."""
    doc = copy.deepcopy(DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_identical_documents_have_no_changes():
    d = diff(DOC, copy.deepcopy(DOC))
    assert (d.structural, d.moved) == ([], [])


def test_a_moved_float_gives_its_path_both_values_and_its_relative_move():
    after = changed(("report", "verification", "max_drift"), 3.6e-13)
    d = diff(DOC, after)
    assert d.structural == []
    assert d.moved == [("$.report.verification.max_drift", 3.5e-13, 3.6e-13)]
    move, path, a, b = d.largest_move()
    assert path == "$.report.verification.max_drift" and (a, b) == (3.5e-13, 3.6e-13)
    assert move == pytest.approx(0.1e-13 / 3.6e-13)


@pytest.mark.parametrize("path, value, where", [
    (("exit_code",), 2, "$.exit_code"),
    (("stderr",), "error: boom\n", "$.stderr"),
    (("warnings",), ["RuntimeWarning: overflow encountered in multiply"], "$.warnings"),
    (("report", "certificate", "verdict"), "Inconclusive", "$.report.certificate.verdict"),
    (("report", "verification", "steps"), 999, "$.report.verification.steps"),
    (("report", "family", 0, "rational"), False, "$.report.family[0].rational"),
    (("report", "certificate", "selection"), [0, 1, 2], "$.report.certificate.selection"),
    (("report", "verification", "max_drift"), None, "$.report.verification.max_drift"),
], ids=["exit_code", "stderr", "warning", "string", "int", "bool", "list_length", "type"])
def test_each_structural_kind(path, value, where):
    d = diff(DOC, changed(path, value))
    assert d.moved == []
    assert len(d.structural) == 1 and d.structural[0].startswith(where + ": ")


def test_a_changed_key_set_is_structural():
    after = copy.deepcopy(DOC)
    after["report"]["certificate"]["xi"] = after["report"]["certificate"].pop("selection")
    d = diff(DOC, after)
    assert d.structural == ["$.report.certificate: keys ['selection'] gone, ['xi'] new"]


def test_a_one_ulp_move_and_an_int_in_place_of_a_float():
    nudged = changed(("report", "certificate", "closure_residual"), 5e-324)
    assert diff(DOC, nudged).moved == [("$.report.certificate.closure_residual", 0.0, 5e-324)]
    as_int = changed(("report", "certificate", "closure_residual"), 0)
    assert diff(DOC, as_int).structural == ["$.report.certificate.closure_residual: 0.0 -> 0"]


@pytest.mark.parametrize("step, kept", [(0.9 * FLOAT_TOL, True), (1.1 * FLOAT_TOL, False)],
                         ids=["inside", "outside"])
def test_the_golden_tolerance_from_both_sides(step, kept):
    stored = 0.5
    new = changed(("report", "family", 0, "holdout_residual"), stored + step)
    before = changed(("report", "family", 0, "holdout_residual"), stored)
    assert (diff(before, new).beyond(FLOAT_TOL) == []) is kept
    merged = keep_unmoved(before, new)
    assert merged["report"]["family"][0]["holdout_residual"] == (stored if kept else stored + step)


def test_the_rewrite_takes_every_other_leaf_from_the_new_report():
    new = changed(("report", "certificate", "verdict"), "Inconclusive")
    new["report"]["certificate"]["selection"] = [3]
    new["report"]["verification"]["max_drift"] = 3.5e-13 + 1e-20
    merged = keep_unmoved(DOC, new)
    assert merged["report"]["certificate"]["verdict"] == "Inconclusive"
    assert merged["report"]["certificate"]["selection"] == [3]
    assert merged["report"]["verification"]["max_drift"] == 3.5e-13


def test_the_manifest_names_each_run_once():
    # compare_runs.py keys the documents of a tree by the run's arguments
    assert len({r.args for r in RUNS}) == len(RUNS)
    goldens = [r.golden for r in RUNS if r.golden]
    assert len(set(goldens)) == len(goldens)
