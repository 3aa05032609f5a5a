"""The benchmark's traced run wraps ocquad names where callers look them up.

`perfbench/spans.py` patches functions on the modules whose globals their
callers read (`ocquad.cli.find_certificate`, `ocquad.kk.check_solvable_lie`,
...).  Moving a name, or importing it into another module under the same
name, leaves a wrapper no caller goes through.  A traced dubins analysis
reaches every layer the benchmark expects on `closed-form`, a traced trailer
analysis every layer it expects on `gates`, and a traced
`sr-2-3 --poly-degree 4` analysis every layer it expects on `poly-dense`.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _predictions():
    return runpy.run_path(str(PERFBENCH / "workloads.py"))["PREDICTIONS"]


@pytest.mark.parametrize("problem, flags, workload", [
    ("dubins", (), "closed-form"),
    ("trailer", (), "gates"),
    ("sr-2-3", ("--poly-degree", "4"), "poly-dense"),
], ids=["dubins-closed-form", "trailer-gates", "sr-2-3-poly-dense"])
def test_traced_run_reaches_every_predicted_layer(problem, flags, workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")   # nothing lands in perfbench/
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "0", "1", problem, *flags, "--seed", "42"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["error"] is None and result["exit"] == 0
    layers = result["layers"]
    expected = [name for p in _predictions() if workload in p["nonzero"]
                for name in p["layers"]]
    assert expected
    uncalled = [name for name in expected if layers.get(name, {}).get("calls", 0) == 0]
    assert not uncalled, f"wrapped but never called: {uncalled}"
