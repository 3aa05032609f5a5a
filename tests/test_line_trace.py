"""The allow-list of `tools/line_trace.py` names live functions, each with a
reason from the fixed set.

The trace itself runs the reference analyses (about 16 s) and is a CI step
of its own; this check reads the sources only, so a stale entry fails here
without it.
"""

import runpy
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))     # the trace imports its sibling reference_runs
TOOL = runpy.run_path(str(TOOLS / "line_trace.py"))


def test_allow_list_names_functions_of_src_ocquad_with_a_known_reason():
    defined = set(TOOL["defined_functions"]().values())
    entries = TOOL["read_allow_list"]()
    assert entries
    assert sorted(set(entries) - defined) == []
    assert {name: reason for name, reason in entries.items()
            if reason not in TOOL["REASONS"]} == {}
