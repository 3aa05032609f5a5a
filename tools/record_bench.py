"""Record the benchmark of one checkout in `BENCH_<label>.json`.

    python3 tools/record_bench.py <label> [--root DIR]

Runs `perfbench/run.py --workload all --seconds 44 --seed 42` of the
checkout at `--root` (this repository by default).  Seconds and seed are
fixed, so any two BENCH files can be compared.  That one call runs every workload untraced
(`--trace 0`: the end-to-end metrics) and then traced (`--trace 1`: the
per-layer metrics).  Then it times one `sr-2-3-5 --poly-degree 5` analysis
through `perfbench/child.py`, outside the gated workloads, and the
benchmark's reference probe (`perfbench/run.py`'s `probe`, which runs
`PROBE`) once before and twice after it.

The file, written at the root of this repository, holds the checkout's
`git describe` (null outside a git checkout) and a sha1 of its
`src/ocquad/*.py`; the runner's machine block and, beside it, whether
`PYTHONDONTWRITEBYTECODE` was set and `src/ocquad/__pycache__` existed after
the run (without bytecode every child compiles ocquad from source, which
`setup_s` includes); the three end-to-end metrics per workload (median and
quartiles of the passes, times scaled to the runner's reference host); the
per-layer metrics per workload; and the extra analysis: its raw seconds
`analyze_s`, the median probe seconds `probe_s`, and `analyze_s_scaled`,
scaled to the reference host as `perfbench/run.py` scales `pass_s`
(seconds times REF_PROBE_S over the probe median).  A speed claim quotes
two such files recorded on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from run import REF_PROBE_S, probe  # noqa: E402
# "<workload> <metric> <median> <unit> (median of <n>, quartiles <q1>..<q3>)"
END_TO_END_LINE = re.compile(
    r"^(\S+)\s+(pass_s|setup_s|peak_rss_mb)\s+(\S+)\s+\S+\s+"
    r"\(median of (\d+), quartiles (\S+)\.\.(\S+)\)$")
EXTRA = ["sr-2-3-5", "--poly-degree", "5"]
SECONDS = 44
SEED = 42
COMMAND = ["perfbench/run.py", "--workload", "all", "--seconds", str(SECONDS),
           "--seed", str(SEED)]


def run_benchmark(root: Path) -> tuple[list[str], dict]:
    """Stdout lines and the last-line summary of `perfbench/run.py --workload all`."""
    proc = subprocess.run(
        [sys.executable, *COMMAND],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def end_to_end(lines: list[str]) -> dict:
    """workload -> metric -> {median, q1, q3, passes}."""
    out: dict[str, dict] = {}
    for line in lines:
        m = END_TO_END_LINE.match(line)
        if m:
            workload, name, med, count, q1, q3 = m.groups()
            out.setdefault(workload, {})[name] = {
                "median": float(med), "q1": float(q1), "q3": float(q3), "passes": int(count)}
    return out


def per_layer(summary: dict) -> dict:
    """workload -> metric -> value, from the traced runs."""
    out: dict[str, dict] = {}
    for key, metric in summary["metrics"].items():
        workload, run, name = key.split("/", 2)
        if run == "trace1":
            out.setdefault(workload, {})[name] = metric["value"]
    return out


def machine(lines: list[str]) -> tuple[dict, dict]:
    """The runner's machine block, and per run (workload/trace) the host-speed
    readings taken during it: calibration loop and reference probe seconds."""
    block, speed, workload = {}, {}, None
    for line in lines:
        if " failed_ratio " in line:
            workload = line.split()[0]
        elif line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
            run = f"{workload}/trace{int(f'{workload}/trace0' in speed)}"
            speed[run] = {k: meta.pop(k) for k in ("calibration_s", "probe_median_s")}
            block = meta
    return block, speed


def source_sha1(root: Path) -> str:
    """sha1 over the names and bytes of `src/ocquad/*.py`, in name order:
    names the measured code where `git describe` cannot."""
    digest = hashlib.sha1()
    for path in sorted((root / "src" / "ocquad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bytecode(root: Path) -> dict:
    """Whether the children could import ocquad from bytecode."""
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pycache_exists": (root / "src" / "ocquad" / "__pycache__").is_dir()}


def extra_analysis(root: Path) -> dict:
    """Seconds and peak RSS of one analysis outside the gated workloads, and
    its seconds scaled by the reference probe timed around it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    args = [*EXTRA, "--seed", str(SEED)]
    probes = [probe(env)]
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", repr(time.monotonic()), "0", *args],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    probes += [probe(env), probe(env)]
    rec = json.loads(proc.stdout)
    probe_s = statistics.median(probes)
    return {"args": args, "exit": rec["exit"], "analyze_s": rec["analyze_s"],
            "probe_s": probe_s, "analyze_s_scaled": rec["analyze_s"] * REF_PROBE_S / probe_s,
            "setup_s": rec["setup_s"], "peak_rss_mb": rec["maxrss_kb"] / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose perfbench/run.py and src/ are measured")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                            capture_output=True, text=True).stdout.strip() or None
    lines, summary = run_benchmark(root)
    block, speed = machine(lines)
    record = {
        "label": args.label,
        "commit": commit,
        "source_sha1": source_sha1(root),
        "command": " ".join(COMMAND),
        "machine": block,
        "bytecode": bytecode(root),
        "host_speed": speed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "end_to_end": end_to_end(lines),
        "per_layer": per_layer(summary),
        "extra": extra_analysis(root),
    }
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
