"""Benchmark of `ocquad analyze`, driven from outside the program.

    python3 perfbench/run.py --workload closed-form --seed 42 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced then traced

Load model: a closed loop with one client.  Each analysis runs to completion
in a fresh interpreter (`child.py`), the way a CLI call does, before the next
one starts; at most one child process exists at a time.  The workload seed
is passed to ocquad only as `--seed`.  One pass runs every analysis of the
workload once; passes repeat until `--seconds` is used up.

The host is shared, and its speed drifts by a quarter and more over minutes
as other tenants load it; no run length that fits the time budget averages
that out.  So a fixed reference process (`PROBE`: a fresh interpreter that
imports numpy) runs just before every analysis, and the end-to-end times are
scaled to a reference host speed: seconds as measured, times REF_PROBE_S
over the run's median probe time.  The probe shares no code with ocquad, so
a change to the program moves the scaled times as much as the wall times.
The wall times are printed too, and reported per layer (`pass_wall_s`,
`analyze_s.<problem>`).

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes: the traced children wrap ocquad's public names
(`spans.py`) and report per-layer calls, counters and self time; end-to-end
figures in that run still come from the untraced passes, and the difference
is the tracing overhead.  The spans of the last traced pass are written to
`perfbench/out/`.

Every report is checked against the hand-written table in `workloads.py`
and must be byte-identical across repeats and with tracing on or off.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import EXPECTED, PREDICTIONS, TOL, WORKLOADS  # noqa: E402

MIN_PASSES = 3           # untraced passes per --trace 0 run
MIN_TRACE_PASSES = 2     # untraced and traced passes each, per --trace 1 run
CHILD_TIMEOUT_S = 60.0
# The reference process.  It does what every CLI call starts with (process
# start, imports, page faults), so the host slows it as it slows analyses:
# in two sets of ten runs per workload its median correlated with the wall
# pass time at 0.73-0.89, where a pure-Python loop timed in this process did
# at 0.15-0.38.  It prints the system-wide monotonic clock once numpy is
# imported; the probe time runs from spawn to then, as set-up time does,
# because with process exit included it read 0.168 s on nearly every run,
# whatever the speed of the host.
PROBE = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
# Probe seconds that define the reference host speed: about the median probe
# time on a 2-vCPU Intel Xeon host with CPython 3.11 and numpy 2.4.
REF_PROBE_S = 0.1
PROBLEMS = list(dict.fromkeys(p for analyses in WORKLOADS.values() for p, _ in analyses))

END_TO_END = [  # name, unit, better
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Counters beyond calls and self time: layer -> (suffix, unit, better,
# numerator key, denominator key or None for a plain count).
EXTRAS = {
    "ocp.PointSampler.draw": [("points", "count", "lower", "points", None)],
    "ocp.HamiltonianEvaluator.prepare": [
        ("points", "count", "lower", "points", None),
        ("kept_ratio", "ratio", "higher", "kept", "points")],
    "kk.independence_rank": [("converged_ratio", "ratio", "higher", "converged", "attempts")],
    "kk.decompose_in_span": [("ok_ratio", "ratio", "higher", "ok", "calls")],
    "noether.rationalize_vector": [("fallback_ratio", "ratio", "lower", "fallback", "calls")],
    "noether.nullspace": [("nullity", "count", "lower", "nullity", None)],
    "noether.assemble_system": [("cells", "count", "lower", "cells", None)],
    "noether.extract_family": [("kept_ratio", "ratio", "higher", "kept", "candidates")],
}


def layer_names() -> list[str]:
    names = [entry[0] for entry in spans.FUNCTIONS] + [entry[0] for entry in spans.METHODS]
    return list(dict.fromkeys(names + [spans.ROOT]))


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = [(f"analyze_s.{p}", "s", "lower") for p in PROBLEMS]
    specs += [("pass_wall_s", "s", "lower")]
    specs += [("report.max_drift", "1", "lower"), ("report.max_holdout_residual", "1", "lower")]
    for layer in layer_names():
        specs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.s", "s", "lower")]
        specs += [(f"{layer}.{suffix}", unit, better)
                  for suffix, unit, better, _, _ in EXTRAS.get(layer, [])]
    specs += [("symexpr.compile_fn.hits", "count", "higher"),
              ("symexpr.compile_fn.misses", "count", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


# ---- running analyses --------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], trace: bool, env: dict) -> dict:
    """One analysis in a fresh interpreter; a dict with `error` set on failure."""
    cmd = [sys.executable, str(CHILD), "", "1" if trace else "0", *args]
    cmd[2] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {"error": "child printed no result"}


def check(workload: str, problem: str, rec: dict) -> list[str]:
    """Mismatches of one analysis against the expected table."""
    if rec.get("error"):
        return [rec["error"]]
    want = EXPECTED[(workload, problem)]
    faults = []
    if rec["exit"] != want["exit"]:
        faults.append(f"exit code {rec['exit']}, expected {want['exit']}")
    try:
        report = json.loads(rec["report"])
        verdict = report["certificate"]["verdict"]
        family = report["family"]
        poly = report.get("polynomial_family", [])
        drift = [d["max_drift"] for d in report["verification"]["drift"]]
    except (ValueError, KeyError, TypeError) as exc:
        return faults + [f"unreadable report ({type(exc).__name__}: {exc})"]
    if verdict != want["verdict"]:
        faults.append(f"verdict {verdict}, expected {want['verdict']}")
    if len(family) != want["family"]:
        faults.append(f"family size {len(family)}, expected {want['family']}")
    if "poly" in want and (not isinstance(poly, list) or len(poly) != want["poly"]):
        faults.append(f"polynomial family {poly if isinstance(poly, dict) else len(poly)}, "
                      f"expected {want['poly']}")
    residuals = [c["holdout_residual"] for c in family + (poly if isinstance(poly, list) else [])]
    if any(not r <= TOL for r in residuals):
        faults.append(f"holdout residual {max(residuals):.3g} above --tol {TOL:g}")
    rec["max_drift"] = max(drift, default=0.0)
    rec["max_holdout_residual"] = max(residuals, default=0.0)
    return faults


def run_pass(workload: str, seed: int, trace: bool, env: dict) -> dict:
    start = time.monotonic()
    analyses = []
    for problem, flags in WORKLOADS[workload]:
        probe_s = probe(env)
        rec = run_child([problem, *flags, "--seed", str(seed)], trace, env)
        analyses.append({"problem": problem, "rec": rec, "probe_s": probe_s,
                         "faults": check(workload, problem, rec)})
    return {"trace": trace, "analyses": analyses, "wall_s": time.monotonic() - start}


def warm_up(env: dict) -> None:
    """Import once, so compiled bytecode exists before anything is timed."""
    subprocess.run([sys.executable, "-c", "import ocquad.cli"], cwd=ROOT, env=env,
                   check=True, timeout=CHILD_TIMEOUT_S)


def probe(env: dict) -> float:
    """Seconds from spawning the reference process to its numpy import."""
    start = time.monotonic()
    proc = subprocess.run(PROBE, cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout) - start


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks host speed, never gated."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> list[dict]:
    """Passes until `seconds` are used; --trace 1 alternates untraced and traced."""
    order = [False, True] if trace else [False]
    least = MIN_TRACE_PASSES * len(order) if trace else MIN_PASSES
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, order[len(passes) % len(order)], env))
        if passes[-1]["trace"]:
            # keep the spans of the latest traced pass only, to bound memory
            for a in (a for p in passes[:-1] if p["trace"] for a in p["analyses"]):
                a["rec"].pop("spans", None)
        elapsed = time.monotonic() - start
        if len(passes) >= least and len(passes) % len(order) == 0 \
                and elapsed + passes[-1]["wall_s"] * len(order) > seconds:
            return passes


# ---- metrics ----------------------------------------------------------------

def pass_seconds(p: dict) -> float:
    return sum(a["rec"]["analyze_s"] for a in p["analyses"])


def probe_median(untraced: list[dict]) -> float:
    return statistics.median(a["probe_s"] for p in untraced for a in p["analyses"])


def end_to_end(untraced: list[dict]) -> dict:
    """name -> samples, one per untraced pass (set-up: one per analysis);
    times are scaled to the reference host speed."""
    scale = REF_PROBE_S / probe_median(untraced)
    setups = [a["rec"]["setup_s"] * scale for p in untraced for a in p["analyses"]]
    rss = [max(a["rec"]["maxrss_kb"] for a in p["analyses"]) / 1024 for p in untraced]
    return {"pass_s": [pass_seconds(p) * scale for p in untraced], "setup_s": setups,
            "peak_rss_mb": rss}


def layer_counts(analysis: dict) -> dict:
    """Deterministic counters of one traced analysis (everything but times)."""
    rec = analysis["rec"]
    counts = {f"{layer}.{key}": value for layer, stats in rec["layers"].items()
              for key, value in stats.items() if key != "self_s"}
    counts.update({f"symexpr.compile_fn.{k}": v for k, v in rec["compile_fn"].items()})
    return counts


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """name -> value from the traced passes (analysis times from the untraced),
    and ratio name -> its base as "numerator/denominator"."""
    out = {}
    bases = {}
    for problem in PROBLEMS:
        times = [a["rec"]["analyze_s"] for p in untraced for a in p["analyses"]
                 if a["problem"] == problem]
        out[f"analyze_s.{problem}"] = statistics.median(times) if times else 0.0
    out["pass_wall_s"] = statistics.median(pass_seconds(p) for p in untraced)
    first = untraced[0]["analyses"]
    out["report.max_drift"] = max(a["rec"]["max_drift"] for a in first)
    out["report.max_holdout_residual"] = max(a["rec"]["max_holdout_residual"] for a in first)

    totals = []   # per traced pass: layer -> summed stats
    for p in traced:
        acc: dict[str, dict] = {name: {} for name in layer_names()}
        for a in p["analyses"]:
            for layer, stats in a["rec"]["layers"].items():
                for key, value in stats.items():
                    acc[layer][key] = acc[layer].get(key, 0) + value
        totals.append(acc)
    last = totals[-1]
    for layer in layer_names():
        stats = last[layer]
        out[f"{layer}.calls"] = stats.get("calls", 0)
        out[f"{layer}.s"] = statistics.median(t[layer].get("self_s", 0.0) for t in totals)
        for suffix, _, _, num, den in EXTRAS.get(layer, []):
            value = stats.get(num, 0)
            if den is not None:
                base = stats.get(den, 0)
                bases[f"{layer}.{suffix}"] = f"{value}/{base}"
                value = value / base if base else 0.0
            out[f"{layer}.{suffix}"] = value
    for key in ("hits", "misses"):
        out[f"symexpr.compile_fn.{key}"] = sum(a["rec"]["compile_fn"][key]
                                              for a in traced[-1]["analyses"])
    out["trace.overhead_s"] = (statistics.median(pass_seconds(p) for p in traced)
                               - statistics.median(pass_seconds(p) for p in untraced))
    return out, bases


def self_test(workload: str, passes: list[dict]) -> list[str]:
    """Reports repeat byte for byte (traced or not); traced counts repeat exactly;
    every layer the predictions mark non-zero on this workload was called."""
    faults = []
    reports: dict[str, str] = {}
    counts: dict[str, dict] = {}
    for k, p in enumerate(passes):
        for a in p["analyses"]:
            rec, problem = a["rec"], a["problem"]
            if rec.get("error"):
                continue
            if reports.setdefault(problem, rec["report"]) != rec["report"]:
                a["faults"].append(f"report differs from the first run (pass {k}, "
                                   f"{'traced' if p['trace'] else 'untraced'})")
            if p["trace"] and counts.setdefault(problem, layer_counts(a)) != layer_counts(a):
                a["faults"].append(f"per-layer counts differ between traced passes (pass {k})")
    traced = [p for p in passes if p["trace"]]
    if traced:
        calls = {layer: sum(a["rec"].get("layers", {}).get(layer, {}).get("calls", 0)
                            for a in traced[-1]["analyses"]) for layer in layer_names()}
        for group in PREDICTIONS:
            if workload in group["nonzero"]:
                faults += [f"{layer} was never called (wrapper on a name no caller uses?)"
                           for layer in group["layers"] if calls[layer] == 0]
    return faults


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata(calibration: list[float], probe_s: float) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "threads": threads,
            "cpu": cpu_model(),
            "calibration_s": {"start": calibration[0], "end": calibration[1]},
            "probe_median_s": probe_s}


def write_spans(workload: str, seed: int, traced: dict) -> Path:
    """Spans of one traced pass: [name index, start ns, end ns, parent row or -1,
    analysis id]."""
    OUT.mkdir(exist_ok=True)
    names: list[str] = []
    rows = []
    analyses = []
    for a in traced["analyses"]:
        rec = a["rec"]
        aid = len(analyses)
        analyses.append({"id": aid, "problem": a["problem"]})
        remap = []
        for name in rec["names"]:
            if name not in names:
                names.append(name)
            remap.append(names.index(name))
        offset = len(rows)
        rows += [[remap[i], start, end, parent + offset if parent >= 0 else -1, aid]
                 for i, start, end, parent in rec["spans"]]
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"names": names, "analyses": analyses,
                   "columns": ["name", "start_ns", "end_ns", "parent", "analysis"],
                   "spans": rows}, fh, separators=(",", ":"))
    return path


# ---- one workload -----------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    calibration = [calibrate()]
    passes = measure(workload, seed, seconds, trace, env)
    calibration.append(calibrate())

    faults = self_test(workload, passes)
    analyses = [a for p in passes for a in p["analyses"]]
    failed = [a for a in analyses if a["faults"]]
    for a in failed:
        print(f"FAILED {workload}/{a['problem']}: {'; '.join(a['faults'])}")
    for fault in faults:
        print(f"FAILED {workload}: {fault}")

    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    metrics: dict[str, dict] = {}
    ok = not failed and not faults
    if ok and not trace:
        samples_by_name = end_to_end(untraced)
        for name, unit, _ in END_TO_END:
            samples = samples_by_name[name]
            q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
            print(f"{workload:12} {name:46} {med:12.6g} {unit:5} "
                  f"(median of {len(samples)}, quartiles {q1:.6g}..{q3:.6g})")
            metrics[name] = {"value": med, "unit": unit}
        print(f"{workload:12} wall pass_s {statistics.median(map(pass_seconds, untraced)):.6g} s, "
              f"probe {probe_median(untraced):.6g} s (reference {REF_PROBE_S} s)")
    if ok and trace:
        values, bases = per_layer(untraced, traced)
        for name, unit, _ in per_layer_specs():
            base = f" ({bases[name]})" if name in bases else ""
            print(f"{workload:12} {name:46} {values[name]:12.6g} {unit}{base}")
            metrics[name] = {"value": values[name], "unit": unit}
        for group in PREDICTIONS:
            print(f"prediction: {', '.join(group['layers'])} -> {group['moves']}; "
                  f"no change on {', '.join(group['flat']) or '-'}")
        print(f"spans: {write_spans(workload, seed, traced[-1]).relative_to(ROOT)}")
    print(f"{workload:12} failed_ratio {len(failed)}/{len(analyses)} analyses; "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(json.dumps({"meta": metadata(calibration, probe_median(untraced))}))
    return {"correct": ok, "attempted": len(analyses), "failed": len(failed),
            "metrics": metrics}


def check_spec() -> str | None:
    """Metric names here must match BENCHMARK.json, when it is present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    want = {"workloads": sorted(WORKLOADS),
            "end_to_end": [(n, u, b) for n, u, b in END_TO_END],
            "per_layer": per_layer_specs()}
    have = {"workloads": sorted(w["name"] for w in spec["workloads"]),
            "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]}
    for key in want:
        if want[key] != have[key]:
            return f"BENCHMARK.json {key} do not match perfbench/run.py"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ocquad" / "cli.py").exists():
        print(f"error: no ocquad sources under {SRC}", file=sys.stderr)
        return 2
    mismatch = check_spec()
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2
    env = child_env()
    warm_up(env)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
        print(json.dumps(result))
        return 0

    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            results[f"{workload}/trace{int(trace)}"] = run_workload(
                workload, args.seed, args.seconds, trace, env)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
