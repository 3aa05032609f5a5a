"""Run one `ocquad analyze` in this fresh interpreter, as a CLI call would.

    python3 child.py <spawn time> <trace 0|1> <analyze arguments...>

`<spawn time>` is the parent's `time.monotonic()` just before it started
this process (the clock is system-wide), so set-up time covers interpreter
start, `import ocquad.cli` and problem resolution.  The report the CLI would
print is captured, and one JSON object goes to stdout: exit code, report,
set-up and analysis seconds, peak RSS, `compile_fn` cache counts and, when
tracing, per-layer totals and the spans.
"""

import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    `ru_maxrss` also counts the parent's pages that this process held
    between fork and exec, so a large parent would show up here; VmHWM
    belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spawned = float(sys.argv[1])
    trace = sys.argv[2] == "1"
    argv = ["analyze", *sys.argv[3:]]

    import ocquad.cli as cli
    imported = time.monotonic()

    import contextlib
    import io
    import json

    import ocquad.symexpr

    recorder = None
    entry = cli.main
    if trace:
        import spans
        recorder = spans.Recorder()
        recorder.install()
        entry = recorder.wrap(spans.ROOT, cli.main)

    # Problem resolution is set-up: time the one load_problem call and move
    # it from the analysis into set-up time.
    resolve = [0.0]
    load_problem = cli.load_problem

    def timed_load_problem(*args, **kwargs):
        start = time.monotonic()
        try:
            return load_problem(*args, **kwargs)
        finally:
            resolve[0] += time.monotonic() - start

    cli.load_problem = timed_load_problem

    out = io.StringIO()
    error = None
    code = None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = entry(argv)
    except Exception as exc:  # reported to the parent, which counts the failure
        error = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()

    info = ocquad.symexpr.compile_fn.cache_info()
    result = {
        "exit": code,
        "error": error,
        "report": out.getvalue(),
        "setup_s": imported - spawned + resolve[0],
        "analyze_s": end - start - resolve[0],
        "maxrss_kb": peak_rss_kb(),
        "compile_fn": {"hits": info.hits, "misses": info.misses},
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["names"] = recorder.names
        result["spans"] = recorder.spans
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
