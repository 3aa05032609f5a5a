"""Command-line pipeline: problem file in, integrability report out.

``ocquad analyze <problem> [flags]`` runs Hamiltonian construction, symmetry
discovery, certificate search, and numerical verification, then prints a JSON
or text report.  Exit code 0 means a quadrature certificate was found, 2 means
the search was inconclusive, 1 means the run itself failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from . import symexpr as sx
from .kk import Certificate, SpanSample, decompose_in_span, find_certificate, sample_span
from .noether import (
    FAMILY_TOL,
    EmptyNullspaceError,
    Family,
    NoetherError,
    discover_family,
    discover_polynomial_integrals,
)
from .ocp import (
    OcpError,
    PointSampler,
    SamplerStarvationError,
    sample_symbols,
    true_hamiltonian,
)
from .problems import BUILTIN_NAMES, ProblemFileError, builtin, load_problem, load_problem_file
from .verify import conservation_drift, integrate_extremal

BRACKET_CONVENTION = ("{F,G} = sum_i dF/dx_i dG/dpsi_i - dF/dpsi_i dG/dx_i; "
                      "residual R(F) = dF/dt + {F,H}")
STRUCTURE_FAMILY_CAP = 16
TRAJECTORY_COUNT = 3
TRAJECTORY_HORIZON = 1.0
TRAJECTORY_STEP = 1e-3


class AnalysisError(Exception):
    pass


def _rational_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _vector(values) -> list:
    return [_rational_str(v) for v in values]


def _parse_params(entries) -> dict:
    out = {}
    for entry in entries or []:
        if "=" not in entry:
            raise AnalysisError(f"--param expects name=value, got {entry!r}")
        name, value = entry.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _check_options(options) -> None:
    if options.seed < 0:
        raise AnalysisError(f"--seed must be a non-negative integer, got {options.seed}")
    if options.holdout < 1:
        raise AnalysisError(f"--holdout must be a positive integer, got {options.holdout}")
    if options.samples is not None and options.samples < 1:
        raise AnalysisError(f"--samples must be a positive integer, got {options.samples}")
    if not (math.isfinite(options.tol) and options.tol > 0):
        raise AnalysisError(f"--tol must be a positive finite number, got {options.tol}")


def _resolve_problem(source: str, params: dict):
    if os.path.exists(source):
        return load_problem_file(source, params)
    if source in BUILTIN_NAMES:
        return load_problem(builtin(source), params)
    raise AnalysisError(
        f"{source!r} is neither a readable file nor a builtin "
        f"({', '.join(BUILTIN_NAMES)})")


def _family_block(family: Family) -> list[dict]:
    out = []
    for comp in family.components:
        out.append({
            "expr": sx.to_string(comp.expr),
            "holdout_residual": float(comp.holdout_residual),
            "rational": comp.rational,
            "generators": comp.generators,
        })
    return out


def _structure_block(span: SpanSample) -> dict:
    family = span.family
    if family.m > STRUCTURE_FAMILY_CAP:
        return {"skipped": f"family has {family.m} components "
                           f"(cap {STRUCTURE_FAMILY_CAP} for the full table)"}
    pairs = []
    worst = 0.0
    for p in range(family.m):
        for q in range(p + 1, family.m):
            dec = decompose_in_span(span.brackets_fit[p, q], span.brackets_hold[p, q],
                                    span.values_fit, span.values_hold)
            entry = {"pair": [p, q]}
            if dec.ok:
                entry["xi"] = _vector(dec.coefficients)
                entry["residual"] = float(dec.residual)
                worst = max(worst, dec.residual)
            else:
                entry["unresolved_residual"] = float(dec.residual)
            pairs.append(entry)
    return {"pairs": pairs, "closure_residual": float(worst)}


def _certificate_block(cert: Certificate) -> dict:
    out = {"verdict": ("SolvableOnLevelSet" if cert.solvable else "Inconclusive"),
           "bracket_convention": BRACKET_CONVENTION}
    if cert.diagnostics:
        out["diagnostics"] = cert.diagnostics
    if cert.lambdas is not None:
        out["selection"] = cert.selection
        out["lambdas"] = [_vector(v) for v in cert.lambdas]
        out["integrals"] = cert.selected_exprs
        out["xi"] = [{"pair": [i, j], "coefficients": _vector(v)}
                     for (i, j), v in sorted(cert.xi.items())]
        out["closure_residual"] = float(cert.closure_residual)
        out["solvability"] = {
            "kind": cert.solvability.kind,
            "derived_series_depth": cert.solvability.depth,
            "prop2_identity": cert.solvability.prop2_holds,
        }
        out["admissible_levels"] = [_vector(v) for v in cert.r_basis]
        out["rank_evidence"] = [
            {"rank": e.rank, "point": {k: float(v) for k, v in sorted(e.point.items())}}
            for e in cert.rank_evidence]
        out["rank_skipped"] = cert.rank_skipped
    return out


def _verification_block(th, family: Family, rng: np.random.Generator) -> dict:
    sampler = PointSampler(th, rng)
    trajectories = []
    drift_max = [0.0] * family.m
    attempts = 0
    while len(trajectories) < TRAJECTORY_COUNT and attempts < 10 * TRAJECTORY_COUNT:
        attempts += 1
        z0 = sampler.draw(1).points[:-1, 0]
        try:
            traj = integrate_extremal(th, z0, t0=0.0,
                                      horizon=TRAJECTORY_HORIZON,
                                      step=TRAJECTORY_STEP)
        except OcpError:
            continue
        with np.errstate(all="ignore"):     # a value that overflows gives no drift
            drifts = conservation_drift(family.function, traj)
        drift_max = [None if a is None or b is None else max(a, b)
                     for a, b in zip(drift_max, drifts)]
        trajectories.append({"initial": [float(v) for v in z0],
                             "t0": 0.0,
                             "horizon": TRAJECTORY_HORIZON,
                             "step": TRAJECTORY_STEP})
    # with no extremal behind it, a drift of 0.0 would read as conservation
    drift = []
    for c, d in zip(family.components, drift_max):
        entry = {"expr": sx.to_string(c.expr),
                 "max_drift": float(d) if trajectories and d is not None else None}
        if trajectories and d is None:
            entry["missing"] = "not finite along an extremal"
        drift.append(entry)
    return {"trajectories": trajectories, "drift": drift}


def run_analyze(source, options) -> tuple[dict, int]:
    """Full pipeline; returns (report, exit_code)."""
    t_start = time.monotonic()
    timings = {}
    _check_options(options)
    params = _parse_params(options.param)
    try:
        problem, echo = (load_problem(source, params) if isinstance(source, dict)
                         else _resolve_problem(source, params))
    except ProblemFileError as exc:
        raise AnalysisError(str(exc)) from exc
    variables = None
    if options.poly_vars is not None:
        rows = {s.name: s for s in sample_symbols(problem.table)}
        try:
            variables = tuple(rows[v.strip()] for v in options.poly_vars.split(","))
        except KeyError as exc:
            raise AnalysisError(
                f"--poly-vars: {exc.args[0]!r} is not a state, costate or t") from exc
        twice = [s.name for i, s in enumerate(variables) if s in variables[:i]]
        if twice:
            raise AnalysisError(f"--poly-vars: {twice[0]!r} is named twice")

    seed_root = np.random.SeedSequence(options.seed)
    s_family, s_cert, s_verify, s_poly = seed_root.spawn(4)

    t0 = time.monotonic()
    try:
        th = true_hamiltonian(problem, backend=options.backend)
    except SamplerStarvationError as exc:     # the check of a supplied law
        raise AnalysisError(str(exc)) from exc
    except OcpError as exc:
        raise AnalysisError(f"control elimination failed: {exc}") from exc
    timings["hamiltonian"] = time.monotonic() - t0

    report: dict = {
        "tool": {"name": "ocquad", "version": __version__},
        "problem": echo,
        "options": {
            "seed": options.seed,
            "degree": options.degree,
            "samples": options.samples,
            "holdout": options.holdout,
            "tol": options.tol,
            "backend": options.backend,
            "include_time_terms": not options.no_time,
            "poly_degree": options.poly_degree,
            "poly_vars": options.poly_vars,
            "poly_include_time": options.poly_time,
            "poly_include_hamiltonian": not options.poly_no_hamiltonian,
        },
        "backend": "closed_form" if th.is_closed_form else "implicit",
        "true_hamiltonian": (sx.to_string(th.reduced) if th.is_closed_form
                             else "implicit (pointwise Newton on dH/du = 0)"),
        "control_law": ([sx.to_string(e) for e in th.law.expressions]
                        if th.is_closed_form
                        else {"newton_guess": list(th.law.guess)}),
    }

    t0 = time.monotonic()
    sampler = PointSampler(th, np.random.default_rng(s_family))
    exit_code = 2
    try:
        family = discover_family(
            th, sampler, degree=options.degree,
            include_time=not options.no_time,
            n_samples=options.samples, tol=options.tol,
            holdout=options.holdout)
    except EmptyNullspaceError as exc:
        family = None
        report["family"] = []
        report["structure"] = {"skipped": "empty family"}
        report["certificate"] = {"verdict": "Inconclusive",
                                 "diagnostics": str(exc),
                                 "bracket_convention": BRACKET_CONVENTION}
    timings["family"] = time.monotonic() - t0

    if family is not None:
        report["family"] = _family_block(family)

        t0 = time.monotonic()
        span = sample_span(family, sampler)
        report["structure"] = _structure_block(span)
        timings["structure"] = time.monotonic() - t0

        t0 = time.monotonic()
        cert = find_certificate(span, th, sampler, np.random.default_rng(s_cert))
        del span   # free the bracket tensors before the polynomial search
        timings["certificate"] = time.monotonic() - t0
        report["certificate"] = _certificate_block(cert)
        if cert.solvable:
            exit_code = 0

    if options.poly_degree is not None:
        t0 = time.monotonic()
        poly_sampler = PointSampler(th, np.random.default_rng(s_poly))
        try:
            poly = discover_polynomial_integrals(
                th, poly_sampler, degree=options.poly_degree,
                include_time=options.poly_time, variables=variables,
                include_hamiltonian=not options.poly_no_hamiltonian,
                tol=options.tol, holdout=options.holdout)
            report["polynomial_family"] = _family_block(poly)
        except EmptyNullspaceError as exc:
            report["polynomial_family"] = {"empty": str(exc)}
        except NoetherError as exc:
            raise AnalysisError(str(exc)) from exc
        timings["polynomial_family"] = time.monotonic() - t0

    t0 = time.monotonic()
    report["verification"] = (
        {"trajectories": [], "drift": []} if family is None
        else _verification_block(th, family, np.random.default_rng(s_verify)))
    timings["verify"] = time.monotonic() - t0

    if options.timings:
        timings["total"] = time.monotonic() - t_start
        report["timings"] = {k: round(v, 3) for k, v in timings.items()}
    return report, exit_code


def render_text(report: dict) -> str:
    lines = []
    problem = report["problem"]
    lines.append(f"problem: {problem['name']}  (backend: {report['backend']})")
    if problem.get("parameters"):
        lines.append("parameters: "
                     + ", ".join(f"{k}={v}" for k, v in problem["parameters"].items()))
    lines.append(f"true Hamiltonian: {report['true_hamiltonian']}")
    law = report["control_law"]
    if isinstance(law, list):
        for j, e in enumerate(law, start=1):
            lines.append(f"  u{j} = {e}")
    lines.append("")
    lines.append(f"family ({len(report['family'])} first integrals):")
    for comp in report["family"]:
        flag = "" if comp["rational"] else "  [floating]"
        lines.append(f"  {comp['expr']}   (holdout {comp['holdout_residual']:.2e}){flag}")
    cert = report["certificate"]
    lines.append("")
    lines.append(f"certificate: {cert['verdict']}")
    if "integrals" in cert:
        lines.append("  selection:")
        for e in cert["integrals"]:
            lines.append(f"    {e}")
        for entry in cert["xi"]:
            i, j = entry["pair"]
            lines.append(f"  xi[{i},{j}] = ({', '.join(entry['coefficients'])})")
        solv = cert["solvability"]
        lines.append(f"  solvability: {solv['kind']}"
                     f" (derived series depth {solv['derived_series_depth']},"
                     f" proportionality identity {solv['prop2_identity']})")
        lines.append("  admissible levels: span{"
                     + "; ".join("(" + ", ".join(v) + ")"
                                 for v in cert["admissible_levels"]) + "}")
        ranks = [e["rank"] for e in cert["rank_evidence"]]
        lines.append(f"  rank evidence: {ranks} (skipped {cert['rank_skipped']})")
    if cert.get("diagnostics"):
        lines.append(f"  diagnostics: {cert['diagnostics']}")
    if "polynomial_family" in report:
        poly = report["polynomial_family"]
        lines.append("")
        if isinstance(poly, dict):
            lines.append(f"polynomial family: {poly['empty']}")
        else:
            lines.append(f"polynomial family ({len(poly)} integrals):")
            for comp in poly:
                lines.append(f"  {comp['expr']}   (holdout {comp['holdout_residual']:.2e})")
    ver = report["verification"]
    lines.append("")
    lines.append(f"verification over {len(ver['trajectories'])} extremals "
                 f"(horizon {TRAJECTORY_HORIZON}, step {TRAJECTORY_STEP}):")
    for entry in ver["drift"]:
        drift = entry["max_drift"]
        lines.append((f"  drift {drift:.2e}" if drift is not None
                      else f"  no drift: {entry['missing']}" if "missing" in entry
                      else "  not verified") + f"  {entry['expr']}")
    if "timings" in report:
        lines.append("")
        lines.append("timings [s]: " + ", ".join(
            f"{k}={v}" for k, v in report["timings"].items()))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with AnalysisError, not argparse's
    usage and exit code 2, which is the inconclusive verdict's."""

    def error(self, message):
        raise AnalysisError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ocquad",
        description="First integrals and quadrature certificates for optimal "
                    "control problems")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on a problem")
    analyze.add_argument("problem",
                         help="path to a problem JSON file, or a builtin name")
    analyze.add_argument("--degree", type=int, default=2,
                         help="generator ansatz degree (default 2)")
    analyze.add_argument("--samples", type=int, default=None,
                         help="sample count for the linear system "
                              "(default 3x coefficient count)")
    analyze.add_argument("--holdout", type=int, default=100,
                         help="fresh verification points (default 100)")
    analyze.add_argument("--seed", type=int, default=42)
    analyze.add_argument("--tol", type=float, default=FAMILY_TOL,
                         help="family holdout tolerance (default %(default)g)")
    analyze.add_argument("--poly-degree", type=int, default=None,
                         help="also run the dense polynomial-integral search")
    analyze.add_argument("--poly-vars", type=str, default=None,
                         help="comma-separated variables for the polynomial search")
    analyze.add_argument("--poly-time", action="store_true",
                         help="include t in the polynomial search")
    analyze.add_argument("--poly-no-hamiltonian", action="store_true",
                         help="exclude H as a polynomial-search basis element")
    analyze.add_argument("--no-time", action="store_true",
                         help="drop the t terms from the generator ansatz")
    analyze.add_argument("--backend", choices=("auto", "closed", "implicit"),
                         default="auto")
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="override a problem parameter (repeatable)")
    analyze.add_argument("--timings", action="store_true",
                         help="include wall-clock timings in the report "
                              "(breaks byte-for-byte reproducibility)")
    analyze.add_argument("--output", type=str, default=None,
                         help="write the report to a file instead of stdout")

    problems = sub.add_parser("problems", help="list or export builtin problems")
    problems.add_argument("--show", metavar="NAME", default=None,
                          help="print one builtin problem file")
    problems.add_argument("--dump", metavar="DIR", default=None,
                          help="write every builtin problem to DIR as JSON")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "problems":
        if args.show:
            try:
                print(json.dumps(builtin(args.show), indent=2))
            except ProblemFileError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        if args.dump:
            try:
                os.makedirs(args.dump, exist_ok=True)
                for name in BUILTIN_NAMES:
                    path = os.path.join(args.dump, f"{name}.json")
                    with open(path, "w") as fh:
                        json.dump(builtin(name), fh, indent=2)
                        fh.write("\n")
                    print(path)
            except OSError as exc:
                print(f"error: cannot write to {args.dump!r}: {exc.strerror}", file=sys.stderr)
                return 1
            return 0
        for name in BUILTIN_NAMES:
            print(name)
        return 0

    try:
        report, code = run_analyze(args.problem, args)
    except (AnalysisError, ProblemFileError, OcpError, NoetherError, sx.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    body = (json.dumps(report, indent=2, allow_nan=False) + "\n" if args.format == "json"
            else render_text(report))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
