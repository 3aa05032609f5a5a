"""Workloads, the expected-answer table and the layer predictions.

Everything here is written by hand.  The expected table comes from the
baseline of the built-in problems (seed 42, default flags) and is never
regenerated from the program under test.
"""

from __future__ import annotations

TOL = 1e-8          # `ocquad analyze --tol` default; every holdout residual must stay below it

SOLVABLE = "SolvableOnLevelSet"
INCONCLUSIVE = "Inconclusive"

# One analysis = (problem, extra flags).  The benchmark adds `--seed <n>`.
WORKLOADS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    # Verification dominates: 12,000 HamiltonianFlow.rhs calls per analysis.
    # The structure table runs only on dubins; certificate search is short.
    "closed-form": [("dubins", ()), ("sr-2-3", ()), ("sr-2-3-4", ()), ("sr-2-3-5", ())],
    # martinet: 23 independence_rank calls (rank gate); trailer: implicit
    # backend, Newton sampling inside 105 decompose_in_span fits.
    "gates": [("martinet", ()), ("trailer", ())],
    # Two 3003x1001 polynomial systems: nullspace, rationalisation, simplify.
    "poly-dense": [("sr-2-3", ("--poly-degree", "4")), ("sr-2-3-5", ("--poly-degree", "4"))],
}

# Left out: `sr-2-3-5 --poly-degree 5`.  One run takes about 28 s at 1.2 GB
# RSS, too long to repeat for every check of the benchmark.

# Expected outcome per (workload, problem): exit code, verdict, family size
# and, with --poly-degree, the polynomial family size.
EXPECTED: dict[tuple[str, str], dict] = {
    ("closed-form", "dubins"): {"exit": 0, "verdict": SOLVABLE, "family": 15},
    ("closed-form", "sr-2-3"): {"exit": 0, "verdict": SOLVABLE, "family": 62},
    ("closed-form", "sr-2-3-4"): {"exit": 0, "verdict": SOLVABLE, "family": 51},
    ("closed-form", "sr-2-3-5"): {"exit": 0, "verdict": SOLVABLE, "family": 28},
    ("gates", "martinet"): {"exit": 2, "verdict": INCONCLUSIVE, "family": 7},
    ("gates", "trailer"): {"exit": 0, "verdict": SOLVABLE, "family": 15},
    ("poly-dense", "sr-2-3"): {"exit": 0, "verdict": SOLVABLE, "family": 62, "poly": 100},
    ("poly-dense", "sr-2-3-5"): {"exit": 0, "verdict": SOLVABLE, "family": 28, "poly": 51},
}

# Layer -> end-to-end prediction.  `moves` names the end-to-end metric each
# layer metric should move, `nonzero` the workloads where its call count must
# be positive in a traced run (a zero there means a wrapper sits on a name no
# caller uses), and `flat` the workloads where the prediction is no change.
PREDICTIONS: list[dict] = [
    {"layers": ["ocp.HamiltonianFlow.rhs", "ocp.HamiltonianEvaluator.value_and_gradient",
                "verify.integrate_extremal", "verify.conservation_drift"],
     "moves": "pass_s on closed-form, analyze_s.trailer on gates",
     "nonzero": ["closed-form", "gates", "poly-dense"], "flat": ["poly-dense"]},
    {"layers": ["kk.independence_rank", "kk.find_certificate", "kk.check_solvable_lie"],
     "moves": "analyze_s.martinet on gates",
     "nonzero": ["closed-form", "gates", "poly-dense"], "flat": ["closed-form", "poly-dense"]},
    {"layers": ["kk.decompose_in_span", "poisson.bracket_values", "ocp.PointSampler.draw"],
     "moves": "analyze_s.trailer on gates, analyze_s.dubins on closed-form "
              "(decompose_in_span and bracket_values are 0 on sr-*)",
     "nonzero": ["closed-form", "gates"], "flat": ["poly-dense"]},
    {"layers": ["ocp.HamiltonianEvaluator.prepare", "ocp.PhaseFunction.values",
                "ocp.PhaseFunction.gradient"],
     "moves": "every workload; largest share on gates",
     "nonzero": ["closed-form", "gates", "poly-dense"], "flat": []},
    {"layers": ["noether.assemble_system", "noether.nullspace", "noether.rationalize_vector",
                "noether.extract_family", "noether.discover_family", "symexpr.simplify"],
     "moves": "pass_s and peak_rss_mb on poly-dense",
     "nonzero": ["closed-form", "gates", "poly-dense"], "flat": ["closed-form"]},
    {"layers": ["noether.discover_polynomial_integrals"],
     "moves": "pass_s and peak_rss_mb on poly-dense",
     "nonzero": ["poly-dense"], "flat": ["closed-form", "gates"]},
    {"layers": ["problems.load_problem", "ocp.true_hamiltonian"],
     "moves": "setup_s and each analyze_s.*",
     "nonzero": ["closed-form", "gates", "poly-dense"], "flat": []},
]
