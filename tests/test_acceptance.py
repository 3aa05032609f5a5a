"""Acceptance suite: end-to-end checks of the discovery + certificate pipeline
on the built-in problem corpus, at pinned tolerances, with one printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ocquad import symexpr as sx
from ocquad.cli import build_parser, run_analyze
from ocquad.kk import find_certificate, sample_span
from ocquad.noether import discover_family, discover_polynomial_integrals
from ocquad.ocp import PhaseFunction, PointSampler, true_hamiltonian
from ocquad.poisson import bracket_values
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from ocquad.verify import conservation_drift, integrate_extremal

SPAN_TOL = 1e-7
DRIFT_TOL = 1e-6
BRACKET_TOL = 1e-10


def cli_options(argv):
    return build_parser().parse_args(["analyze", "dummy"] + argv)


def pipeline(name, backend="auto", degree=2, include_time=True, seed=42):
    """The same seed layout the CLI uses (family stream = first spawn)."""
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    s_family, s_cert, s_verify, s_poly = np.random.SeedSequence(seed).spawn(4)
    sampler = PointSampler(th, np.random.default_rng(s_family))
    family = discover_family(th, sampler, degree=degree, include_time=include_time)
    cert = find_certificate(sample_span(family, sampler), th, sampler,
                            np.random.default_rng(s_cert))
    return problem, th, sampler, family, cert, (s_verify, s_poly)


def span_contains(family, expr, table, sampler, tol=SPAN_TOL):
    batch = sampler.draw(150)
    target = PhaseFunction((expr,), table).values(batch)[0]
    basis = family.function.values(batch).T
    fit, *_ = np.linalg.lstsq(basis, target, rcond=None)
    hold = sampler.draw(100)
    target_h = PhaseFunction((expr,), table).values(hold)[0]
    err = np.abs(target_h - family.function.values(hold).T @ fit).max()
    return err / max(1.0, np.abs(target_h).max()) < tol


def report_criterion(number, text):
    print(f"\nACCEPTANCE CRITERION {number}: PASS — {text}")


class TestCriterion1Dubins:
    def test_family_span_certificate_and_runtime(self):
        t0 = time.monotonic()
        report, code = run_analyze("dubins", cli_options(["--degree", "2",
                                                          "--seed", "42"]))
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        assert code == 0
        assert report["certificate"]["verdict"] == "SolvableOnLevelSet"

        problem, th, sampler, family, cert, _ = pipeline("dubins")
        table = problem.table
        targets = {
            "psi1": symref(table.costate(1)),
            "psi2": symref(table.costate(2)),
            "H": symref(HAMILTONIAN_SYMBOL),
            "-psi1*x2+psi2*x1+psi3": parse("-psi1*x2 + psi2*x1 + psi3", table),
        }
        for name, expr in targets.items():
            assert span_contains(family, expr, table, sampler), name

        # the found selection is (psi1, +-F, psi2) with the psi levels forced to 0
        assert cert.solvable
        sel_exprs = cert.selected_exprs
        psi_slots = [k for k, e in enumerate(sel_exprs) if e in ("psi1", "psi2")]
        assert len(psi_slots) == 2
        assert len(cert.r_basis) == 1
        for r in cert.r_basis:
            for k in psi_slots:
                assert r[k] == 0
        f_slot = ({0, 1, 2} - set(psi_slots)).pop()
        assert cert.r_basis[0][f_slot] != 0
        report_criterion(1, f"Dubins family spans the four paper integrals; "
                            f"certificate SolvableOnLevelSet with psi-levels "
                            f"forced to zero ({elapsed:.1f}s < 10s)")


class TestCriterion2Martinet:
    def test_family_and_nonautonomous_negative_control(self):
        t0 = time.monotonic()
        report, code = run_analyze("martinet", cli_options(
            ["--degree", "2", "--param", "alpha=1"]))
        elapsed_main = time.monotonic() - t0
        assert elapsed_main < 10.0
        # with t-terms the family is complete, but the rank gate still fails:
        # the level pins psi3 and -H to 0, and dH = 0 where H = 0, since H is
        # a sum of squares
        assert code == 2
        assert report["certificate"]["verdict"] == "Inconclusive"
        assert report["certificate"]["diagnostics"] == (
            "selection [0, 3, 4]: rank gate failed (the level pins psi3, -H to 0, "
            "which forces psi3 = 0, H = 0, dH = 0: rank at most 2 < 3 there; "
            "no seed projected)")

        problem, th, sampler, family, cert, _ = pipeline("martinet")
        table = problem.table
        f2 = sx.add(parse("(1 + x1)*psi1 + x3*psi3", table),
                    sx.mul(-2, symref(table.time), symref(HAMILTONIAN_SYMBOL)))
        assert span_contains(family, symref(HAMILTONIAN_SYMBOL), table, sampler)
        assert span_contains(family, symref(table.costate(3)), table, sampler)
        assert span_contains(family, f2, table, sampler)

        t0 = time.monotonic()
        report_nt, code_nt = run_analyze("martinet", cli_options(
            ["--degree", "2", "--no-time"]))
        elapsed_nt = time.monotonic() - t0
        assert elapsed_nt < 10.0
        assert code_nt == 2
        assert report_nt["certificate"]["verdict"] == "Inconclusive"
        # ... and without t-terms the nonautonomous integral is really gone
        _, _, sampler_nt, family_nt, _, _ = pipeline("martinet", include_time=False)
        assert not span_contains(family_nt, f2, table, sampler_nt)
        report_criterion(2, "Martinet family holds H, psi3 and the nonautonomous "
                            "F2, and the run is Inconclusive at the rank gate; "
                            "without t-terms F2 is gone and it stays Inconclusive "
                            f"({elapsed_main:.1f}s / {elapsed_nt:.1f}s < 10s)")


PAPER_TRAILER_XI = {
    (0, 1): (0, 0, -1, 0),
    (0, 2): (0, 1, 0, 0),
    (0, 3): (0, 0, 0, 0),
    (1, 2): (0, 0, 0, 0),
    (1, 3): (0, 0, 0, 0),
    (2, 3): (0, 0, 0, 0),
}


class TestCriterion3Trailer:
    def test_drift_span_and_certificate_pattern(self):
        t0 = time.monotonic()
        problem, th, sampler, family, cert, _ = pipeline("trailer",
                                                         backend="implicit")
        table = problem.table
        paper = [
            parse("-psi1*x2 + psi2*x1 + psi3 + psi4", table),  # F + psi4
            symref(table.costate(2)),
            symref(table.costate(1)),
            symref(HAMILTONIAN_SYMBOL),
        ]
        # conservation along three integrated extremals
        trajectories = 0
        batch = sampler.draw(6)
        for i in range(batch.size):
            if trajectories == 3:
                break
            z0 = batch.points[:-1, i]
            try:
                traj = integrate_extremal(th, z0, horizon=1.0, step=1e-3)
            except Exception:
                continue
            drifts = conservation_drift(PhaseFunction(paper, table), traj)
            assert all(d < DRIFT_TOL for d in drifts)
            trajectories += 1
        assert trajectories == 3

        for expr in paper:
            assert span_contains(family, expr, table, sampler)

        # map the found selection onto the paper's integrals (sign + order)
        assert cert.solvable
        fit_batch = sampler.draw(120)
        paper_vals = PhaseFunction(paper, table).values(fit_batch).T
        selected = [family.components[k].expr for k in cert.selection]
        perm, sign = [], []
        for expr, v in zip(selected, PhaseFunction(selected, table).values(fit_batch)):
            matched = False
            for col in range(4):
                for s in (1, -1):
                    if np.abs(v - s * paper_vals[:, col]).max() < 1e-9:
                        perm.append(col)
                        sign.append(s)
                        matched = True
            assert matched, sx.to_string(expr)
        assert sorted(perm) == [0, 1, 2, 3]

        # xi transforms onto the paper pattern under (perm, sign)
        n = 4
        for i in range(n):
            for j in range(i + 1, n):
                a, b = perm[i], perm[j]
                flip = 1 if a < b else -1
                key = (min(a, b), max(a, b))
                for t_idx in range(n):
                    s_idx = perm.index(t_idx)
                    got = (flip * sign[i] * sign[j] * sign[s_idx]
                           * Fraction(cert.xi[(i, j)][s_idx]))
                    assert got == PAPER_TRAILER_XI[key][t_idx], (i, j, t_idx)

        # admissible levels transform onto span{e1, e4} in the paper's order
        mapped = []
        for r in cert.r_basis:
            vec = [Fraction(0)] * n
            for i in range(n):
                vec[perm[i]] = sign[i] * Fraction(r[i])
            mapped.append(vec)
        assert len(mapped) == 2
        for vec in mapped:
            assert vec[1] == 0 and vec[2] == 0
        stacked = np.array([[float(x) for x in v] for v in mapped])
        assert np.linalg.matrix_rank(stacked) == 2
        assert any(v[0] != 0 for v in mapped)
        assert any(v[3] != 0 for v in mapped)

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        report_criterion(3, "trailer integrals conserved to 1e-6 over 3 extremals; "
                            "span recovered; certificate matches the paper's xi "
                            f"pattern and levels span ({elapsed:.1f}s < 60s)")


class TestCriterion4SubRiemannian:
    def test_all_three_cases_and_polynomial_integral(self):
        t0 = time.monotonic()
        for name, alpha, beta in [("sr-2-3", 0, 0), ("sr-2-3-4", 1, 0),
                                  ("sr-2-3-5", 1, 1)]:
            problem, th, sampler, family, cert, _ = pipeline(name)
            table = problem.table
            targets = [symref(HAMILTONIAN_SYMBOL),
                       parse(f"psi2 + {beta}*psi5*x3", table),
                       symref(table.costate(3))]
            if alpha:
                targets.append(symref(table.costate(4)))
            if beta:
                targets.append(symref(table.costate(5)))
            for expr in targets:
                assert span_contains(family, expr, table, sampler), (name,
                                                                     sx.to_string(expr))
            assert cert.solvable, name

        # the degree-4 polynomial run on (1, 1) recovers the quartic integral
        report, code = run_analyze("sr-2-3-5", cli_options(["--poly-degree", "4"]))
        assert code == 0
        problem, _ = load_problem(builtin("sr-2-3-5"))
        table = problem.table
        th = true_hamiltonian(problem)
        s_family, s_cert, s_verify, s_poly = np.random.SeedSequence(42).spawn(4)
        poly_sampler = PointSampler(th, np.random.default_rng(s_poly))
        poly = discover_polynomial_integrals(th, poly_sampler, degree=4)
        f = parse("-psi1*psi5 + psi2*psi4 - (psi3 + 1/2*psi5*x2)*x2*psi5", table)
        assert span_contains(poly, f, table, poly_sampler)

        # all ten pairwise brackets of {H, F, psi3, psi4, psi5} vanish
        involutive = [symref(HAMILTONIAN_SYMBOL), f, symref(table.costate(3)),
                      symref(table.costate(4)), symref(table.costate(5))]
        batch = poly_sampler.draw(200)
        brackets = bracket_values(PhaseFunction(involutive, table), batch)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.abs(brackets[i, j]).max() < BRACKET_TOL, (i, j)

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        report_criterion(4, "all three nilpotent cases certify with the expected "
                            "spans; degree-4 search recovers the quartic integral "
                            f"and the involutive five commute ({elapsed:.1f}s < 120s)")


class TestCriterion5PropertySuites:
    def test_rerun_property_suites(self):
        from conftest import make_table
        import test_kk
        import test_noether
        import test_poisson
        import test_verify

        table3 = make_table(3, m_ctl=2)
        brackets = test_poisson.TestBracket()
        brackets.test_antisymmetry(table3)
        brackets.test_leibniz(table3)
        brackets.test_jacobi_on_low_degree_polynomials(table3)
        brackets.test_matches_fd_oracle_on_random_cases(table3)

        test_noether.TestNullspace().test_dubins_dimension_and_certificate()
        equivalence = test_noether.TestAnsatzResidual()
        equivalence.test_matrix_columns_match_whole_expression_residual("dubins")
        equivalence.test_matrix_columns_match_whole_expression_residual("martinet")
        dense = test_noether.TestPolynomialResidual()
        dense.test_matrix_columns_match_whole_expression_residual("sr-2-3", True)

        solver = test_kk.TestCheckSolvableLie()
        solver.test_agrees_with_brute_force_oracle_on_random_algebras()

        drift = test_verify.TestIntegrateExtremal()
        problem, _ = load_problem(builtin("dubins"))
        drift.test_fourth_order_drift_ratio(true_hamiltonian(problem))

        report_criterion(5, "bracket properties (1000+ cases), nullspace "
                            "certificates, invariance-identity agreement, "
                            "solvability oracle agreement (100 algebras), and "
                            "the fourth-order drift ratio all hold")


class TestCriterion6NegativeControl:
    def test_proportionality_identity_fails_but_derived_series_certifies(self):
        report, code = run_analyze("dubins", cli_options(["--seed", "42"]))
        assert code == 0
        cert = report["certificate"]
        assert cert["verdict"] == "SolvableOnLevelSet"
        assert cert["solvability"]["prop2_identity"] is False
        assert cert["solvability"]["kind"] == "derived_series"
        assert cert["solvability"]["derived_series_depth"] == 2
        exprs = set(cert["integrals"])
        assert "psi1" in exprs and "psi2" in exprs
        report_criterion(6, "Dubins selection shows PaperSufficient=false, "
                            "DerivedSeries(2)=true, verdict SolvableOnLevelSet")
