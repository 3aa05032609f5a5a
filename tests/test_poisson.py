import math
from fractions import Fraction

import numpy as np
import pytest

from ocquad import ocp
from ocquad import symexpr as sx
from ocquad.ocp import PhaseFunction, PointSampler, true_hamiltonian
from ocquad.poisson import (
    Residual,
    bracket,
    bracket_values,
    homogeneous_correction,
    is_first_integral,
)
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import evaluate, parse, symref
from ocquad.verify import fd_bracket_oracle
from conftest import ExprGen


@pytest.fixture(scope="module")
def dubins_th():
    problem, _ = load_problem(builtin("dubins"))
    return true_hamiltonian(problem)


@pytest.fixture(scope="module")
def martinet_th():
    problem, _ = load_problem(builtin("martinet"))
    return true_hamiltonian(problem)


def sampler_for(th, seed=0):
    return PointSampler(th.problem, th.evaluator(), np.random.default_rng(seed))


def random_polynomial(gen, table, max_degree=2):
    """Random small-coefficient polynomial over the phase variables."""
    terms = []
    for _ in range(gen.rng.randint(1, 5)):
        coeff = sx.num(Fraction(gen.rng.randint(-3, 3)))
        factors = [coeff]
        for _ in range(gen.rng.randint(0, max_degree)):
            factors.append(symref(gen.rng.choice(table.phase)))
        terms.append(sx.mul(*factors))
    return sx.add(*terms)


class TestBracket:
    def test_canonical_pairs(self, table3):
        x1 = symref(table3.state(1))
        p1 = symref(table3.costate(1))
        p2 = symref(table3.costate(2))
        assert bracket(x1, p1, table3) == sx.num(1)
        assert bracket(x1, p2, table3) == sx.num(0)

    def test_self_bracket_vanishes(self, table3):
        gen = ExprGen(table3, seed=1)
        for _ in range(20):
            f = gen.expr(3)
            assert sx.is_symbolically_zero(bracket(f, f, table3))

    def test_angular_momentum_golden(self, table3):
        f = symref(table3.costate(2))
        g = parse("-psi1*x2 + psi2*x1 + psi3", table3)
        br = bracket(f, g, table3)
        assert br == symref(table3.costate(1))
        gen = ExprGen(table3, seed=2)
        for _ in range(50):
            pt = gen.point(-1.0, 1.0)
            assert abs(evaluate(br, pt) - fd_bracket_oracle(f, g, table3, pt)) < 1e-6

    def test_antisymmetry(self, table3):
        gen = ExprGen(table3, seed=3)
        done = 0
        while done < 200:
            f, g = gen.expr(2), gen.expr(2)
            pt = gen.point()
            try:
                lhs = evaluate(bracket(f, g, table3), pt)
                rhs = evaluate(bracket(g, f, table3), pt)
            except sx.ExprError:
                continue
            if not (math.isfinite(lhs) and abs(lhs) < 1e6):
                continue
            assert abs(lhs + rhs) <= 1e-10 * (1 + abs(lhs))
            done += 1

    def test_leibniz(self, table3):
        gen = ExprGen(table3, seed=4)
        done = 0
        while done < 500:
            f, g, h = gen.expr(2), gen.expr(2), gen.expr(1)
            pt = gen.point()
            try:
                lhs = evaluate(bracket(f, sx.mul(g, h), table3), pt)
                rhs = (evaluate(sx.mul(bracket(f, g, table3), h), pt)
                       + evaluate(sx.mul(g, bracket(f, h, table3)), pt))
            except sx.ExprError:
                continue
            if not (math.isfinite(lhs) and abs(lhs) < 1e6):
                continue
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
            done += 1

    def test_jacobi_on_low_degree_polynomials(self, table3):
        gen = ExprGen(table3, seed=5)
        for _ in range(200):
            f = random_polynomial(gen, table3)
            g = random_polynomial(gen, table3)
            h = random_polynomial(gen, table3)
            cyclic = sx.add(
                bracket(f, bracket(g, h, table3), table3),
                bracket(g, bracket(h, f, table3), table3),
                bracket(h, bracket(f, g, table3), table3))
            pt = gen.point(-1.0, 1.0)
            assert abs(evaluate(cyclic, pt)) <= 1e-8

    def test_matches_fd_oracle_on_random_cases(self, table3):
        gen = ExprGen(table3, seed=6)
        done = 0
        while done < 1000:
            f, g = gen.expr(2), gen.expr(2)
            pt = gen.point()
            try:
                symb = evaluate(bracket(f, g, table3), pt)
                orac = fd_bracket_oracle(f, g, table3, pt)
            except sx.ExprError:
                continue
            if not (math.isfinite(symb) and math.isfinite(orac) and abs(symb) < 1e3):
                continue
            assert abs(symb - orac) <= 1e-5 * (1 + abs(symb))
            done += 1


class TestResidual:
    def test_costate_of_cyclic_coordinate_dubins(self, dubins_th):
        t = dubins_th.table
        r = Residual(symref(t.costate(1)), dubins_th)
        assert sx.is_symbolically_zero(r.symbolic())

    def test_martinet_nonautonomous_integral(self, martinet_th):
        t = martinet_th.table
        f2 = parse("(1 + x1)*psi1 + x3*psi3", t) - (
            sx.num(2) * symref(t.time) * symref(sx.HAMILTONIAN_SYMBOL))
        r = Residual(f2, martinet_th)
        batch = sampler_for(martinet_th, 1).draw(100)
        assert np.abs(r.values(batch)).max() < 1e-12

    def test_non_integral_has_nonzero_residual(self, dubins_th):
        t = dubins_th.table
        r = Residual(symref(t.state(1)), dubins_th)
        batch = sampler_for(dubins_th, 2).draw(50)
        assert np.abs(r.values(batch)).max() > 1e-3

    def test_residual_values_match_symbolic(self, dubins_th):
        t = dubins_th.table
        f = parse("x1*psi2 + sin(x3)*psi1^2 - t*psi3", t)
        r = Residual(f, dubins_th)
        symb = r.symbolic()
        batch = sampler_for(dubins_th, 3).draw(50)
        vals = r.values(batch)
        for i in range(batch.size):
            assert abs(vals[i] - evaluate(symb, batch.point(i))) < 1e-10


class TestIsFirstIntegral:
    def test_symbolic_zero_for_martinet_psi3(self, martinet_th):
        verdict = is_first_integral(symref(martinet_th.table.costate(3)),
                                    martinet_th, sampler_for(martinet_th, 4))
        assert verdict.kind == "symbolic_zero"

    def test_autonomous_hamiltonian_is_conserved_sr(self):
        problem, _ = load_problem(builtin("sr-2-3-5"))
        th = true_hamiltonian(problem)
        verdict = is_first_integral(th.reduced, th, sampler_for(th, 5))
        assert verdict.kind in ("symbolic_zero", "numeric_zero")
        assert verdict.max_residual < 1e-10

    def test_nonzero_with_witness(self, dubins_th):
        verdict = is_first_integral(symref(dubins_th.table.state(3)),
                                    dubins_th, sampler_for(dubins_th, 6))
        assert verdict.kind == "nonzero"
        assert verdict.witness is not None
        r = Residual(symref(dubins_th.table.state(3)), dubins_th)
        sym = r.symbolic()
        assert abs(evaluate(sym, verdict.witness)) > 1e-6

    def test_works_on_implicit_backend(self):
        problem, _ = load_problem(builtin("trailer"))
        th = true_hamiltonian(problem)
        sampler = PointSampler(problem, th.evaluator(), np.random.default_rng(7))
        f = parse("-psi1*x2 + psi2*x1 + psi3 + psi4", problem.table)
        verdict = is_first_integral(f, th, sampler)
        assert verdict.kind == "numeric_zero"
        assert verdict.max_residual < 1e-9
        bad = is_first_integral(symref(problem.table.state(1)), th, sampler)
        assert bad.kind == "nonzero"


class TestHomogeneousCorrection:
    def test_martinet_dilation(self, martinet_th):
        t = martinet_th.table
        g = parse("(1 + x1)*psi1 + x3*psi3", t)
        c, f = homogeneous_correction(g, martinet_th, sampler_for(martinet_th, 8))
        assert c == Fraction(2)
        verdict = is_first_integral(f, martinet_th, sampler_for(martinet_th, 9))
        assert verdict.is_integral

    def test_plain_integral_gets_zero_constant(self, dubins_th):
        c, f = homogeneous_correction(symref(dubins_th.table.costate(1)),
                                      dubins_th, sampler_for(dubins_th, 10))
        assert c == 0
        assert f == symref(dubins_th.table.costate(1))

    def test_rejects_non_candidates(self, dubins_th):
        out = homogeneous_correction(symref(dubins_th.table.state(1)),
                                     dubins_th, sampler_for(dubins_th, 11))
        assert out is None


class TestBracketValues:
    def test_hamiltonian_bearing_functions(self, martinet_th):
        # {F2, H} = 2H for the Martinet dilation-corrected integral
        t = martinet_th.table
        f2 = parse("(1 + x1)*psi1 + x3*psi3", t) - (
            sx.num(2) * symref(t.time) * symref(sx.HAMILTONIAN_SYMBOL))
        hf = PhaseFunction(symref(sx.HAMILTONIAN_SYMBOL), t)
        batch = sampler_for(martinet_th, 12).draw(60)
        vals = bracket_values(PhaseFunction(f2, t), hf, batch)
        assert np.abs(vals - 2 * batch.hvalue).max() < 1e-10
