import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ocquad import ocp
from ocquad import symexpr as sx
from ocquad.noether import discover_family
from ocquad.ocp import PhaseFunction, PointSampler, true_hamiltonian
from ocquad.poisson import bracket_values
from ocquad.problems import BUILTIN_NAMES, builtin, load_problem
from ocquad.symexpr import parse, symref
from conftest import ExprGen
from oracles import Residual, bracket, evaluate, fd_bracket_oracle, reference_bracket_values


@pytest.fixture(scope="module")
def dubins_th():
    problem, _ = load_problem(builtin("dubins"))
    return true_hamiltonian(problem)


@pytest.fixture(scope="module")
def martinet_th():
    problem, _ = load_problem(builtin("martinet"))
    return true_hamiltonian(problem)


def sampler_for(th, seed=0):
    return PointSampler(th, np.random.default_rng(seed))


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
        f2 = sx.add(parse("(1 + x1)*psi1 + x3*psi3", t),
                    sx.mul(-2, symref(t.time), symref(sx.HAMILTONIAN_SYMBOL)))
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


def max_residual(f, th, sampler, n_samples=100):
    """Largest |R(F)| over fresh draws."""
    return float(np.abs(Residual(f, th).values(sampler.draw(n_samples))).max())


class TestIsFirstIntegral:
    def test_symbolic_zero_for_martinet_psi3(self, martinet_th):
        r = Residual(symref(martinet_th.table.costate(3)), martinet_th)
        assert sx.is_symbolically_zero(r.symbolic())

    def test_autonomous_hamiltonian_is_conserved_sr(self):
        problem, _ = load_problem(builtin("sr-2-3-5"))
        th = true_hamiltonian(problem)
        assert max_residual(th.reduced, th, sampler_for(th, 5)) < 1e-10

    def test_nonzero_with_witness(self, dubins_th):
        r = Residual(symref(dubins_th.table.state(3)), dubins_th)
        batch = sampler_for(dubins_th, 6).draw(100)
        vals = r.values(batch)
        worst = int(np.argmax(np.abs(vals)))
        assert abs(vals[worst]) >= 1e-8
        assert abs(evaluate(r.symbolic(), batch.point(worst))) > 1e-6

    def test_works_on_implicit_backend(self):
        problem, _ = load_problem(builtin("trailer"))
        th = true_hamiltonian(problem)
        sampler = PointSampler(th, np.random.default_rng(7))
        f = parse("-psi1*x2 + psi2*x1 + psi3 + psi4", problem.table)
        assert max_residual(f, th, sampler) < 1e-9
        assert max_residual(symref(problem.table.state(1)), th, sampler) >= 1e-8


class TestBracketValues:
    def test_hamiltonian_bearing_functions(self, martinet_th):
        # {F2, H} = 2H for the Martinet dilation-corrected integral
        t = martinet_th.table
        f2 = sx.add(parse("(1 + x1)*psi1 + x3*psi3", t),
                    sx.mul(-2, symref(t.time), symref(sx.HAMILTONIAN_SYMBOL)))
        hf = PhaseFunction(symref(sx.HAMILTONIAN_SYMBOL), t)
        batch = sampler_for(martinet_th, 12).draw(60)
        vals = bracket_values([PhaseFunction(f2, t), hf], batch)[0, 1]
        assert np.abs(vals - 2 * batch.hvalue).max() < 1e-10

    def test_matches_the_two_einsum_reference_on_builtin_families(self, family_fit_batch):
        funcs, batch = family_fit_batch
        assert any(f.has_hamiltonian for f in funcs)
        got = bracket_values(funcs, batch)
        assert got.shape == (len(funcs), len(funcs), batch.size)
        assert got.tobytes() == reference_bracket_values(funcs, batch).tobytes()

    @pytest.mark.parametrize("m, n, size", [(1, 1, 1), (1, 3, 60), (7, 2, 1), (62, 3, 186),
                                            (5, 5, 17), (30, 1, 199)])
    def test_matches_the_two_einsum_reference_on_random_gradients(self, m, n, size):
        # magnitudes from 1e-8 to 1e8 per function; the last of several is 0
        rng = np.random.default_rng(m * 1000 + n * 100 + size)
        grads = rng.standard_normal((m, 2 * n + 1, size)) \
            * 10.0 ** rng.uniform(-8, 8, size=(m, 1, 1))
        if m > 1:
            grads[-1] = 0.0
        table = SimpleNamespace(n=n)
        funcs = [SimpleNamespace(table=table, gradient=lambda batch, g=g: g) for g in grads]
        got = bracket_values(funcs, None)
        assert got.tobytes() == reference_bracket_values(funcs, None).tobytes()

    def test_peak_memory_is_about_one_tensor(self):
        # the fit batch of sr-2-3 (62 components, 186 points): the tensor is
        # filled in place, so no second (m, m, N) array is ever allocated
        funcs, batch = builtin_family_fit_batch("sr-2-3")
        bracket_values(funcs, batch)        # compile the gradients first
        tracemalloc.start()
        try:
            out = bracket_values(funcs, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(funcs) == 62 and batch.size == 186
        assert peak <= 1.3 * out.nbytes


def builtin_family_fit_batch(name):
    """The family a built-in's default generator ansatz finds at seed 42,
    and a fit batch of the size `kk.sample_span` draws."""
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem)
    sampler = sampler_for(th, 42)
    family = discover_family(th, sampler)
    return family.functions(), sampler.draw(max(3 * family.m, 60))


@pytest.fixture(scope="module", params=BUILTIN_NAMES)
def family_fit_batch(request):
    return builtin_family_fit_batch(request.param)
