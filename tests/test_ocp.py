import numpy as np
import pytest

from ocquad import ocp
from ocquad import symexpr as sx
from ocquad.ocp import (
    NotAffineInControlError,
    OcpError,
    PointSampler,
    Problem,
    build_hamiltonian,
    autonomize,
    solve_stationarity,
    true_hamiltonian,
)
from ocquad.problems import BUILTIN_NAMES, builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, evaluate, parse, symref


@pytest.fixture(scope="module")
def dubins():
    problem, _ = load_problem(builtin("dubins"))
    return problem


@pytest.fixture(scope="module")
def martinet():
    problem, _ = load_problem(builtin("martinet"))
    return problem


@pytest.fixture(scope="module")
def trailer():
    problem, _ = load_problem(builtin("trailer"))
    return problem


def scalar_problem():
    """One state, L = u^2/2, xdot = u."""
    doc = {
        "name": "scalar",
        "states": ["x1"],
        "controls": ["u1"],
        "time": "t",
        "lagrangian": "u1^2/2",
        "dynamics": ["u1"],
    }
    problem, _ = load_problem(doc)
    return problem


def phase_points(problem, count, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    table = problem.table
    pts = []
    for _ in range(count):
        pt = {s: rng.uniform(lo, hi) for s in table.phase}
        pt[table.time] = rng.uniform(0.0, 1.0)
        pts.append(pt)
    return pts


def positional(problem, pt):
    """A Symbol-keyed point as the (z, t) pair the evaluator takes."""
    table = problem.table
    return [pt[s] for s in table.phase], pt[table.time]


class TestBuildHamiltonian:
    def test_dubins(self, dubins):
        h = build_hamiltonian(dubins)
        expected = parse(
            "-(u1^2 + u2^2)/2 + psi1*u1*cos(x3) + psi2*u1*sin(x3) + psi3*u2",
            dubins.table)
        assert h == expected

    def test_free_dynamics(self):
        problem = scalar_problem()
        h = build_hamiltonian(problem)
        t = problem.table
        # L = u^2/2 leaves H = -u^2/2 + psi*u
        assert h == parse("-u1^2/2 + psi1*u1", t)

    def test_martinet(self, martinet):
        h = build_hamiltonian(martinet)
        expected = parse(
            "-(u1^2 + u2^2)/2 + psi1*u1 + psi2*u2/(1 + x1) + psi3*x2^2*u1",
            martinet.table)
        assert h == expected


class TestSolveStationarity:
    def test_dubins_law(self, dubins):
        law = solve_stationarity(dubins, build_hamiltonian(dubins))
        t = dubins.table
        assert law.expressions[0] == parse("psi1*cos(x3) + psi2*sin(x3)", t)
        assert law.expressions[1] == parse("psi3", t)

    def test_martinet_law(self, martinet):
        law = solve_stationarity(martinet, build_hamiltonian(martinet))
        t = martinet.table
        assert law.expressions[0] == parse("psi1 + x2^2*psi3", t)
        assert law.expressions[1] == parse("psi2/(1 + x1)", t)
        # substituting back kills dH/du symbolically
        h = build_hamiltonian(martinet)
        bindings = dict(zip(t.controls, law.expressions))
        for u in t.controls:
            resid = sx.substitute(sx.differentiate(h, u), bindings)
            assert sx.is_symbolically_zero(resid)

    def test_trailer_not_affine(self, trailer):
        with pytest.raises(NotAffineInControlError):
            solve_stationarity(trailer, build_hamiltonian(trailer))


class TestTrueHamiltonian:
    def test_dubins_reduced_matches_paper_form(self, dubins):
        th = true_hamiltonian(dubins)
        paper = parse("((cos(x3)*psi1 + sin(x3)*psi2)^2 + psi3^2)/2", dubins.table)
        for pt in phase_points(dubins, 50):
            assert abs(evaluate(th.reduced, pt) - evaluate(paper, pt)) < 1e-12

    def test_sr_reduced_matches_paper_form(self):
        problem, _ = load_problem(builtin("sr-2-3-5"))
        th = true_hamiltonian(problem)
        paper = parse(
            "(psi1^2 + (psi2 + x1*psi3 + 1/2*x1^2*psi4 + x1*x2*psi5)^2)/2",
            problem.table)
        for pt in phase_points(problem, 50):
            assert abs(evaluate(th.reduced, pt) - evaluate(paper, pt)) < 1e-12

    def test_martinet_reduced_matches_derived_form(self, martinet):
        th = true_hamiltonian(martinet)
        derived = parse("((psi1 + x2^2*psi3)^2 + (psi2/(1 + x1))^2)/2", martinet.table)
        for pt in phase_points(martinet, 50):
            if abs(1 + pt[martinet.table.state(1)]) < 0.1:
                continue
            assert abs(evaluate(th.reduced, pt) - evaluate(derived, pt)) < 1e-12

    def test_stationarity_residual_vanishes_on_samples(self, dubins, martinet):
        for problem in (dubins, martinet):
            th = true_hamiltonian(problem)
            h = th.hamiltonian
            t = problem.table
            bindings = dict(zip(t.controls, th.law.expressions))
            residuals = [sx.substitute(sx.differentiate(h, u), bindings)
                         for u in t.controls]
            for pt in phase_points(problem, 50, seed=1):
                if problem is martinet and abs(1 + pt[t.state(1)]) < 0.1:
                    continue
                for r in residuals:
                    assert abs(evaluate(r, pt)) <= 1e-9


class TestEvalTrueHamiltonian:
    def test_quadratic_scalar(self):
        problem = scalar_problem()
        th = true_hamiltonian(problem)
        t = problem.table
        assert th.reduced == parse("psi1^2/2", t)
        value, grad = th.evaluator().value_and_gradient([0.3, -0.7], 0.1)
        assert abs(value - 0.5 * 0.7 ** 2) < 1e-15
        assert grad[0] == 0.0                    # x1
        assert abs(grad[1] - (-0.7)) < 1e-15     # psi1
        assert grad[2] == 0.0                    # t

    def test_closed_form_gradient_matches_finite_differences(self, dubins):
        th = true_hamiltonian(dubins)
        ev = th.evaluator()
        h = 1e-6
        for pt in phase_points(dubins, 20, seed=2):
            z, t = positional(dubins, pt)
            v = np.array([*z, t])
            _, grad = ev.value_and_gradient(z, t)
            for r in range(len(v)):
                up, dn = v.copy(), v.copy()
                up[r] += h
                dn[r] -= h
                fd = (ev.value_and_gradient(up[:-1], up[-1])[0]
                      - ev.value_and_gradient(dn[:-1], dn[-1])[0]) / (2 * h)
                assert abs(grad[r] - fd) < 1e-6

    @pytest.mark.parametrize("name", ["dubins", "martinet", "sr-2-3-5"])
    def test_implicit_backend_agrees_with_closed_form(self, name):
        problem, _ = load_problem(builtin(name))
        th_closed = true_hamiltonian(problem)
        th_impl = true_hamiltonian(problem, backend="implicit")
        assert not th_impl.is_closed_form
        ev_c = th_closed.evaluator()
        ev_i = th_impl.evaluator()
        x1 = problem.table.state(1)
        for pt in phase_points(problem, 30, seed=3):
            if name == "martinet" and abs(1 + pt[x1]) < 0.1:
                continue
            vc, gc = ev_c.value_and_gradient(*positional(problem, pt))
            vi, gi = ev_i.value_and_gradient(*positional(problem, pt))
            assert abs(vc - vi) < 1e-9
            assert np.abs(gc - gi).max() < 1e-9

    def test_envelope_identity(self, dubins, martinet):
        # gradient of reduced H equals the partials of H frozen at u = u_bar
        for problem in (dubins, martinet):
            th = true_hamiltonian(problem)
            ev = th.evaluator()
            t = problem.table
            h_partials = [sx.differentiate(th.hamiltonian, s)
                          for s in t.phase + (t.time,)]
            count = 0
            for pt in phase_points(problem, 250, seed=4):
                if problem is martinet and abs(1 + pt[t.state(1)]) < 0.1:
                    continue
                u_star = ev.solve_control(*positional(problem, pt))
                full = dict(pt)
                full.update(zip(t.controls, u_star))
                _, grad = ev.value_and_gradient(*positional(problem, pt))
                for g, partial in zip(grad, h_partials):
                    assert abs(g - evaluate(partial, full)) < 1e-8
                count += 1
                if count == 200:
                    break
            assert count == 200

    def test_newton_divergence_error_carries_the_point(self, trailer):
        # at this phase point the principal-branch stationary point is a
        # saddle, so no admissible control exists near the guess
        th = true_hamiltonian(trailer)
        t = trailer.table
        pt = {t.state(1): 0.6952, t.state(2): -0.1975, t.state(3): 0.1065,
              t.state(4): -0.04102, t.costate(1): 0.917, t.costate(2): -0.3654,
              t.costate(3): -0.1958, t.costate(4): -0.9982, t.time: 0.4202}
        with pytest.raises(ocp.NewtonDivergenceError) as exc:
            th.evaluator().value_and_gradient(*positional(trailer, pt))
        assert exc.value.point is not None

    def test_implicit_stationarity_on_samples(self, trailer):
        # points come from the sampler: phase points with no concave
        # stationary control (they exist for the trailer) are out of domain
        th = true_hamiltonian(trailer)
        ev = th.evaluator()
        t = trailer.table
        sampler = PointSampler(trailer, ev, np.random.default_rng(5))
        batch = sampler.draw(25)
        grads = [sx.differentiate(th.hamiltonian, u) for u in t.controls]
        for i in range(batch.size):
            full = batch.point(i)
            u_star = ev.solve_control(batch.points[:-1, i], batch.points[-1, i])
            full.update(zip(t.controls, u_star))
            for g in grads:
                assert abs(evaluate(g, full)) <= 1e-9


class TestFlow:
    def test_free_particle(self):
        problem = scalar_problem()
        th = true_hamiltonian(problem)
        flow = th.flow()
        t = problem.table
        assert flow.symbolic["xdot"][0] == parse("psi1", t)
        assert flow.symbolic["psidot"][0] == sx.num(0)
        rhs = flow.rhs(0.0, np.array([0.0, 1.0]))
        assert np.allclose(rhs, [1.0, 0.0])

    def test_dubins_adjoint_component(self, dubins):
        th = true_hamiltonian(dubins)
        flow = th.flow()
        t = dubins.table
        expected = parse(
            "(cos(x3)*psi1 + sin(x3)*psi2) * (sin(x3)*psi1 - cos(x3)*psi2)",
            t)
        got = flow.symbolic["psidot"][2]
        for pt in phase_points(dubins, 30, seed=6):
            assert abs(evaluate(got, pt) - evaluate(expected, pt)) < 1e-12


class TestAutonomize:
    def test_structure_and_zero_level(self, dubins):
        th = true_hamiltonian(dubins)
        k, table = autonomize(th)
        theta = table.autonomization
        assert k == sx.add(th.reduced, sx.negate(sx.symref(theta)))
        pt = phase_points(dubins, 1, seed=7)[0]
        value = evaluate(th.reduced, pt)
        pt_ext = dict(pt)
        pt_ext[theta] = value
        assert abs(evaluate(k, pt_ext)) < 1e-15

    def test_requires_closed_form(self, trailer):
        th = true_hamiltonian(trailer)
        with pytest.raises(OcpError):
            autonomize(th)


class TestSampler:
    def test_respects_exclusions_and_box(self, martinet):
        th = true_hamiltonian(martinet)
        sampler = PointSampler(martinet, th.evaluator(), np.random.default_rng(0))
        batch = sampler.draw(200)
        assert batch.size == 200
        x1 = batch.column(martinet.table.state(1))
        assert np.all(np.abs(1 + x1) >= 0.1)
        for s in martinet.table.phase:
            col = batch.column(s)
            assert np.all(col >= -1.0) and np.all(col <= 1.0)

    def test_deterministic_under_seed(self, dubins):
        th = true_hamiltonian(dubins)
        b1 = PointSampler(dubins, th.evaluator(), np.random.default_rng(9)).draw(50)
        b2 = PointSampler(dubins, th.evaluator(), np.random.default_rng(9)).draw(50)
        for s in dubins.table.phase:
            assert np.array_equal(b1.column(s), b2.column(s))
        assert np.array_equal(b1.hvalue, b2.hvalue)

    @pytest.mark.parametrize("name", ["trailer", "dubins", "martinet", "sr-2-3-5"])
    def test_implicit_batch_matches_scalar(self, name):
        # the batch path (prepare, used for sampling) and the scalar path
        # (value_and_gradient, used by RK4) agree point by point
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        ev = th.evaluator()
        sampler = PointSampler(problem, ev, np.random.default_rng(1))
        batch = sampler.draw(20)
        for i in range(batch.size):
            value, grad = th.evaluator().value_and_gradient(batch.points[:-1, i],
                                                            batch.points[-1, i])
            assert abs(value - batch.hvalue[i]) < 1e-10
            assert np.abs(batch.hgrad[:, i] - grad).max() < 1e-8


class TestTupleCompile:
    """A tuple of expressions compiled as one function returns exactly (==)
    what each expression's own compiled function returns, on scalars and on
    sample rows, and `_stacked` broadcasts its constant entries."""

    @staticmethod
    def assert_same(exprs, args, columns):
        fused = sx.compile_fn(tuple(exprs), args)
        singles = [sx.compile_fn(e, args) for e in exprs]
        count = len(columns[0])
        for i in range(count):
            scalars = [float(c[i]) for c in columns]
            got = fused(*scalars)
            assert len(got) == len(exprs)
            assert all(g == f(*scalars) for g, f in zip(got, singles))
        stacked = ocp._stacked(fused, columns, count)
        for row, got, f in zip(stacked, fused(*columns), singles):
            want = f(*columns)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(row, np.broadcast_to(want, (count,)))
        return [e for e in exprs if e.is_constant]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_envelope(self, name):
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        batch = PointSampler(problem, th.evaluator(), np.random.default_rng(2)).draw(12)
        args = ocp.sample_symbols(problem.table)
        columns = list(batch.points)
        groups = [th.envelope]
        if not th.is_closed_form:
            args += problem.table.controls
            columns += list(batch.controls.T)
            groups += list(th.control_derivatives)
        constants = [self.assert_same(g, args, columns) for g in groups]
        assert constants[0]   # some partial is constant and has to broadcast

    def test_phase_function_with_hamiltonian_placeholder(self, dubins):
        th = true_hamiltonian(dubins)
        t = dubins.table
        expr = sx.add(sx.mul(symref(HAMILTONIAN_SYMBOL), parse("psi3 + x1^2", t)),
                      parse("sin(x3)*psi2 + 2", t))
        func = ocp.PhaseFunction(expr, t)
        batch = PointSampler(dubins, th.evaluator(), np.random.default_rng(3)).draw(12)
        args = ocp.sample_symbols(t) + (HAMILTONIAN_SYMBOL,)
        exprs = [sx.differentiate(expr, s) for s in args]
        columns = [*batch.points, batch.hvalue]
        assert self.assert_same(exprs, args, columns)
        partials = [np.broadcast_to(sx.compile_fn(e, args)(*columns), (batch.size,))
                    for e in exprs]
        want = np.array(partials[:-1]) + partials[-1] * batch.hgrad
        assert np.array_equal(func.gradient(batch), want)


class TestProblemValidation:
    def test_dynamics_count(self):
        doc = builtin("dubins")
        doc["dynamics"] = doc["dynamics"][:2]
        from ocquad.problems import ProblemFileError
        with pytest.raises(ProblemFileError, match="dynamics"):
            load_problem(doc)

    def test_costates_forbidden_in_dynamics(self):
        doc = builtin("dubins")
        doc["dynamics"][0] = "psi1"
        with pytest.raises(OcpError, match="costate"):
            load_problem(doc)
