import numpy as np
import pytest

from ocquad import symexpr as sx
from ocquad.ocp import HamiltonianEvaluator, PhaseFunction, PointSampler, true_hamiltonian
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from ocquad.verify import (
    PoleEncounteredError,
    conservation_drift,
    fd_bracket_oracle,
    integrate_autonomized,
    integrate_extremal,
)
from conftest import ExprGen


@pytest.fixture(scope="module")
def dubins_th():
    problem, _ = load_problem(builtin("dubins"))
    return true_hamiltonian(problem)


def scalar_th():
    doc = {
        "name": "scalar",
        "states": ["x1"],
        "controls": ["u1"],
        "time": "t",
        "lagrangian": "u1^2/2",
        "dynamics": ["u1"],
    }
    problem, _ = load_problem(doc)
    return true_hamiltonian(problem)


def nonautonomous_th():
    # L = u^2/2 + t*x gives the nonautonomous reduced H = psi^2/2 - t*x
    doc = {
        "name": "driven",
        "states": ["x1"],
        "controls": ["u1"],
        "time": "t",
        "lagrangian": "u1^2/2 + t*x1",
        "dynamics": ["u1"],
    }
    problem, _ = load_problem(doc)
    return true_hamiltonian(problem)


class TestIntegrateExtremal:
    def test_free_particle_is_exact(self):
        th = scalar_th()
        traj = integrate_extremal(th, [0.0, 1.0], horizon=1.0, step=0.01)
        assert np.allclose(traj.states[:, 0], traj.times, atol=1e-14)
        assert np.allclose(traj.states[:, 1], 1.0, atol=1e-14)
        assert np.allclose(traj.hamiltonian_values, 0.5, atol=1e-14)

    def test_dubins_energy_drift(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=1e-3)
        assert conservation_drift(dubins_th.reduced, traj) < 1e-10

    def test_fourth_order_drift_ratio(self, dubins_th):
        coarse = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                    horizon=1.0, step=0.02)
        fine = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=0.01)
        d_coarse = conservation_drift(dubins_th.reduced, coarse)
        d_fine = conservation_drift(dubins_th.reduced, fine)
        assert 12.0 <= d_coarse / d_fine <= 20.0

    def test_bad_step_rejected(self, dubins_th):
        z0 = [0, 0, 0, 1, 1, 1]
        cases = [(z0, -0.1), (z0, 0.3), (z0, 0.0), ([0, 0, 0, 1], 0.01)]
        for integrate in (integrate_extremal, integrate_autonomized):
            for start, step in cases:
                with pytest.raises(ValueError):
                    integrate(dubins_th, start, horizon=1.0, step=step)

    def test_pole_abort(self):
        # flow of the Martinet problem pushed across the 1 + x1 = 0 line
        problem, _ = load_problem(builtin("martinet"))
        th = true_hamiltonian(problem)
        with pytest.raises(PoleEncounteredError):
            integrate_extremal(th, [-0.9, 0.0, 0.0, -0.9, 0.0, 0.1],
                               horizon=1.0, step=1e-2)


class TestConservationDrift:
    def test_constant_function(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=0.5, step=1e-2)
        assert conservation_drift(sx.num(3), traj) == 0.0

    def test_dubins_angular_integral_along_random_extremals(self, dubins_th):
        t = dubins_th.table
        f = parse("-psi1*x2 + psi2*x1 + psi3", t)
        sampler = PointSampler(dubins_th.problem, dubins_th.evaluator(),
                               np.random.default_rng(0))
        batch = sampler.draw(3)
        for i in range(3):
            z0 = [batch.column(s)[i] for s in t.phase]
            traj = integrate_extremal(dubins_th, z0, horizon=1.0, step=1e-3)
            assert conservation_drift(f, traj) < 1e-6
            assert conservation_drift(symref(t.state(1)), traj) > 1e-2

    def test_hamiltonian_placeholder(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0.1, -0.2, 0.3, 0.8, -0.5, 0.9],
                                  horizon=1.0, step=1e-3)
        drift = conservation_drift(symref(HAMILTONIAN_SYMBOL), traj)
        assert drift < 1e-10


    def test_reads_the_trajectory_batch(self, dubins_th, monkeypatch):
        traj = integrate_extremal(dubins_th, [0.1, -0.2, 0.3, 0.8, -0.5, 0.9],
                                  horizon=0.5, step=1e-2)
        fresh, keep = dubins_th.evaluator().prepare(traj.points)
        assert keep.all()
        calls = []
        original = HamiltonianEvaluator.prepare

        def counted(self, points):
            calls.append(points.shape)
            return original(self, points)

        monkeypatch.setattr(HamiltonianEvaluator, "prepare", counted)
        t = dubins_th.table
        for expr in (symref(HAMILTONIAN_SYMBOL),
                     sx.add(parse("-psi1*x2 + psi2*x1 + psi3", t),
                            sx.mul(symref(t.time), symref(HAMILTONIAN_SYMBOL)))):
            drift = conservation_drift(expr, traj)
            vals = PhaseFunction(expr, t).values(fresh)
            assert drift == float(np.abs(vals - vals[0]).max())
        assert calls == []


class TestFamilyConservation:
    @pytest.mark.parametrize("name", ["dubins", "martinet"])
    def test_every_discovered_component_is_conserved_along_extremals(self, name):
        from ocquad.noether import discover_family
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        sampler = PointSampler(problem, th.evaluator(), np.random.default_rng(4))
        family = discover_family(th, sampler, degree=2)
        t = problem.table
        done = 0
        batch = sampler.draw(10)
        for i in range(batch.size):
            if done == 3:
                break
            z0 = [batch.column(s)[i] for s in t.phase]
            try:
                traj = integrate_extremal(th, z0, horizon=1.0, step=1e-3)
            except PoleEncounteredError:
                continue
            for comp in family.components:
                assert conservation_drift(comp.function, traj) < 1e-6
            done += 1
        assert done == 3


class TestAutonomizedFlow:
    def test_k_conserved_for_autonomous_problem(self):
        problem, _ = load_problem(builtin("martinet"))
        th = true_hamiltonian(problem)
        _, _, k_values = integrate_autonomized(th, [0.2, 0.1, 0.0, 0.5, 0.4, 0.3],
                                               theta0=0.25, horizon=1.0, step=1e-3)
        assert np.abs(k_values - k_values[0]).max() < 1e-8

    def test_k_conserved_for_time_dependent_problem(self):
        th = nonautonomous_th()
        assert sx.free_symbols(th.reduced) & {th.table.time}
        _, _, k_values = integrate_autonomized(th, [0.3, -0.4], theta0=0.0,
                                               horizon=1.0, step=1e-3)
        assert np.abs(k_values - k_values[0]).max() < 1e-8
        # the plain Hamiltonian itself drifts: theta absorbs dH/dt
        traj = integrate_extremal(th, [0.3, -0.4], horizon=1.0, step=1e-3)
        assert np.abs(traj.hamiltonian_values
                      - traj.hamiltonian_values[0]).max() > 1e-3


class TestFdBracketOracle:
    def test_canonical_pair(self, table3):
        pt = {s: 0.37 for s in table3.symbols}
        got = fd_bracket_oracle(symref(table3.state(1)),
                                symref(table3.costate(1)), table3, pt)
        assert abs(got - 1.0) < 1e-8

    def test_antisymmetry(self, table3):
        gen = ExprGen(table3, seed=14)
        done = 0
        while done < 50:
            f, g = gen.expr(2), gen.expr(2)
            pt = gen.point()
            try:
                ab = fd_bracket_oracle(f, g, table3, pt)
                ba = fd_bracket_oracle(g, f, table3, pt)
            except sx.ExprError:
                continue
            if not (np.isfinite(ab) and abs(ab) < 1e4):
                continue
            assert abs(ab + ba) <= 1e-6 * (1 + abs(ab))
            done += 1
