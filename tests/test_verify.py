import numpy as np
import pytest

from ocquad import symexpr as sx
from ocquad import verify
from ocquad.ocp import (
    HamiltonianEvaluator,
    HamiltonianFlow,
    OcpError,
    PhaseFunction,
    PointSampler,
    true_hamiltonian,
)
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from ocquad.verify import PoleEncounteredError, conservation_drift, integrate_extremal
from conftest import ExprGen, bits
from oracles import fd_bracket_oracle, reference_rk4_step


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
    def test_complex_excluded_denominator_is_a_pole(self):
        # xdot = psi1 = -1 takes x1 below 0 in one step, where the excluded
        # x1^(1/2) is complex: the trajectory ends, without a TypeError
        doc = {
            "name": "sqrtden",
            "states": ["x1"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2",
            "dynamics": ["u1"],
            "excluded_denominators": ["x1^(1/2)"],
        }
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.0005, -1.0],
                               horizon=0.01, step=1e-3)
        # the guard after the first step reports that step's end time
        assert err.value.time == pytest.approx(1e-3, abs=1e-12)

    def test_failed_stage_reports_the_step_start(self):
        # xdot1 = psi1 = -1 from x1 = 0.0024: the second stage of the third
        # step reaches x1 = -0.0001, where x1^(1/2) is not real
        doc = {
            "name": "sqrt-drift",
            "states": ["x1", "x2"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2",
            "dynamics": ["u1", "x1^(1/2)"],
        }
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.0024, 0.0, -1.0, 0.0],
                               horizon=0.01, step=1e-3)
        assert err.value.time == pytest.approx(2e-3, abs=1e-12)

    def test_zero_division_at_the_start_reports_t0(self):
        # H = psi1^2/(2 sin(x1)^2) divides by zero at x1 = 0
        doc = {"name": "sin-pole", "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": "u1^2/2", "dynamics": ["u1/sin(x1)"]}
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.0, 1.0],
                               t0=0.25, horizon=0.01, step=1e-3)
        assert err.value.time == pytest.approx(0.25, abs=1e-12)

    def test_negative_sine_under_a_root_reports_the_step_start(self):
        # xdot1 = psi1 = -1 from x1 = 0.0024: the second stage of the third
        # step reaches sin(x1) < 0 under sin(x1)^(1/2)
        doc = {"name": "sin-root", "states": ["x1", "x2"], "controls": ["u1"],
               "time": "t", "lagrangian": "u1^2/2",
               "dynamics": ["u1", "u1*sin(x1)^(1/2)"]}
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.0024, 0.0, -1.0, 0.0],
                               horizon=0.01, step=1e-3)
        assert err.value.time == pytest.approx(2e-3, abs=1e-12)

    def test_complex_power_under_a_function_reports_the_step_start(self):
        # xdot1 = exp(2 sqrt(x1)) psi1 with psi1 = -1 from x1 = 0.0024: the
        # second stage of the third step reaches x1 < 0, where sqrt(x1) is
        # not real; exp of it must not go on with the real part
        doc = {"name": "exp-root", "states": ["x1", "x2"], "controls": ["u1", "u2"],
               "time": "t", "lagrangian": "u1^2/2 + u2^2/2",
               "dynamics": ["u1*exp(sqrt(x1))", "u1*3"]}
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.0024, 0.0, -1.0, 0.0],
                               horizon=0.01, step=1e-3)
        assert err.value.time == pytest.approx(2e-3, abs=1e-12)
        assert isinstance(err.value.__cause__, OcpError)

    @pytest.mark.parametrize("t0, step, n_steps", [
        (0.0, 1e-3, 1000), (0.25, 1e-3, 1000), (-0.7, 0.01, 300), (3.1, 1 / 3, 30)])
    def test_stages_read_the_batch_time_row(self, t0, step, n_steps, monkeypatch):
        # the loop's time t0 + step * k is the batch's time row, bit for bit
        seen = []
        original = HamiltonianFlow.rhs

        def recorded(self, t, y):
            seen.append(t)
            return original(self, t, y)

        monkeypatch.setattr(HamiltonianFlow, "rhs", recorded)
        traj = integrate_extremal(nonautonomous_th(), [0.3, -0.4], t0=t0,
                                  horizon=step * n_steps, step=step)
        assert len(seen) == 4 * n_steps
        assert np.array(seen[::4]).tobytes() == traj.points[-1, :-1].tobytes()

    def test_free_particle_is_exact(self):
        th = scalar_th()
        traj = integrate_extremal(th, [0.0, 1.0], horizon=1.0, step=0.01)
        assert np.allclose(traj.points[0], traj.points[-1], atol=1e-14)
        assert np.allclose(traj.points[1], 1.0, atol=1e-14)
        assert np.allclose(traj.hvalue, 0.5, atol=1e-14)

    def test_dubins_energy_drift(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=1e-3)
        assert conservation_drift(PhaseFunction(dubins_th.reduced, dubins_th.table), traj) < 1e-10

    def test_fourth_order_drift_ratio(self, dubins_th):
        coarse = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                    horizon=1.0, step=0.02)
        fine = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=0.01)
        energy = PhaseFunction(dubins_th.reduced, dubins_th.table)
        d_coarse = conservation_drift(energy, coarse)
        d_fine = conservation_drift(energy, fine)
        assert 12.0 <= d_coarse / d_fine <= 20.0

    def test_bad_step_rejected(self, dubins_th):
        z0 = [0, 0, 0, 1, 1, 1]
        cases = [(z0, -0.1), (z0, 0.3), (z0, 0.0), ([0, 0, 0, 1], 0.01)]
        for start, step in cases:
            with pytest.raises(ValueError):
                integrate_extremal(dubins_th, start, horizon=1.0, step=step)

    def test_pole_abort(self):
        # flow of the Martinet problem pushed across the 1 + x1 = 0 line
        problem, _ = load_problem(builtin("martinet"))
        th = true_hamiltonian(problem)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(th, [-0.9, 0.0, 0.0, -0.9, 0.0, 0.1],
                               horizon=1.0, step=1e-2)
        # the guard after the tenth step reports that step's end time
        assert err.value.time == pytest.approx(0.1, abs=1e-12)
        # a start within 1e-2 of the pole fails the check at t0, before any step
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(th, [-0.995, 0.0, 0.0, 1.0, 0.0, 0.1],
                               t0=0.5, horizon=1.0, step=1e-2)
        assert err.value.time == pytest.approx(0.5, abs=1e-12)


class TestRk4Step:
    """One call of the generated step returns bit for bit what one reference
    step returns, from the same right-hand side calls: the next state, the
    name of the failed check, or the stage's exception."""

    @pytest.mark.parametrize("name, backend", [
        ("dubins", "auto"), ("dubins", "implicit"), ("martinet", "auto"),
        ("trailer", "implicit"), ("sr-2-3", "auto"), ("sr-2-3-4", "auto"),
        ("sr-2-3-5", "auto")])
    def test_matches_the_reference_on_the_builtins(self, name, backend):
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem, backend)
        assert th.is_closed_form == (backend == "auto")
        step_fn = verify._rk4_step(2 * problem.table.n)
        assert verify._rk4_step(2 * problem.table.n) is step_fn
        points = PointSampler(th, np.random.default_rng(9)).draw(3).points
        for column in points.T.tolist():
            y, t = column[:-1], column[-1]
            for step in (1e-3, 0.05):
                # a fresh flow for each: the Newton solve warm-starts
                with np.errstate(invalid="raise", divide="raise"):
                    got = step_fn(HamiltonianFlow(th).rhs, t, y, step / 2, step, step / 6)
                    want = reference_rk4_step(HamiltonianFlow(th).rhs, t, y,
                                              step / 2, step, step / 6)
                assert type(got) is list and bits(got) == bits(want)
                assert bits(got) != bits(y)

    @staticmethod
    def scripted(d, seed, bad_call, kind, calls):
        """A right-hand side whose values follow from (seed, call number), and
        whose call `bad_call` returns a non-finite entry or raises; with
        kind "huge" every call returns 1e308 in one entry, so the finite
        stages sum to an infinite new state."""
        def rhs(t, y):
            calls.append(bits([t, *y]))
            rng = np.random.default_rng((seed, len(calls)))
            out = rng.normal(size=d).tolist()
            if kind == "huge":
                out[seed % d] = 1e308
            elif kind != "plain" and len(calls) == bad_call:
                if kind == "raise":
                    raise OcpError("stage")
                out[rng.integers(d)] = float(rng.choice([np.nan, np.inf, -np.inf]))
            return out
        return rhs

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_every_outcome_matches_the_reference(self, d):
        step_fn = verify._rk4_step(d)
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng((d, seed))
            y = rng.uniform(-2.0, 2.0, d).tolist()
            t, step = float(rng.uniform(-1.0, 1.0)), float(rng.choice([1e-3, 0.1, 1.0]))
            kind = ["plain", "nonfinite", "raise", "huge"][seed % 4]
            bad_call = seed // 4 % 4 + 1
            outcome = []
            for fn in (step_fn, reference_rk4_step):
                calls = []
                rhs = self.scripted(d, seed, bad_call, kind, calls)
                try:
                    out = fn(rhs, t, y, step / 2, step, step / 6)
                except OcpError:
                    out = "raised"
                outcome.append((out if isinstance(out, str) else bits(out), calls))
            assert outcome[0] == outcome[1]
            seen.add("state" if isinstance(outcome[0][0], bytes) else outcome[0][0])
        assert seen == {"state", "k1", "k2", "k3", "k4", "raised", "y"}


class TestConservationDrift:
    def test_constant_function(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=0.5, step=1e-2)
        assert conservation_drift(PhaseFunction(sx.num(3), dubins_th.table), traj) == 0.0

    def test_dubins_angular_integral_along_random_extremals(self, dubins_th):
        t = dubins_th.table
        f = PhaseFunction(parse("-psi1*x2 + psi2*x1 + psi3", t), t)
        sampler = PointSampler(dubins_th, np.random.default_rng(0))
        batch = sampler.draw(3)
        for i in range(3):
            z0 = batch.points[:-1, i]
            traj = integrate_extremal(dubins_th, z0, horizon=1.0, step=1e-3)
            assert conservation_drift(f, traj) < 1e-6
            assert conservation_drift(PhaseFunction(symref(t.state(1)), t), traj) > 1e-2

    def test_hamiltonian_placeholder(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0.1, -0.2, 0.3, 0.8, -0.5, 0.9],
                                  horizon=1.0, step=1e-3)
        h = PhaseFunction(symref(HAMILTONIAN_SYMBOL), dubins_th.table)
        drift = conservation_drift(h, traj)
        assert drift < 1e-10


    def test_reads_the_trajectory_batch(self, dubins_th, monkeypatch):
        traj = integrate_extremal(dubins_th, [0.1, -0.2, 0.3, 0.8, -0.5, 0.9],
                                  horizon=0.5, step=1e-2)
        fresh, keep = HamiltonianEvaluator(dubins_th).prepare(traj.points)
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
            drift = conservation_drift(PhaseFunction(expr, t), traj)
            vals = PhaseFunction(expr, t).values(fresh)
            assert drift == float(np.abs(vals - vals[0]).max())
        assert calls == []


class TestFamilyConservation:
    @pytest.mark.parametrize("name", ["dubins", "martinet"])
    def test_every_discovered_component_is_conserved_along_extremals(self, name):
        from ocquad.noether import discover_family
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        sampler = PointSampler(th, np.random.default_rng(4))
        family = discover_family(th, sampler, degree=2)
        t = problem.table
        done = 0
        batch = sampler.draw(10)
        for i in range(batch.size):
            if done == 3:
                break
            z0 = batch.points[:-1, i]
            try:
                traj = integrate_extremal(th, z0, horizon=1.0, step=1e-3)
            except PoleEncounteredError:
                continue
            for comp in family.components:
                assert conservation_drift(comp.function, traj) < 1e-6
            done += 1
        assert done == 3


class TestTimeDependentFlow:
    def test_hamiltonian_drifts_for_time_dependent_problem(self):
        th = nonautonomous_th()
        assert th.reduced.free() & {th.table.time}
        # along the flow dH/dt is the explicit time derivative, here -x
        traj = integrate_extremal(th, [0.3, -0.4], horizon=1.0, step=1e-3)
        assert np.abs(traj.hvalue - traj.hvalue[0]).max() > 1e-3


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
