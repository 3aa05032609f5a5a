import math

import numpy as np
import pytest

from ocquad import stage
from ocquad import symexpr as sx
from ocquad.ocp import (
    HamiltonianEvaluator,
    HamiltonianFlow,
    OcpError,
    PhaseFunction,
    PointSampler,
    true_hamiltonian,
)
from ocquad.problems import BUILTIN_NAMES, builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from ocquad.verify import PoleEncounteredError, conservation_drift, integrate_extremal
from conftest import ExprGen, bits
from oracles import fd_bracket_oracle, reference_trajectory


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
        # the loop's time t0 + step * k is the batch's time row, bit for bit:
        # each grid time is evaluated once, and the later stages of its step
        # run at t + step/2, t + step/2 and t + step
        evaluated, staged = [], []
        value_and_gradient, rhs = HamiltonianEvaluator.value_and_gradient, HamiltonianFlow.rhs

        def recorded_value_and_gradient(self, z, t):
            evaluated.append(t)
            return value_and_gradient(self, z, t)

        def recorded_rhs(self, t, y):
            staged.append(t)
            return rhs(self, t, y)

        monkeypatch.setattr(HamiltonianEvaluator, "value_and_gradient",
                            recorded_value_and_gradient)
        monkeypatch.setattr(HamiltonianFlow, "rhs", recorded_rhs)
        traj = integrate_extremal(nonautonomous_th(), [0.3, -0.4], t0=t0,
                                  horizon=step * n_steps, step=step)
        times = traj.points[-1].tolist()
        assert bits(evaluated) == bits(times)
        assert bits(staged) == bits([t + d for t in times[:-1]
                                     for d in (step / 2, step / 2, step)])

    @pytest.mark.parametrize("lagrangian, t0, step, at", [
        # H = -10^301 t + psi1^2/2 passes the float range at t = 1.7977e7
        ("u1^2/2 + 10^301*t", 1.79769e7, 1.0, 32),
        # H = -10^300 ln(-t) + psi1^2/2 stays finite, dH/dt = -10^300/t
        # does not once t > -5.56e-9
        ("u1^2/2 + 10^300*ln(-t)", -1e-8, 1e-9, 5)])
    def test_nonfinite_value_with_a_finite_field_is_a_pole(self, lagrangian, t0, step, at):
        # the vector field psi1, 0 is finite everywhere: only the grid
        # point's own H or dH/dt ends the run, at that grid time
        doc = {"name": "time-term", "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": lagrangian, "dynamics": ["u1"]}
        problem, _ = load_problem(doc)
        with pytest.raises(PoleEncounteredError) as err:
            integrate_extremal(true_hamiltonian(problem), [0.1, 0.2], t0=t0,
                               horizon=40 * step, step=step)
        assert err.value.time == t0 + step * at

    @pytest.mark.parametrize("name, backend", [("trailer", "auto"), ("dubins", "implicit")])
    def test_implicit_backend_solves_once_per_point_and_stage(self, name, backend,
                                                              monkeypatch):
        # one Newton solve at each of the N + 1 grid points, which also gives
        # the step's first stage, and one for each of the 3 later stages:
        # each is one call of a generated kernel, which does the solve and
        # the outputs
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem, backend)
        assert not th.is_closed_form
        z0 = PointSampler(th, np.random.default_rng(2)).draw(1).points[:-1, 0]
        solves = []

        def counted(kind, kernel):
            def call(ev, *args):
                solves.append(kind)
                return kernel(ev, *args)
            return call

        for kind in ("envelope_kernel", "field_kernel"):
            monkeypatch.setitem(th.__dict__, kind, counted(kind, getattr(th, kind)))
        n_steps = 200
        integrate_extremal(th, z0, horizon=n_steps * 1e-3, step=1e-3)
        assert solves.count("envelope_kernel") == n_steps + 1
        assert len(solves) == 4 * n_steps + 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_batch_matches_prepare_on_the_grid(self, name):
        # the batch built from the grid points' own evaluations agrees with
        # `prepare` of the grid (the array envelope, Newton from the guess)
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        points = PointSampler(th, np.random.default_rng(5)).draw(3).points
        done = 0
        for z0 in points[:-1].T:
            try:
                traj = integrate_extremal(th, z0, horizon=1.0, step=1e-3)
            except PoleEncounteredError:
                continue
            fresh, keep = HamiltonianEvaluator(th).prepare(traj.points)
            assert keep.all()
            for got, want in ((traj.hvalue, fresh.hvalue), (traj.hgrad, fresh.hgrad)):
                assert got.shape == want.shape
                assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()
            done += 1
        assert done

    def test_batch_is_the_scalar_envelope_on_the_grid(self):
        # on a closed-form problem each column is one value_and_gradient
        # call at its grid point, bit for bit
        problem, _ = load_problem(builtin("sr-2-3"))
        th = true_hamiltonian(problem)
        z0 = PointSampler(th, np.random.default_rng(5)).draw(1).points[:-1, 0]
        traj = integrate_extremal(th, z0, horizon=1.0, step=1e-3)
        ev = HamiltonianEvaluator(th)
        for k, column in enumerate(traj.points.T.tolist()):
            h, grad = ev.value_and_gradient(column[:-1], column[-1])
            assert bits([h, *grad]) == bits([traj.hvalue[k], *traj.hgrad[:, k]])

    def test_free_particle_is_exact(self):
        th = scalar_th()
        traj = integrate_extremal(th, [0.0, 1.0], horizon=1.0, step=0.01)
        assert np.allclose(traj.points[0], traj.points[-1], atol=1e-14)
        assert np.allclose(traj.points[1], 1.0, atol=1e-14)
        assert np.allclose(traj.hvalue, 0.5, atol=1e-14)

    def test_dubins_energy_drift(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=1e-3)
        energy = PhaseFunction((dubins_th.reduced,), dubins_th.table)
        assert conservation_drift(energy, traj)[0] < 1e-10

    def test_fourth_order_drift_ratio(self, dubins_th):
        coarse = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                    horizon=1.0, step=0.02)
        fine = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=1.0, step=0.01)
        energy = PhaseFunction((dubins_th.reduced,), dubins_th.table)
        [d_coarse] = conservation_drift(energy, coarse)
        [d_fine] = conservation_drift(energy, fine)
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


CAUGHT = (OcpError, FloatingPointError)


def loop_outcome(run):
    """What one run of a trajectory loop gives: its states and rows, bit for
    bit, or the pole it raised with its time, its cause's type and message,
    and whether the context is suppressed."""
    try:
        states, rows = run()
    except PoleEncounteredError as exc:
        cause = exc.__cause__
        return ("pole", bits([exc.time]), type(cause), str(cause), exc.__suppress_context__)
    return bits(states), bits(rows)


def generated_run(n, *args):
    """`stage.trajectory_loop(n)` on fresh arrays, its states and rows read back."""
    last = args[6]
    ys, envs = np.full((last + 1, 2 * n), np.nan), np.full((last + 1, 2 * n + 2), np.nan)
    stage.trajectory_loop(n, CAUGHT)(*args, ys, envs, PoleEncounteredError)
    return ys, envs


class TestTrajectoryLoop:
    """One run of the generated loop gives bit for bit what the reference
    composition of `tests/oracles.py` gives: `reference_rk4_step` from the
    grid point's evaluation, around the same pole guard, with the same
    calls of the evaluation and the right-hand side: the grid's states and
    rows, or the same pole at the same time with the same cause."""

    @pytest.mark.parametrize("name, backend", [
        ("dubins", "auto"), ("dubins", "implicit"), ("martinet", "auto"),
        ("trailer", "implicit"), ("sr-2-3", "auto"), ("sr-2-3-4", "auto"),
        ("sr-2-3-5", "auto")])
    def test_matches_the_reference_on_the_builtins(self, name, backend):
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem, backend)
        assert th.is_closed_form == (backend == "auto")
        n = problem.table.n
        assert th.trajectory_kernel is stage.trajectory_loop(n, CAUGHT)
        points = PointSampler(th, np.random.default_rng(9)).draw(3).points
        grids = 0
        for column in points.T.tolist():
            y, t0 = column[:-1], column[-1]
            for step, last in ((1e-3, 150), (0.05, 40)):
                outcome = []
                for run in (generated_run, reference_trajectory):
                    # a fresh flow for each: the Newton solve warm-starts
                    flow = HamiltonianFlow(th)
                    args = (flow.evaluator.value_and_gradient, flow.rhs, th.denominators,
                            list(y), t0, step, last)
                    with np.errstate(invalid="raise", divide="raise", over="raise"):
                        if run is generated_run:
                            outcome.append(loop_outcome(lambda: run(n, *args)))
                        else:
                            outcome.append(loop_outcome(
                                lambda: run(*args, CAUGHT, PoleEncounteredError)))
                assert outcome[0] == outcome[1]
                grids += outcome[0][0] != "pole"
        assert grids

    def test_integrate_extremal_is_one_run_of_the_loop(self):
        problem, _ = load_problem(builtin("sr-2-3"))
        th = true_hamiltonian(problem)
        z0 = PointSampler(th, np.random.default_rng(5)).draw(1).points[:-1, 0].tolist()
        traj = integrate_extremal(th, z0, t0=0.25, horizon=0.2, step=1e-3)
        flow = HamiltonianFlow(th)
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            states, rows = reference_trajectory(
                flow.evaluator.value_and_gradient, flow.rhs, th.denominators, z0, 0.25,
                1e-3, 200, CAUGHT, PoleEncounteredError)
        assert bits(traj.points[:-1].T) == bits(states)
        assert bits(np.vstack([traj.hvalue, traj.hgrad]).T) == bits(rows)

    @staticmethod
    def scripted(n, seed, fault, calls):
        """An evaluation, a right-hand side and one excluded denominator
        whose values follow from (seed, call number), each call logged.
        `fault` is (who, call number, how): the evaluation or the
        right-hand side raises OcpError or returns a NaN or an infinity; a
        right-hand side returns 1e308, whose double the new state cannot
        hold; the denominator raises, is complex, comes within 1e-2 of 0
        or changes sign."""
        d = 2 * n
        who, bad, how = fault
        count = dict.fromkeys(("evaluate", "rhs", "denominator"), 0)

        def values(kind, t, z, size):
            calls.append((kind, bits([t, *z])))
            count[kind] += 1
            out = [math.sin(1e3 * seed + 7.1 * count[kind] + 1.3 * i) for i in range(size)]
            if kind == who and count[kind] == bad:
                if how == "raise":
                    raise OcpError(f"{kind} {bad}")
                out[(seed + bad) % size] = 1e308 if how == "huge" else float(how) * (-1) ** seed
            return out

        def evaluate(z, t):
            h, *grad = values("evaluate", t, z, d + 2)
            return h, grad

        def rhs(t, y):
            return values("rhs", t, y, d)

        def denominator(*point):
            calls.append(("denominator", bits(point)))
            count["denominator"] += 1
            if who == "denominator" and count["denominator"] == bad:
                return {"raise": lambda: 1.0 / 0.0, "complex": lambda: np.complex128(1j),
                        "near": lambda: 5e-3, "sign": lambda: -1.0}[how]()
            return 1.0 + count["denominator"]

        return evaluate, rhs, (denominator,)

    FAULTS = [("evaluate", "raise"), ("evaluate", "nan"), ("evaluate", "inf"),
              ("rhs", "raise"), ("rhs", "nan"), ("rhs", "inf"), ("rhs", "huge"),
              ("denominator", "raise"), ("denominator", "complex"),
              ("denominator", "near"), ("denominator", "sign")]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("who, how", FAULTS)
    def test_every_outcome_matches_the_reference(self, n, who, how):
        # 131 grid points: two full chunks of 64 rows, then 3.  A fault at
        # grid point k: the first point, either side of each chunk boundary
        # and the last; a right-hand side's fault at one of the step's three
        # stages
        last = 130
        seen = set()
        for k in (None, 0, 1, 62, 63, 64, 65, 127, 128, last):
            for stage_no in ((1, 2, 3) if who == "rhs" else (1,)):
                if k is None:
                    bad = 0
                elif who == "rhs":
                    if k == last:
                        continue
                    bad = 3 * k + stage_no
                    if how == "huge" and stage_no == 3:
                        continue        # a lone 1e308 in k4 sums to a finite state
                else:
                    bad = k + 1
                seed = 100 * n + (k or 0) + stage_no
                rng = np.random.default_rng(seed)
                y = rng.uniform(-2.0, 2.0, 2 * n).tolist()
                t0, step = float(rng.uniform(-1.0, 1.0)), float(rng.choice([1e-3, 0.1]))
                outcome = []
                for run in ("generated", "reference"):
                    calls = []
                    evaluate, rhs, dens = self.scripted(n, seed, (who, bad, how), calls)
                    args = (evaluate, rhs, dens, list(y), t0, step, last)
                    got = loop_outcome(
                        (lambda: generated_run(n, *args)) if run == "generated"
                        else lambda: reference_trajectory(*args, CAUGHT, PoleEncounteredError))
                    outcome.append((got, calls))
                assert outcome[0] == outcome[1]
                got = outcome[0][0]
                seen.add("grid" if got[0] != "pole" else (got[2], got[4]))
                if k is not None:
                    # the pole's time: a stage's own for a non-finite stage;
                    # a first denominator of either sign sets the sign, and
                    # the next grid point's changes it
                    t = t0 + step * k
                    if who == "rhs" and how in ("nan", "inf"):
                        t += step if stage_no == 3 else step / 2
                    elif (who, how, k) == ("denominator", "sign", 0):
                        t += step
                    assert got[:2] == ("pole", bits([t]))
        chained = who != "denominator" and how == "raise"
        assert seen == {"grid", (OcpError if chained else type(None),
                                 how in ("raise", "complex"))}


class TestConservationDrift:
    def test_constant_function(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0, 0, 0, 1, 1, 1],
                                  horizon=0.5, step=1e-2)
        assert conservation_drift(PhaseFunction((sx.num(3),), dubins_th.table), traj) == [0.0]

    def test_dubins_angular_integral_along_random_extremals(self, dubins_th):
        t = dubins_th.table
        f = PhaseFunction((parse("-psi1*x2 + psi2*x1 + psi3", t), symref(t.state(1))), t)
        sampler = PointSampler(dubins_th, np.random.default_rng(0))
        batch = sampler.draw(3)
        for i in range(3):
            z0 = batch.points[:-1, i]
            traj = integrate_extremal(dubins_th, z0, horizon=1.0, step=1e-3)
            conserved, moving = conservation_drift(f, traj)
            assert conserved < 1e-6 and moving > 1e-2

    def test_hamiltonian_placeholder(self, dubins_th):
        traj = integrate_extremal(dubins_th, [0.1, -0.2, 0.3, 0.8, -0.5, 0.9],
                                  horizon=1.0, step=1e-3)
        h = PhaseFunction((symref(HAMILTONIAN_SYMBOL),), dubins_th.table)
        [drift] = conservation_drift(h, traj)
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
        f = PhaseFunction((symref(HAMILTONIAN_SYMBOL),
                           sx.add(parse("-psi1*x2 + psi2*x1 + psi3", t),
                                  sx.mul(symref(t.time), symref(HAMILTONIAN_SYMBOL)))), t)
        drifts = conservation_drift(f, traj)
        assert drifts == [float(np.abs(v - v[0]).max()) for v in f.values(fresh)]
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
            assert all(d < 1e-6 for d in conservation_drift(family.function, traj))
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
