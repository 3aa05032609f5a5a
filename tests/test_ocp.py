import numpy as np
import pytest

from ocquad import cli, ocp, stage
from ocquad import symexpr as sx
from ocquad.ocp import (
    HamiltonianEvaluator,
    HamiltonianFlow,
    InvalidControlLawError,
    NotAffineInControlError,
    OcpError,
    PointSampler,
    Problem,
    build_hamiltonian,
    sample_row,
    solve_stationarity,
    true_hamiltonian,
)
from ocquad.noether import discover_family
from ocquad.problems import BUILTIN_NAMES, builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from conftest import bits, make_table, setup_problem
from oracles import (ComponentFunctions, ReferenceStages, evaluate, ldl_solve, reference_newton,
                     reference_rk4_step, reference_step)


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


THREE_CONTROLS = "three-controls"


def named_problem(name):
    """A built-in problem, or THREE_CONTROLS: L = |u|^2/2 with dynamics affine
    in three controls, whose closed form is u1 = psi1, u2 = psi2,
    u3 = x2*psi1 + x1*psi3."""
    doc = builtin(name) if name != THREE_CONTROLS else {
        "name": THREE_CONTROLS,
        "states": ["x1", "x2", "x3"],
        "controls": ["u1", "u2", "u3"],
        "time": "t",
        "lagrangian": "(u1^2 + u2^2 + u3^2)/2",
        "dynamics": ["u1 + x2*u3", "u2", "x1*u3"],
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


    def test_supplied_law_is_checked_on_samples(self):
        # dubins' law is u1 = psi1*cos(x3) + psi2*sin(x3), u2 = psi3
        doc = builtin("dubins")
        doc["control_solution"] = ["psi1*cos(x3) + psi2*sin(x3)", "psi3"]
        problem, _ = load_problem(doc)
        assert true_hamiltonian(problem).is_closed_form
        doc["control_solution"] = ["psi1", "psi3"]
        problem, _ = load_problem(doc)
        with pytest.raises(InvalidControlLawError, match="violates dH/du1 = 0"):
            true_hamiltonian(problem)
        # the implicit backend never reads the supplied law
        assert not true_hamiltonian(problem, backend="implicit").is_closed_form


class TestEvalTrueHamiltonian:
    def test_quadratic_scalar(self):
        problem = scalar_problem()
        th = true_hamiltonian(problem)
        t = problem.table
        assert th.reduced == parse("psi1^2/2", t)
        value, grad = HamiltonianEvaluator(th).value_and_gradient([0.3, -0.7], 0.1)
        assert abs(value - 0.5 * 0.7 ** 2) < 1e-15
        assert grad[0] == 0.0                    # x1
        assert abs(grad[1] - (-0.7)) < 1e-15     # psi1
        assert grad[2] == 0.0                    # t

    def test_closed_form_gradient_matches_finite_differences(self, dubins):
        th = true_hamiltonian(dubins)
        ev = HamiltonianEvaluator(th)
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

    @pytest.mark.parametrize("name", ["dubins", "martinet", "sr-2-3-5", THREE_CONTROLS])
    def test_implicit_backend_agrees_with_closed_form(self, name):
        problem = named_problem(name)
        th_closed = true_hamiltonian(problem)
        th_impl = true_hamiltonian(problem, backend="implicit")
        assert not th_impl.is_closed_form
        ev_c = HamiltonianEvaluator(th_closed)
        ev_i = HamiltonianEvaluator(th_impl)
        x1 = problem.table.state(1)
        for pt in phase_points(problem, 30, seed=3):
            if name == "martinet" and abs(1 + pt[x1]) < 0.1:
                continue
            vc, gc = ev_c.value_and_gradient(*positional(problem, pt))
            vi, gi = ev_i.value_and_gradient(*positional(problem, pt))
            assert abs(vc - vi) < 1e-9
            assert np.abs(np.subtract(gc, gi)).max() < 1e-9

    def test_envelope_identity(self, dubins, martinet):
        # gradient of reduced H equals the partials of H frozen at u = u_bar
        for problem in (dubins, martinet):
            th = true_hamiltonian(problem)
            ev = HamiltonianEvaluator(th)
            t = problem.table
            h_partials = [sx.differentiate(th.hamiltonian, s)
                          for s in t.phase + (t.time,)]
            count = 0
            for pt in phase_points(problem, 250, seed=4):
                if problem is martinet and abs(1 + pt[t.state(1)]) < 0.1:
                    continue
                u_star = [evaluate(e, pt) for e in th.law.expressions]
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
            HamiltonianEvaluator(th).value_and_gradient(*positional(trailer, pt))
        assert exc.value.point is not None

    def test_implicit_stationarity_on_samples(self, trailer):
        # points come from the sampler: phase points with no concave
        # stationary control (they exist for the trailer) are out of domain
        th = true_hamiltonian(trailer)
        t = trailer.table
        sampler = PointSampler(th, np.random.default_rng(5))
        batch = sampler.draw(25)
        grads = [sx.differentiate(th.hamiltonian, u) for u in t.controls]
        for i, column in enumerate(batch.points.T):
            # the solve `prepare` ran on this point
            full = batch.point(i)
            full.update(zip(t.controls, th.control_kernel(*column.tolist())))
            for g in grads:
                assert abs(evaluate(g, full)) <= 1e-9


# (dynamics, phase point x..., psi..., what the envelope's error says) where a
# compiled function's value meets a zero division or a negative base under a
# fractional power, or overflows
LEAVING_THE_DOMAIN = {
    # 1/sin(x1) at x1 = 0
    "zero_division": (["u1/sin(x1)"], [0.0, 1.0], "leaves the real domain"),
    # sin(x1)^(1/2) at x1 = -0.5
    "fractional_power": (["u1", "u1*sin(x1)^(1/2)"], [-0.5, 0.0, 1.0, 1.0],
                         "leaves the real domain"),
    # x1^4 in H at x1 = 1e80: a Python float power raises OverflowError, an
    # ArithmeticError, where numpy would give inf
    "overflow": (["u1*x1^2"], [1e80, 1.0], r"overflows at \{x1=1e\+80, psi1=1, t=0.5\}"),
}


def leaving_problem(case):
    dynamics, z, _ = LEAVING_THE_DOMAIN[case]
    doc = {"name": case, "states": [f"x{i + 1}" for i in range(len(dynamics))],
           "controls": ["u1"], "time": "t", "lagrangian": "u1^2/2", "dynamics": dynamics}
    problem, _ = load_problem(doc)
    return problem, z


# (Lagrangian, phase point x1, psi1, what the error says) where H and dH/dx1
# leave the real domain or overflow while dH/du = -u1 + psi1 does not
LEAVING_IN_THE_OUTPUTS = {
    # -x1^(1/2) in H and -x1^(-1/2)/2 in dH/dx1 at x1 = -0.5
    "fractional_power": ("u1^2/2 + x1^(1/2)", [-0.5, 1.0],
                         r"leaves the real domain at \{x1=-0.5, psi1=1, t=0.5\}"),
    # x1^5 and x1^4 at x1 = 1e80
    "overflow": ("u1^2/2 + x1^5", [1e80, 1.0], r"overflows at \{x1=1e\+80, psi1=1, t=0.5\}"),
}


def outcome(fn, *args):
    """What `fn(*args)` gives: the bits of its floats, or its OcpError's
    type and message."""
    try:
        out = fn(*args)
    except OcpError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):      # value_and_gradient's (H, gradient)
        out = [out[0], *out[1]]
    return bits(out)


class TestEvaluationLeavingTheDomain:
    """Where sin(x1) meets a zero division or a fractional power, or x1^4
    overflows, the Newton solve fails and the closed-form envelope raises
    OcpError, inside the errstate RK4 runs in, saying which happened."""

    @pytest.mark.parametrize("case", sorted(LEAVING_THE_DOMAIN))
    def test_newton_fails(self, case):
        # sin(x1)^-1 and sin(x1)^(1/2) sit in a control-free term of dH/du,
        # which the kernels compute once, before the loop; x1^2 at 1e80
        # takes the control past 1e6.  Each gives the reference
        # composition's None or NewtonDivergenceError
        problem, z = leaving_problem(case)
        th = true_hamiltonian(problem, backend="implicit")
        assert th.control_kernel(*z, 0.5) is None
        assert ReferenceStages(th).controls(*z, 0.5) is None
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for kernel in ("value_and_gradient", "rhs"):
                flow, ref = HamiltonianFlow(th), ReferenceStages(th)
                fn = flow.rhs if kernel == "rhs" else flow.evaluator.value_and_gradient
                args = (0.5, z) if kernel == "rhs" else (z, 0.5)
                got = outcome(fn, *args)
                assert got == outcome(getattr(ref, kernel), *args)
                assert got[0] == "NewtonDivergenceError"
                assert flow.evaluator._warm is None

    @pytest.mark.parametrize("warm", [None, [-1.0]], ids=["cold", "warm"])
    @pytest.mark.parametrize("psi1, solved", [(0.1, True), (-5.0, False)])
    def test_a_control_term_that_leaves_the_domain_fails_that_start(self, warm, psi1,
                                                                    solved):
        # sqrt(u1) in dH/du is not real at u1 < 0: the warm start -1 fails
        # at once, and at psi1 = -5 the guess 1 steps to u1 = -1 and fails
        # there.  The next start, or NewtonDivergenceError, follows, as in
        # the reference composition
        doc = {"name": "root", "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": "u1^2/2", "dynamics": ["u1 + u1^(3/2)"], "control_guess": [1.0]}
        problem, _ = load_problem(doc)
        th = true_hamiltonian(problem, backend="implicit")
        z = [0.3, psi1]
        assert (th.control_kernel(*z, 0.5) is not None) == solved
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for kernel in ("value_and_gradient", "rhs"):
                flow, ref = HamiltonianFlow(th), ReferenceStages(th)
                flow.evaluator._warm = ref.warm = warm
                fn = flow.rhs if kernel == "rhs" else flow.evaluator.value_and_gradient
                args = (0.5, z) if kernel == "rhs" else (z, 0.5)
                got = outcome(fn, *args)
                assert got == outcome(getattr(ref, kernel), *args)
                assert (got[0] != "NewtonDivergenceError") == solved

    @pytest.mark.parametrize("case", sorted(LEAVING_IN_THE_OUTPUTS))
    def test_outputs_raise_after_the_solve(self, case):
        # a term only the outputs hold raises OcpError with the message of
        # the reference composition, after the solve set the warm start
        lagrangian, z, message = LEAVING_IN_THE_OUTPUTS[case]
        doc = {"name": case, "states": ["x1"], "controls": ["u1"], "time": "t",
               "lagrangian": lagrangian, "dynamics": ["u1"]}
        problem, _ = load_problem(doc)
        th = true_hamiltonian(problem, backend="implicit")
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for kernel in ("value_and_gradient", "rhs"):
                flow, ref = HamiltonianFlow(th), ReferenceStages(th)
                fn = flow.rhs if kernel == "rhs" else flow.evaluator.value_and_gradient
                args = (0.5, z) if kernel == "rhs" else (z, 0.5)
                with pytest.raises(OcpError, match="^Hamiltonian " + message + "$") as exc:
                    fn(*args)
                assert type(exc.value) is OcpError
                assert outcome(fn, *args) == outcome(getattr(ref, kernel), *args)
                assert bits(flow.evaluator._warm) == bits(ref.warm) == bits([1.0])

    @pytest.mark.parametrize("case", sorted(LEAVING_THE_DOMAIN))
    def test_envelope_raises(self, case):
        problem, z = leaving_problem(case)
        ev = HamiltonianEvaluator(true_hamiltonian(problem))
        with np.errstate(invalid="raise", divide="raise"):
            with pytest.raises(OcpError, match="^Hamiltonian " + LEAVING_THE_DOMAIN[case][2]):
                ev.value_and_gradient(z, 0.5)


class TestFlow:
    def test_free_particle(self):
        problem = scalar_problem()
        th = true_hamiltonian(problem)
        flow = HamiltonianFlow(th)
        # H = psi1^2/2: xdot = psi1, psidot = 0
        for t, y in [(0.0, [0.0, 1.0]), (0.3, [0.7, -1.3]), (2.0, [-5.0, 0.25])]:
            assert np.allclose(flow.rhs(t, np.array(y)), [y[1], 0.0], atol=1e-15)

    def test_dubins_adjoint_component(self, dubins):
        th = true_hamiltonian(dubins)
        flow = HamiltonianFlow(th)
        t = dubins.table
        expected = parse(
            "(cos(x3)*psi1 + sin(x3)*psi2) * (sin(x3)*psi1 - cos(x3)*psi2)",
            t)
        for pt in phase_points(dubins, 30, seed=6):
            got = flow.rhs(pt[t.time], np.array([pt[s] for s in t.phase]))[t.n + 2]
            assert abs(got - evaluate(expected, pt)) < 1e-12

    @pytest.mark.parametrize("name", ["dubins", "trailer", "sr-2-3-5"])
    def test_rhs_matches_the_array_path(self, name):
        # rhs equals grad[rows] * signs on the evaluator's gradient, bit for
        # bit; a second evaluator walks the same points, so the implicit
        # backend's warm starts match
        problem = named_problem(name)
        th = true_hamiltonian(problem)
        flow, ev = HamiltonianFlow(th), HamiltonianEvaluator(th)
        n = problem.table.n
        rows, signs = np.r_[n:2 * n, :n], np.repeat([1.0, -1.0], n)
        batch = PointSampler(th, np.random.default_rng(8)).draw(50)
        for column in batch.points.T:
            y, t = column[:-1], column[-1]
            _, grad = ev.value_and_gradient(y, t)
            assert bits(flow.rhs(t, y)) == bits(np.asarray(grad, dtype=float)[rows] * signs)


class TestNewtonParity:
    """The kernels' Newton solve gives bit for bit what the reference loop
    around the generic LDL^T solve gives, on a Newton system compiled apart
    from the kernels: from the guess (`control_kernel`) and warm-started
    from the previous point's control (the control `value_and_gradient`
    leaves in `_warm`), on sampler points and on raw box draws (where some
    solves fail)."""

    @pytest.mark.parametrize("name", ["trailer", THREE_CONTROLS])
    def test_matches_reference(self, name):
        problem = named_problem(name)
        th = true_hamiltonian(problem, backend="implicit")
        rows = ocp.sample_symbols(problem.table)
        system = sx.compile_fn(th.newton_system, rows + problem.table.controls, scalar=True)
        ev = HamiltonianEvaluator(th)
        guess = th.law.guess
        sampled = PointSampler(th, np.random.default_rng(4)).draw(200).points
        rng = np.random.default_rng(5)
        raw = np.array([rng.uniform(*problem.sampling_box[s], 200) for s in rows])
        with np.errstate(all="ignore"):
            for points, admissible in ((sampled, True), (raw, False)):
                warm = guess
                for column in points.T.tolist():
                    cold = th.control_kernel(*column)
                    assert bits(cold) == bits(reference_newton(system, column, guess))
                    assert cold is not None or not admissible
                    want = (reference_newton(system, column, warm)
                            or reference_newton(system, column, guess))
                    ev._warm = warm
                    try:
                        ev.value_and_gradient(column[:-1], column[-1])
                    except ocp.NewtonDivergenceError:
                        assert want is None
                    else:
                        assert bits(ev._warm) == bits(want)
                    warm = guess if cold is None else cold


class TestStageKernels:
    """`value_and_gradient`, `rhs` and `prepare`'s solve are one generated
    call each, built once per TrueHamiltonian, and give bit for bit what
    the reference composition of `tests/oracles.py` gives."""

    @staticmethod
    def walk(th, seed, steps=200):
        """RK4 with step 1e-3 from a sampler point along the reference
        composition's flow, comparing every grid point and every stage
        with the kernels: warm, through one evaluator and its flow, as
        `integrate_extremal` calls them, and cold, through fresh ones."""
        n = th.table.n
        z0 = PointSampler(th, np.random.default_rng(seed)).draw(1).points[:-1, 0]
        flow, ref = HamiltonianFlow(th), ReferenceStages(th)

        def rhs(t, y):
            for f, r in ((flow, ref), (HamiltonianFlow(th), ReferenceStages(th))):
                assert outcome(f.rhs, t, y) == outcome(r.rhs, t, y)
            return ref.rhs(t, y)

        y, t = z0.tolist(), 0.0
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            for k in range(steps):
                t = 1e-3 * k
                for ev, r in ((flow.evaluator, ref),
                              (HamiltonianEvaluator(th), ReferenceStages(th))):
                    assert (outcome(ev.value_and_gradient, y, t)
                            == outcome(r.value_and_gradient, y, t))
                if not th.is_closed_form:
                    assert bits(flow.evaluator._warm) == bits(ref.warm)
                _, grad = ref.value_and_gradient(y, t)
                y = reference_rk4_step(rhs, t, y, grad[n:2 * n] + [-g for g in grad[:n]],
                                       5e-4, 1e-3, 1e-3 / 6)
                assert type(y) is list

    @pytest.mark.parametrize("name, backend", [
        ("trailer", "auto"), (THREE_CONTROLS, "implicit"), ("dubins", "implicit")])
    def test_implicit_kernels_match_the_reference_composition(self, name, backend):
        problem = named_problem(name)
        th = true_hamiltonian(problem, backend=backend)
        assert not th.is_closed_form
        self.walk(th, seed=12)
        # prepare's solve from the guess, on raw box draws where some fail
        rng = np.random.default_rng(13)
        raw = np.array([rng.uniform(*problem.sampling_box[s], 300)
                        for s in ocp.sample_symbols(problem.table)])
        ref = ReferenceStages(th)
        solved = 0
        with np.errstate(all="ignore"):
            for column in raw.T.tolist():
                got = th.control_kernel(*column)
                assert bits(got) == bits(ref.controls(*column))
                solved += got is not None
        # a quadratic H in u always has its stationary control; trailer's not
        assert solved == 300 if name != "trailer" else 0 < solved < 300

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "trailer"])
    def test_closed_form_kernels_match_the_compiled_field(self, name):
        problem = named_problem(name)
        th = true_hamiltonian(problem)
        assert th.is_closed_form
        self.walk(th, seed=14, steps=50)

    @pytest.mark.parametrize("name, kinds", [
        ("trailer", {"controls": 1, "envelope": 1, "field": 1}),
        ("dubins", {"envelope": 1, "field": 1})])
    def test_each_kernel_is_built_once_per_problem(self, name, kinds, monkeypatch, tmp_path):
        built = []

        def counted(kind, *args, **kwargs):
            built.append(kind)
            return stage_kernel(kind, *args, **kwargs)

        stage_kernel = ocp.stage_kernel
        monkeypatch.setattr(ocp, "stage_kernel", counted)
        assert cli.main(["analyze", name, "--output", str(tmp_path / "report.json")]) == 0
        assert {k: built.count(k) for k in set(built)} == kinds


class TestNewtonKernel:
    """The Newton loop a kernel generates gives bit for bit what the
    reference loop around the generic LDL^T solve gives, on a planted
    system: at the guess u0 the control gradient is G * exp(-1e300 *
    |u - u0|^2) = G and the control Hessian is S, and after any step the
    gradient is 0.  So the loop's first iteration is one reference
    iteration on (G, S, u0): the next control, True or False at
    convergence, or None; a step then converges where S is negative
    definite."""

    @staticmethod
    def cases(m, rng):
        """(out, u) pairs: `out` lists g, then the lower triangle of A."""
        def lower(a):
            return [float(a[i, j]) for i in range(m) for j in range(i + 1)]

        def spectral(eigenvalues):
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            a = q @ np.diag(eigenvalues) @ q.T
            return (a + a.T) / 2

        out = []
        for _ in range(40):
            u = rng.uniform(-3.0, 3.0, m).tolist()
            eigenvalues = rng.uniform(0.2, 5.0, m) * rng.choice([-1.0, 1.0], m)
            eigenvalues[0] = abs(eigenvalues[0])
            for a in (spectral(-rng.uniform(0.2, 5.0, m)), spectral(eigenvalues)):
                g = rng.normal(size=m)
                # a plain step, a step clipped at +-2, and convergence
                for scale in (1.0, 100.0, 1e-13):
                    out.append(((g * scale).tolist() + lower(a), u))
            # an exact zero pivot: integer unit L and D with one 0
            unit = np.tril(rng.integers(-2, 3, (m, m)), -1) + np.eye(m)
            d = rng.choice([-1.0, -2.0, -4.0], m)
            d[rng.integers(m)] = 0.0
            out.append((rng.normal(size=m).tolist() + lower(unit @ np.diag(d) @ unit.T), u))
            # a NaN or infinite entry
            entries = rng.normal(size=m).tolist() + lower(spectral(-np.ones(m)))
            entries[rng.integers(len(entries))] = rng.choice([np.nan, np.inf, -np.inf])
            out.append((entries, u))
            # a control near 1e6, stepped to either side of it
            big = (rng.choice([-1.0, 1.0], m) * (1e6 - 1.0)).tolist()
            out.append((rng.normal(size=m).tolist() + lower(spectral(-np.ones(m))), big))
        # numpy scalars, as compiled trigonometric expressions return them
        return out + [(list(map(np.float64, o)), list(map(np.float64, u)))
                      for o, u in out[::3]]

    @staticmethod
    def planted(m):
        """(rows, controls, system): G_i * exp(-1e300 * sum_j (u_j - w_j)^2)
        with G, then S, then w read from the rows."""
        k = m * (m + 1) // 2
        table = make_table(2 * m + k, m_ctl=m)
        rows, controls = table.states, table.controls
        g, s, w = rows[:m], rows[m:m + k], rows[m + k:]
        spread = sx.add(*(sx.power(sx.add(symref(u), sx.negate(symref(c))), 2)
                          for u, c in zip(controls, w)))
        bump = sx.fn("exp", sx.mul(sx.num(-10 ** 300), spread))
        system = tuple(sx.mul(symref(x), bump) for x in g) + tuple(map(symref, s))
        return rows, controls, system

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_the_reference_loop(self, m):
        rows, controls, system = self.planted(m)
        reference = sx.compile_fn(system, rows + controls, scalar=True)
        seen = set()
        for out, u in self.cases(m, np.random.default_rng(30 + m)) if m else [([], [])]:
            kernel = stage.stage_kernel(
                "controls", system, (), rows, controls, tuple(u), tol=ocp.NEWTON_TOL,
                max_iter=ocp.NEWTON_MAX_ITER, diverged=None, left_domain=None)
            values = [*out, *u]
            with np.errstate(all="ignore"):
                got = kernel(*values)
                assert bits(got) == bits(reference_newton(reference, values, u))
                first = reference_step(out, u)
            if isinstance(first, list):
                step_sizes = np.abs(ldl_solve(out[m:], out[:m])[0])
                seen.add("clipped" if step_sizes.max() > 2.0 else "step")
            else:
                seen.add("far" if first is None and np.abs(u).max() > 1e5 else first)
        assert seen == ({"step", "clipped", True, False, None, "far"} if m else {True})


class TestSampler:
    def test_respects_exclusions_and_box(self, martinet):
        th = true_hamiltonian(martinet)
        sampler = PointSampler(th, np.random.default_rng(0))
        batch = sampler.draw(200)
        assert batch.size == 200
        table = martinet.table
        x1 = batch.points[sample_row(table, table.state(1))]
        assert np.all(np.abs(1 + x1) >= 0.1)
        phase = batch.points[:-1]
        assert np.all(phase >= -1.0) and np.all(phase <= 1.0)

    # rejection reason -> (problem entries, backend)
    STARVING = {
        # a convex H has no concave stationary control
        "with a failed Newton solve": ({"lagrangian": "-u1^2/2", "dynamics": ["u1"]},
                                       "implicit"),
        # ln(x1) is not real on the box x1 < 0
        "with a non-finite envelope": ({"lagrangian": "u1^2/2", "dynamics": ["u1 + ln(x1)"],
                                        "sampling_box": {"x1": [-1, -0.5]}}, "auto"),
    }

    @pytest.mark.parametrize("reason", sorted(STARVING))
    def test_starvation_counts_the_rejections_by_reason(self, reason):
        entries, backend = self.STARVING[reason]
        doc = {"name": "starving", "states": ["x1"], "controls": ["u1"], "time": "t", **entries}
        problem, _ = load_problem(doc)
        th = true_hamiltonian(problem, backend=backend)
        with pytest.raises(ocp.SamplerStarvationError,
                           match=f"could not find 5 admissible points in 3200 draws: "
                                 f"3200 {reason}$"):
            PointSampler(th, np.random.default_rng(0)).draw(5)

    def test_deterministic_under_seed(self, dubins):
        th = true_hamiltonian(dubins)
        b1 = PointSampler(th, np.random.default_rng(9)).draw(50)
        b2 = PointSampler(th, np.random.default_rng(9)).draw(50)
        assert np.array_equal(b1.points, b2.points)
        assert np.array_equal(b1.hvalue, b2.hvalue)

    @pytest.mark.parametrize("name", ["trailer", "dubins", "martinet", "sr-2-3-5",
                                      THREE_CONTROLS])
    def test_implicit_batch_matches_scalar(self, name):
        # the batch path (prepare, used for sampling) and the scalar path
        # (value_and_gradient, used by RK4) agree point by point; the
        # three-control problem runs on the implicit backend
        problem = named_problem(name)
        th = true_hamiltonian(problem, backend="implicit" if name == THREE_CONTROLS else "auto")
        assert th.is_closed_form == (name not in ("trailer", THREE_CONTROLS))
        sampler = PointSampler(th, np.random.default_rng(1))
        batch = sampler.draw(20)
        for i in range(batch.size):
            value, grad = HamiltonianEvaluator(th).value_and_gradient(batch.points[:-1, i],
                                                                      batch.points[-1, i])
            assert abs(value - batch.hvalue[i]) < 1e-10
            assert np.abs(batch.hgrad[:, i] - grad).max() < 1e-8

    @pytest.mark.parametrize("name", ["trailer", "dubins"])
    def test_prepare_ignores_the_warm_start(self, name):
        # `prepare` solves every point from the guess, so value_and_gradient
        # calls on the same evaluator, which move its warm start, leave the
        # batch bit for bit unchanged
        problem = named_problem(name)
        th = true_hamiltonian(problem)
        sampler = PointSampler(th, np.random.default_rng(11))
        ev = sampler.evaluator
        points = sampler.draw(50).points.copy()
        others = sampler.draw(200).points
        before, keep_before = ev.prepare(points)
        for column in others.T:
            ev.value_and_gradient(column[:-1], column[-1])
        if not th.is_closed_form:
            assert ev._warm is not None and list(ev._warm) != list(th.law.guess)
        after, keep_after = ev.prepare(points)
        assert bits(keep_after) == bits(keep_before)
        for field in ("points", "hvalue", "hgrad"):
            assert bits(getattr(after, field)) == bits(getattr(before, field))


class TestLdlSolve:
    """The reference LDL^T step of the Newton loop agrees with
    np.linalg.solve, and its pivot test with eigvalsh(...).max() < 0, on
    random symmetric matrices; a singular matrix is never accepted."""

    @staticmethod
    def lower(a):
        m = len(a)
        return tuple(float(a[i, j]) for i in range(m) for j in range(i + 1))

    @staticmethod
    def spectral(rng, eigenvalues):
        q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2))
        a = q @ np.diag(eigenvalues) @ q.T
        return (a + a.T) / 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_negative_definite(self, m):
        rng = np.random.default_rng(m)
        for _ in range(200):
            a = self.spectral(rng, -rng.uniform(0.2, 5.0, m))
            g = rng.normal(size=m)
            step, negative_definite = ldl_solve(self.lower(a), g.tolist())
            assert negative_definite and np.linalg.eigvalsh(a).max() < 0
            assert np.allclose(step, np.linalg.solve(a, g), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_indefinite(self, m):
        rng = np.random.default_rng(10 + m)
        for _ in range(200):
            eigenvalues = rng.uniform(0.2, 5.0, m) * rng.choice([-1.0, 1.0], m)
            eigenvalues[0] = abs(eigenvalues[0])
            a = self.spectral(rng, eigenvalues)
            g = rng.normal(size=m)
            result = ldl_solve(self.lower(a), g.tolist())
            assert np.linalg.eigvalsh(a).max() > 0
            if result is None:      # a zero leading minor: no step, and rejected
                continue
            step, negative_definite = result
            assert not negative_definite
            assert np.allclose(a @ step, g, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_singular_is_rejected(self, m):
        # A = L D L^T with an integer unit lower L and D = diag of -1, -2, -4
        # and one 0: every float operation is exact, so the zero pivot is 0
        rng = np.random.default_rng(20 + m)
        for _ in range(200):
            unit = np.tril(rng.integers(-2, 3, (m, m)), -1) + np.eye(m)
            d = rng.choice([-1.0, -2.0, -4.0], m)
            d[rng.integers(m)] = 0.0
            a = unit @ np.diag(d) @ unit.T
            assert np.linalg.matrix_rank(a) < m
            result = ldl_solve(self.lower(a), rng.normal(size=m).tolist())
            assert result is None or not result[1]

    def test_empty_system(self):
        assert ldl_solve((), []) == ([], True)


class TestTupleCompile:
    """A tuple of expressions compiled as one function returns exactly (==)
    what each expression's own compiled function returns, on scalars and on
    sample rows, and its `rows` form writes them into an array's rows,
    constants broadcast."""

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
        stacked = np.empty((len(exprs), count))
        assert sx.compile_fn(tuple(exprs), args, rows=True)(*columns, stacked) is None
        for row, got, f in zip(stacked, fused(*columns), singles):
            want = f(*columns)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(row, np.broadcast_to(want, (count,)))
        return [e for e in exprs if e.is_constant]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_envelope(self, name):
        problem, _ = load_problem(builtin(name))
        th = true_hamiltonian(problem)
        sampler = PointSampler(th, np.random.default_rng(2))
        batch = sampler.draw(12)
        args = ocp.sample_symbols(problem.table)
        columns = list(batch.points)
        groups = [th.envelope]
        if not th.is_closed_form:
            args += problem.table.controls
            controls = [th.control_kernel(*column.tolist()) for column in batch.points.T]
            columns += list(np.array(controls).T)
            groups.append(th.newton_system)
        constants = [self.assert_same(g, args, columns) for g in groups]
        assert constants[0]   # some partial is constant and has to broadcast

    def test_phase_function_with_hamiltonian_placeholder(self, dubins):
        th = true_hamiltonian(dubins)
        t = dubins.table
        expr = sx.add(sx.mul(symref(HAMILTONIAN_SYMBOL), parse("psi3 + x1^2", t)),
                      parse("sin(x3)*psi2 + 2", t))
        func = ocp.PhaseFunction((expr,), t)
        batch = PointSampler(th, np.random.default_rng(3)).draw(12)
        args = ocp.sample_symbols(t) + (HAMILTONIAN_SYMBOL,)
        exprs = [sx.differentiate(expr, s) for s in args]
        columns = [*batch.points, batch.hvalue]
        assert self.assert_same(exprs, args, columns)
        partials = [np.broadcast_to(sx.compile_fn(e, args)(*columns), (batch.size,))
                    for e in exprs]
        want = np.array(partials[:-1]) + partials[-1] * batch.hgrad
        assert np.array_equal(func.gradient(batch), [want])


class TestPhaseFunction:
    """One PhaseFunction over k expressions gives bit for bit the arrays of k
    separately compiled functions (`ComponentFunctions`): the (k, N) values,
    constants broadcast, and the (k, 2n+1, N) gradient, chain-ruled through
    dH on the rows that hold H and on those rows only."""

    @staticmethod
    def assert_matches_the_components(exprs, table, batch):
        func, ref = ocp.PhaseFunction(exprs, table), ComponentFunctions(exprs, table)
        values, grads = func.values(batch), func.gradient(batch)
        assert values.shape == (len(exprs), batch.size)
        assert grads.shape == (len(exprs), 2 * table.n + 1, batch.size)
        assert bits(values) == bits(ref.values(batch))
        assert bits(grads) == bits(ref.gradient(batch))
        assert func.hamiltonian_rows == [i for i, e in enumerate(exprs)
                                         if HAMILTONIAN_SYMBOL in e.free()]
        return func

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_families(self, name, seed):
        problem, th, sampler = setup_problem(name, seed=seed)
        family = discover_family(th, sampler)
        exprs = tuple(c.expr for c in family.components)
        func = self.assert_matches_the_components(exprs, problem.table,
                                                  sampler.draw(3 * family.m))
        assert 0 < len(func.hamiltonian_rows) < family.m

    def test_constant_and_hamiltonian_rows(self, dubins):
        th = true_hamiltonian(dubins)
        t = dubins.table
        h = symref(HAMILTONIAN_SYMBOL)
        exprs = (sx.num(3), h, symref(t.costate(1)),
                 sx.add(sx.mul(h, parse("psi3 + x1^2", t)), parse("sin(x3)*psi2 + 2", t)),
                 sx.mul(symref(t.time), h), parse("x1*psi2 - t", t), sx.num(0))
        batch = PointSampler(th, np.random.default_rng(3)).draw(12)
        func = self.assert_matches_the_components(exprs, t, batch)
        assert func.hamiltonian_rows == [1, 3, 4]
        assert (func.values(batch)[0] == 3.0).all() and not func.gradient(batch)[0].any()
        one = self.assert_matches_the_components(exprs[3:4], t, batch)
        assert bits(one.gradient(batch)[0]) == bits(func.gradient(batch)[3])


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
        from ocquad.problems import ProblemFileError
        with pytest.raises(ProblemFileError, match="costate"):
            load_problem(doc)
