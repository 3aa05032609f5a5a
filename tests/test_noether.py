from fractions import Fraction

import numpy as np
import pytest

from ocquad import ocp
from ocquad import symexpr as sx
from ocquad.noether import (
    AnsatzResidual,
    EmptyNullspaceError,
    assemble_system,
    build_ansatz,
    discover_family,
    discover_polynomial_integrals,
    nullspace,
    rationalize_vector,
)
from ocquad.ocp import PointSampler, true_hamiltonian
from ocquad.poisson import Residual
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import parse, symref


def setup_problem(name, backend="auto", seed=42):
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    sampler = PointSampler(problem, th.evaluator(), np.random.default_rng(seed))
    return problem, th, sampler


def span_residual(target_values, matrix):
    fit, *_ = np.linalg.lstsq(matrix, target_values, rcond=None)
    err = np.abs(target_values - matrix @ fit).max()
    return err / max(1.0, np.abs(target_values).max())


class TestBuildAnsatz:
    def test_smallest_case_has_four_coefficients_per_template(self):
        problem, _, _ = setup_problem("dubins")
        from conftest import make_table
        table = make_table(1)
        ansatz = build_ansatz(table, 1)
        per_template = [t for t in ansatz.terms if t.template == 0]
        assert len(per_template) == 4  # c0 + c1 t + c2 x1 + c3 psi1
        assert ansatz.coefficient_count == 2 * 4

    def test_counts_for_three_states_degree_two(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 2)
        per_template = [t for t in ansatz.terms if t.template == 0]
        assert len(per_template) == 1 + 2 * 7
        assert ansatz.coefficient_count == 4 * 15

    def test_degree_zero_keeps_only_constants(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 0)
        assert ansatz.coefficient_count == 4
        assert all(t.variable is None for t in ansatz.terms)

    def test_time_terms_can_be_disabled(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 2, include_time=False)
        assert ansatz.coefficient_count == 4 * (1 + 2 * 6)
        assert all(t.variable is not problem.table.time for t in ansatz.terms)


class TestAnsatzResidual:
    def coefficient_index(self, ansatz, template, var_name, power):
        for k, t in enumerate(ansatz.terms):
            name = t.variable.name if t.variable is not None else None
            if t.template == template and name == var_name and t.power == power:
                return k
        raise AssertionError("term not found")

    def test_pure_time_template_measures_dh_dt(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        batch = sampler.draw(40)
        matrix = residual.matrix(batch)
        k = self.coefficient_index(ansatz, 0, None, 0)
        # autonomous problem: R(-H) = -dH/dt = 0
        assert np.abs(matrix[:, k]).max() < 1e-14

    def test_single_costate_generator_is_not_a_symmetry(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        batch = sampler.draw(40)
        matrix = residual.matrix(batch)
        k = self.coefficient_index(ansatz, 3, None, 0)  # X = (0, 0, 1)
        assert np.abs(matrix[:, k]).max() > 1e-3

    def test_rotation_generator_is_a_symmetry(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        batch = sampler.draw(60)
        matrix = residual.matrix(batch)
        vec = np.zeros(ansatz.coefficient_count)
        vec[self.coefficient_index(ansatz, 1, "x2", 1)] = -1.0
        vec[self.coefficient_index(ansatz, 2, "x1", 1)] = 1.0
        vec[self.coefficient_index(ansatz, 3, None, 0)] = 1.0
        assert np.abs(matrix @ vec).max() < 1e-10

    @pytest.mark.parametrize("name", ["dubins", "martinet"])
    def test_matrix_columns_match_whole_expression_residual(self, name):
        # the per-term assembled rows against R of the assembled expression:
        # the flow-substituted invariance identity and dF/dt + {F, H} agree
        _, th, sampler = setup_problem(name)
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        batch = sampler.draw(200)
        matrix = residual.matrix(batch)
        rng = np.random.default_rng(5)
        for _ in range(6):
            coeffs = rng.integers(-3, 4, size=ansatz.coefficient_count)
            direct = matrix @ coeffs.astype(float)
            assembled = Residual(ansatz.family_expr(coeffs), th).values(batch)
            assert np.abs(direct - assembled).max() < 1e-9


class TestAssembleSystem:
    def test_duplicate_points_give_identical_rows(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        batch = sampler.draw(10)
        doubled = batch.concat(batch)
        matrix = residual.matrix(doubled)
        assert np.array_equal(matrix[:10], matrix[10:])

    def test_rank_plateau(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        c = ansatz.coefficient_count
        small = assemble_system(residual, sampler, c)
        big = assemble_system(residual, sampler, 3 * c)

        def rank(m):
            s = np.linalg.svd(m, compute_uv=False)
            return int((s > 1e-9 * s[0]).sum())

        assert rank(small) == rank(big)


class TestNullspace:
    def test_zero_matrix_gives_full_space(self):
        basis = nullspace(np.zeros((5, 4)))
        assert len(basis) == 4
        assert np.allclose(np.array(basis), np.eye(4))

    def test_single_dense_row(self):
        row = np.array([[1.0, 2.0, -1.0, 0.5, 3.0]])
        basis = nullspace(row)
        assert len(basis) == 4
        for v in basis:
            assert abs(row @ v) < 1e-12

    def test_dubins_dimension_and_certificate(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        matrix = assemble_system(residual, sampler, 3 * ansatz.coefficient_count)
        basis = nullspace(matrix)
        assert len(basis) >= 4
        norm = np.abs(matrix).max()
        for v in basis:
            assert np.abs(matrix @ v).max() < 1e-9 * norm

    def test_rationalize(self):
        assert rationalize_vector(np.array([0.5, -1.0, 0.0])) == (
            Fraction(1, 2), Fraction(-1), Fraction(0))
        assert rationalize_vector(np.array([np.sqrt(2.0)])) is None

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_rank_cut_is_relative_to_largest_singular_value(self, scale):
        # singular values (1, 1e-8, 1e-10) * scale: at svd_tol=1e-9 only the
        # last one falls below the cut, whatever the scale
        rng = np.random.default_rng(0)
        left, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spectrum = np.zeros((5, 3))
        spectrum[:3, :3] = np.diag([1.0, 1e-8, 1e-10])
        matrix = scale * (left @ spectrum @ right.T)
        basis = nullspace(matrix, svd_tol=1e-9)
        assert len(basis) == 1
        # the right singular vector of the smallest value, up to sign
        unit = basis[0] / np.linalg.norm(basis[0])
        assert abs(abs(unit @ right[:, 2]) - 1.0) < 1e-9


def reference_rationalize(vector):
    """The per-entry loop `rationalize_vector` must agree with."""
    out = []
    for v in vector:
        f = Fraction(float(v)).limit_denominator(64)
        if abs(float(f) - float(v)) > 1e-6 * max(1.0, abs(float(v))):
            return None
        out.append(f)
    return tuple(out)


def assert_rationalize_agrees(entries):
    """Entry by entry, then as one vector."""
    for v in entries:
        got = rationalize_vector(np.array([v]))
        assert got == reference_rationalize([v]), repr(v)
        if got is not None:
            assert type(got[0]) is Fraction
    vector = np.array(entries, dtype=float)
    assert rationalize_vector(vector) == reference_rationalize(vector)


class TestRationalizeMatchesReference:
    def test_zeros_and_integers(self):
        assert_rationalize_agrees([0.0, -0.0, 1.0, -1.0, 7.0, -99.0, 100.0, -130.0, 4096.0])

    def test_tie_between_zero_and_one_sixty_fourth(self):
        assert_rationalize_agrees([1 / 128])
        assert_rationalize_agrees([-1 / 128])

    @pytest.mark.parametrize("q", [1, 3, 7, 63, 64])
    def test_fractions_with_offsets(self, q):
        # for q = 63, 64 a stride prime to q, so most p/q keep denominator q
        numerators = range(-130 * q, 130 * q + 1, 1 if q < 8 else 11)
        exact = [p / q for p in numerators]
        for offset in (0.0, 1e-7, 4e-7):
            # all accepted: compare whole vectors, which also shares Fractions
            for sign in (1, -1):
                vector = np.array([x + sign * offset for x in exact])
                got = rationalize_vector(vector)
                assert got is not None
                assert got == reference_rationalize(vector)
        for offset in (1e-6, 3e-6):
            assert_rationalize_agrees([x + offset for x in exact] + [x - offset for x in exact])

    def test_large_and_unround_entries(self):
        assert_rationalize_agrees([123.4567891, 1e5 + 1 / 3, 2.0 ** 60, -(2.0 ** 60)])
        assert_rationalize_agrees([1e5 + 1 / 3, 0.5])

    def test_subnormals(self):
        assert_rationalize_agrees([5e-324, -5e-324, 2.2e-308, -1e-310, 1e-320])

    def test_random_log_uniform_magnitudes(self):
        rng = np.random.default_rng(11)
        values = np.exp(rng.uniform(np.log(1e-12), np.log(1e4), 3000))
        values *= rng.choice([-1.0, 1.0], values.size)
        assert_rationalize_agrees(values.tolist())
        for _ in range(200):
            vector = rng.choice(values, rng.integers(1, 8))
            vector[rng.random(vector.size) < 0.5] = 0.0
            assert rationalize_vector(vector) == reference_rationalize(vector)

    @pytest.mark.parametrize("name", ["dubins", "martinet", "trailer", "sr-2-3",
                                      "sr-2-3-4", "sr-2-3-5"])
    def test_builtin_nullspace_vectors(self, name):
        _, th, sampler = setup_problem(name)
        ansatz = build_ansatz(th.table, 2)
        residual = AnsatzResidual(ansatz, th)
        matrix = assemble_system(residual, sampler, 3 * ansatz.coefficient_count)
        basis = nullspace(matrix)
        assert basis
        for vector in basis:
            assert rationalize_vector(vector) == reference_rationalize(vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise_as_before(self, bad):
        def outcome(fn, vector):
            try:
                return fn(vector)
            except Exception as exc:  # noqa: BLE001 - the type is what is compared
                return type(exc)

        for vector in ([bad], [0.5, bad], [bad, np.sqrt(2.0)], [np.sqrt(2.0), bad]):
            want = outcome(reference_rationalize, vector)
            assert outcome(rationalize_vector, np.array(vector)) == want
        assert outcome(rationalize_vector, np.array([bad])) in (ValueError, OverflowError)


class TestExtractFamily:
    def test_dubins_span_contains_paper_integrals(self):
        problem, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=2)
        batch = sampler.draw(120)
        values = fam.values_matrix(batch)
        table = problem.table
        targets = {
            "psi1": symref(table.costate(1)),
            "psi2": symref(table.costate(2)),
            "H": th.reduced,
            "F": parse("-psi1*x2 + psi2*x1 + psi3", table),
        }
        for name, expr in targets.items():
            y = ocp.PhaseFunction(expr, table).values(batch)
            assert span_residual(y, values) < 1e-7, name

    def test_martinet_span_contains_nonautonomous_integral(self):
        problem, th, sampler = setup_problem("martinet")
        fam = discover_family(th, sampler, degree=2)
        batch = sampler.draw(120)
        values = fam.values_matrix(batch)
        table = problem.table
        f2 = parse("(1 + x1)*psi1 + x3*psi3", table) - (
            sx.num(2) * symref(table.time) * symref(sx.HAMILTONIAN_SYMBOL))
        for expr in [symref(table.costate(3)), symref(sx.HAMILTONIAN_SYMBOL), f2]:
            y = ocp.PhaseFunction(expr, table).values(batch)
            assert span_residual(y, values) < 1e-7

    def test_trailer_span_on_implicit_backend(self):
        problem, th, sampler = setup_problem("trailer", backend="implicit")
        fam = discover_family(th, sampler, degree=2)
        batch = sampler.draw(120)
        values = fam.values_matrix(batch)
        table = problem.table
        targets = [
            parse("-psi1*x2 + psi2*x1 + psi3 + psi4", table),
            symref(table.costate(2)),
            symref(table.costate(1)),
            symref(sx.HAMILTONIAN_SYMBOL),
        ]
        for expr in targets:
            y = ocp.PhaseFunction(expr, table).values(batch)
            assert span_residual(y, values) < 1e-7

    def test_every_component_passes_fresh_holdout(self):
        from ocquad.poisson import is_first_integral
        _, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=2)
        fresh = PointSampler(th.problem, th.evaluator(), np.random.default_rng(777))
        for comp in fam.components:
            verdict = is_first_integral(comp.function, th, fresh, tol=1e-8,
                                        n_samples=100)
            assert verdict.is_integral
            assert comp.holdout_residual < 1e-8
        # components are linearly independent as functions
        values = fam.values_matrix(fresh.draw(3 * fam.m))
        assert np.linalg.matrix_rank(values, tol=1e-8) == fam.m

    def test_span_monotone_in_degree(self):
        _, th, sampler = setup_problem("dubins")
        fam1 = discover_family(th, sampler, degree=1)
        fam2 = discover_family(th, sampler, degree=2)
        batch = sampler.draw(150)
        big = fam2.values_matrix(batch)
        for comp in fam1.components:
            y = comp.function.values(batch)
            assert span_residual(y, big) < 1e-7

    def test_family_map_is_linear_in_parameters(self):
        _, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=1)
        batch = sampler.draw(50)
        rng = np.random.default_rng(3)
        lam1 = rng.integers(-2, 3, fam.m)
        lam2 = rng.integers(-2, 3, fam.m)
        a, b = 3, -2
        combo = fam.combine(a * lam1 + b * lam2).values(batch)
        split = (a * fam.combine(lam1).values(batch)
                 + b * fam.combine(lam2).values(batch))
        assert np.abs(combo - split).max() < 1e-12

    def test_empty_nullspace_raises(self):
        doc = {
            "name": "driven",
            "states": ["x1"],
            "controls": ["u1"],
            "time": "t",
            "lagrangian": "u1^2/2 + t*x1",
            "dynamics": ["u1"],
        }
        problem, _ = load_problem(doc)
        th = true_hamiltonian(problem)
        sampler = PointSampler(problem, th.evaluator(), np.random.default_rng(0))
        with pytest.raises(EmptyNullspaceError):
            discover_family(th, sampler, degree=0, include_time=False)


def harmonic_th():
    doc = {
        "name": "harmonic",
        "states": ["x1"],
        "controls": ["u1"],
        "time": "t",
        "lagrangian": "u1^2/2 - x1^2/2",
        "dynamics": ["u1"],
    }
    problem, _ = load_problem(doc)
    return true_hamiltonian(problem)


def harmonic_polynomial_kernel(degree):
    """Exact kernel of F -> {F, H} for H = (x^2 + psi^2)/2 over monomials.

    Independent of the sampling pipeline: the bracket maps x^a psi^b to
    a x^(a-1) psi^(b+1) - b x^(a+1) psi^(b-1); assemble the exact linear
    map over the monomial basis and row-reduce with Fractions.
    """
    monos = [(a, b) for total in range(1, degree + 1)
             for a in range(total + 1) for b in [total - a]]
    image_monos = {}
    columns = []
    for a, b in monos:
        img = {}
        if a:
            img[(a - 1, b + 1)] = img.get((a - 1, b + 1), Fraction(0)) + a
        if b:
            img[(a + 1, b - 1)] = img.get((a + 1, b - 1), Fraction(0)) - b
        columns.append(img)
        for key in img:
            image_monos.setdefault(key, len(image_monos))
    rows = len(image_monos)
    mat = [[Fraction(0)] * len(monos) for _ in range(rows)]
    for col, img in enumerate(columns):
        for key, coeff in img.items():
            mat[image_monos[key]][col] = coeff
    # exact elimination
    pivots = {}
    reduced = []
    for row in mat:
        row = list(row)
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                row = [x - f * y for x, y in zip(row, prow)]
        for col, x in enumerate(row):
            if x:
                row = [v / x for v in row]
                pivots[col] = row
                reduced.append(row)
                break
    return len(monos) - len(reduced)


class TestDiscoverPolynomialIntegrals:
    def test_harmonic_matches_exact_monomial_solve(self):
        th = harmonic_th()
        sampler = PointSampler(th.problem, th.evaluator(), np.random.default_rng(1))
        fam = discover_polynomial_integrals(th, sampler, degree=2,
                                            include_hamiltonian=False)
        assert fam.m == harmonic_polynomial_kernel(2) == 1
        batch = sampler.draw(50)
        y = ocp.PhaseFunction(th.reduced, th.table).values(batch)
        assert span_residual(y, fam.values_matrix(batch)) < 1e-10

    def test_dubins_degree_two_span_contains_hamiltonian(self):
        _, th, sampler = setup_problem("dubins")
        fam = discover_polynomial_integrals(th, sampler, degree=2)
        batch = sampler.draw(100)
        y = ocp.PhaseFunction(symref(sx.HAMILTONIAN_SYMBOL), th.table).values(batch)
        assert span_residual(y, fam.values_matrix(batch)) < 1e-7

    def test_sr235_degree_four_recovers_cross_integral(self):
        # restricted to the variables the involutive construction needs
        problem, th, sampler = setup_problem("sr-2-3-5")
        table = problem.table
        variables = (table.state(1), table.state(2)) + table.costates
        fam = discover_polynomial_integrals(th, sampler, degree=4,
                                            variables=variables)
        batch = sampler.draw(200)
        f = parse("-psi1*psi5 + psi2*psi4 - (psi3 + psi5*x2/2)*x2*psi5", table)
        y = ocp.PhaseFunction(f, table).values(batch)
        assert span_residual(y, fam.values_matrix(batch)) < 1e-7
