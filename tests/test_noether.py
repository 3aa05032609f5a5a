from fractions import Fraction

import numpy as np
import pytest

from ocquad import kk, noether, ocp
from ocquad import symexpr as sx
from ocquad.noether import (
    EmptyNullspaceError,
    assemble_system,
    block_nullspace,
    build_ansatz,
    discover_family,
    discover_polynomial_integrals,
    independent_columns,
    nullspace,
    polynomial_ansatz,
    rationalize_vector,
    rref,
)
from ocquad.ocp import PointSampler, sample_row, sample_symbols, true_hamiltonian
from ocquad.problems import BUILTIN_NAMES, builtin, load_problem
from ocquad.symexpr import parse, symref
from oracles import Residual, combine


def setup_problem(name, backend="auto", seed=42):
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    sampler = PointSampler(th, np.random.default_rng(seed))
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
        per_template = [t for t in ansatz.terms if t[0] == 0]
        assert len(per_template) == 4  # c0 + c1 t + c2 x1 + c3 psi1
        assert ansatz.coefficient_count == 2 * 4

    def test_counts_for_three_states_degree_two(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 2)
        per_template = [t for t in ansatz.terms if t[0] == 0]
        assert len(per_template) == 1 + 2 * 7
        assert ansatz.coefficient_count == 4 * 15

    def test_degree_zero_keeps_only_constants(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 0)
        assert ansatz.coefficient_count == 4
        assert all(not any(expo) for _, expo in ansatz.terms)

    def test_time_terms_can_be_disabled(self):
        problem, _, _ = setup_problem("dubins")
        ansatz = build_ansatz(problem.table, 2, include_time=False)
        assert ansatz.coefficient_count == 4 * (1 + 2 * 6)
        time_row = sample_row(problem.table, problem.table.time)
        assert all(expo[time_row] == 0 for _, expo in ansatz.terms)


class TestAnsatzResidual:
    def coefficient_index(self, ansatz, template, var_name, power):
        # the term of `template` (0 for T, i for X_i) that is var_name^power,
        # or the template's constant when var_name is None
        expo = [0] * (2 * ansatz.table.n + 2)
        if var_name is not None:
            expo[sample_row(ansatz.table, ansatz.table.lookup(var_name))] = power
        return ansatz.terms.index((template, tuple(expo)))

    def test_pure_time_template_measures_dh_dt(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        batch = sampler.draw(40)
        matrix = ansatz.matrix(batch)
        k = self.coefficient_index(ansatz, 0, None, 0)
        # autonomous problem: R(-H) = -dH/dt = 0
        assert np.abs(matrix[:, k]).max() < 1e-14

    def test_single_costate_generator_is_not_a_symmetry(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        batch = sampler.draw(40)
        matrix = ansatz.matrix(batch)
        k = self.coefficient_index(ansatz, 3, None, 0)  # X = (0, 0, 1)
        assert np.abs(matrix[:, k]).max() > 1e-3

    def test_rotation_generator_is_a_symmetry(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        batch = sampler.draw(60)
        matrix = ansatz.matrix(batch)
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
        batch = sampler.draw(200)
        matrix = ansatz.matrix(batch)
        rng = np.random.default_rng(5)
        for _ in range(6):
            coeffs = rng.integers(-3, 4, size=ansatz.coefficient_count)
            direct = matrix @ coeffs.astype(float)
            f = ansatz.family_expr(ansatz.group_exprs(coeffs))
            assembled = Residual(f, th).values(batch)
            assert np.abs(direct - assembled).max() < 1e-9


class TestPolynomialResidual:
    @pytest.mark.parametrize("name, include_time", [("dubins", False), ("sr-2-3", True)])
    def test_matrix_columns_match_whole_expression_residual(self, name, include_time):
        # the dense degree-3 columns, H element included, against R of the
        # assembled polynomial
        _, th, sampler = setup_problem(name)
        variables = th.table.phase + ((th.table.time,) if include_time else ())
        ansatz = polynomial_ansatz(th.table, 3, variables, True)
        batch = sampler.draw(200)
        matrix = ansatz.matrix(batch)
        rng = np.random.default_rng(5)
        for _ in range(4):
            coeffs = rng.integers(-3, 4, size=ansatz.coefficient_count)
            direct = matrix @ coeffs.astype(float)
            f = ansatz.family_expr(ansatz.group_exprs(coeffs))
            assembled = Residual(f, th).values(batch)
            assert np.abs(direct - assembled).max() < 1e-9 * max(1.0, np.abs(direct).max())


def timed_harmonic_th():
    """H = psi1^2/2 + t*x1^2/2: a polynomial Hamiltonian with dH/dt != 0."""
    doc = {
        "name": "timed-harmonic",
        "states": ["x1"],
        "controls": ["u1"],
        "time": "t",
        "lagrangian": "u1^2/2 - t*x1^2/2",
        "dynamics": ["u1"],
    }
    problem, _ = load_problem(doc)
    return true_hamiltonian(problem)


def polynomial_case(name):
    if name == "timed-harmonic":
        th = timed_harmonic_th()
        return th, PointSampler(th, np.random.default_rng(3))
    _, th, sampler = setup_problem(name)
    return th, sampler


def exact_hamiltonian(th):
    return sx.polynomial(th.envelope[0], sample_symbols(th.table))


def columns_at(columns, batch):
    """The exact residual columns evaluated at a batch's points."""
    out = np.zeros((batch.size, len(columns)))
    for k, column in enumerate(columns):
        for m, c in column.items():
            out[:, k] += float(c) * np.prod(batch.points ** np.array(m)[:, None], axis=0)
    return out


class TestExactColumns:
    @pytest.mark.parametrize("name", ["sr-2-3-5", "timed-harmonic"])
    def test_dense_columns_match_the_sampled_matrix(self, name):
        th, sampler = polynomial_case(name)
        ansatz = polynomial_ansatz(th.table, 3, th.table.phase + (th.table.time,), True)
        batch = sampler.draw(50)
        want = ansatz.matrix(batch)
        got = columns_at(ansatz.exact_columns(exact_hamiltonian(th)), batch)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name", ["sr-2-3-4", "timed-harmonic"])
    def test_generator_columns_with_the_h_factor(self, name):
        # the T group carries the factor -H: its columns expand H by
        # multiplication, and with dH/dt != 0 the Hdot term enters
        th, sampler = polynomial_case(name)
        ansatz = build_ansatz(th.table, 2)
        batch = sampler.draw(50)
        want = ansatz.matrix(batch)
        got = columns_at(ansatz.exact_columns(exact_hamiltonian(th)), batch)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


class TestBlockNullspace:
    @pytest.mark.parametrize("name", ["sr-2-3", "sr-2-3-4", "sr-2-3-5"])
    @pytest.mark.parametrize("degree", [3, 4])
    def test_exact_blocks_match_the_sampled_system(self, name, degree):
        _, th, sampler = setup_problem(name)
        ansatz = polynomial_ansatz(th.table, degree, th.table.phase, True)
        sampled = nullspace(assemble_system(ansatz, sampler, 3 * ansatz.coefficient_count))
        exact = block_nullspace(ansatz.exact_columns(exact_hamiltonian(th)))
        assert len(exact) == len(sampled) > 0
        assert ([rationalize_vector(v) for v in exact]
                == [rationalize_vector(v) for v in sampled])

    def test_blocks_form_one_rref(self):
        # columns 0 and 2 share the output monomial (1,), column 1 stands
        # alone, column 3 is zero
        columns = [{(1,): Fraction(1)}, {(2,): Fraction(1), (3,): Fraction(1)},
                   {(1,): Fraction(-2)}, {}]
        basis = block_nullspace(columns)
        assert [rationalize_vector(v) for v in basis] == [
            (1, 0, Fraction(1, 2), 0), (0, 0, 0, 1)]


class TestAssembleSystem:
    def test_duplicate_points_give_identical_rows(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        batch = sampler.draw(10)
        doubled = batch.concat(batch)
        matrix = ansatz.matrix(doubled)
        assert np.array_equal(matrix[:10], matrix[10:])

    def test_rank_plateau(self):
        _, th, sampler = setup_problem("dubins")
        ansatz = build_ansatz(th.table, 2)
        c = ansatz.coefficient_count
        small = assemble_system(ansatz, sampler, c)
        big = assemble_system(ansatz, sampler, 3 * c)

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
        matrix = assemble_system(ansatz, sampler, 3 * ansatz.coefficient_count)
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
        # singular values (1, 1e-8, 1e-10) * scale: at SVD_TOL = 1e-9 only
        # the last one falls below the cut, whatever the scale
        rng = np.random.default_rng(0)
        left, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spectrum = np.zeros((5, 3))
        spectrum[:3, :3] = np.diag([1.0, 1e-8, 1e-10])
        matrix = scale * (left @ spectrum @ right.T)
        assert noether.SVD_TOL == 1e-9
        basis = nullspace(matrix)
        assert len(basis) == 1
        # the right singular vector of the smallest value, up to sign
        unit = basis[0] / np.linalg.norm(basis[0])
        assert abs(abs(unit @ right[:, 2]) - 1.0) < 1e-9


def reference_rref(rows, rel_tol=1e-8):
    """The row-at-a-time Gauss-Jordan loop `rref` must agree with."""
    rows = np.array(rows)
    if rows.dtype != object:
        rows = rows.astype(float, copy=False)
    k, n_cols = rows.shape
    scale = max(float(np.abs(rows).max()), 1.0)
    r = 0
    pivots = []
    for col in range(n_cols):
        if r == k:
            break
        piv = r + int(np.argmax(np.abs(rows[r:, col])))
        if rows[piv, col] == 0 or abs(rows[piv, col]) < rel_tol * scale:
            continue
        rows[[r, piv]] = rows[[piv, r]]
        rows[r] = rows[r] / rows[r, col]
        for i in range(k):
            if i != r and rows[i, col] != 0.0:
                rows[i] = rows[i] - rows[i, col] * rows[r]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


class TestRrefMatchesReference:
    def test_random_fraction_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            shape = rng.integers(1, 7), rng.integers(1, 9)
            a = np.empty(shape, dtype=object)
            for index in np.ndindex(*shape):
                a[index] = (Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                            if rng.random() < 0.6 else Fraction(0))
            got, got_pivots = rref(a, rel_tol=0)
            want, want_pivots = reference_rref(a, rel_tol=0)
            assert got_pivots == want_pivots
            assert got.shape == want.shape and (got == want).all()
            assert all(type(x) is Fraction for x in got.flat)

    @pytest.mark.parametrize("name", ["dubins", "sr-2-3"])
    def test_float_nullspace_bases(self, name):
        # the right singular vectors `nullspace` reduces, before the reduction
        _, th, sampler = setup_problem(name)
        ansatz = build_ansatz(th.table, 2)
        matrix = assemble_system(ansatz, sampler, 3 * ansatz.coefficient_count)
        _, s, vt = np.linalg.svd(matrix, full_matrices=False)
        null = vt[int((s > 1e-9 * s[0]).sum()):]
        got, got_pivots = rref(null)
        want, want_pivots = reference_rref(null)
        assert got_pivots == want_pivots
        assert (got == want).all()


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
        matrix = assemble_system(ansatz, sampler, 3 * ansatz.coefficient_count)
        basis = nullspace(matrix)
        assert basis
        for vector in basis:
            assert rationalize_vector(vector) == reference_rationalize(vector)

    def test_exact_block_nullspace_vectors(self):
        _, th, _ = setup_problem("sr-2-3")
        ansatz = polynomial_ansatz(th.table, 4, th.table.phase, True)
        basis = block_nullspace(ansatz.exact_columns(exact_hamiltonian(th)))
        assert basis
        for vector in basis:
            assert rationalize_vector(vector) == reference_rationalize(vector)

    @pytest.mark.parametrize("name", ["martinet", "trailer"])
    def test_span_fit_coefficients_of_the_certificate_search(self, name, monkeypatch):
        _, th, sampler = setup_problem(name)
        fam = discover_family(th, sampler, degree=2)
        seen = []

        def record(vector):
            seen.append(np.array(vector))
            return rationalize_vector(vector)

        monkeypatch.setattr(kk, "rationalize_vector", record)
        kk.find_certificate(kk.sample_span(fam, sampler), th, sampler,
                            np.random.default_rng(1))
        assert seen
        for vector in seen:
            assert rationalize_vector(vector) == reference_rationalize(vector)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise_as_before(self, bad):
        def outcome(fn, vector):
            try:
                return fn(vector)
            except Exception as exc:  # noqa: BLE001 - the type is what is compared
                return type(exc)

        # 3 + 5e-6 is within _NEAR of 3 but outside the tolerance
        far_integer = 3 + 5e-6
        for vector in ([bad], [0.5, bad], [bad, np.sqrt(2.0)], [np.sqrt(2.0), bad],
                       [far_integer, bad], [bad, far_integer]):
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
        f2 = sx.add(parse("(1 + x1)*psi1 + x3*psi3", table),
                    sx.mul(-2, symref(table.time), symref(sx.HAMILTONIAN_SYMBOL)))
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
        _, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=2)
        fresh = PointSampler(th, np.random.default_rng(777))
        for comp in fam.components:
            residual = Residual(comp.function, th).values(fresh.draw(100))
            assert np.abs(residual).max() < 1e-8
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
        combo = combine(fam, a * lam1 + b * lam2).values(batch)
        split = (a * combine(fam, lam1).values(batch)
                 + b * combine(fam, lam2).values(batch))
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
        sampler = PointSampler(th, np.random.default_rng(0))
        with pytest.raises(EmptyNullspaceError):
            discover_family(th, sampler, degree=0, include_time=False)


def reference_independent(values, order):
    """The refit loop `independent_columns` replaced: one lstsq fit against
    every kept column per candidate."""
    chosen_cols = []
    kept = []
    for i in order:
        col = values[:, i]
        if chosen_cols:
            a = np.column_stack(chosen_cols)
            fit, *_ = np.linalg.lstsq(a, col, rcond=None)
            if np.abs(col - a @ fit).max() <= 1e-8 * max(1.0, np.abs(col).max()):
                continue
        chosen_cols.append(col)
        kept.append(i)
    return kept


class TestIndependentColumns:
    def test_random_columns_with_planted_dependents(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rank = int(rng.integers(1, 30))
            base = rng.standard_normal((100, rank)) * 10.0 ** rng.uniform(-3, 3, rank)
            mix = rng.integers(-3, 4, size=(rank, int(rng.integers(0, 30))))
            mix = mix[:, mix.any(axis=0)]
            dependents = base @ mix + 1e-13 * rng.standard_normal((100, mix.shape[1]))
            values = np.hstack([base, dependents])
            order = rng.permutation(values.shape[1]).tolist()
            got = independent_columns(values, order)
            assert got == reference_independent(values, order)
            assert len(got) == rank

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_holdout_values_of_the_builtin_families(self, name, monkeypatch):
        calls = []

        def spy(values, order):
            calls.append((values, list(order)))
            return independent_columns(values, order)

        monkeypatch.setattr(noether, "independent_columns", spy)
        _, th, sampler = setup_problem(name)
        discover_family(th, sampler)
        if th.is_closed_form:
            discover_polynomial_integrals(th, sampler, degree=3)
        assert calls
        for values, order in calls:
            assert independent_columns(values, order) == reference_independent(values, order)


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
        sampler = PointSampler(th, np.random.default_rng(1))
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

    def test_dubins_keeps_the_sampled_path(self, monkeypatch):
        # cos and sin in H: no exact columns, the sampled system as before
        sizes = []

        def spy(ansatz, sampler, n_samples):
            sizes.append((n_samples, ansatz.coefficient_count))
            return assemble_system(ansatz, sampler, n_samples)

        monkeypatch.setattr(noether, "assemble_system", spy)
        _, th, sampler = setup_problem("dubins")
        fam = discover_polynomial_integrals(th, sampler, degree=2)
        assert sizes == [(84, 28)]
        assert [sx.to_string(c.function.expr) for c in fam.components] == [
            "psi3 - x2*psi1 + x1*psi2", "psi2", "psi2^2", "psi1", "psi1*psi2", "psi1^2", "H"]

    def test_polynomial_hamiltonian_skips_the_sampled_system(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("sampled system assembled for a polynomial H")

        monkeypatch.setattr(noether, "assemble_system", refuse)
        _, th, sampler = setup_problem("sr-2-3")
        assert discover_polynomial_integrals(th, sampler, degree=2).m > 0

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
