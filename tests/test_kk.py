from fractions import Fraction

import numpy as np
import pytest
from ocquad import symexpr as sx
from ocquad.kk import (
    Certificate,
    admissible_levels,
    check_solvable_lie,
    decompose_in_span,
    find_certificate,
    independence_rank,
    sample_span,
)
from ocquad.noether import Family, FamilyComponent, discover_family
from ocquad.ocp import PhaseFunction, PointSampler, true_hamiltonian
from ocquad.poisson import bracket_values
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from oracles import combine


def setup_problem(name, backend="auto", seed=42):
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    sampler = PointSampler(problem, th.evaluator(), np.random.default_rng(seed))
    return problem, th, sampler


def manual_family(exprs, table):
    comps = [FamilyComponent(function=PhaseFunction(e, table), coefficients=(),
                             rational=True, pivot=k, holdout_residual=0.0,
                             generators={})
             for k, e in enumerate(exprs)]
    return Family(comps)


def frac(*values):
    return tuple(Fraction(v) for v in values)


class TestBracketMatrix:
    def test_dubins_entries(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([
            symref(t.costate(1)),
            symref(t.costate(2)),
            symref(HAMILTONIAN_SYMBOL),
            parse("-psi1*x2 + psi2*x1 + psi3", t),
        ], t)
        batch = sampler.draw(60)
        a = bracket_values(fam.functions(), batch)
        psi1 = batch.column(t.costate(1))
        psi2 = batch.column(t.costate(2))
        assert np.abs(a[0, 3] + psi2).max() < 1e-10   # {psi1, F} = -psi2
        assert np.abs(a[1, 3] - psi1).max() < 1e-10   # {psi2, F} = psi1
        for k in range(4):
            assert np.abs(a[k, k]).max() < 1e-12
            assert np.abs(a[k, 2]).max() < 1e-9       # everything commutes with H
        assert np.abs(a + np.transpose(a, (1, 0, 2))).max() < 1e-12

    def test_bilinearity_over_parameters(self):
        _, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=1)
        batch = sampler.draw(50)
        a = bracket_values(fam.functions(), batch)
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam1 = rng.integers(-2, 3, fam.m).astype(float)
            lam2 = rng.integers(-2, 3, fam.m).astype(float)
            via_tensor = np.einsum("m,mkn,k->n", lam1, a, lam2)
            direct = bracket_values([combine(fam, lam1), combine(fam, lam2)], batch)[0, 1]
            assert np.abs(via_tensor - direct).max() < 1e-9


def fit_in_span(expr, fam, sampler):
    """decompose_in_span of one expression on freshly drawn fit and holdout
    batches."""
    target = PhaseFunction(expr, fam.components[0].function.table)
    fit = sampler.draw(max(3 * fam.m, 30))
    hold = sampler.draw(max(fam.m, 30))
    return decompose_in_span(target.values(fit), target.values(hold),
                             fam.values_matrix(fit), fam.values_matrix(hold))


class TestDecomposeInSpan:
    def test_zero_target(self):
        problem, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=1)
        dec = fit_in_span(sx.num(0), fam, sampler)
        assert dec.ok
        assert all(c == 0 for c in dec.coefficients)

    def test_member_of_span(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([
            symref(t.costate(1)), symref(t.costate(2)),
            parse("-psi1*x2 + psi2*x1 + psi3", t),
        ], t)
        dec = fit_in_span(symref(t.costate(1)), fam, sampler)
        assert dec.ok and dec.rational
        assert dec.coefficients == frac(1, 0, 0)

    def test_non_member_fails_with_residual(self):
        problem, th, sampler = setup_problem("dubins")
        fam = discover_family(th, sampler, degree=1)
        dec = fit_in_span(symref(problem.table.state(1)), fam, sampler)
        assert not dec.ok
        assert dec.residual > 1e-3


def xi_dict(n, **pairs):
    """Build a structure-vector dict; keys like p01=(..) for pair (0, 1)."""
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            out[(i, j)] = frac(*([0] * n))
    for key, vec in pairs.items():
        i, j = int(key[1]), int(key[2])
        out[(i, j)] = frac(*vec)
    return out


# name -> (n, structure vectors, solvable)
SEED_ALGEBRAS = {
    "abelian3": (3, xi_dict(3), True),
    "heisenberg": (3, xi_dict(3, p01=(0, 0, 1)), True),
    "affine2_pad": (3, xi_dict(3, p01=(0, 1, 0)), True),
    "sl2": (3, xi_dict(3, p01=(0, 0, 1), p02=(0, -1, 0), p12=(1, 0, 0)), False),
    "solvable4": (4, xi_dict(4, p01=(0, 0, 1, 0), p02=(0, 0, 0, 1)), True),
}


class TestCheckSolvableLie:
    def test_abelian(self):
        report = check_solvable_lie(xi_dict(3), 3)
        assert report.kind == "abelian"
        assert report.depth == 1 and report.prop2_holds

    def test_dubins_selection_fails_prop2_but_is_solvable(self):
        # ordering (psi1, psi2, F): {psi1,F} = -psi2, {psi2,F} = psi1
        xi = xi_dict(3, p02=(0, -1, 0), p12=(1, 0, 0))
        report = check_solvable_lie(xi, 3)
        assert report.kind == "derived_series"
        assert report.depth == 2
        assert not report.prop2_holds

    def test_simple_algebra_is_not_solvable(self):
        xi = xi_dict(3, p01=(0, 0, 1), p12=(1, 0, 0), p02=(0, -1, 0))
        report = check_solvable_lie(xi, 3)
        assert report.kind == "not_solvable"

    def test_proportional_structure_vectors_satisfy_prop2(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 5))
            v = rng.integers(-2, 3, n)
            w = rng.integers(-2, 3, n)
            u = rng.integers(-2, 3, n)
            # a = w ^ u has v in its kernel when w, u are orthogonal to v
            w = w - (w @ v) * v * 0  # keep integers; instead project symbolically below
            # build xi^{ij} = a_ij * v with a antisymmetric and a v = 0
            a = np.outer(w, u) - np.outer(u, w)
            a = a - np.outer(a @ v, np.zeros(n))  # no-op, a v may not vanish; fix below
            # force a v = 0 exactly: use a = w u^T - u w^T with u, w chosen
            # orthogonal to v over the rationals
            if v @ v == 0:
                continue
            # Gram-Schmidt with Fractions
            vf = [Fraction(int(x)) for x in v]
            def orth(y):
                yf = [Fraction(int(x)) for x in y]
                dot = sum(a * b for a, b in zip(yf, vf))
                nrm = sum(a * a for a in vf)
                return [a - dot * b / nrm for a, b in zip(yf, vf)]
            wf, uf = orth(w), orth(u)
            xi = {}
            for i in range(n):
                for j in range(i + 1, n):
                    aij = wf[i] * uf[j] - wf[j] * uf[i]
                    xi[(i, j)] = tuple(aij * Fraction(int(x)) for x in v)
            report = check_solvable_lie(xi, n)
            assert report.prop2_holds
            assert report.kind in ("abelian", "paper_sufficient")
            assert report.depth <= 2

    def test_agrees_with_brute_force_oracle_on_random_algebras(self):
        rng = np.random.default_rng(11)
        seeds = SEED_ALGEBRAS
        cases = 0
        while cases < 100:
            name = list(seeds)[int(rng.integers(0, len(seeds)))]
            n, xi, truth = seeds[name]
            p = self._random_unimodular(n, rng)
            xi_new = self._change_basis(xi, p, n)
            report = check_solvable_lie(xi_new, n)
            assert report.solvable == truth, name
            assert self._oracle_solvable(xi_new, n) == truth, name
            cases += 1

    @staticmethod
    def _random_unimodular(n, rng):
        # product of random elementary matrices stays invertible over Q
        p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.integers(0, n, 2)
            if i == j:
                continue
            c = Fraction(int(rng.integers(-2, 3)))
            for k in range(n):
                p[k][i] += c * p[k][j]
        return p

    @staticmethod
    def _change_basis(xi, p, n):
        # f_a = sum_i P[i][a] e_i; xi'^{ab} = P^{-1} [f_a, f_b]_e-coords
        def bracket_e(u, v):
            out = [Fraction(0)] * n
            for i in range(n):
                for j in range(i + 1, n):
                    c = u[i] * v[j] - u[j] * v[i]
                    if c:
                        for s in range(n):
                            out[s] += c * xi[(i, j)][s]
            return out

        # exact inverse by Gauss-Jordan
        a = [row[:] + [Fraction(1 if i == j else 0) for j in range(n)]
             for i, row in enumerate(p)]
        for col in range(n):
            piv = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            f = a[col][col]
            a[col] = [x / f for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    g = a[r][col]
                    a[r] = [x - g * y for x, y in zip(a[r], a[col])]
        p_inv = [row[n:] for row in a]
        out = {}
        for i in range(n):
            for j in range(i + 1, n):
                fi = [p[k][i] for k in range(n)]
                fj = [p[k][j] for k in range(n)]
                img = bracket_e(fi, fj)
                out[(i, j)] = tuple(
                    sum(p_inv[s][k] * img[k] for k in range(n)) for s in range(n))
        return out

    @staticmethod
    def _oracle_solvable(xi, n):
        """Float derived series using numpy rank; independent of the exact path."""
        basis = np.eye(n)
        for _ in range(n + 2):
            imgs = []
            for a in range(len(basis)):
                for b in range(a + 1, len(basis)):
                    u, v = basis[a], basis[b]
                    w = np.zeros(n)
                    for i in range(n):
                        for j in range(i + 1, n):
                            c = u[i] * v[j] - u[j] * v[i]
                            if c:
                                w += c * np.array([float(x) for x in xi[(i, j)]])
                    imgs.append(w)
            if not imgs:
                return True
            mat = np.array(imgs)
            sv = np.linalg.svd(mat, compute_uv=False)
            rank = int((sv > 1e-9 * max(sv[0], 1e-30)).sum())
            if rank == 0:
                return True
            if rank >= len(basis):
                return False
            basis = np.linalg.svd(mat)[2][:rank]
        return False


def random_algebra(rng):
    """A seed algebra or a built-in pattern in a random unimodular basis."""
    algebras = [(n, xi) for n, xi, _ in SEED_ALGEBRAS.values()] + [
        (3, xi_dict(3, p02=(0, -1, 0), p12=(1, 0, 0))),          # dubins
        (4, xi_dict(4, p01=(0, 0, -1, 0), p02=(0, 1, 0, 0))),    # trailer
    ]
    n, xi = algebras[int(rng.integers(0, len(algebras)))]
    p = TestCheckSolvableLie._random_unimodular(n, rng)
    return n, TestCheckSolvableLie._change_basis(xi, p, n)


class TestFloatStructureVectors:
    """Float structure vectors, as an unrationalised fit returns them, take
    the decisions of the exact vectors they approximate."""

    def test_float_copies_match_the_exact_decisions(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            n, xi = random_algebra(rng)
            # unit scale: the largest entry is 1; scaling all structure
            # vectors by c > 0 gives an isomorphic algebra with the same levels
            top = max((abs(x) for v in xi.values() for x in v), default=Fraction(0))
            if top:
                xi = {k: tuple(x / top for x in v) for k, v in xi.items()}
            exact = check_solvable_lie(xi, n)
            exact_dim = len(admissible_levels(xi, n))
            for noise in (0.0, 1e-13):
                xi_float = {k: tuple(float(x) + noise * rng.uniform(-1, 1) for x in v)
                            for k, v in xi.items()}
                report = check_solvable_lie(xi_float, n)
                assert (report.kind, report.depth, report.prop2_holds) == \
                    (exact.kind, exact.depth, exact.prop2_holds), (xi, noise)
                levels = admissible_levels(xi_float, n)
                assert len(levels) == exact_dim, (xi, noise)
                assert not any(isinstance(x, Fraction) for r in levels for x in r)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e5])
    def test_decision_does_not_depend_on_scale(self, scale):
        # Heisenberg: [e0, e1] = e2; scaling every structure vector by c > 0
        # gives an isomorphic algebra, so the verdict must not move
        xi = xi_dict(3, p01=(0, 0, 1))
        exact = check_solvable_lie(xi, 3)
        assert (exact.kind, exact.depth, exact.prop2_holds) == ("paper_sufficient", 2, True)
        rng = np.random.default_rng(11)
        for _ in range(50):
            xi_float = {k: tuple(scale * (float(x) + 1e-13 * rng.uniform(-1, 1)) for x in v)
                        for k, v in xi.items()}
            report = check_solvable_lie(xi_float, 3)
            assert (report.kind, report.depth, report.prop2_holds) == \
                (exact.kind, exact.depth, exact.prop2_holds), xi_float


class TestAdmissibleLevels:
    def test_trailer_pattern(self):
        xi = xi_dict(4, p01=(0, 0, -1, 0), p02=(0, 1, 0, 0))
        basis = admissible_levels(xi, 4)
        got = {tuple(float(x) for x in v) for v in basis}
        assert got == {(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)}

    def test_all_zero_gives_full_space(self):
        basis = admissible_levels(xi_dict(3), 3)
        assert len(basis) == 3

    def test_dubins_pattern(self):
        xi = xi_dict(3, p02=(0, -1, 0), p12=(1, 0, 0))
        basis = admissible_levels(xi, 3)
        assert len(basis) == 1
        assert tuple(float(x) for x in basis[0]) == (0.0, 0.0, 1.0)

    def test_level_clears_entries_above_later_pivots(self):
        # the rows (1, 1, 0), (0, 1, 1) reduce to (1, 0, -1), (0, 1, 1)
        basis = admissible_levels(xi_dict(3, p01=(1, 1, 0), p02=(0, 1, 1)), 3)
        assert basis == [frac(1, -1, 1)]
        assert all(isinstance(x, Fraction) for x in basis[0])

    def test_levels_annihilate_every_structure_vector(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n, xi = random_algebra(rng)
            basis = admissible_levels(xi, n)
            for r in basis:
                assert all(isinstance(x, Fraction) for x in r)
                for v in xi.values():
                    assert sum(a * b for a, b in zip(r, v)) == 0, (xi, r)
            rows = np.array([[float(x) for x in v] for v in xi.values()])
            assert len(basis) == n - np.linalg.matrix_rank(rows)
            if basis:
                levels = np.array([[float(x) for x in r] for r in basis])
                assert np.linalg.matrix_rank(levels) == len(basis)


class TestIndependenceRank:
    def test_dubins_full_rank_on_level_set(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        funcs = [PhaseFunction(symref(t.costate(1)), t),
                 PhaseFunction(symref(t.costate(2)), t),
                 PhaseFunction(parse("-psi1*x2 + psi2*x1 + psi3", t), t)]
        r_basis = [frac(0, 0, 1)]
        evidence, skipped = independence_rank(funcs, r_basis, th, sampler, k_points=5)
        assert len(evidence) == 5
        assert all(e.rank == 3 for e in evidence)
        for e in evidence:
            assert abs(e.point["psi1"]) < 1e-8
            assert abs(e.point["psi2"]) < 1e-8

    def test_duplicate_integral_cannot_reach_full_rank(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        f = PhaseFunction(symref(t.costate(1)), t)
        funcs = [f, PhaseFunction(symref(t.costate(1)), t),
                 PhaseFunction(symref(t.costate(2)), t)]
        evidence, _ = independence_rank(funcs, [frac(1, 1, 0), frac(0, 0, 1)],
                                        th, sampler, k_points=3)
        assert evidence and all(e.rank < 3 for e in evidence)

    def test_sr235_involutive_set_rank_five(self):
        problem, th, sampler = setup_problem("sr-2-3-5")
        t = problem.table
        f = parse("-psi1*psi5 + psi2*psi4 - (psi3 + psi5*x2/2)*x2*psi5", t)
        funcs = [PhaseFunction(e, t) for e in (
            symref(HAMILTONIAN_SYMBOL), f, symref(t.costate(3)),
            symref(t.costate(4)), symref(t.costate(5)))]
        full = [tuple(Fraction(1 if i == j else 0) for j in range(5))
                for i in range(5)]
        evidence, _ = independence_rank(funcs, full, th, sampler, k_points=5)
        assert len(evidence) == 5
        assert all(e.rank == 5 for e in evidence)


class TestFindCertificate:
    def test_dubins_golden(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([
            symref(t.costate(1)), symref(t.costate(2)),
            parse("-psi1*x2 + psi2*x1 + psi3", t),
        ], t)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(1))
        assert cert.solvable
        assert cert.selection == [0, 1, 2]
        assert cert.xi[(0, 1)] == frac(0, 0, 0)
        assert cert.xi[(0, 2)] == frac(0, -1, 0)
        assert cert.xi[(1, 2)] == frac(1, 0, 0)
        assert cert.solvability.kind == "derived_series"
        assert cert.solvability.depth == 2
        assert not cert.solvability.prop2_holds
        assert [tuple(map(float, r)) for r in cert.r_basis] == [(0.0, 0.0, 1.0)]
        assert all(e.rank == 3 for e in cert.rank_evidence)

    def test_involutive_family_is_abelian_with_free_levels(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([
            symref(t.costate(1)), symref(t.costate(2)),
            symref(HAMILTONIAN_SYMBOL),
        ], t)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(1))
        assert cert.solvable
        assert cert.solvability.kind == "abelian"
        assert len(cert.r_basis) == 3

    def test_too_small_family_is_inconclusive(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([symref(t.costate(1))], t)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(1))
        assert not cert.solvable
        assert "components" in cert.diagnostics

    def test_closure_soundness_of_emitted_xi(self):
        problem, th, sampler = setup_problem("trailer", backend="implicit")
        fam = discover_family(th, sampler, degree=2)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(9))
        assert cert.solvable
        sel = [fam.components[i].function for i in cert.selection]
        fresh = PointSampler(problem, th.evaluator(), np.random.default_rng(999))
        batch = fresh.draw(80)
        brackets = bracket_values(sel, batch)
        n = len(sel)
        for (i, j), xi in cert.xi.items():
            got = brackets[i, j]
            want = np.zeros(batch.size)
            for s in range(n):
                want += float(xi[s]) * sel[s].values(batch)
            assert np.abs(got - want).max() < 1e-7

    def test_reproducible_under_seed(self):
        def one():
            problem, th, sampler = setup_problem("dubins")
            fam = discover_family(th, sampler, degree=2)
            return find_certificate(sample_span(fam, sampler), th, sampler,
                                    np.random.default_rng(5))
        a, b = one(), one()
        assert a.selection == b.selection
        assert a.xi == b.xi
        assert [e.point for e in a.rank_evidence] == [e.point for e in b.rank_evidence]
