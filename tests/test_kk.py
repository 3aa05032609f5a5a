import re
from fractions import Fraction

import numpy as np
import pytest
from ocquad import kk
from ocquad import symexpr as sx
from ocquad.cli import build_parser, run_analyze
from ocquad.kk import (
    Certificate,
    admissible_levels,
    check_solvable_lie,
    decompose_in_span,
    find_certificate,
    independence_rank,
    level_rank_bound,
    sample_span,
)
from ocquad.noether import Family, FamilyComponent, discover_family
from ocquad.ocp import (
    HamiltonianEvaluator,
    PhaseFunction,
    PointSampler,
    SamplerStarvationError,
    sample_row,
    true_hamiltonian,
)
from ocquad.poisson import bracket_values
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import HAMILTONIAN_SYMBOL, parse, symref
from conftest import bits
from oracles import combine, independence_rank_sequential


def setup_problem(name, backend="auto", seed=42):
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    sampler = PointSampler(th, np.random.default_rng(seed))
    return problem, th, sampler


def manual_family(exprs, table):
    comps = [FamilyComponent(function=PhaseFunction(e, table), rational=True,
                             holdout_residual=0.0, generators={})
             for e in exprs]
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
        psi1 = batch.points[sample_row(t, t.costate(1))]
        psi2 = batch.points[sample_row(t, t.costate(2))]
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
        assert dec.ok
        assert all(type(c) is Fraction for c in dec.coefficients)
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


class TestSolvableAlgebrasHaveLevels:
    """A solvable verdict leaves at least one admissible level: the first
    step of the derived series reduces the same xi rows as the levels do, so
    a solvable algebra has xi rank below n."""

    def test_solvable_implies_a_nonzero_level(self):
        rng = np.random.default_rng(23)
        solvable = 0
        for _ in range(150):
            n, xi = random_algebra(rng)
            top = max((abs(x) for v in xi.values() for x in v), default=Fraction(0))
            if top:
                xi = {k: tuple(x / top for x in v) for k, v in xi.items()}
            copies = [xi] + [
                {k: tuple(float(x) + noise * rng.uniform(-1, 1) for x in v)
                 for k, v in xi.items()}
                for noise in (0.0, 1e-13, 1e-10)]
            for copy in copies:
                if check_solvable_lie(copy, n).solvable:
                    solvable += 1
                    assert admissible_levels(copy, n), copy
        assert solvable > 300


class TestIndependenceRank:
    def test_dubins_full_rank_on_level_set(self):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        funcs = [PhaseFunction(symref(t.costate(1)), t),
                 PhaseFunction(symref(t.costate(2)), t),
                 PhaseFunction(parse("-psi1*x2 + psi2*x1 + psi3", t), t)]
        r_basis = [frac(0, 0, 1)]
        evidence, skipped = independence_rank(funcs, r_basis, sampler)
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
        evidence, _ = independence_rank(funcs, [frac(1, 1, 0), frac(0, 0, 1)], sampler)
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
        evidence, _ = independence_rank(funcs, full, sampler)
        assert len(evidence) == 5
        assert all(e.rank == 5 for e in evidence)

    @pytest.mark.parametrize("decades, rank", [(7.5, 3), (8.5, 2)])
    def test_rank_cut_sits_between_half_decades(self, decades, rank):
        # psi1, psi2 and q*psi3: the Jacobian's singular values are 1, 1 and
        # q.  RANK_SV_TOL = 1e-8 keeps q = 10^-7.5 and cuts q = 10^-8.5, so
        # a tenfold or a tenth of the cut fails one of the two
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        q = sx.num(Fraction(10 ** -decades))
        funcs = [PhaseFunction(symref(t.costate(1)), t),
                 PhaseFunction(symref(t.costate(2)), t),
                 PhaseFunction(sx.mul(q, symref(t.costate(3))), t)]
        evidence, _ = independence_rank(funcs, [frac(0, 0, 1)], sampler)
        assert [e.rank for e in evidence] == [rank] * 5

    def test_starved_draw_raises_from_the_gate(self):
        # every point lies within 0.1 of the excluded denominator 0
        problem, _ = load_problem(dict(builtin("dubins"), excluded_denominators=["0"]))
        sampler = PointSampler(true_hamiltonian(problem), np.random.default_rng(42))
        t = problem.table
        funcs = [PhaseFunction(symref(t.costate(k)), t) for k in (1, 2, 3)]
        with pytest.raises(SamplerStarvationError,
                           match=r"could not find 20 admissible points .* "
                                 r"within 0\.1 of excluded_denominators\[0\]"):
            independence_rank(funcs, [frac(0, 0, 1)], sampler)


def martinet_integrals(table):
    """psi3, -H, the nonautonomous F2, -psi3*H and -H*psi3^2: the martinet
    family members the rank gate sees at seed 42."""
    h = symref(HAMILTONIAN_SYMBOL)
    psi3 = symref(table.costate(3))
    f2 = sx.add(parse("x3*psi3/2 + psi1*(1/2 + x1/2)", table),
                sx.negate(sx.mul(symref(table.time), h)))
    return [psi3, sx.negate(h), f2, sx.negate(sx.mul(psi3, h)),
            sx.negate(sx.mul(h, sx.power(psi3, 2)))]


def project_both_ways(name, pick, r_basis, backend="auto", seed=42):
    """Run the one-batch and the one-seed-at-a-time rank gate on identical
    fresh samplers and assert they agree, the sampler's final RNG state
    included."""
    runs = []
    for rank_fn in (independence_rank, independence_rank_sequential):
        problem, th, sampler = setup_problem(name, backend=backend, seed=seed)
        funcs = [PhaseFunction(e, problem.table) for e in pick(problem.table)]
        evidence, skipped = rank_fn(funcs, r_basis, sampler)
        runs.append((evidence, skipped, sampler.rng.bit_generator.state))
    (evidence, skipped, state), (want, want_skipped, want_state) = runs
    assert skipped == want_skipped
    assert [e.rank for e in evidence] == [e.rank for e in want]
    for got, ref in zip(evidence, want):   # in the same order
        assert got.point.keys() == ref.point.keys()
        assert max(abs(got.point[k] - ref.point[k]) for k in ref.point) < 1e-9
    assert state == want_state
    return evidence, skipped


def pregate_calls(name, seed, monkeypatch):
    """The exit code of `ocquad analyze NAME --seed SEED`, and (selection,
    r_basis, returned reason) of each of its calls of the exact pre-gate."""
    calls, bound = [], kk.level_rank_bound

    def spy(selection, r_basis, th):
        calls.append((selection, r_basis, bound(selection, r_basis, th)))
        return calls[-1][2]

    monkeypatch.setattr(kk, "level_rank_bound", spy)
    _, code = run_analyze(name, build_parser().parse_args(["analyze", name, "--seed", str(seed)]))
    monkeypatch.undo()
    return code, calls


class TestLevelRankBound:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_martinet_rejections_are_sound(self, seed, monkeypatch):
        # every rank gate of martinet's search is decided without a
        # projection, and the projection, run on a fresh sampler, never
        # certifies one of them
        code, calls = pregate_calls("martinet", seed, monkeypatch)
        assert code == 2
        assert len(calls) == 23 and all(reason is not None for *_, reason in calls)
        _, th, _ = setup_problem("martinet")
        for selection, r_basis, _ in calls:
            fresh = PointSampler(th, np.random.default_rng(seed))
            evidence, _ = independence_rank(selection, r_basis, fresh)
            assert [e.rank for e in evidence] != [len(selection)] * kk.RANK_POINTS

    @pytest.mark.parametrize("name", ["dubins", "trailer", "sr-2-3-5"])
    def test_certified_selection_is_left_to_the_projection(self, name, monkeypatch):
        code, calls = pregate_calls(name, 42, monkeypatch)
        assert code == 0
        assert [reason for *_, reason in calls] == [None]

    @staticmethod
    def _martinet(picks):
        problem, th, _ = setup_problem("martinet")
        exprs = martinet_integrals(problem.table)
        return [PhaseFunction(exprs[k], problem.table) for k in picks], th

    def test_float_levels_are_left_to_the_projection(self):
        selection, th = self._martinet((0, 1, 2))
        assert level_rank_bound(selection, [(0.0, 0.0, 1.0)], th) is None

    @pytest.mark.parametrize("text", ["x1/psi3", "(psi3 - 1)^(1/2)"])
    def test_a_zero_that_cannot_be_substituted_is_left_to_the_projection(self, text):
        # psi3 = 0 is forced; substituted into the second pinned row it
        # divides by zero, or takes the square root of -1
        problem, th, _ = setup_problem("dubins")
        t = problem.table
        selection = [PhaseFunction(e, t) for e in (
            symref(t.costate(3)), parse(text, t), symref(t.costate(1)))]
        assert level_rank_bound(selection, [frac(0, 0, 1)], th) is None

    def test_case_cap(self, monkeypatch):
        # -psi3*H = 0 forces psi3 = 0 or H = 0, and either zero sets
        # -H*psi3^2 to 0: three zero patterns, {}, {H} and {psi3}
        selection, th = self._martinet((2, 3, 4))
        monkeypatch.setattr(kk, "MAX_LEVEL_CASES", 3)
        assert level_rank_bound(selection, [frac(1, 0, 0)], th) == (
            "the level pins -psi3*H, -H*psi3^2 to 0, which forces [H = 0, dH = 0] "
            "or [psi3 = 0]: rank at most 2 < 3 there; no seed projected")
        monkeypatch.setattr(kk, "MAX_LEVEL_CASES", 2)
        assert level_rank_bound(selection, [frac(1, 0, 0)], th) is None

    @pytest.mark.parametrize("name, flat", [
        ("dubins", True), ("martinet", True), ("sr-2-3", True), ("sr-2-3-4", True),
        ("sr-2-3-5", True), ("trailer", False)])
    def test_semidefinite_hamiltonian(self, name, flat):
        assert setup_problem(name)[1].semidefinite is flat

    def test_drift_is_not_semidefinite(self):
        # the double integrator: H = psi1*x2 + psi2^2/2
        problem, _ = load_problem({"name": "di", "states": ["x1", "x2"], "controls": ["u1"],
                                   "time": "t", "lagrangian": "u1^2/2",
                                   "dynamics": ["x2", "u1"]})
        assert not true_hamiltonian(problem).semidefinite


class TestWavesMatchSequential:
    def test_martinet_level_that_every_seed_misses(self):
        evidence, skipped = project_both_ways(
            "martinet", lambda t: [martinet_integrals(t)[k] for k in (0, 1, 2)],
            [frac(0, 0, 1)])
        assert (len(evidence), skipped) == (0, 20)

    def test_martinet_second_shorter_wave(self):
        # at seed 1 seed 1 of the first five diverges, so the reading goes on
        # to seed 5
        evidence, skipped = project_both_ways(
            "martinet", lambda t: [martinet_integrals(t)[k] for k in (1, 2, 4)],
            [frac(0, 1, 0)], seed=1)
        assert (len(evidence), skipped) == (5, 1)

    def test_dubins_full_rank(self):
        evidence, skipped = project_both_ways(
            "dubins", lambda t: [symref(t.costate(1)), symref(t.costate(2)),
                                 parse("-psi1*x2 + psi2*x1 + psi3", t)],
            [frac(0, 0, 1)])
        assert len(evidence) == 5 and all(e.rank == 3 for e in evidence)

    @pytest.mark.parametrize("seed, skipped", [(59, 2), (120, 3)])
    def test_martinet_stalled_wave_then_a_converging_seed(self, seed, skipped):
        # martinet's selection -H, F2, -psi3*H on its level (0, 1, 0): the
        # gate reads a diverged seed right after the first five and then one
        # that converges, as a gate of `martinet --seed 17` does with the
        # exact pre-gate patched out.  On fresh samplers: at seed 59 seeds
        # 0..6 are read and 3 and 5 diverge; at seed 120 seeds 0..7 are read
        # and 0, 1 and 5 diverge
        evidence, got_skipped = project_both_ways(
            "martinet", lambda t: [martinet_integrals(t)[k] for k in (1, 2, 3)],
            [frac(0, 1, 0)], seed=seed)
        assert (len(evidence), got_skipped) == (5, skipped)

    def test_trailer_level_that_every_seed_misses(self):
        # psi1 = 0 and psi1 + 1 = 0 have no common point, so no seed converges
        evidence, skipped = project_both_ways(
            "trailer", lambda t: [symref(t.costate(1)),
                                  parse("-x1*psi2 - psi3 - psi4 + x2*psi1", t),
                                  parse("psi1 + 1", t), symref(t.costate(2))],
            [frac(0, 1, 0, 0)], backend="implicit")
        assert (len(evidence), skipped) == (0, 20)

    def test_trailer_implicit_backend(self):
        evidence, _ = project_both_ways(
            "trailer", lambda t: [symref(t.costate(1)),
                                  parse("-x1*psi2 - psi3 - psi4 + x2*psi1", t),
                                  symref(t.costate(2)), sx.negate(symref(HAMILTONIAN_SYMBOL))],
            [frac(0, 1, 0, 0), frac(0, 0, 0, 1)], backend="implicit")
        assert len(evidence) == 5 and all(e.rank == 4 for e in evidence)


class TestOneDrawPerGate:
    @pytest.mark.parametrize("name", ["dubins", "martinet"])
    def test_certificate_search_gates(self, name, monkeypatch):
        # every rank gate of the certificate search draws its seeds in one
        # `PointSampler.draw`, and its first Gauss-Newton step reads the
        # drawn batch: no `prepare` outside the draw comes before that step.
        # The exact pre-gate is patched out, so that martinet's gates, which
        # it decides, project
        monkeypatch.setattr(kk, "level_rank_bound", lambda *args: None)
        problem, th, sampler = setup_problem(name)
        span = sample_span(discover_family(th, sampler), sampler)
        events, drawing = [], []
        rank, draw = kk.independence_rank, PointSampler.draw
        prepare, pinv = HamiltonianEvaluator.prepare, np.linalg.pinv

        def rank_spy(*args):
            events.append("gate")
            return rank(*args)

        def draw_spy(self, count):
            events.append("draw")
            drawing.append(True)
            try:
                return draw(self, count)
            finally:
                drawing.pop()

        def prepare_spy(self, points):
            if not drawing:
                events.append("prepare")
            return prepare(self, points)

        def pinv_spy(*args, **kwargs):
            events.append("step")
            return pinv(*args, **kwargs)

        monkeypatch.setattr(kk, "independence_rank", rank_spy)
        monkeypatch.setattr(PointSampler, "draw", draw_spy)
        monkeypatch.setattr(HamiltonianEvaluator, "prepare", prepare_spy)
        monkeypatch.setattr(np.linalg, "pinv", pinv_spy)
        find_certificate(span, th, sampler, np.random.default_rng(1))
        monkeypatch.undo()
        gates = " ".join(events).split("gate")[1:]
        assert len(gates) >= 1
        for gate in gates:
            gate = gate.split()
            assert gate.count("draw") == 1
            assert gate[:2] == ["draw", "step"]


class TestRankGateReadsAPrefix:
    @pytest.mark.parametrize("name", ["dubins", "martinet"])
    def test_certificate_search_gates(self, name, monkeypatch):
        # every rank gate of the certificate search, as the CLI reaches it:
        # the projection that drops the columns after the RANK_POINTS-th
        # converged one must give the outcomes of the full projection, bit
        # for bit, on every column the reading can reach; and each gate must
        # match the one-seed-at-a-time oracle from the same RNG state.  The
        # exact pre-gate is patched out, so that martinet's 23 gates, which
        # it decides, project
        monkeypatch.setattr(kk, "level_rank_bound", lambda *args: None)
        problem, th, sampler = setup_problem(name)
        span = sample_span(discover_family(th, sampler), sampler)
        gates, projections = [], []
        rank, project = kk.independence_rank, kk._project_to_level

        def rank_spy(selection, r_basis, smp):
            gates.append((selection, r_basis, smp.rng.bit_generator.state))
            return rank(selection, r_basis, smp)

        def project_spy(*args):
            projections.append(args)     # the projection writes to no argument
            return project(*args)

        monkeypatch.setattr(kk, "independence_rank", rank_spy)
        monkeypatch.setattr(kk, "_project_to_level", project_spy)
        find_certificate(span, th, sampler, np.random.default_rng(1))
        monkeypatch.undo()
        assert len(gates) == len(projections) == {"dubins": 1, "martinet": 23}[name]

        dropped = 0
        for args in projections:
            got = kk._project_to_level(*args)
            with monkeypatch.context() as m:     # no column is ever dropped
                m.setattr(kk, "RANK_POINTS", args[3].size + 1)
                full = kk._project_to_level(*args)
            read = sorted(full)[:kk.RANK_POINTS]
            last = read[-1] if len(read) == kk.RANK_POINTS else args[3].size
            assert sorted(k for k in got if k <= last) == [k for k in sorted(full) if k <= last]
            for k in (k for k in got if k <= last):
                (point, jac), (want_point, want_jac) = got[k], full[k]
                assert point.keys() == want_point.keys()
                assert all(bits([point[s]]) == bits([want_point[s]]) for s in point)
                assert bits(jac) == bits(want_jac)
            dropped += len(full) - len(got)
        if name == "martinet":
            assert dropped > 0          # some gate had its points early

        # the oracle reads the same seeds: the same ranks, skips and final
        # RNG state.  Its points are not compared: on near-singular levels
        # (martinet's psi3, F2, -psi3*H at (0, 1, 0)) its per-point lstsq
        # steps land elsewhere on the level set than the batched ones
        for selection, r_basis, state in gates:
            runs = []
            for rank_fn in (independence_rank, independence_rank_sequential):
                fresh = PointSampler(th, np.random.default_rng())
                fresh.rng.bit_generator.state = state
                evidence, skipped = rank_fn(selection, r_basis, fresh)
                runs.append(([e.rank for e in evidence], skipped,
                             fresh.rng.bit_generator.state))
            assert runs[0] == runs[1]


SO3_MOMENTA = ["x2*psi3 - x3*psi2", "x3*psi1 - x1*psi3", "x1*psi2 - x2*psi1"]


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

    @staticmethod
    def _dubins_diagnostics(exprs):
        problem, th, sampler = setup_problem("dubins")
        t = problem.table
        fam = manual_family([parse(e, t) for e in exprs], t)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(1))
        assert cert.verdict == "inconclusive"
        return cert.diagnostics

    def test_dependent_selection_stops_at_the_generic_rank(self):
        assert self._dubins_diagnostics(["psi1", "psi1", "psi2"]) == (
            "selection [0, 1, 2]: only 2 functionally independent integrals "
            "at generic points")

    def test_open_bracket_names_the_pair_and_residual(self):
        diag = self._dubins_diagnostics(["psi1", "x1*psi2", "x1^2*psi3"])
        assert re.fullmatch(r"selection \[0, 1, 2\]: bracket of pair \(0, 1\) does not "
                            r"close over the span \(residual [0-9.e+-]+\)", diag), diag

    def test_first_selection_at_the_furthest_gate_wins(self):
        # so(3): every random combination of the momenta that is independent
        # closes on a non-solvable algebra, so the standard subset comes first
        assert self._dubins_diagnostics(SO3_MOMENTA) == (
            "selection [0, 1, 2]: closed brackets but the algebra is not solvable")

    def test_furthest_gate_beats_an_earlier_selection(self):
        # [0, 1, 2] fails closure ({psi1, M2} = psi3 is outside its span);
        # [1, 2, 3] closes and reaches the solvability gate
        assert self._dubins_diagnostics(["psi1"] + SO3_MOMENTA) == (
            "selection [1, 2, 3]: closed brackets but the algebra is not solvable")

    def test_closure_soundness_of_emitted_xi(self):
        problem, th, sampler = setup_problem("trailer", backend="implicit")
        fam = discover_family(th, sampler, degree=2)
        cert = find_certificate(sample_span(fam, sampler), th, sampler, np.random.default_rng(9))
        assert cert.solvable
        sel = [fam.components[i].function for i in cert.selection]
        fresh = PointSampler(th, np.random.default_rng(999))
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
