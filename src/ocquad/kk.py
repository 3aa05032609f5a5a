"""Integrability-by-quadratures certificates.

Given a family of first integrals, search for n of them whose pairwise
Poisson brackets close linearly over the selection ({F_i, F_j} =
sum_s xi^{ij}_s F_s), whose span is a solvable Lie algebra, which admit a
nontrivial space of level values r with r . xi^{ij} = 0, and which stay
functionally independent on the level manifold.  A selection passing all four
gates certifies that extremals on that level set can be found by quadratures.

The bilinear system in (lambda, xi) is attacked by structured search over
selections (standard-basis subsets first, then Hamiltonian-augmented and
random rational combinations) with linear least squares for xi, not by a
general polynomial-system solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as sx
from .noether import Family, rationalize_vector
from .ocp import PhaseFunction, PointSampler, TrueHamiltonian
from .poisson import bracket
from .symexpr import HAMILTONIAN_SYMBOL, Expr

DECOMPOSE_TOL = 1e-7
RANK_SV_TOL = 1e-8
PROJECTION_TOL = 1e-10


class BracketMatrix:
    """Pairwise Poisson brackets of the family components."""

    def __init__(self, family: Family):
        self.family = family

    def gradients(self, batch):
        """Stacked (m, n, N) state and costate gradients of the components."""
        funcs = self.family.functions()
        n = funcs[0].table.n
        grads = np.stack([f.gradient(batch) for f in funcs])
        return np.ascontiguousarray(grads[:, :n]), np.ascontiguousarray(grads[:, n:2 * n])

    def values(self, batch) -> np.ndarray:
        """(m, m, N) tensor of {F_p, F_q} values; antisymmetric in (p, q)."""
        gx, gp = self.gradients(batch)
        return np.einsum("pin,qin->pqn", gx, gp) - np.einsum("pin,qin->pqn", gp, gx)

    def symbolic_entry(self, p: int, q: int, th: TrueHamiltonian) -> Expr:
        funcs = self.family.functions()
        return bracket(funcs[p].to_symbolic(th), funcs[q].to_symbolic(th),
                       funcs[p].table)


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple | None
    residual: float
    rational: bool = False

    @property
    def ok(self) -> bool:
        return self.coefficients is not None


def _fit_span(y_fit, y_hold, basis_fit, basis_hold, tol) -> Decomposition:
    """Least squares without a constant column, accepted on holdout."""
    coeff, *_ = np.linalg.lstsq(basis_fit, y_fit, rcond=None)

    def rel_residual(c):
        err = np.abs(y_hold - basis_hold @ c).max()
        return float(err / max(1.0, np.abs(y_hold).max()))

    rat = rationalize_vector(coeff)
    if rat is not None:
        c_rat = np.array([float(f) for f in rat])
        r = rel_residual(c_rat)
        if r < tol:
            return Decomposition(rat, r, rational=True)
    r = rel_residual(coeff)
    if r < tol:
        return Decomposition(tuple(coeff), r, rational=False)
    return Decomposition(None, r)


def decompose_in_span(g, family: Family, sampler: PointSampler,
                      tol: float = DECOMPOSE_TOL) -> Decomposition:
    """Fit a function over span{F_1..F_m}; Fail carries the witness residual.

    `g` may be an Expr, a PhaseFunction, or any object with a
    ``values(batch)`` method (e.g. a bracket evaluator).
    """
    funcs = family.functions()
    table = funcs[0].table
    target = g if hasattr(g, "values") else PhaseFunction(g, table)
    fit = sampler.draw(max(3 * family.m, 30))
    hold = sampler.draw(max(family.m, 30))
    return _fit_span(target.values(fit), target.values(hold),
                     family.values_matrix(fit), family.values_matrix(hold), tol)


@dataclass(frozen=True)
class SolvabilityReport:
    kind: str                  # abelian | paper_sufficient | derived_series | not_solvable
    depth: int | None          # smallest k with L^k = 0, when solvable
    prop2_holds: bool          # the pairwise-proportionality sufficient identity

    @property
    def solvable(self) -> bool:
        return self.kind != "not_solvable"


def _xi_rows(xi: dict, n: int) -> list:
    return [xi[(i, j)] for i in range(n) for j in range(i + 1, n)]


def _all_rational(rows) -> bool:
    return all(isinstance(v, Fraction) for row in rows for v in row)


def _span_dim_and_basis(vectors, exact: bool):
    """Row-reduce a list of n-vectors; returns an independent basis."""
    if not vectors:
        return []
    if exact:
        rows = [list(v) for v in vectors]
        basis = []
        for row in rows:
            row = list(row)
            for piv_col, piv_row in basis:
                if row[piv_col] != 0:
                    factor = row[piv_col]
                    row = [a - factor * b for a, b in zip(row, piv_row)]
            for col, a in enumerate(row):
                if a != 0:
                    row = [x / a for x in row]
                    basis.append((col, row))
                    break
        return [tuple(r) for _, r in basis]
    a = np.array([[float(v) for v in row] for row in vectors])
    if not np.any(a):
        return []
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int((s > 1e-9 * s[0]).sum())
    return [tuple(r) for r in vt[:rank]]


def check_solvable_lie(xi: dict, n: int) -> SolvabilityReport:
    """Classify the algebra spanned by the selection with structure vectors xi.

    Abelian when every xi vanishes; the pairwise-proportionality identity
    (xi^{ab}_i xi^{pq}_j = xi^{pq}_i xi^{ab}_j over ordered pair-pairs) is a
    sufficient condition reported separately; the decision itself is the
    exact derived series L >= [L, L] >= ... computed in coordinates.
    """
    rows = _xi_rows(xi, n)
    exact = _all_rational(rows)

    def is_zero(v):
        return all(x == 0 for x in v) if exact else all(abs(float(x)) < 1e-12 for x in v)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    prop2 = True
    for (a, b), (p, q) in itertools.combinations(pairs, 2):
        if not a < p:
            continue
        va, vp = xi[(a, b)], xi[(p, q)]
        for i in range(n):
            for j in range(i + 1, n):
                lhs = va[i] * vp[j]
                rhs = vp[i] * va[j]
                if (lhs != rhs) if exact else abs(float(lhs - rhs)) > 1e-9:
                    prop2 = False
    if all(is_zero(v) for v in rows):
        return SolvabilityReport("abelian", 1, prop2)

    def bracket_vec(u, v):
        out = [Fraction(0)] * n if exact else [0.0] * n
        for i in range(n):
            for j in range(i + 1, n):
                w = u[i] * v[j] - u[j] * v[i]
                if w:
                    for s_idx in range(n):
                        out[s_idx] += w * xi[(i, j)][s_idx]
        return tuple(out)

    if exact:
        basis = [tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))
                 for i in range(n)]
    else:
        basis = [tuple(1.0 if k == i else 0.0 for k in range(n)) for i in range(n)]
    depth = 0
    prev_dim = len(basis)
    for _ in range(n + 1):
        images = [bracket_vec(u, v) for u, v in itertools.combinations(basis, 2)]
        images = [v for v in images if not is_zero(v)]
        basis = _span_dim_and_basis(images, exact)
        depth += 1
        if not basis:
            kind = "paper_sufficient" if prop2 else "derived_series"
            return SolvabilityReport(kind, depth, prop2)
        if len(basis) >= prev_dim:
            return SolvabilityReport("not_solvable", None, prop2)
        prev_dim = len(basis)
    return SolvabilityReport("not_solvable", None, prop2)


def admissible_levels(xi: dict, n: int) -> list[tuple]:
    """Basis of {r : sum_s r_s xi^{ij}_s = 0 for all i < j}."""
    rows = [row for row in _xi_rows(xi, n)]
    exact = _all_rational(rows)
    nz = [row for row in rows
          if any((v != 0) if exact else abs(float(v)) > 1e-12 for v in row)]
    if not nz:
        if exact:
            return [tuple(Fraction(1) if k == i else Fraction(0) for k in range(n))
                    for i in range(n)]
        return [tuple(1.0 if k == i else 0.0 for k in range(n)) for i in range(n)]
    if exact:
        return _exact_nullspace(nz, n)
    a = np.array([[float(v) for v in row] for row in nz])
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int((s > 1e-9 * s[0]).sum())
    return [tuple(r) for r in vt[rank:]]


def _exact_nullspace(rows, n):
    rows = [list(r) for r in rows]
    pivots = {}
    reduced = []
    for row in rows:
        row = list(row)
        for col, (idx, piv_row) in pivots.items():
            if row[col] != 0:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, piv_row)]
        for col, a in enumerate(row):
            if a != 0:
                row = [x / a for x in row]
                pivots[col] = (len(reduced), row)
                reduced.append(row)
                break
    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for col in pivot_cols:
            _, prow = pivots[col]
            vec[col] = -prow[fc]
        basis.append(tuple(vec))
    return basis


@dataclass
class RankEvidence:
    point: dict
    rank: int
    converged: bool


def independence_rank(selection: list[PhaseFunction], r_basis: list[tuple],
                      th: TrueHamiltonian, sampler: PointSampler,
                      k_points: int = 5, max_attempts: int | None = None):
    """Manufacture points on the admissible level manifold and record the rank
    of the selection's (x, psi) Jacobian there.

    Random seeds are Gauss-Newton projected onto {F_i = r*_i} with r* the
    orthogonal projection of F(seed) onto span(r_basis); divergent seeds are
    skipped and counted.
    """
    evaluator = th.evaluator()
    n_sel = len(selection)
    r_mat = np.array([[float(v) for v in row] for row in r_basis]).T \
        if r_basis else np.zeros((n_sel, 0))
    attempts_cap = max_attempts if max_attempts is not None else 4 * k_points
    evidence: list[RankEvidence] = []
    skipped = 0
    attempts = 0
    while len(evidence) < k_points and attempts < attempts_cap:
        attempts += 1
        point = sampler.draw_point()
        z, t_val = point[:-1], point[-1]

        def values_at(zv):
            """(batch, selection values) at (zv, t_val), or (None, None)."""
            b, keep = evaluator.prepare(np.append(zv, t_val)[:, None])
            if not keep.all():
                return None, None
            return b, np.array([f.values(b)[0] for f in selection])

        b, vals = values_at(z)
        if b is None:
            skipped += 1
            continue
        if r_mat.shape[1]:
            proj, *_ = np.linalg.lstsq(r_mat, vals, rcond=None)
            target = r_mat @ proj
        else:
            target = np.zeros(n_sel)
        ok = False
        jac = None
        for it in range(50):
            if it:  # the seed's batch and values serve the first step
                b, vals = values_at(z)
            if b is None or np.abs(z).max() > 1e3:
                break
            jac = np.array([f.gradient(b)[:-1, 0] for f in selection])
            resid = vals - target
            if np.abs(resid).max() < PROJECTION_TOL:
                ok = True
                break
            step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            if not np.isfinite(step).all():
                break
            z = z - step
        if not ok:
            skipped += 1
            continue
        sv = np.linalg.svd(jac, compute_uv=False)
        rank = int((sv > RANK_SV_TOL * sv[0]).sum()) if sv[0] > 0 else 0
        evidence.append(RankEvidence(
            point={s.name: v for s, v in b.point(0).items()}, rank=rank, converged=True))
    return evidence, skipped


@dataclass
class Certificate:
    verdict: str                     # solvable_on_level_set | inconclusive
    selection: list | None = None    # family indices for standard-basis picks
    lambdas: list | None = None      # row vectors of the selection in family coords
    selected_exprs: list | None = None
    xi: dict | None = None
    closure_residual: float | None = None
    solvability: SolvabilityReport | None = None
    r_basis: list | None = None
    rank_evidence: list | None = None
    rank_skipped: int = 0
    diagnostics: str = ""

    @property
    def solvable(self) -> bool:
        return self.verdict == "solvable_on_level_set"


def _polynomial_degree(e: Expr) -> int:
    """Total degree, the Hamiltonian placeholder counting as quadratic."""
    if e.is_constant:
        return 0
    if e.is_symbol:
        return 2 if e.symbol is HAMILTONIAN_SYMBOL else 1
    if e.is_sum:
        return max(_polynomial_degree(t) for t in e.terms)
    if e.is_product:
        return sum(_polynomial_degree(f) for f in e.factors)
    if e.is_power:
        return int(np.ceil(_polynomial_degree(e.base) * float(e.exponent)))
    return 5  # transcendental factors never occur in family components


def _search_order(family: Family) -> list[int]:
    """Try plain, low-degree integrals first; Hamiltonian-bearing ones last."""
    return sorted(range(family.m),
                  key=lambda k: (family.components[k].uses_hamiltonian,
                                 _polynomial_degree(family.components[k].expr), k))


def _candidate_selections(family: Family, n: int, rng: np.random.Generator,
                          max_random: int):
    """Deterministic search order: subsets, Hamiltonian-augmented, random."""
    m = family.m
    order = _search_order(family)
    for positions in itertools.combinations(range(m), n):
        combo = sorted(order[p] for p in positions)
        lam = np.zeros((n, m))
        for row, idx in enumerate(combo):
            lam[row, idx] = 1.0
        yield lam, combo
    h_idx = None
    for k, comp in enumerate(family.components):
        e = comp.expr
        if e == sx.symref(HAMILTONIAN_SYMBOL) or e == sx.negate(sx.symref(HAMILTONIAN_SYMBOL)):
            h_idx = k
            break
    if h_idx is not None:
        for positions in itertools.combinations(range(m), n):
            combo = sorted(order[p] for p in positions)
            if h_idx in combo:
                continue
            for aug in range(n):
                lam = np.zeros((n, m))
                for row, idx in enumerate(combo):
                    lam[row, idx] = 1.0
                lam[aug, h_idx] += 1.0
                yield lam, None
    for _ in range(max_random):
        lam = rng.integers(-2, 3, size=(n, m)).astype(float)
        if len({tuple(row) for row in lam}) == n:
            yield lam, None


def find_certificate(family: Family, th: TrueHamiltonian, sampler: PointSampler,
                     rng: np.random.Generator, n: int | None = None,
                     tol: float = DECOMPOSE_TOL, k_points: int = 5,
                     max_random: int = 50,
                     max_candidates: int = 20000) -> Certificate:
    """Search lambda-selections for one passing all Kozlov-Kolesnikov gates.

    Returns the first passing selection in the deterministic search order, or
    an inconclusive certificate carrying the furthest-gate diagnostics.
    """
    n = n if n is not None else th.table.n
    if family.m < n:
        return Certificate(
            verdict="inconclusive",
            diagnostics=f"family has {family.m} components but {n} independent "
                        "integrals are needed")
    fit = sampler.draw(max(3 * family.m, 60))
    hold = sampler.draw(max(family.m, 60))
    v_fit = family.values_matrix(fit)
    v_hold = family.values_matrix(hold)
    brackets = BracketMatrix(family)
    gx, gp = brackets.gradients(fit)
    a_fit = (np.einsum("pin,qin->pqn", gx, gp)
             - np.einsum("pin,qin->pqn", gp, gx))
    a_hold = brackets.values(hold)
    # (m, 2n, P) Jacobian rows at a few probe points, for the cheap pre-gate
    # that rejects functionally dependent selections before any fitting
    probes = min(4, fit.size)
    jac_rows = np.concatenate([gx[:, :, :probes], gp[:, :, :probes]], axis=1)

    best_gate = -1
    best_diag = "no candidate selections"
    examined = 0
    for lam, combo in _candidate_selections(family, n, rng, max_random):
        examined += 1
        if examined > max_candidates:
            break
        label = (f"selection {combo}" if combo is not None
                 else f"selection with weights {lam.tolist()}")
        generic_rank = max(
            np.linalg.matrix_rank(lam @ jac_rows[:, :, p], tol=1e-10)
            for p in range(probes))
        if generic_rank < n:
            if best_gate < 0:
                best_gate = 0
                best_diag = (f"{label}: only {generic_rank} functionally "
                             f"independent integrals at generic points")
            continue
        sel_fit = v_fit @ lam.T
        sel_hold = v_hold @ lam.T
        xi: dict = {}
        closure_residual = 0.0
        failed_pair = None
        for i in range(n):
            for j in range(i + 1, n):
                y_fit = np.einsum("m,mkn,k->n", lam[i], a_fit, lam[j])
                y_hold = np.einsum("m,mkn,k->n", lam[i], a_hold, lam[j])
                dec = _fit_span(y_fit, y_hold, sel_fit, sel_hold, tol)
                if not dec.ok:
                    failed_pair = (i, j, dec.residual)
                    break
                xi[(i, j)] = dec.coefficients
                closure_residual = max(closure_residual, dec.residual)
            if failed_pair:
                break
        if failed_pair:
            if best_gate < 0:
                best_gate = 0
                best_diag = (f"{label}: bracket of pair {failed_pair[:2]} does not "
                             f"close over the span (residual {failed_pair[2]:.3g})")
            continue
        solv = check_solvable_lie(xi, n)
        if not solv.solvable:
            if best_gate < 1:
                best_gate = 1
                best_diag = f"{label}: closed brackets but the algebra is not solvable"
            continue
        r_basis = admissible_levels(xi, n)
        if not r_basis:
            if best_gate < 2:
                best_gate = 2
                best_diag = f"{label}: only the zero level satisfies r . xi = 0"
            continue
        selection_funcs = _selection_functions(family, lam)
        evidence, skipped = independence_rank(selection_funcs, r_basis, th,
                                              sampler, k_points)
        if len(evidence) < k_points or any(e.rank != n for e in evidence):
            if best_gate < 3:
                best_gate = 3
                ranks = [e.rank for e in evidence]
                best_diag = (f"{label}: rank gate failed "
                             f"({len(evidence)}/{k_points} projections converged, "
                             f"ranks {ranks}, {skipped} skipped)")
            continue
        return Certificate(
            verdict="solvable_on_level_set",
            selection=combo,
            lambdas=[tuple(row) for row in lam],
            selected_exprs=[sx.to_string(f.expr) for f in selection_funcs],
            xi=xi,
            closure_residual=closure_residual,
            solvability=solv,
            r_basis=r_basis,
            rank_evidence=evidence,
            rank_skipped=skipped,
        )
    return Certificate(verdict="inconclusive", diagnostics=best_diag)


def _selection_functions(family: Family, lam: np.ndarray) -> list[PhaseFunction]:
    funcs = []
    table = family.components[0].function.table
    for row in lam:
        expr = sx.add(*(sx.mul(sx.num(Fraction(float(w))), c.expr)
                        for w, c in zip(row, family.components) if w != 0.0))
        funcs.append(PhaseFunction(expr, table))
    return funcs
