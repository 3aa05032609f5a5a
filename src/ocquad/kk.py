"""Integrability-by-quadratures certificates.

Given a family of first integrals, search for n of them whose pairwise
Poisson brackets close linearly over the selection ({F_i, F_j} =
sum_s xi^{ij}_s F_s), whose span is a solvable Lie algebra, which admit a
nontrivial space of level values r with r . xi^{ij} = 0, and which stay
functionally independent on the level manifold.  A solvable span always admits
such levels, so three gates decide: closure, solvability and the rank on the
level set.  A selection passing them certifies that extremals on that level
set can be found by quadratures.

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

from . import poisson
from . import symexpr as sx
from .noether import Family, rationalize_vector, rref
from .ocp import (
    HamiltonianEvaluator,
    PhaseFunction,
    PointSampler,
    SampleBatch,
    TrueHamiltonian,
)
from .symexpr import HAMILTONIAN_SYMBOL, Expr

DECOMPOSE_TOL = 1e-7
RANK_SV_TOL = 1e-8
PROJECTION_TOL = 1e-10
RANK_POINTS = 5                # level points the rank gate must reach
MAX_RANDOM_SELECTIONS = 50     # random integer selections after the structured ones
MAX_CANDIDATES = 20000
GENERIC_PROBES = 4             # fit points of the functional-independence pre-gate
MAX_LEVEL_CASES = 16           # zero patterns the exact level-rank pre-gate may visit


@dataclass(frozen=True)
class SpanSample:
    """A family evaluated once for every bracket-closure fit.

    `values_*` are the (N, m) component values and `brackets_*` the (m, m, N)
    bracket tensors {F_p, F_q} on one fit and one holdout batch; `jacobian`
    holds the (m, 2n, P) phase-space gradients at the first P fit points.
    """
    family: Family
    values_fit: np.ndarray
    values_hold: np.ndarray
    brackets_fit: np.ndarray
    brackets_hold: np.ndarray
    jacobian: np.ndarray


def sample_span(family: Family, sampler: PointSampler) -> SpanSample:
    """Draw the fit and holdout batches and evaluate the family on them."""
    funcs = family.functions()
    fit = sampler.draw(max(3 * family.m, 60))
    hold = sampler.draw(max(family.m, 60))
    probes = fit.take(slice(GENERIC_PROBES))
    return SpanSample(
        family=family,
        values_fit=family.values_matrix(fit),
        values_hold=family.values_matrix(hold),
        brackets_fit=poisson.bracket_values(funcs, fit),
        brackets_hold=poisson.bracket_values(funcs, hold),
        jacobian=np.stack([f.gradient(probes)[:-1] for f in funcs]))


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple | None
    residual: float

    @property
    def ok(self) -> bool:
        return self.coefficients is not None


def decompose_in_span(y_fit, y_hold, basis_fit, basis_hold) -> Decomposition:
    """Least-squares fit of sampled values over the basis columns, without a
    constant column.

    The coefficients are accepted when the holdout residual, relative to
    max(1, max |y_hold|), is below DECOMPOSE_TOL: rationalised first, else as
    floats.  A failure carries the witness residual.
    """
    coeff, *_ = np.linalg.lstsq(basis_fit, y_fit, rcond=None)

    def rel_residual(c):
        err = np.abs(y_hold - basis_hold @ c).max()
        return float(err / max(1.0, np.abs(y_hold).max()))

    rat = rationalize_vector(coeff)
    if rat is not None:
        c_rat = np.array([float(f) for f in rat])
        r = rel_residual(c_rat)
        if r < DECOMPOSE_TOL:
            return Decomposition(rat, r)
    r = rel_residual(coeff)
    if r < DECOMPOSE_TOL:
        return Decomposition(tuple(coeff), r)
    return Decomposition(None, r)


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


@dataclass(frozen=True)
class _Arithmetic:
    """How structure vectors are compared and reduced: exactly when every
    entry is a Fraction, else in floats with tolerances relative to
    s = max(1, max |xi|)."""
    zero_tol: float   # every xi entry below zero_tol * s: the algebra is abelian
    cut: float        # relative pivot cut of the row reduction; the prop2
                      # products are compared against cut * s^2
    one: object
    dtype: type

    @property
    def zero(self):
        return self.one - self.one

    def unit_vectors(self, n: int) -> list[tuple]:
        return [tuple(self.one if k == i else self.zero for k in range(n))
                for i in range(n)]

    def rref(self, vectors) -> tuple[list, list[int]]:
        """RREF rows and pivot columns of a list of vectors."""
        if not vectors:
            return [], []
        reduced, pivots = rref(np.array(vectors, dtype=self.dtype), self.cut)
        return [tuple(row) for row in reduced], pivots


_EXACT = _Arithmetic(zero_tol=0, cut=0, one=Fraction(1), dtype=object)
_FLOAT = _Arithmetic(zero_tol=1e-12, cut=1e-9, one=1.0, dtype=float)


def _arithmetic(rows) -> _Arithmetic:
    return _EXACT if all(isinstance(v, Fraction) for row in rows for v in row) else _FLOAT


def check_solvable_lie(xi: dict, n: int) -> SolvabilityReport:
    """Classify the algebra spanned by the selection with structure vectors xi.

    Abelian when every xi vanishes; the pairwise-proportionality identity
    (xi^{ab}_i xi^{pq}_j = xi^{pq}_i xi^{ab}_j over ordered pair-pairs) is a
    sufficient condition reported separately; the decision itself is the
    exact derived series L >= [L, L] >= ... computed in coordinates.
    """
    rows = _xi_rows(xi, n)
    ar = _arithmetic(rows)
    scale = max([1.0] + [abs(float(x)) for v in rows for x in v])

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    prop2 = True
    for (a, b), (p, q) in itertools.combinations(pairs, 2):
        if not a < p:
            continue
        va, vp = xi[(a, b)], xi[(p, q)]
        for i in range(n):
            for j in range(i + 1, n):
                if abs(va[i] * vp[j] - vp[i] * va[j]) > ar.cut * scale ** 2:
                    prop2 = False
    if all(x == 0 or abs(x) < ar.zero_tol * scale for v in rows for x in v):
        return SolvabilityReport("abelian", 1, prop2)

    def bracket_vec(u, v):
        out = [ar.zero] * n
        for i in range(n):
            for j in range(i + 1, n):
                w = u[i] * v[j] - u[j] * v[i]
                if w:
                    for s_idx in range(n):
                        out[s_idx] += w * xi[(i, j)][s_idx]
        return tuple(out)

    basis = ar.unit_vectors(n)
    for depth in range(1, n + 2):
        reduced, _ = ar.rref([bracket_vec(u, v)
                              for u, v in itertools.combinations(basis, 2)])
        if not reduced:
            kind = "paper_sufficient" if prop2 else "derived_series"
            return SolvabilityReport(kind, depth, prop2)
        if len(reduced) >= len(basis):
            break
        basis = reduced
    return SolvabilityReport("not_solvable", None, prop2)


def admissible_levels(xi: dict, n: int) -> list[tuple]:
    """Basis of {r : sum_s r_s xi^{ij}_s = 0 for all i < j}, one vector per
    free column of the reduced xi rows."""
    rows = _xi_rows(xi, n)
    ar = _arithmetic(rows)
    reduced, pivots = ar.rref(rows)
    basis = []
    for free, unit in enumerate(ar.unit_vectors(n)):
        if free in pivots:
            continue
        r = list(unit)
        for row, col in zip(reduced, pivots):
            r[col] = -row[free]
        basis.append(tuple(r))
    return basis


@dataclass
class RankEvidence:
    point: dict
    rank: int


def level_rank_bound(selection: list[PhaseFunction], r_basis: list[tuple],
                     th: TrueHamiltonian) -> str | None:
    """Prove from the expressions that the selection's rank is below n at
    every point of its level set, or return None.

    A pinned row, 0 in every level vector, has F_i = r*_i = 0 on the level.
    A pinned F_i that reduces to c * prod_k s_k^e_k, every e_k > 0, forces
    some symbol s_k to 0, and each choice opens a case; a case ends when no
    pinned expression, with the case's zeros substituted, forces another
    symbol.  In a case the pinned rows of dF = dF/dz + dF/dH dH are nonzero
    only in the (x, psi) columns, and the dH column, where some pinned
    partial is not symbolically zero after the substitution.  The dH column
    drops out where H is forced to 0 and `th.semidefinite`.  With `live` such
    columns the rank is at most live + n - |pinned|.

    Returns the reason, naming the pinned integrals, each case's zeros and
    the largest bound, when every case bounds the rank below n.  Returns
    None, and the projection decides, on float levels, with no pinned row,
    when a case leaves |pinned| columns live, when a pinned expression
    reduces to a nonzero constant, when a zero cannot be substituted, or
    past MAX_LEVEL_CASES zero patterns.
    """
    n = len(selection)
    if not all(isinstance(v, Fraction) for r in r_basis for v in r):
        return None
    pinned = [f.expr for i, f in enumerate(selection) if all(r[i] == 0 for r in r_basis)]
    if not pinned:
        return None
    h = HAMILTONIAN_SYMBOL
    free = frozenset().union(*(e.free() for e in pinned))     # the other columns are 0
    partials = {s: [sx.differentiate(e, s) for e in pinned]
                for s in selection[0].table.phase + (h,) if s in free}
    seen, todo, cases = set(), [frozenset()], []
    while todo:
        zeros = todo.pop()
        if zeros in seen:
            continue
        seen.add(zeros)
        if len(seen) > MAX_LEVEL_CASES:
            return None
        at_zeros = {s: sx.ZERO for s in zeros}
        forcing = []
        try:
            for e in pinned:
                e = sx.substitute(e, at_zeros)
                if e.is_constant:
                    if e.value:         # no level point in this case
                        return None
                elif (symbols := _monomial_symbols(e)) is not None:
                    forcing.append(symbols)
            if forcing:
                todo += [zeros | {s} for s in min(forcing, key=len)]
                continue
            flat = h in zeros and th.semidefinite       # dH = 0 there
            live = sum(any(not sx.is_symbolically_zero(sx.substitute(d, at_zeros)) for d in ds)
                       for s, ds in partials.items() if not (flat and s == h))
        except sx.EvaluationError:      # a zero at a pole or under a fractional power
            return None
        if live >= len(pinned):
            return None
        names = [s.name for s in sorted(zeros, key=lambda s: s.sort_key)]
        cases.append((live, ", ".join([f"{s} = 0" for s in names]
                                      + ["dH = 0"] * flat) or "no zero"))
    bound = max(live for live, _ in cases) + n - len(pinned)
    forced = (cases[0][1] if len(cases) == 1
              else " or ".join(sorted(f"[{text}]" for _, text in cases)))
    return (f"the level pins {', '.join(sx.to_string(e) for e in pinned)} to 0, "
            f"which forces {forced}: rank at most {bound} < {n} there; "
            "no seed projected")


def _monomial_symbols(e: Expr) -> list | None:
    """The symbols s_k of e = c * prod_k s_k^e_k with every e_k > 0, else None."""
    symbols = []
    for f in e.factors:
        base, k = (f.base, f.exponent) if f.is_power else (f, 1)
        if base.is_constant:
            continue
        if not base.is_symbol or k <= 0:
            return None
        symbols.append(base.symbol)
    return symbols


def independence_rank(selection: list[PhaseFunction], r_basis: list[tuple],
                      sampler: PointSampler):
    """Manufacture RANK_POINTS points on the admissible level manifold and
    record the rank of the selection's (x, psi) Jacobian there.

    4 * RANK_POINTS seeds are drawn in one batch and Gauss-Newton projected
    onto {F_i = r*_i}, with r* the orthogonal projection of F(seed) onto
    span(r_basis), through the sampler's evaluator.  Their outcomes are read
    in draw order until RANK_POINTS have converged; the seeds read that did
    not converge are skipped and counted.
    """
    r_mat = np.array([[float(v) for v in row] for row in r_basis]).T \
        if r_basis else np.zeros((len(selection), 0))
    found = _project_to_level(selection, r_mat, sampler.evaluator,
                              sampler.draw(4 * RANK_POINTS))
    evidence: list[RankEvidence] = []
    attempts = 0
    while len(evidence) < RANK_POINTS and attempts < 4 * RANK_POINTS:
        if attempts in found:
            point, jac = found[attempts]
            sv = np.linalg.svd(jac, compute_uv=False)
            rank = int((sv > RANK_SV_TOL * sv[0]).sum()) if sv[0] > 0 else 0
            evidence.append(RankEvidence(point=point, rank=rank))
        attempts += 1
    return evidence, attempts - len(evidence)


def _project_to_level(selection: list[PhaseFunction], r_mat: np.ndarray,
                      evaluator: HamiltonianEvaluator,
                      batch: SampleBatch) -> dict[int, tuple[dict, np.ndarray]]:
    """Gauss-Newton projection of the seed columns of `batch` onto their
    levels, all columns at once; t stays fixed.

    The first step reads the batch as drawn; each later step evaluates its
    points through `evaluator`.  A column ends when its point
    drops out of `prepare`, leaves |z| <= 1e3, has a non-finite Jacobian or
    step, or has not converged after 50 iterations.  Once RANK_POINTS
    columns have converged, the columns after the RANK_POINTS-th of them in
    column order end too: the reading in `independence_rank` stops before
    them.  No column's arithmetic depends on another's, so every column
    before it ends as in the full projection.  Each step is the
    minimum-norm least-squares step, with the singular-value cutoff of
    `np.linalg.lstsq`.  Returns (point, (n_sel, 2n) Jacobian) of each
    converged column, keyed by its column number.
    """
    seed_of = np.arange(batch.size)
    vals = np.array([f.values(batch) for f in selection])
    target = r_mat @ np.linalg.lstsq(r_mat, vals, rcond=None)[0] if r_mat.shape[1] \
        else np.zeros_like(vals)
    rcond = np.finfo(float).eps * max(len(selection), batch.points.shape[0] - 1)
    converged = {}
    for it in range(50):
        if it:  # the seeds' batch and values serve the first step
            batch, keep = evaluator.prepare(points)
            seed_of, target = seed_of[keep], target[:, keep]
            vals = np.array([f.values(batch) for f in selection])
        inside = ~(np.abs(batch.points[:-1]).max(axis=0) > 1e3)
        batch, seed_of, target = batch.take(inside), seed_of[inside], target[:, inside]
        if not seed_of.size:    # the seed comparison below reads [] as floats
            break
        resid = vals[:, inside] - target
        jac = np.stack([f.gradient(batch)[:-1] for f in selection]).transpose(2, 0, 1)
        done = np.abs(resid).max(axis=0) < PROJECTION_TOL
        for c in np.flatnonzero(done):
            converged[seed_of[c]] = ({s.name: v for s, v in batch.point(c).items()}, jac[c])
        # a non-finite Jacobian would fail the SVD of the whole stack
        go = ~done & np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(resid).all(axis=0)
        if len(converged) >= RANK_POINTS:
            # compared in Python: an integer array comparison is numpy code
            # that no other step runs, and paging it in costs 128 kB of RSS
            last = sorted(converged)[RANK_POINTS - 1]
            go &= [s < last for s in seed_of.tolist()]
        step = np.zeros((jac.shape[2], len(go)))
        step[:, go] = (np.linalg.pinv(jac[go], rcond=rcond)
                       @ resid[:, go].T[:, :, None])[:, :, 0].T
        go &= np.isfinite(step).all(axis=0)
        if not go.any():
            break
        points = batch.points[:, go]
        points[:-1] -= step[:, go]
        seed_of, target = seed_of[go], target[:, go]
    return converged


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
    funcs = family.functions()
    return sorted(range(family.m), key=lambda k: (
        funcs[k].has_hamiltonian, _polynomial_degree(funcs[k].expr), k))


def _candidate_selections(family: Family, n: int, rng: np.random.Generator):
    """Deterministic search order: subsets, Hamiltonian-augmented, random."""
    m = family.m
    order = _search_order(family)
    unit = np.eye(m)

    def subsets():
        for positions in itertools.combinations(range(m), n):
            yield sorted(order[p] for p in positions)

    for combo in subsets():
        yield unit[combo], combo
    h = sx.symref(HAMILTONIAN_SYMBOL)
    h_idx = next((k for k, c in enumerate(family.components)
                  if c.function.expr in (h, sx.negate(h))), None)
    if h_idx is not None:
        for combo in subsets():
            if h_idx in combo:
                continue
            for aug in range(n):
                lam = unit[combo]
                lam[aug, h_idx] += 1.0
                yield lam, None
    for _ in range(MAX_RANDOM_SELECTIONS):
        lam = rng.integers(-2, 3, size=(n, m)).astype(float)
        if len({tuple(row) for row in lam}) == n:
            yield lam, None


def _gates(lam: np.ndarray, combo: list | None, span: SpanSample,
           sampler: PointSampler) -> Certificate | tuple[int, str]:
    """Apply the Kozlov-Kolesnikov gates to one selection, in order.

    Returns the certificate when every gate passes, else (gate, reason): gate
    0 is the generic functional rank or the bracket closure, 1 solvability,
    2 the rank on the level set.  The levels need no gate of their own: the
    first step of the derived series reduces the xi rows that
    `admissible_levels` reduces, with the same cut, so a solvable algebra has
    xi rank below n and at least one admissible level.  The rank gate asks
    `level_rank_bound` first and projects seeds only when it proves nothing.
    """
    n = len(lam)
    label = (f"selection {combo}" if combo is not None
             else f"selection with weights {lam.tolist()}")
    # cheap pre-gate: reject functionally dependent selections before any fitting
    generic_rank = max(
        np.linalg.matrix_rank(lam @ span.jacobian[:, :, p], tol=1e-10)
        for p in range(span.jacobian.shape[2]))
    if generic_rank < n:
        return 0, (f"{label}: only {generic_rank} functionally "
                   f"independent integrals at generic points")
    sel_fit = span.values_fit @ lam.T
    sel_hold = span.values_hold @ lam.T
    xi: dict = {}
    closure_residual = 0.0
    for i, j in itertools.combinations(range(n), 2):
        y_fit = np.einsum("m,mkn,k->n", lam[i], span.brackets_fit, lam[j])
        y_hold = np.einsum("m,mkn,k->n", lam[i], span.brackets_hold, lam[j])
        dec = decompose_in_span(y_fit, y_hold, sel_fit, sel_hold)
        if not dec.ok:
            return 0, (f"{label}: bracket of pair {(i, j)} does not "
                       f"close over the span (residual {dec.residual:.3g})")
        xi[(i, j)] = dec.coefficients
        closure_residual = max(closure_residual, dec.residual)
    solv = check_solvable_lie(xi, n)
    if not solv.solvable:
        return 1, f"{label}: closed brackets but the algebra is not solvable"
    r_basis = admissible_levels(xi, n)
    selection_funcs = _selection_functions(span.family, lam)
    degenerate = level_rank_bound(selection_funcs, r_basis, sampler.evaluator.th)
    if degenerate is not None:
        return 2, f"{label}: rank gate failed ({degenerate})"
    evidence, skipped = independence_rank(selection_funcs, r_basis, sampler)
    if len(evidence) < RANK_POINTS or any(e.rank != n for e in evidence):
        return 2, (f"{label}: rank gate failed "
                   f"({len(evidence)}/{RANK_POINTS} projections converged, "
                   f"ranks {[e.rank for e in evidence]}, {skipped} skipped)")
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


def find_certificate(span: SpanSample, th: TrueHamiltonian, sampler: PointSampler,
                     rng: np.random.Generator) -> Certificate:
    """Search lambda-selections for one passing all Kozlov-Kolesnikov gates.

    Every closure fit reads the values and bracket tensors of `span`; the
    sampler serves only the rank gate's projections.  Returns the first
    passing selection among the first MAX_CANDIDATES in the deterministic
    search order, or an inconclusive certificate with the diagnostic of the
    first selection that reached the furthest gate.
    """
    family = span.family
    n = th.table.n
    if family.m < n:
        return Certificate(
            verdict="inconclusive",
            diagnostics=f"family has {family.m} components but {n} independent "
                        "integrals are needed")
    furthest, diagnostic = -1, "no candidate selections"
    candidates = _candidate_selections(family, n, rng)
    for lam, combo in itertools.islice(candidates, MAX_CANDIDATES):
        outcome = _gates(lam, combo, span, sampler)
        if isinstance(outcome, Certificate):
            return outcome
        if outcome[0] > furthest:
            furthest, diagnostic = outcome
    return Certificate(verdict="inconclusive", diagnostics=diagnostic)


def _selection_functions(family: Family, lam: np.ndarray) -> list[PhaseFunction]:
    funcs = []
    table = family.components[0].function.table
    for row in lam:
        expr = sx.add(*(sx.mul(sx.num(Fraction(float(w))), c.function.expr)
                        for w, c in zip(row, family.components) if w != 0.0))
        funcs.append(PhaseFunction(expr, table))
    return funcs
