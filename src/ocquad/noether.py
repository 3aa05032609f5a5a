"""Variational-symmetry search: generator ansatz, residual linear system,
nullspace extraction, and the resulting family of first integrals.

The generator pair (T, X_1..X_n) is additively separated: every term is an
unknown coefficient times a power of a single variable (t or one phase
coordinate).  The conserved candidate is ``F = psi . X - H T``, whose
residual R(F) is linear and homogeneous in the coefficients, so sampling the
residual's coefficient gradient at random points turns the invariance PDE
into a plain linear system.  Its nullspace, canonicalised and rationalised,
yields the family components.

A second, denser ansatz (``discover_polynomial_integrals``) drops the
separated structure and searches full multivariate polynomials, optionally
with the Hamiltonian itself as an extra basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as sx
from .ocp import PhaseFunction, PointSampler, TrueHamiltonian, sample_row
from .symexpr import Expr, HAMILTONIAN_SYMBOL, Symbol, SymbolTable

SVD_TOL = 1e-9
RATIONALIZE_MAX_DENOMINATOR = 64
RATIONALIZE_ENTRY_TOL = 1e-6
_DENOMINATORS = np.arange(1, RATIONALIZE_MAX_DENOMINATOR + 1, dtype=float)
# An entry within _NEAR of p/q has p/q as its unique nearest fraction: two
# fractions with denominators <= 64 are at least 1/4032 ~ 2.5e-4 apart.
_NEAR = 1e-5
_FAST_LIMIT = 100.0          # larger entries take the exact per-entry path
FAMILY_TOL = 1e-8


class NoetherError(Exception):
    pass


class EmptyNullspaceError(NoetherError):
    pass


@dataclass(frozen=True)
class AnsatzTerm:
    template: int          # 0 for T, i for X_i
    variable: Symbol | None  # None marks the merged constant term
    power: int

    def label(self) -> str:
        tmpl = "T" if self.template == 0 else f"X{self.template}"
        if self.variable is None:
            return f"{tmpl}:1"
        return f"{tmpl}:{self.variable.name}^{self.power}"


@dataclass(frozen=True)
class Ansatz:
    """Separated polynomial templates for (T, X_1..X_n) with merged constants."""

    table: SymbolTable
    degree: int
    include_time: bool
    terms: tuple[AnsatzTerm, ...]

    @property
    def coefficient_count(self) -> int:
        return len(self.terms)

    def template_exprs(self, coefficients) -> tuple[Expr, tuple[Expr, ...]]:
        """(T, (X_1..X_n)) with the given numeric coefficients substituted."""
        n = self.table.n
        buckets: list[list[Expr]] = [[] for _ in range(n + 1)]
        for term, c in zip(self.terms, coefficients):
            c = _exact(c)
            if c == 0:
                continue
            if term.variable is None:
                piece = sx.num(c)
            else:
                piece = sx.mul(sx.num(c), sx.power(sx.symref(term.variable), term.power))
            buckets[term.template].append(piece)
        built = [sx.add(*b) if b else sx.ZERO for b in buckets]
        return built[0], tuple(built[1:])

    def family_expr(self, coefficients) -> Expr:
        """psi . X - H T with the Hamiltonian as a placeholder symbol."""
        t_expr, x_exprs = self.template_exprs(coefficients)
        terms = [sx.mul(sx.symref(p), xi)
                 for p, xi in zip(self.table.costates, x_exprs)]
        terms.append(sx.negate(sx.mul(sx.symref(HAMILTONIAN_SYMBOL), t_expr)))
        return sx.add(*terms)


def _exact(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, np.integer)):
        return Fraction(int(c))
    return Fraction(float(c))


def build_ansatz(table: SymbolTable, degree: int, include_time: bool = True) -> Ansatz:
    """Templates of single-variable powers up to `degree`.

    The degree-zero powers of every variable collapse to one constant per
    template, so each template carries 1 + degree*(2n+1) coefficients
    (2n without the time terms).
    """
    if degree < 0:
        raise NoetherError("ansatz degree must be >= 0")
    variables: tuple[Symbol, ...] = ()
    if include_time:
        variables += (table.time,)
    variables += table.phase
    terms = []
    for template in range(table.n + 1):
        terms.append(AnsatzTerm(template, None, 0))
        for mu in range(1, degree + 1):
            for v in variables:
                terms.append(AnsatzTerm(template, v, mu))
    return Ansatz(table, degree, include_time, tuple(terms))


class AnsatzResidual:
    """Per-coefficient residual columns of R(psi . X - H T).

    Row k of `matrix` is the gradient of the residual with respect to the
    coefficients at sample point k; exact because the residual is linear and
    homogeneous in the coefficients.  Works for both control backends since
    only envelope data of the Hamiltonian enters.
    """

    def __init__(self, ansatz: Ansatz, th: TrueHamiltonian):
        self.ansatz = ansatz
        self.th = th
        self._rows = [None if term.variable is None
                      else sample_row(ansatz.table, term.variable) for term in ansatz.terms]

    def matrix(self, batch) -> np.ndarray:
        n = self.ansatz.table.n
        hgrad, hvalue, velocity = batch.hgrad, batch.hvalue, batch.velocity()
        out = np.empty((batch.size, self.ansatz.coefficient_count))
        for k, (term, row) in enumerate(zip(self.ansatz.terms, self._rows)):
            if row is None:
                b = np.ones(batch.size)
                flow_db = 0.0
            else:
                col = batch.points[row]
                b = col ** term.power
                flow_db = term.power * col ** (term.power - 1) * velocity[row]
            if term.template == 0:
                out[:, k] = -(hgrad[-1] * b + hvalue * flow_db)
            else:
                i = term.template
                out[:, k] = -hgrad[i - 1] * b + batch.points[n + i - 1] * flow_db
        return out

    def family_expr(self, coefficients) -> Expr:
        return self.ansatz.family_expr(coefficients)

    def provenance(self, coefficients):
        t_expr, x_exprs = self.ansatz.template_exprs(coefficients)
        return {"T": sx.to_string(t_expr), "X": [sx.to_string(x) for x in x_exprs]}


class PolynomialResidual:
    """Residual columns for a dense multivariate polynomial ansatz.

    Basis: all monomials of total degree 1..degree over the chosen variables,
    plus (optionally) the reduced Hamiltonian as one extra element.
    """

    def __init__(self, th: TrueHamiltonian, degree: int,
                 variables: tuple[Symbol, ...], include_hamiltonian: bool):
        if degree < 1:
            raise NoetherError("polynomial ansatz degree must be >= 1")
        self.th = th
        self.variables = variables
        self._rows = [sample_row(th.table, v) for v in variables]
        self.degree = degree
        self.include_hamiltonian = include_hamiltonian
        self.monomials = [e for e in _exponents(len(variables), degree)
                          if sum(e) >= 1]

    @property
    def coefficient_count(self) -> int:
        return len(self.monomials) + (1 if self.include_hamiltonian else 0)

    def matrix(self, batch) -> np.ndarray:
        velocity = batch.velocity()
        cols = [batch.points[r] for r in self._rows]
        powers = [[np.ones(batch.size)] for _ in self.variables]
        for j, c in enumerate(cols):
            for _ in range(self.degree):
                powers[j].append(powers[j][-1] * c)
        out = np.empty((batch.size, self.coefficient_count))
        for k, expo in enumerate(self.monomials):
            acc = np.zeros(batch.size)
            for j, (row, e) in enumerate(zip(self._rows, expo)):
                if e == 0:
                    continue
                partial = e * powers[j][e - 1]
                for jj, ee in enumerate(expo):
                    if jj != j and ee:
                        partial = partial * powers[jj][ee]
                acc += partial * velocity[row]
            out[:, k] = acc
        if self.include_hamiltonian:
            out[:, -1] = batch.hgrad[-1]
        return out

    def family_expr(self, coefficients) -> Expr:
        terms = []
        coeffs = list(coefficients)
        for expo, c in zip(self.monomials, coeffs):
            c = _exact(c)
            if c == 0:
                continue
            factors = [sx.num(c)]
            for v, e in zip(self.variables, expo):
                if e:
                    factors.append(sx.power(sx.symref(v), e))
            terms.append(sx.mul(*factors))
        if self.include_hamiltonian:
            c = _exact(coeffs[-1])
            if c != 0:
                terms.append(sx.mul(sx.num(c), sx.symref(HAMILTONIAN_SYMBOL)))
        return sx.add(*terms)

    def provenance(self, coefficients):
        return {"ansatz": f"polynomial, total degree <= {self.degree}"}


def _exponents(n_vars: int, degree: int):
    if n_vars == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in _exponents(n_vars - 1, degree - head):
            yield (head,) + rest


def assemble_system(residual, sampler: PointSampler, n_samples: int) -> np.ndarray:
    """Sampled residual-gradient matrix (n_samples x coefficient count)."""
    batch = sampler.draw(n_samples)
    return residual.matrix(batch)


def nullspace(matrix: np.ndarray, svd_tol: float = SVD_TOL) -> list[np.ndarray]:
    """Canonical (reduced-row-echelon) basis of the numerical nullspace."""
    a = np.asarray(matrix, dtype=float)
    n_cols = a.shape[1]
    if a.size == 0 or not np.any(a):
        return [row.copy() for row in np.eye(n_cols)]
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < n_cols)
    rank = int((s > svd_tol * s[0]).sum())
    null = vt[rank:]
    if null.shape[0] == 0:
        return []
    rows, _ = _rref(null)
    return [rows[i] for i in range(rows.shape[0])]


def _rref(rows: np.ndarray, rel_tol: float = 1e-8):
    rows = np.array(rows, dtype=float)
    k, n_cols = rows.shape
    scale = max(float(np.abs(rows).max()), 1.0)
    r = 0
    pivots = []
    for col in range(n_cols):
        if r == k:
            break
        piv = r + int(np.argmax(np.abs(rows[r:, col])))
        if abs(rows[piv, col]) < rel_tol * scale:
            continue
        rows[[r, piv]] = rows[[piv, r]]
        rows[r] = rows[r] / rows[r, col]
        for i in range(k):
            if i != r and rows[i, col] != 0.0:
                rows[i] = rows[i] - rows[i, col] * rows[r]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def rationalize_vector(vector: np.ndarray):
    """Entry-wise nearest fraction with denominator <= 64; None when any entry is too far.

    Each entry v becomes ``Fraction(v).limit_denominator(64)``, rejected when
    that fraction lies more than ``RATIONALIZE_ENTRY_TOL * max(1, |v|)`` from
    v.  The rounding runs on the whole vector: the nearest p/q for each
    q = 1..64 is ``rint(v*q)/q``, and two distinct fractions with such
    denominators are at least 1/4032 apart, so one within `_NEAR` of v is the
    unique nearest and is what `limit_denominator` returns.  An entry whose
    nearest fraction is more than twice the tolerance away is rejected as the
    loop would reject it.  Every other entry (|v| >= 100, non-finite, near
    ties, borderline distances) goes through `_rationalize_entry` in vector
    order, so the result, and the exception a bad entry raises, are those of
    the plain per-entry loop.
    """
    v = np.asarray(vector, dtype=float)
    size = v.size
    with np.errstate(invalid="ignore"):
        tol = RATIONALIZE_ENTRY_TOL * np.maximum(1.0, np.abs(v))
        fallback = ~(np.abs(v) < _FAST_LIMIT)   # also every non-finite entry
        p = np.rint(v)                          # q = 1: integers, zeros, float noise
        q = np.ones(size)
        reject = np.zeros(size, dtype=bool)
        rest = np.flatnonzero(~fallback & (np.abs(v - p) > _NEAR))
        scaled = v[rest, None] * _DENOMINATORS
        rounded = np.rint(scaled)
        dist = np.abs(scaled - rounded) / _DENOMINATORS
        near = dist <= _NEAR
        found = near.any(axis=1)
        # the smallest q with a near fraction gives it in lowest terms
        first = near.argmax(axis=1)
        q[rest] = first + 1
        p[rest] = rounded[np.arange(rest.size), first]
        far = dist.min(axis=1) > 2 * tol[rest]
        reject[rest] = ~found & far
        fallback[rest] = ~found & ~far
        # the loop's own check, on p/q == float(Fraction(p, q))
        reject |= ~fallback & (np.abs(p / q - v) > tol)
    stop = int(reject.argmax()) if reject.any() else size
    exact = []
    for i in np.flatnonzero(fallback[:stop]):
        f = _rationalize_entry(v[i])
        if f is None:
            return None
        exact.append(f)
    if stop < size:
        return None
    fast = np.flatnonzero(~fallback)
    _, first_seen, inverse = np.unique(p[fast] / q[fast], return_index=True,
                                       return_inverse=True)
    table = [Fraction(int(p[i]), int(q[i])) for i in fast[first_seen]] + exact
    index = np.empty(size, dtype=np.intp)
    index[fast] = inverse
    index[fallback] = np.arange(first_seen.size, len(table))
    return tuple(map(table.__getitem__, index.tolist()))


def _rationalize_entry(v: float):
    f = Fraction(float(v)).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
    if abs(float(f) - float(v)) > RATIONALIZE_ENTRY_TOL * max(1.0, abs(float(v))):
        return None
    return f


@dataclass
class FamilyComponent:
    function: PhaseFunction
    coefficients: tuple
    rational: bool
    pivot: int
    holdout_residual: float
    generators: dict

    @property
    def expr(self) -> Expr:
        return self.function.expr

    @property
    def uses_hamiltonian(self) -> bool:
        return self.function.has_hamiltonian


@dataclass
class Family:
    components: list[FamilyComponent]

    @property
    def m(self) -> int:
        return len(self.components)

    def functions(self) -> list[PhaseFunction]:
        return [c.function for c in self.components]

    def values_matrix(self, batch) -> np.ndarray:
        return np.column_stack([c.function.values(batch) for c in self.components])

    def combine(self, weights) -> PhaseFunction:
        """The family map at one parameter vector: sum_k weights_k * component_k."""
        if len(weights) != self.m:
            raise NoetherError("weight vector length must match family size")
        expr = sx.add(*(sx.mul(sx.num(_exact(w)), c.expr)
                        for w, c in zip(weights, self.components)))
        table = self.components[0].function.table
        return PhaseFunction(expr, table)


def extract_family(residual, basis: list[np.ndarray], th: TrueHamiltonian,
                   sampler: PointSampler, tol: float = FAMILY_TOL,
                   holdout: int = 100) -> Family:
    """Verify, rationalise, prune, and order the nullspace into a Family.

    Each candidate is re-verified on fresh holdout points (rational form
    first, floating fallback flagged); constants and linear dependents are
    pruned; components that never reference the Hamiltonian template come
    first so certificate search prefers plain phase-space integrals.
    """
    if not basis:
        raise EmptyNullspaceError("no symmetry found at this ansatz degree")
    hold_batch = sampler.draw(holdout)
    hold_matrix = residual.matrix(hold_batch)
    prelim = []
    for vector in basis:
        chosen = None
        rational = False
        resid = None
        rat = rationalize_vector(vector)
        if rat is not None:
            r = float(np.abs(hold_matrix @ np.array([float(f) for f in rat])).max())
            if r < tol:
                chosen, rational, resid = rat, True, r
        if chosen is None:
            r = float(np.abs(hold_matrix @ vector).max())
            if r < tol:
                chosen, rational, resid = tuple(vector), False, r
        if chosen is None:
            continue
        expr = sx.simplify(residual.family_expr(chosen))
        if sx.is_zero(expr):
            continue
        nonzero = np.flatnonzero(np.abs(vector) > 1e-8)
        pivot = int(nonzero[0]) if nonzero.size else 0
        prelim.append(FamilyComponent(
            function=PhaseFunction(expr, th.table),
            coefficients=chosen,
            rational=rational,
            pivot=pivot,
            holdout_residual=resid,
            generators=residual.provenance(chosen),
        ))
    if not prelim:
        raise EmptyNullspaceError("all nullspace candidates failed holdout verification")
    # drop components that are constant functions
    values = np.column_stack([c.function.values(hold_batch) for c in prelim])
    spread = values.max(axis=0) - values.min(axis=0)
    keepers = [c for c, s in zip(prelim, spread) if s > 1e-10]
    keepers.sort(key=lambda c: (c.uses_hamiltonian, c.pivot))
    # greedy linear-independence filter on sampled values
    chosen_cols: list[np.ndarray] = []
    final = []
    for comp in keepers:
        col = comp.function.values(hold_batch)
        if chosen_cols:
            a = np.column_stack(chosen_cols)
            fit, *_ = np.linalg.lstsq(a, col, rcond=None)
            if np.abs(col - a @ fit).max() <= 1e-8 * max(1.0, np.abs(col).max()):
                continue
        chosen_cols.append(col)
        final.append(comp)
    if not final:
        raise EmptyNullspaceError("all candidates pruned as constant or dependent")
    return Family(final)


def discover_family(th: TrueHamiltonian, sampler: PointSampler, degree: int = 2,
                    include_time: bool = True, n_samples: int | None = None,
                    svd_tol: float = SVD_TOL, tol: float = FAMILY_TOL,
                    holdout: int = 100) -> Family:
    """Full pipeline for the separated generator ansatz."""
    ansatz = build_ansatz(th.table, degree, include_time)
    residual = AnsatzResidual(ansatz, th)
    count = n_samples if n_samples is not None else 3 * ansatz.coefficient_count
    matrix = assemble_system(residual, sampler, count)
    basis = nullspace(matrix, svd_tol)
    return extract_family(residual, basis, th, sampler, tol, holdout)


def discover_polynomial_integrals(th: TrueHamiltonian, sampler: PointSampler,
                                  degree: int, include_time: bool = False,
                                  variables: tuple[Symbol, ...] | None = None,
                                  include_hamiltonian: bool = True,
                                  n_samples: int | None = None,
                                  svd_tol: float = SVD_TOL, tol: float = FAMILY_TOL,
                                  holdout: int = 100) -> Family:
    """Direct polynomial-integral search over the (restricted) phase variables."""
    if variables is None:
        variables = th.table.phase + ((th.table.time,) if include_time else ())
    residual = PolynomialResidual(th, degree, tuple(variables), include_hamiltonian)
    if residual.coefficient_count > 5000:
        raise NoetherError("polynomial ansatz too large; restrict variables or degree")
    count = n_samples if n_samples is not None else 3 * residual.coefficient_count
    matrix = assemble_system(residual, sampler, count)
    basis = nullspace(matrix, svd_tol)
    return extract_family(residual, basis, th, sampler, tol, holdout)
