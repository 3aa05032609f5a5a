"""Variational-symmetry search: one monomial ansatz, the sampled residual
system, nullspace extraction, and the resulting family of first integrals.

A candidate F is a sum of unknown coefficients times monomials over the rows
x, psi, t and the Hamiltonian H.  The separated generator ansatz
(`build_ansatz`) takes F = psi . X - H T, where every term of T and of each
X_i is a power of a single variable (t or one phase coordinate); the dense
ansatz (`polynomial_ansatz`) takes every monomial of the chosen variables up
to a total degree, optionally with H itself.  The residual
R(F) = dF/dt + {F, H} is linear and homogeneous in the coefficients, so
sampling each monomial's residual at random points turns the invariance PDE
into a plain linear system.  Its nullspace, canonicalised and rationalised,
yields the family components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as sx
from .ocp import PhaseFunction, PointSampler, TrueHamiltonian, sample_row, sample_symbols
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
class Ansatz:
    """F as unknown coefficients times monomials over the rows z = (x, psi, t, H).

    Term k is (group, exponents over z); its monomial is the group's factor,
    a (sign, exponents) pair, times prod_r z_r^exponents[r].  The generator
    ansatz has the groups T (factor -H) and X_1..X_n (factor psi_i); the
    dense ansatz has one group with factor 1 and names itself in `label`.
    """

    table: SymbolTable
    factors: tuple[tuple[int, tuple[int, ...]], ...]
    terms: tuple[tuple[int, tuple[int, ...]], ...]
    label: str | None = None

    @property
    def coefficient_count(self) -> int:
        return len(self.terms)

    def matrix(self, batch) -> np.ndarray:
        """(N, terms) residual columns R(m) = sum_r dm/dz_r * zdot_r at the
        batch's points: zdot is `batch.velocity()` and zdot_H = dH/dt.  Exact
        because R is linear and homogeneous in the coefficients; only envelope
        data of the Hamiltonian enters, so both control backends work."""
        z = [*batch.points, batch.hvalue]
        zdot = [*batch.velocity(), batch.hgrad[-1]]
        signs, factors = zip(*self.factors)
        groups = [g for g, _ in self.terms]
        # each term's whole monomial: its factor's exponents plus its own
        full = np.array(factors)[groups] + np.array(
            [e for _, e in self.terms], dtype=int).reshape(len(groups), len(z))
        powers = [[np.ones(batch.size)] for _ in z]
        for p, row, top in zip(powers, z, full.max(axis=0, initial=0).tolist()):
            for _ in range(top):
                p.append(p[-1] * row)
        out = np.empty((batch.size, self.coefficient_count))
        for k, (group, expo) in enumerate(zip(groups, full.tolist())):
            mono = [(r, e) for r, e in enumerate(expo) if e]
            acc = np.zeros(batch.size)
            for r, e in mono:
                partial = e * powers[r][e - 1]
                for rr, ee in mono:
                    if rr != r:
                        partial = partial * powers[rr][ee]
                acc += partial * zdot[r]
            out[:, k] = acc if signs[group] > 0 else -acc
        return out

    def group_exprs(self, coefficients) -> list[Expr]:
        """Each group's sum of coefficients times monomials, its factor left out."""
        buckets: list[list[Expr]] = [[] for _ in self.factors]
        for (group, expo), c in zip(self.terms, coefficients):
            c = _exact(c)
            if c != 0:
                buckets[group].append(self._monomial(c, expo))
        return [sx.add(*b) if b else sx.ZERO for b in buckets]

    def family_expr(self, coefficients) -> Expr:
        """F with the Hamiltonian as a placeholder symbol."""
        return sx.add(*(sx.mul(self._monomial(*factor), e)
                        for factor, e in zip(self.factors, self.group_exprs(coefficients))))

    def provenance(self, coefficients) -> dict:
        """The report's `generators` entry: T and X_1..X_n, or the ansatz's label."""
        if self.label is not None:
            return {"ansatz": self.label}
        t_expr, *x_exprs = map(sx.to_string, self.group_exprs(coefficients))
        return {"T": t_expr, "X": x_exprs}

    def _monomial(self, c, expo) -> Expr:
        rows = sample_symbols(self.table) + (HAMILTONIAN_SYMBOL,)
        return sx.mul(sx.num(c), *(sx.power(sx.symref(s), e) for s, e in zip(rows, expo) if e))


def _exact(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, np.integer)):
        return Fraction(int(c))
    return Fraction(float(c))


def _unit(table: SymbolTable, row: int, power: int = 1) -> tuple[int, ...]:
    """Exponents over the rows (x, psi, t, H): `power` at `row`, 0 elsewhere."""
    expo = [0] * (2 * table.n + 2)
    expo[row] = power
    return tuple(expo)


def build_ansatz(table: SymbolTable, degree: int, include_time: bool = True) -> Ansatz:
    """The separated generator ansatz F = psi . X - H T.

    T and each X_i are single-variable powers up to `degree`.  The
    degree-zero powers of every variable collapse to one constant per
    template, so each template carries 1 + degree*(2n+1) coefficients (2n
    without the time terms).
    """
    if degree < 0:
        raise NoetherError("ansatz degree must be >= 0")
    n = table.n
    rows = ((2 * n,) if include_time else ()) + tuple(range(2 * n))
    factors = ((-1, _unit(table, 2 * n + 1)),) + tuple(
        (1, _unit(table, n + i)) for i in range(n))
    terms = []
    for group in range(n + 1):
        terms.append((group, (0,) * (2 * n + 2)))
        for mu in range(1, degree + 1):
            terms.extend((group, _unit(table, r, mu)) for r in rows)
    return Ansatz(table, factors, tuple(terms))


def polynomial_ansatz(table: SymbolTable, degree: int, variables: tuple[Symbol, ...],
                      include_hamiltonian: bool) -> Ansatz:
    """All monomials of total degree 1..degree over `variables`, then
    (optionally) the Hamiltonian as one extra element."""
    if degree < 1:
        raise NoetherError("polynomial ansatz degree must be >= 1")
    rows = [sample_row(table, v) for v in variables]
    terms = []
    for expo in _exponents(len(rows), degree):
        if sum(expo) >= 1:
            full = [0] * (2 * table.n + 2)
            for r, e in zip(rows, expo):
                full[r] += e
            terms.append((0, tuple(full)))
    if include_hamiltonian:
        terms.append((0, _unit(table, 2 * table.n + 1)))
    return Ansatz(table, ((1, (0,) * (2 * table.n + 2)),), tuple(terms),
                  f"polynomial, total degree <= {degree}")


def _exponents(n_vars: int, degree: int):
    if n_vars == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in _exponents(n_vars - 1, degree - head):
            yield (head,) + rest


def assemble_system(ansatz: Ansatz, sampler: PointSampler, n_samples: int) -> np.ndarray:
    """Sampled residual matrix (n_samples x coefficient count)."""
    return ansatz.matrix(sampler.draw(n_samples))


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
    rows, _ = rref(null)
    return [rows[i] for i in range(rows.shape[0])]


def rref(rows, rel_tol: float = 1e-8):
    """Reduced row echelon form and pivot columns, by Gauss-Jordan elimination.

    A pivot below ``rel_tol * max(1, max |entry|)`` counts as zero.  An object
    array of Fractions with ``rel_tol=0`` reduces exactly and keeps Fraction
    entries; anything else is reduced in floats.
    """
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
        factor = rows[:, col].copy()
        factor[r] = 0
        rows -= factor[:, None] * rows[r]
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


def extract_family(ansatz: Ansatz, basis: list[np.ndarray], th: TrueHamiltonian,
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
    hold_matrix = ansatz.matrix(hold_batch)
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
        expr = sx.simplify(ansatz.family_expr(chosen))
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
            generators=ansatz.provenance(chosen),
        ))
    if not prelim:
        raise EmptyNullspaceError("all nullspace candidates failed holdout verification")
    # drop components that are constant functions
    values = np.column_stack([c.function.values(hold_batch) for c in prelim])
    spread = values.max(axis=0) - values.min(axis=0)
    keepers = sorted(np.flatnonzero(spread > 1e-10).tolist(),
                     key=lambda i: (prelim[i].uses_hamiltonian, prelim[i].pivot))
    # greedy linear-independence filter on sampled values
    chosen_cols: list[np.ndarray] = []
    final = []
    for i in keepers:
        col = values[:, i]
        if chosen_cols:
            a = np.column_stack(chosen_cols)
            fit, *_ = np.linalg.lstsq(a, col, rcond=None)
            if np.abs(col - a @ fit).max() <= 1e-8 * max(1.0, np.abs(col).max()):
                continue
        chosen_cols.append(col)
        final.append(prelim[i])
    if not final:
        raise EmptyNullspaceError("all candidates pruned as constant or dependent")
    return Family(final)


def discover_family(th: TrueHamiltonian, sampler: PointSampler, degree: int = 2,
                    include_time: bool = True, n_samples: int | None = None,
                    tol: float = FAMILY_TOL, holdout: int = 100) -> Family:
    """Full pipeline for the separated generator ansatz."""
    ansatz = build_ansatz(th.table, degree, include_time)
    count = n_samples if n_samples is not None else 3 * ansatz.coefficient_count
    return _solve(ansatz, th, sampler, count, tol, holdout)


def discover_polynomial_integrals(th: TrueHamiltonian, sampler: PointSampler,
                                  degree: int, include_time: bool = False,
                                  variables: tuple[Symbol, ...] | None = None,
                                  include_hamiltonian: bool = True,
                                  tol: float = FAMILY_TOL, holdout: int = 100) -> Family:
    """Direct polynomial-integral search over the (restricted) phase variables."""
    if variables is None:
        variables = th.table.phase + ((th.table.time,) if include_time else ())
    ansatz = polynomial_ansatz(th.table, degree, tuple(variables), include_hamiltonian)
    if ansatz.coefficient_count > 5000:
        raise NoetherError("polynomial ansatz too large; restrict variables or degree")
    return _solve(ansatz, th, sampler, 3 * ansatz.coefficient_count, tol, holdout)


def _solve(ansatz: Ansatz, th: TrueHamiltonian, sampler: PointSampler, n_samples: int,
           tol: float, holdout: int) -> Family:
    """Assemble, take the nullspace and extract the family: both searches' path."""
    basis = nullspace(assemble_system(ansatz, sampler, n_samples))
    return extract_family(ansatz, basis, th, sampler, tol, holdout)
