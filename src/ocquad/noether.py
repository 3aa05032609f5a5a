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
yields the family components.  When H is a polynomial in x, psi and t with
rational coefficients, the dense search skips the sampling: R maps monomial
coefficients to monomial coefficients exactly, and that map splits into small
independent blocks (`block_nullspace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as sx
from .ocp import (PhaseFunction, PointSampler, SampleBatch, TrueHamiltonian, sample_row,
                  sample_symbols)
from .symexpr import Expr, HAMILTONIAN_SYMBOL, Poly, Symbol, SymbolTable

SVD_TOL = 1e-9
RATIONALIZE_MAX_DENOMINATOR = 64
RATIONALIZE_ENTRY_TOL = 1e-6
# An entry within _NEAR of an integer p has p as its unique nearest fraction
# with denominator <= 64: every other such fraction is at least 1/64 from p.
_NEAR = 1e-5
FAMILY_TOL = 1e-8
MAX_SAMPLED_CELLS = 8_000_000   # entries of a generator ansatz's system: 64 MB of floats


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

    def exact_columns(self, hamiltonian: Poly) -> list[Poly]:
        """The residual column of every term as an exact polynomial over the
        sample rows (x, psi, t), for a polynomial H read by `sx.polynomial`.
        The rule of `matrix`, R(m) = sum_r dm/dz_r * zdot_r, with
        xdot = dH/dpsi, psidot = -dH/dx, tdot = 1 and Hdot = dH/dt; a power
        of H is expanded by polynomial multiplication."""
        n = self.table.n
        width = 2 * n + 1
        grad = [sx.poly_derivative(hamiltonian, r) for r in range(width)]
        one = sx.polynomial(sx.ONE, sample_symbols(self.table))
        zdot = grad[n:2 * n] + [sx.poly_accumulate({}, g, -1) for g in grad[:n]] + [one]
        h_powers = [one]
        columns = []
        for group, expo in self.terms:
            sign, factor = self.factors[group]
            full = [a + b for a, b in zip(factor, expo)]
            rows, k = full[:width], full[width]
            while len(h_powers) <= k:
                h_powers.append(sx.poly_product(h_powers[-1], hamiltonian))
            column: Poly = {}
            for r, e in enumerate(rows):
                if e:
                    sx.poly_accumulate(column, sx.poly_shifted(zdot[r], rows, r), sign * e)
            if k:
                column = sx.poly_product(column, h_powers[k])
                sx.poly_accumulate(column, sx.poly_product(sx.poly_shifted(h_powers[k - 1], rows),
                                                           grad[2 * n]), sign * k)
            columns.append(column)
        return columns

    def group_exprs(self, coefficients, support=None) -> list[Expr]:
        """Each group's sum of coefficients times monomials, its factor left
        out.  `support` lists the indices of the coefficients that may be
        nonzero; only those are read."""
        buckets: list[list[Expr]] = [[] for _ in self.factors]
        for k in range(len(self.terms)) if support is None else support:
            c = _exact(coefficients[k])
            if c != 0:
                group, expo = self.terms[k]
                buckets[group].append(self._monomial(c, expo))
        return [sx.add(*b) if b else sx.ZERO for b in buckets]

    def family_expr(self, groups: list[Expr]) -> Expr:
        """F from the `group_exprs`, with the Hamiltonian as a placeholder symbol."""
        return sx.add(*(sx.mul(self._monomial(*factor), e)
                        for factor, e in zip(self.factors, groups)))

    def provenance(self, groups: list[Expr]) -> dict:
        """The report's `generators` entry from the `group_exprs`: T and
        X_1..X_n, or the ansatz's label."""
        if self.label is not None:
            return {"ansatz": self.label}
        t_expr, *x_exprs = map(sx.to_string, groups)
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
    """Sampled residual matrix (n_samples x coefficient count).  Raises
    NoetherError when an entry is not finite (`_finite_matrix`)."""
    return _finite_matrix(ansatz, sampler.draw(n_samples))


def _finite_matrix(ansatz: Ansatz, batch: SampleBatch) -> np.ndarray:
    """`ansatz.matrix(batch)`, the residual system of the discovery and of
    the holdout check.  Raises NoetherError when an entry is not finite: the
    monomials overflow at the points of a sampling box that is too large."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = ansatz.matrix(batch)
    # min and max carry a NaN and show an inf without a flag array the size
    # of the matrix, which would raise the peak memory of the analysis
    if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        raise NoetherError("the sampled residual system is not finite; "
                           "shrink the problem's sampling_box")
    return matrix


def nullspace(matrix: np.ndarray) -> list[np.ndarray]:
    """Canonical (reduced-row-echelon) basis of the numerical nullspace."""
    a = np.asarray(matrix, dtype=float)
    n_cols = a.shape[1]
    if a.size == 0 or not np.any(a):
        return [row.copy() for row in np.eye(n_cols)]
    if a.shape[0] >= n_cols:
        # R of a = QR has a's singular values and right vectors; Q is never formed
        a = np.linalg.qr(a, mode="r")
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < n_cols)
    rank = int((s > SVD_TOL * s[0]).sum())
    null = vt[rank:]
    if null.shape[0] == 0:
        return []
    rows, _ = rref(null)
    return [rows[i] for i in range(rows.shape[0])]


def block_nullspace(columns: list[Poly]) -> list[np.ndarray]:
    """`nullspace` of the exact residual map, one independent block at a time.

    Two columns share a block when they share an output monomial (union-find),
    so no block has a row in common with another.  Each block becomes a small
    float matrix for `nullspace`; its basis rows, embedded at the block's
    columns and sorted by pivot column, together form the global RREF basis.
    """
    parent = list(range(len(columns)))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    owner: dict[tuple[int, ...], int] = {}
    for k, column in enumerate(columns):
        for m in column:
            a, b = root(owner.setdefault(m, k)), root(k)
            parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for k in range(len(columns)):
        blocks.setdefault(root(k), []).append(k)
    basis = []
    for cols in blocks.values():
        rows: dict[tuple[int, ...], int] = {}
        entries = [(rows.setdefault(m, len(rows)), j, c)
                   for j, k in enumerate(cols) for m, c in columns[k].items()]
        block = np.zeros((len(rows), len(cols)))
        for i, j, c in entries:
            block[i, j] = c
        for vector in nullspace(block):
            row = np.zeros(len(columns))
            row[cols] = vector
            basis.append(row)
    # the key skips float noise left of a pivot, which a first-nonzero key sorts by
    basis.sort(key=_pivot)
    return basis


def _pivot(vector: np.ndarray) -> int:
    """Index of the first entry above 1e-8 (0 when there is none)."""
    big = np.flatnonzero(np.abs(vector) > 1e-8)
    return int(big[0]) if big.size else 0


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
    v.  Most entries are integers, so only the integer test runs on the whole
    vector: an entry within `_NEAR` of p = rint(v) has p as its nearest
    fraction.  Every other entry goes through `_rationalize_entry` in vector
    order, so the result, and the exception a bad entry raises, are those of
    the plain per-entry loop.
    """
    v = np.asarray(vector, dtype=float)
    with np.errstate(invalid="ignore"):
        p = np.rint(v)
        gap = np.abs(v - p)
        near = gap <= _NEAR                     # False for every non-finite entry
        far = near & (gap > RATIONALIZE_ENTRY_TOL * np.maximum(1.0, np.abs(v)))
    stop = int(far.argmax()) if far.any() else v.size
    out = p.tolist()
    for i in np.flatnonzero(~near[:stop]).tolist():
        out[i] = _rationalize_entry(v[i])
        if out[i] is None:
            return None
    if stop < v.size:
        return None
    integers = {r: Fraction(int(r)) for r in set(p[near].tolist())}
    return tuple(integers[f] if is_near else f for f, is_near in zip(out, near.tolist()))


def _rationalize_entry(v: float):
    f = Fraction(float(v)).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
    if abs(float(f) - float(v)) > RATIONALIZE_ENTRY_TOL * max(1.0, abs(float(v))):
        return None
    return f


@dataclass
class FamilyComponent:
    function: PhaseFunction
    rational: bool
    holdout_residual: float
    generators: dict


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
    hold_matrix = _finite_matrix(ansatz, hold_batch)
    prelim, pivots = [], []
    for vector in basis:
        chosen = None
        rat = rationalize_vector(vector)
        if rat is not None:
            # rationalize_vector turns every entry within _NEAR of 0 into 0
            support = np.flatnonzero(np.abs(vector) > _NEAR)
            exact = np.zeros(vector.size)
            exact[support] = [float(rat[k]) for k in support]
            r = float(np.abs(hold_matrix @ exact).max())
            if r < tol:
                chosen, rational, resid = rat, True, r
        if chosen is None:
            r = float(np.abs(hold_matrix @ vector).max())
            if r < tol:
                chosen, rational, resid = tuple(vector), False, r
                support = np.flatnonzero(vector)
        if chosen is None:
            continue
        groups = ansatz.group_exprs(chosen, support.tolist())
        expr = sx.simplify(ansatz.family_expr(groups))
        if sx.is_zero(expr):
            continue
        prelim.append(FamilyComponent(
            function=PhaseFunction(expr, th.table),
            rational=rational,
            holdout_residual=resid,
            generators=ansatz.provenance(groups),
        ))
        pivots.append(_pivot(vector))
    if not prelim:
        raise EmptyNullspaceError("all nullspace candidates failed holdout verification")
    # drop components that are constant functions
    values = np.column_stack([c.function.values(hold_batch) for c in prelim])
    spread = values.max(axis=0) - values.min(axis=0)
    keepers = sorted(np.flatnonzero(spread > 1e-10).tolist(),
                     key=lambda i: (prelim[i].function.has_hamiltonian, pivots[i]))
    final = [prelim[i] for i in independent_columns(values, keepers)]
    if not final:
        raise EmptyNullspaceError("all candidates pruned as constant or dependent")
    return Family(final)


def independent_columns(values: np.ndarray, order: list[int]) -> list[int]:
    """Greedy linear-independence filter: the columns of `values`, visited in
    `order`, that lie farther than 1e-8 * max(1, max|col|) (max norm) from the
    span of the columns already kept.  The span is one orthonormal basis,
    grown by classical Gram-Schmidt applied twice."""
    q = np.empty((values.shape[0], len(order)))
    kept: list[int] = []
    for i in order:
        col = values[:, i]
        basis = q[:, :len(kept)]
        rest = col - basis @ (basis.T @ col)
        rest -= basis @ (basis.T @ rest)
        if kept and np.abs(rest).max() <= 1e-8 * max(1.0, np.abs(col).max()):
            continue
        q[:, len(kept)] = rest / np.linalg.norm(rest)
        kept.append(i)
    return kept


def discover_family(th: TrueHamiltonian, sampler: PointSampler, degree: int = 2,
                    include_time: bool = True, n_samples: int | None = None,
                    tol: float = FAMILY_TOL, holdout: int = 100) -> Family:
    """Full pipeline for the separated generator ansatz.

    A system of more than MAX_SAMPLED_CELLS entries is refused before any
    point is drawn."""
    ansatz = build_ansatz(th.table, degree, include_time)
    count = n_samples if n_samples is not None else 3 * ansatz.coefficient_count
    if count * ansatz.coefficient_count > MAX_SAMPLED_CELLS:
        raise NoetherError(
            f"sampled system too large ({count} x {ansatz.coefficient_count}, "
            f"cap {MAX_SAMPLED_CELLS:,} entries); lower the degree or the samples")
    return _solve(ansatz, th, sampler, count, tol, holdout)


def discover_polynomial_integrals(th: TrueHamiltonian, sampler: PointSampler,
                                  degree: int, include_time: bool = False,
                                  variables: tuple[Symbol, ...] | None = None,
                                  include_hamiltonian: bool = True,
                                  tol: float = FAMILY_TOL, holdout: int = 100) -> Family:
    """Direct polynomial-integral search over the (restricted) phase variables,
    and t when `include_time` is set.

    A polynomial H (`sx.polynomial` of the envelope's H) gives exact residual
    columns, solved block by block; any other H takes the sampled system."""
    variables = tuple(th.table.phase if variables is None else variables)
    if include_time and th.table.time not in variables:
        variables += (th.table.time,)
    ansatz = polynomial_ansatz(th.table, degree, variables, include_hamiltonian)
    if ansatz.coefficient_count > 5000:
        raise NoetherError("polynomial ansatz too large; restrict variables or degree")
    hamiltonian = sx.polynomial(th.envelope[0], sample_symbols(th.table))
    if hamiltonian is None:
        return _solve(ansatz, th, sampler, 3 * ansatz.coefficient_count, tol, holdout)
    basis = block_nullspace(ansatz.exact_columns(hamiltonian))
    return extract_family(ansatz, basis, th, sampler, tol, holdout)


def _solve(ansatz: Ansatz, th: TrueHamiltonian, sampler: PointSampler, n_samples: int,
           tol: float, holdout: int) -> Family:
    """Assemble, take the nullspace and extract the family: both searches' path."""
    basis = nullspace(assemble_system(ansatz, sampler, n_samples))
    return extract_family(ansatz, basis, th, sampler, tol, holdout)
