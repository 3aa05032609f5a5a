"""Canonical Poisson bracket and the first-integral residual.

Convention: ``{F, G} = sum_i dF/dx_i dG/dpsi_i - dF/dpsi_i dG/dx_i`` and the
residual of a candidate integral is ``R(F) = dF/dt + {F, H}``.  With this
ordering, R(F) = 0 is exactly conservation of F along the flow
``xdot = dH/dpsi, psidot = -dH/dx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as sx
from .ocp import PhaseFunction, PointSampler, TrueHamiltonian
from .symexpr import Expr, HAMILTONIAN_SYMBOL, SymbolTable


def bracket(f: Expr, g: Expr, table: SymbolTable) -> Expr:
    """Canonical Poisson bracket of two plain expressions."""
    terms = []
    for x, p in zip(table.states, table.costates):
        terms.append(sx.mul(sx.differentiate(f, x), sx.differentiate(g, p)))
        terms.append(sx.negate(sx.mul(sx.differentiate(f, p), sx.differentiate(g, x))))
    return sx.add(*terms)


def bracket_values(f: PhaseFunction, g: PhaseFunction, batch) -> np.ndarray:
    """{f, g} evaluated on a batch; works for Hamiltonian-bearing functions."""
    fg = f.gradient(batch)
    gg = g.gradient(batch)
    n = f.table.n
    out = np.zeros(batch.size)
    for i in range(n):
        out += fg[i] * gg[n + i] - fg[n + i] * gg[i]
    return out


class Residual:
    """R(F) = dF/dt + {F, H} for a candidate first integral.

    `values` evaluates numerically against either control backend; `symbolic`
    is available only when the reduced Hamiltonian has a closed form.
    """

    def __init__(self, f, th: TrueHamiltonian):
        self.th = th
        self.func = f if isinstance(f, PhaseFunction) else PhaseFunction(f, th.table)

    def symbolic(self) -> Expr | None:
        if not self.th.is_closed_form:
            return None
        fs = self.func.to_symbolic(self.th)
        table = self.th.table
        return sx.add(sx.differentiate(fs, table.time),
                      bracket(fs, self.th.reduced, table))

    def values(self, batch) -> np.ndarray:
        """dF/dt along the flow: the gradient of F against the flow velocity."""
        return (self.func.gradient(batch) * batch.velocity()).sum(axis=0)


@dataclass(frozen=True)
class IntegralVerdict:
    kind: str  # "symbolic_zero" | "numeric_zero" | "nonzero"
    max_residual: float = 0.0
    witness: dict | None = None

    @property
    def is_integral(self) -> bool:
        return self.kind != "nonzero"


def is_first_integral(f, th: TrueHamiltonian, sampler: PointSampler,
                      tol: float = 1e-8, n_samples: int = 100) -> IntegralVerdict:
    """Decide whether f is a first integral of the true Hamiltonian.

    Symbolic zero is claimed only when shallow canonicalisation/expansion
    collapses the residual; otherwise fresh samples decide numerically.
    """
    residual = Residual(f, th)
    symb = residual.symbolic()
    if symb is not None and sx.is_symbolically_zero(symb):
        return IntegralVerdict("symbolic_zero")
    batch = sampler.draw(n_samples)
    vals = residual.values(batch)
    worst = int(np.argmax(np.abs(vals)))
    max_resid = float(abs(vals[worst]))
    if max_resid < tol:
        return IntegralVerdict("numeric_zero", max_resid)
    return IntegralVerdict("nonzero", max_resid, batch.point(worst))


def homogeneous_correction(g: Expr, th: TrueHamiltonian, sampler: PointSampler,
                           tol: float = 1e-8):
    """Look for c with {g, H} = c H and return the corrected integral.

    When such a constant exists, ``F = g - c t H`` satisfies R(F) = 0; the fit
    is least squares over samples with a fresh holdout verifying the corrected
    residual.  Returns (c, F) with F referencing the Hamiltonian placeholder,
    or None when no constant fits.
    """
    table = th.table
    if table.time in sx.free_symbols(g):
        return None
    gf = PhaseFunction(g, table)
    fit = sampler.draw(80)
    hold = sampler.draw(80)
    br = bracket_values(gf, PhaseFunction(sx.symref(HAMILTONIAN_SYMBOL), table), fit)
    denom = float(np.dot(fit.hvalue, fit.hvalue))
    if denom == 0.0:
        return None
    c_float = float(np.dot(br, fit.hvalue)) / denom

    def corrected(c) -> Expr:
        return sx.add(g, sx.negate(sx.mul(sx.num(c), sx.symref(table.time),
                                          sx.symref(HAMILTONIAN_SYMBOL))))

    def verifies(c) -> bool:
        resid = Residual(corrected(c), th).values(hold)
        return bool(np.abs(resid).max() <= tol * max(1.0, float(np.abs(hold.hvalue).max())))

    c_rat = Fraction(c_float).limit_denominator(64)
    for c in ([c_rat] if abs(float(c_rat) - c_float) <= 1e-6 else []) + [Fraction(c_float)]:
        if verifies(c):
            return c, corrected(c)
    return None
