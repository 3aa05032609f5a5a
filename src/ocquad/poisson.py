"""The canonical Poisson bracket, symbolic and on sample batches.

Convention: ``{F, G} = sum_i dF/dx_i dG/dpsi_i - dF/dpsi_i dG/dx_i``.  With
this ordering the residual of a candidate integral, ``R(F) = dF/dt + {F, H}``,
vanishes exactly when F is conserved along the flow
``xdot = dH/dpsi, psidot = -dH/dx``.
"""

from __future__ import annotations

import numpy as np

from . import symexpr as sx
from .ocp import PhaseFunction
from .symexpr import Expr, SymbolTable


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
