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


def bracket_values(funcs: list[PhaseFunction], batch) -> np.ndarray:
    """(m, m, N) tensor of {F_p, F_q} on a batch; antisymmetric in (p, q).

    Works for Hamiltonian-bearing functions: the gradients are chain-ruled
    through the batch's envelope gradient.
    """
    n = funcs[0].table.n
    grads = np.stack([f.gradient(batch) for f in funcs])
    gx = np.ascontiguousarray(grads[:, :n])
    gp = np.ascontiguousarray(grads[:, n:2 * n])
    return np.einsum("pin,qin->pqn", gx, gp) - np.einsum("pin,qin->pqn", gp, gx)
