"""The canonical Poisson bracket on sample batches.

Convention: ``{F, G} = sum_i dF/dx_i dG/dpsi_i - dF/dpsi_i dG/dx_i``.  With
this ordering the residual of a candidate integral, ``R(F) = dF/dt + {F, H}``,
vanishes exactly when F is conserved along the flow
``xdot = dH/dpsi, psidot = -dH/dx``.
"""

from __future__ import annotations

import numpy as np

from .ocp import PhaseFunction


def bracket_values(funcs: list[PhaseFunction], batch) -> np.ndarray:
    """(m, m, N) tensor of {F_p, F_q} on a batch; antisymmetric in (p, q).

    Works for Hamiltonian-bearing functions: the gradients are chain-ruled
    through the batch's envelope gradient.  The tensor is filled in place one
    row p at a time, so besides it only two (m, N) temporaries are held.
    """
    n = funcs[0].table.n
    grads = np.stack([f.gradient(batch) for f in funcs])
    gx, gp = grads[:, :n], grads[:, n:2 * n]
    m, _, size = grads.shape
    out = np.empty((m, m, size))
    for p, row in enumerate(out):
        np.einsum("in,qin->qn", gx[p], gp, out=row)
        row -= np.einsum("in,qin->qn", gp[p], gx)
    return out
