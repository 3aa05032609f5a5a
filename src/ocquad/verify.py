"""Numerical verification: extremal integration and conservation drift.

The integrator is plain fixed-step RK4 on the Hamiltonian flow, so it checks
the discovered integrals without the symbolic machinery that found them.
"""

from __future__ import annotations

import math

import numpy as np

from .ocp import (
    HamiltonianFlow,
    OcpError,
    PhaseFunction,
    SampleBatch,
    TrueHamiltonian,
)


class PoleEncounteredError(OcpError):
    def __init__(self, time: float):
        super().__init__(f"flow left the evaluable region near t = {time:.6g}")
        self.time = time


def integrate_extremal(th: TrueHamiltonian, z0, t0: float = 0.0,
                       horizon: float = 1.0, step: float = 1e-3) -> SampleBatch:
    """Classical fixed-step RK4 on xdot = dH/dpsi, psidot = -dH/dx.

    `z0` is the initial (x_1..x_n, psi_1..psi_n).  Returns the envelope batch
    at every point of the uniform time grid; its `points` are the
    (2n+1, N+1) grid, rows x_1..x_n, psi_1..psi_n, t.  The run is one call
    of the problem's generated `trajectory_kernel` (`stage.trajectory_loop`).
    It steps the state as Python floats, which for a phase point cost less
    than numpy calls.  Each grid point is evaluated once: one
    `value_and_gradient` call gives its column of the batch, H and the 2n+1
    partials, and its first RK4 stage k1 = (dH/dpsi, -dH/dx);
    `HamiltonianFlow.rhs` gives the stages k2 to k4.  The grid time
    ``t0 + step * k`` is the k-th entry of the batch's time row, bit for bit.

    PoleEncounteredError ends the run where the flow leaves the evaluable
    region: at a grid time (t0 for the start) where an excluded denominator
    is within 1e-2 of zero, has changed sign or is not real, where the
    evaluation raises OcpError (no concave stationary point, a negative base
    under a fractional power) or FloatingPointError, or where H or a partial
    is not finite; at the start of a step when a later stage raises or the
    new state is not finite; and at a stage's own time when its right-hand
    side is not finite.  The run sits in one ``np.errstate`` that raises on
    invalid operations, division by zero and overflow, so a numpy scalar
    that leaves the real domain (the square root of a negative ``np.sin``
    value) or the float range (``np.exp`` of a large argument) stops it as
    a Python float does, instead of giving nan or inf and a RuntimeWarning.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    ratio = horizon / step
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError("horizon must be an integral number of steps")
    y = np.asarray(z0, dtype=float)
    n = th.table.n
    if y.shape != (2 * n,):
        raise ValueError(f"initial condition must have length {2 * n}")
    grid = np.empty((2 * n + 1, n_steps + 1))      # the batch's rows: x, psi, t
    grid[-1] = t0 + step * np.arange(n_steps + 1)
    env = np.empty((2 * n + 2, n_steps + 1))       # H, then its partials
    flow = HamiltonianFlow(th)
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        th.trajectory_kernel(flow.evaluator.value_and_gradient, flow.rhs, th.denominators,
                             y.tolist(), t0, step, n_steps, grid[:-1].T, env.T,
                             PoleEncounteredError)
    return SampleBatch(th.table, grid, env[0], env[1:])


def conservation_drift(f: PhaseFunction, traj: SampleBatch) -> list[float | None]:
    """max_t |F_i(z(t), t) - F_i(z(0), t0)| over the trajectory grid for each
    function F_i of `f`, read from the envelope batch `integrate_extremal`
    returns; None where F_i or its change is not finite somewhere on the
    grid, as where F_i overflows on an extremal that grows without bound.
    The caller provides the ``np.errstate``: under numpy's default an
    overflow also warns."""
    vals = f.values(traj)
    vals -= vals[:, :1].copy()          # in place: no second (k, N) array
    return [d if math.isfinite(d) else None
            for d in np.abs(vals, out=vals).max(axis=1).tolist()]
