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
    (2n+1, N+1) grid, rows x_1..x_n, psi_1..psi_n, t.  The state steps as one
    list of Python floats, which for a phase point costs less than numpy
    calls, with the same floating-point operations for every coordinate.

    PoleEncounteredError ends the run where the flow leaves the evaluable
    region: at a grid time (t0 for the start) where an excluded denominator
    is within 1e-2 of zero, has changed sign or is not real; at the start of
    a step when a stage raises OcpError (no concave stationary point, a
    negative base under a fractional power) or FloatingPointError, or when
    the new state is not finite; and at a stage's own time when its
    right-hand side is not finite.  The run sits in one ``np.errstate`` that
    raises on invalid operations and division by zero, so a numpy scalar
    that leaves the real domain (the square root of a negative ``np.sin``
    value) stops it as a Python float does, instead of giving nan and a
    RuntimeWarning.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    ratio = horizon / step
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError("horizon must be an integral number of steps")
    y = np.asarray(z0, dtype=float)
    if y.shape != (2 * th.table.n,):
        raise ValueError(f"initial condition must have length {2 * th.table.n}")
    times = t0 + step * np.arange(n_steps + 1)
    grid = np.empty((len(y) + 1, n_steps + 1))     # the batch's rows: x, psi, t
    grid[-1] = times
    y = y.tolist()
    previous = None
    flow = HamiltonianFlow(th)
    half, sixth = step / 2, step / 6
    with np.errstate(invalid="raise", divide="raise"):
        for k, t in enumerate(times):
            if th.denominators:
                try:
                    current = [float(d(*y, t)) for d in th.denominators]
                except (ArithmeticError, TypeError):    # a pole, or a complex value
                    raise PoleEncounteredError(t) from None
                if any(abs(now) < 1e-2 or before * now < 0
                       for before, now in zip(previous or current, current)):
                    raise PoleEncounteredError(t)
                previous = current
            grid[:-1, k] = y
            if k == n_steps:
                break
            try:
                k1 = flow.rhs(t, y)
                if not all(map(math.isfinite, k1)):
                    raise PoleEncounteredError(t)
                k2 = flow.rhs(t + half, [a + half * b for a, b in zip(y, k1)])
                if not all(map(math.isfinite, k2)):
                    raise PoleEncounteredError(t + half)
                k3 = flow.rhs(t + half, [a + half * b for a, b in zip(y, k2)])
                if not all(map(math.isfinite, k3)):
                    raise PoleEncounteredError(t + half)
                k4 = flow.rhs(t + step, [a + step * b for a, b in zip(y, k3)])
                if not all(map(math.isfinite, k4)):
                    raise PoleEncounteredError(t + step)
            except PoleEncounteredError:
                raise
            except (OcpError, FloatingPointError) as exc:
                raise PoleEncounteredError(t) from exc
            y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            if not all(map(math.isfinite, y)):
                raise PoleEncounteredError(t)
    batch, keep = flow.evaluator.prepare(grid)
    if not keep.all():
        raise PoleEncounteredError(float(times[int(np.argmin(keep))]))
    return batch


def conservation_drift(f: PhaseFunction, traj: SampleBatch) -> float:
    """max_t |F(z(t), t) - F(z(0), t0)| over the trajectory grid, read from the
    envelope batch `integrate_extremal` returns."""
    vals = f.values(traj)
    return float(np.abs(vals - vals[0]).max())
