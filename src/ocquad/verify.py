"""Numerical verification: extremal integration and conservation drift.

The integrator is plain fixed-step RK4 on the Hamiltonian flow, so it checks
the discovered integrals without the symbolic machinery that found them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symexpr as sx
from .ocp import (
    OcpError,
    PhaseFunction,
    SampleBatch,
    TrueHamiltonian,
    sample_symbols,
)
from .symexpr import SymbolTable


class PoleEncounteredError(OcpError):
    def __init__(self, time: float):
        super().__init__(f"flow left the evaluable region near t = {time:.6g}")
        self.time = time


@dataclass
class Trajectory:
    """A discretised Pontryagin extremal on a uniform time grid.

    `batch` holds the envelope evaluated at every grid point; its `points`
    are the (2n+1, N+1) grid, rows x_1..x_n, psi_1..psi_n, t.
    """

    batch: SampleBatch

    @property
    def table(self) -> SymbolTable:
        return self.batch.table

    @property
    def points(self) -> np.ndarray:
        return self.batch.points

    @property
    def times(self) -> np.ndarray:
        return self.points[-1]

    @property
    def states(self) -> np.ndarray:
        """(N+1, 2n) phase points, columns x_1..x_n, psi_1..psi_n."""
        return self.points[:-1].T


def _rk4(rhs, y: np.ndarray, times: np.ndarray, step: float, after_step) -> np.ndarray:
    """Classical fixed-step RK4 of y' = rhs(t, y) over `times`; (N+1, dim) states.

    The state is stepped as a list of floats: for the few coordinates of a
    phase point that costs less than one numpy call per vector operation, and
    every coordinate goes through the same floating-point operations in the
    same order.  Every OcpError of a right-hand side evaluation (a control
    solve that finds no concave stationary point, or a stage that leaves the
    real domain, such as a negative base under a fractional power), every
    FloatingPointError (under the caller's ``np.errstate``), a non-finite
    right-hand side or a non-finite state raises PoleEncounteredError; so may
    `after_step(t, y)`, called after every step.
    """
    half, sixth = step / 2, step / 6

    def f(t, state):
        out = rhs(t, state).tolist()
        if not all(map(math.isfinite, out)):
            raise PoleEncounteredError(t)
        return out

    y = y.tolist()
    states = [y]
    for k in range(len(times) - 1):
        t = times[k]
        try:
            k1 = f(t, y)
            k2 = f(t + half, [a + half * b for a, b in zip(y, k1)])
            k3 = f(t + half, [a + half * b for a, b in zip(y, k2)])
            k4 = f(t + step, [a + step * b for a, b in zip(y, k3)])
        except (OcpError, FloatingPointError) as exc:
            if isinstance(exc, PoleEncounteredError):
                raise
            raise PoleEncounteredError(t) from exc
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)):
            raise PoleEncounteredError(t)
        after_step(times[k + 1], y)
        states.append(y)
    return np.array(states)


def integrate_extremal(th: TrueHamiltonian, z0, t0: float = 0.0,
                       horizon: float = 1.0, step: float = 1e-3) -> Trajectory:
    """Classical RK4 on xdot = dH/dpsi, psidot = -dH/dx.

    `z0` is the initial (x_1..x_n, psi_1..psi_n).  Aborts with
    PoleEncounteredError if the flow leaves the evaluable region.  The run
    sits in one ``np.errstate`` that raises on invalid operations and
    division by zero, so a numpy scalar that leaves the real domain (the
    square root of a negative ``np.sin`` value) stops it as a Python float
    does, instead of giving nan and a RuntimeWarning.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    ratio = horizon / step
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError("horizon must be an integral number of steps")
    y = np.asarray(z0, dtype=float).copy()
    if y.shape != (2 * th.table.n,):
        raise ValueError(f"initial condition must have length {2 * th.table.n}")
    times = t0 + step * np.arange(n_steps + 1)
    denominators = [sx.compile_fn(d, sample_symbols(th.table))
                    for d in th.problem.excluded_denominators]
    previous = [None] * len(denominators)

    def check_denominators(t, state):
        nonlocal previous
        try:
            current = [float(d(*state, t)) for d in denominators]
        except ArithmeticError:
            raise PoleEncounteredError(t) from None
        for before, now in zip(previous, current):
            if abs(now) < 1e-2 or (before is not None and before * now < 0):
                raise PoleEncounteredError(t)
        previous = current

    flow = th.flow()
    with np.errstate(invalid="raise", divide="raise"):
        check_denominators(t0, y)
        states = _rk4(flow.rhs, y, times, step, check_denominators)
    batch, keep = flow.evaluator.prepare(np.vstack([states.T, times]))
    if not keep.all():
        raise PoleEncounteredError(float(times[int(np.argmin(keep))]))
    return Trajectory(batch)


def conservation_drift(f, traj: Trajectory) -> float:
    """max_t |F(z(t), t) - F(z(0), t0)| over the trajectory grid, read from the
    envelope batch the trajectory already carries."""
    func = f if isinstance(f, PhaseFunction) else PhaseFunction(f, traj.table)
    vals = func.values(traj.batch)
    return float(np.abs(vals - vals[0]).max())
