"""Independent numerical oracles: extremal integration, conservation drift,
and a finite-difference Poisson bracket.

Everything here deliberately avoids the symbolic machinery it is meant to
check: the integrator is plain fixed-step RK4 on the Hamiltonian flow, and the
bracket oracle uses central differences of pointwise evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symexpr as sx
from .ocp import (
    HamiltonianEvaluator,
    OcpError,
    PhaseFunction,
    SampleBatch,
    TrueHamiltonian,
    sample_symbols,
)
from .symexpr import Expr, Symbol, SymbolTable


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
    def hamiltonian_values(self) -> np.ndarray:
        return self.batch.hvalue

    @property
    def times(self) -> np.ndarray:
        return self.points[-1]

    @property
    def states(self) -> np.ndarray:
        """(N+1, 2n) phase points, columns x_1..x_n, psi_1..psi_n."""
        return self.points[:-1].T


def _checked_start(th: TrueHamiltonian, z0, t0: float, horizon: float, step: float):
    """The initial (x, psi) as a vector and the grid t0, t0 + step, ..., t0 + horizon."""
    if not step > 0:
        raise ValueError("step must be positive")
    ratio = horizon / step
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError("horizon must be an integral number of steps")
    y = np.asarray(z0, dtype=float).copy()
    if y.shape != (2 * th.table.n,):
        raise ValueError(f"initial condition must have length {2 * th.table.n}")
    return y, t0 + step * np.arange(n_steps + 1)


def _rk4(rhs, y: np.ndarray, times: np.ndarray, step: float, after_step=None) -> np.ndarray:
    """Classical fixed-step RK4 of y' = rhs(t, y) over `times`; (N+1, dim) states.

    The state is stepped as a list of floats: for the few coordinates of a
    phase point that costs less than one numpy call per vector operation, and
    every coordinate goes through the same floating-point operations in the
    same order.  A failed control solve, a non-finite right-hand side or a
    non-finite state raises PoleEncounteredError; `after_step(t, y)` may raise
    it as well.
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
        except OcpError as exc:
            if isinstance(exc, PoleEncounteredError):
                raise
            raise PoleEncounteredError(t) from exc
        y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)):
            raise PoleEncounteredError(t)
        if after_step is not None:
            after_step(times[k + 1], y)
        states.append(y)
    return np.array(states)


def _on_grid(evaluator: HamiltonianEvaluator, points: np.ndarray, times: np.ndarray):
    """Envelope batch over every grid point; a dropped point is a pole."""
    batch, keep = evaluator.prepare(points)
    if not keep.all():
        raise PoleEncounteredError(float(times[int(np.argmin(keep))]))
    return batch


def integrate_extremal(th: TrueHamiltonian, z0, t0: float = 0.0,
                       horizon: float = 1.0, step: float = 1e-3) -> Trajectory:
    """Classical RK4 on xdot = dH/dpsi, psidot = -dH/dx.

    `z0` is the initial (x_1..x_n, psi_1..psi_n).  Aborts with
    PoleEncounteredError if the flow leaves the evaluable region.
    """
    y, times = _checked_start(th, z0, t0, horizon, step)
    denominators = [sx.compile_fn(d, sample_symbols(th.table))
                    for d in th.problem.excluded_denominators]
    previous = [None] * len(denominators)

    def check_denominators(t, state):
        nonlocal previous
        current = [float(d(*state, t)) for d in denominators]
        for before, now in zip(previous, current):
            if abs(now) < 1e-2 or (before is not None and before * now < 0):
                raise PoleEncounteredError(t)
        previous = current

    check_denominators(t0, y)
    flow = th.flow()
    states = _rk4(flow.rhs, y, times, step, check_denominators)
    return Trajectory(_on_grid(flow.evaluator, np.vstack([states.T, times]), times))


def integrate_autonomized(th: TrueHamiltonian, z0, theta0: float = 0.0,
                          t0: float = 0.0, horizon: float = 1.0,
                          step: float = 1e-3):
    """Flow of K = H - theta on the extended space (x, psi, theta, t).

    Returns (tau grid, extended states, K values); theta follows dH/dt and t
    advances uniformly, so K stays constant even for time-dependent problems.
    """
    evaluator = th.evaluator()
    n = th.table.n
    z, taus = _checked_start(th, z0, 0.0, horizon, step)

    def rhs(tau, state):
        _, grad = evaluator.value_and_gradient(state[:2 * n], state[-1])
        return np.concatenate([grad[n:2 * n], -grad[:n], grad[2 * n:], [1.0]])

    states = _rk4(rhs, np.concatenate([z, [theta0, t0]]), taus, step)
    points = np.vstack([states[:, :2 * n].T, states[:, -1]])
    k_values = _on_grid(evaluator, points, taus).hvalue - states[:, 2 * n]
    return taus, states, k_values


def conservation_drift(f, traj: Trajectory) -> float:
    """max_t |F(z(t), t) - F(z(0), t0)| over the trajectory grid, read from the
    envelope batch the trajectory already carries."""
    func = f if isinstance(f, PhaseFunction) else PhaseFunction(f, traj.table)
    vals = func.values(traj.batch)
    return float(np.abs(vals - vals[0]).max())


def fd_bracket_oracle(f: Expr, g: Expr, table: SymbolTable,
                      point: dict[Symbol, float], h: float = 1e-5) -> float:
    """Central-difference approximation of the canonical Poisson bracket."""

    def partial(e, s):
        up, dn = dict(point), dict(point)
        up[s] = point[s] + h
        dn[s] = point[s] - h
        return (sx.evaluate(e, up) - sx.evaluate(e, dn)) / (2 * h)

    total = 0.0
    for x, p in zip(table.states, table.costates):
        total += partial(f, x) * partial(g, p) - partial(f, p) * partial(g, x)
    return total
