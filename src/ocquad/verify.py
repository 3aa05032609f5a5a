"""Numerical verification: extremal integration and conservation drift.

The integrator is plain fixed-step RK4 on the Hamiltonian flow, so it checks
the discovered integrals without the symbolic machinery that found them.
"""

from __future__ import annotations

import math
from functools import cache

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


def _real(value) -> float:
    """`value` as a float; TypeError for a complex value, numpy's included,
    whose float() would keep the real part and warn."""
    if isinstance(value, complex):
        raise TypeError(f"{value!r} is not real")
    return float(value)


@cache
def _rk4_step(d: int):
    """One classical RK4 step of a d-dimensional flow, as straight-line Python
    built once per d.

    `step(rhs, t, y, k1, half, h, sixth)` takes the right-hand side
    `rhs(t, y)`, the time t, the state `y` as d floats, its finite first
    stage `k1` = rhs(t, y) as d floats, the step h and its half and sixth.
    It calls `rhs` for the stages k2 to k4 and returns the next state as a
    list, or the name of the check that failed: "k2" to "k4" for a stage
    whose right-hand side is not finite, "y" for a new state that is not
    finite.  A stage that raises raises through it.  Each coordinate gets
    the floating-point operations of ``y + half * k1`` and
    ``y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)``.
    """
    y = [f"y{i}" for i in range(d)]
    k = [[f"k{s}_{i}" for i in range(d)] for s in range(1, 5)]

    def unpack(names):
        return ", ".join(names) + ","

    def finite(names):
        return " and ".join(f"isfinite({x})" for x in names)

    lines = ["def _step(rhs, t, y, k1, half, h, sixth):",
             f"    {unpack(y)} = y",
             f"    {unpack(k[0])} = k1"]
    for s, (at, scale) in enumerate([("t + half", "half"), ("t + half", "half"),
                                      ("t + h", "h")], start=1):
        stage = ", ".join(f"{a} + {scale} * {b}" for a, b in zip(y, k[s - 1]))
        lines += [f"    {unpack(k[s])} = rhs({at}, [{stage}])",
                  f"    if not ({finite(k[s])}):",
                  f'        return "k{s + 1}"']
    new = [f"v{i}" for i in range(d)]
    lines += [f"    {v} = {a} + sixth * ({b1} + 2 * {b2} + 2 * {b3} + {b4})"
              for v, a, b1, b2, b3, b4 in zip(new, y, *k)]
    lines += [f"    if not ({finite(new)}):",
              '        return "y"',
              f"    return [{', '.join(new)}]"]
    ns = {"isfinite": math.isfinite}
    exec("\n".join(lines), ns)
    return ns["_step"]


def integrate_extremal(th: TrueHamiltonian, z0, t0: float = 0.0,
                       horizon: float = 1.0, step: float = 1e-3) -> SampleBatch:
    """Classical fixed-step RK4 on xdot = dH/dpsi, psidot = -dH/dx.

    `z0` is the initial (x_1..x_n, psi_1..psi_n).  Returns the envelope batch
    at every point of the uniform time grid; its `points` are the
    (2n+1, N+1) grid, rows x_1..x_n, psi_1..psi_n, t.  Each grid point is
    evaluated once: one `value_and_gradient` call gives its column of the
    batch, H and the 2n+1 partials, and its first RK4 stage
    k1 = (dH/dpsi, -dH/dx).  The state steps as Python floats, which for a
    phase point costs less than numpy calls: each step is one call of the
    generated `_rk4_step(2n)`, which calls `HamiltonianFlow.rhs` for the
    stages k2 to k4, with the same floating-point operations for every
    coordinate.  The grid time ``t0 + step * k`` is the k-th entry of the
    batch's time row, bit for bit.

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
    rk4 = _rk4_step(2 * n)
    y = y.tolist()
    previous = None
    flow = HamiltonianFlow(th)
    evaluate = flow.evaluator.value_and_gradient
    denominators = th.denominators
    isfinite = math.isfinite
    half, sixth = step / 2, step / 6
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        for k in range(n_steps + 1):
            t = t0 + step * k
            if denominators:
                try:
                    current = [_real(d(*y, t)) for d in denominators]
                except (ArithmeticError, TypeError):    # a pole, or a complex value
                    raise PoleEncounteredError(t) from None
                if any(abs(now) < 1e-2 or before * now < 0
                       for before, now in zip(previous or current, current)):
                    raise PoleEncounteredError(t)
                previous = current
            grid[:-1, k] = y
            try:
                h, grad = evaluate(y, t)
            except (OcpError, FloatingPointError) as exc:
                raise PoleEncounteredError(t) from exc
            if not (isfinite(h) and all(map(isfinite, grad))):
                raise PoleEncounteredError(t)
            env[:, k] = (h, *grad)
            if k == n_steps:
                break
            try:
                y = rk4(flow.rhs, t, y, grad[n:2 * n] + [-g for g in grad[:n]],
                        half, step, sixth)
            except (OcpError, FloatingPointError) as exc:
                raise PoleEncounteredError(t) from exc
            if type(y) is str:      # the check that failed, at its stage's time
                raise PoleEncounteredError({"k2": t + half, "k3": t + half,
                                            "k4": t + step}.get(y, t))
    return SampleBatch(th.table, grid, env[0], env[1:])


def conservation_drift(f: PhaseFunction, traj: SampleBatch) -> float | None:
    """max_t |F(z(t), t) - F(z(0), t0)| over the trajectory grid, read from the
    envelope batch `integrate_extremal` returns; None where F or its change
    is not finite somewhere on the grid, as where F overflows on an
    extremal that grows without bound.  The caller provides the
    ``np.errstate``: under numpy's default an overflow also warns."""
    vals = f.values(traj)
    drift = float(np.abs(vals - vals[0]).max())
    return drift if math.isfinite(drift) else None
