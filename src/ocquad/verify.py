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


@cache
def _rk4_step(d: int):
    """One classical RK4 step of a d-dimensional flow, as straight-line Python
    built once per d.

    `step(rhs, t, y, half, h, sixth)` takes the right-hand side `rhs(t, y)`,
    the time t, the state `y` as d floats, the step h and its half and
    sixth.  It returns the next state as a list, or the name of the check
    that failed: "k1" to "k4" for a stage whose right-hand side is not
    finite, "y" for a new state that is not finite.  A stage that raises
    raises through it.  Each coordinate gets the floating-point operations
    of ``y + half * k1`` and ``y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)``.
    """
    y = [f"y{i}" for i in range(d)]
    k = [[f"k{s}_{i}" for i in range(d)] for s in range(1, 5)]

    def unpack(names):
        return ", ".join(names) + ","

    def finite(names):
        return " and ".join(f"isfinite({x})" for x in names)

    lines = ["def _step(rhs, t, y, half, h, sixth):",
             f"    {unpack(y)} = y",
             f"    {unpack(k[0])} = rhs(t, y)",
             f"    if not ({finite(k[0])}):",
             '        return "k1"']
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
    (2n+1, N+1) grid, rows x_1..x_n, psi_1..psi_n, t.  The state steps as
    Python floats, which for a phase point costs less than numpy calls:
    each step is one call of the generated `_rk4_step(2n)`, with the same
    floating-point operations for every coordinate.  The grid time
    ``t0 + step * k`` is the k-th entry of the batch's time row, bit for bit.

    PoleEncounteredError ends the run where the flow leaves the evaluable
    region: at a grid time (t0 for the start) where an excluded denominator
    is within 1e-2 of zero, has changed sign or is not real; at the start of
    a step when a stage raises OcpError (no concave stationary point, a
    negative base under a fractional power) or FloatingPointError, or when
    the new state is not finite; and at a stage's own time when its
    right-hand side is not finite.  The run sits in one ``np.errstate`` that
    raises on invalid operations, division by zero and overflow, so a numpy
    scalar that leaves the real domain (the square root of a negative
    ``np.sin`` value) or the float range (``np.exp`` of a large argument)
    stops it as a Python float does, instead of giving nan or inf and a
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
    rk4 = _rk4_step(len(y))
    y = y.tolist()
    previous = None
    flow = HamiltonianFlow(th)
    denominators = th.denominators
    half, sixth = step / 2, step / 6
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        for k in range(n_steps + 1):
            t = t0 + step * k
            if denominators:
                try:
                    current = [float(d(*y, t)) for d in denominators]
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
                y = rk4(flow.rhs, t, y, half, step, sixth)
            except (OcpError, FloatingPointError) as exc:
                raise PoleEncounteredError(t) from exc
            if type(y) is str:      # the check that failed, at its stage's time
                raise PoleEncounteredError({"k2": t + half, "k3": t + half,
                                            "k4": t + step}.get(y, t))
    batch, keep = flow.evaluator.prepare(grid)
    if not keep.all():
        raise PoleEncounteredError(float(times[int(np.argmin(keep))]))
    return batch


def conservation_drift(f: PhaseFunction, traj: SampleBatch) -> float:
    """max_t |F(z(t), t) - F(z(0), t0)| over the trajectory grid, read from the
    envelope batch `integrate_extremal` returns."""
    vals = f.values(traj)
    return float(np.abs(vals - vals[0]).max())
