"""Generated stage kernels, one Python function per Hamiltonian and output,
and the generated RK4 loop of verification, one per phase dimension.

Each sample point `prepare` solves, each grid point of RK4 verification and
each of its later stages evaluates the Hamiltonian at one phase point.  On
the implicit backend that is first a Newton solve of dH/du = 0.
`stage_kernel` writes the whole evaluation as one straight-line function
over Python floats, from the expressions through `symexpr.emit`:

- the compound subexpressions of the Newton system that hold no control,
  each computed once, before the loop;
- the Newton loop, whose iteration evaluates the rest of the system and
  takes the LDL^T step inline (`tests/oracles.py` holds the generic solve
  and loop it unrolls);
- the outputs, which read every subexpression they share with the system
  from the converged iteration's locals.

On the closed-form backend a kernel is the outputs alone.  Every value is
the one a separately compiled scalar function (`symexpr.compile_fn(...,
scalar=True)`) would return, from the same floating-point operations.
`trajectory_loop` writes the RK4 loop around the kernels' calls out for one
phase dimension; `tests/oracles.py` holds the step it unrolls.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np

from . import symexpr as sx

# what a compiled evaluation raises where it leaves the real domain or the
# float range: ZeroDivisionError, OverflowError, numpy's FloatingPointError
# under a raising errstate, and TypeError from a complex value
LEAVES_DOMAIN = (ArithmeticError, TypeError)
CHUNK = 64          # grid rows the trajectory loop holds before it writes them


def _plan(system: tuple, outputs: tuple, controls: frozenset):
    """(hoisted, looped, after): the compound subexpressions that get a local,
    each list children first.  `hoisted` holds the system's control-free
    subexpressions that are outermost or met more than once; `looped` its
    other subexpressions met more than once, in the system and the outputs
    together; `after` the ones only the outputs hold, met more than once."""
    seen, repeated, order = set(), set(), []

    def visit(x):
        if x.is_constant or x.is_symbol:
            return
        if x in seen:
            repeated.add(x)
            return
        seen.add(x)
        for c in x.children:
            visit(c)
        order.append(x)

    for x in system:
        visit(x)
    in_system = len(order)
    for x in outputs:
        visit(x)
    free = {x for x in order[:in_system] if not x.free() & controls}
    outermost = {x for x in system if x in free}
    for x in order[:in_system]:
        if x not in free:
            outermost.update(c for c in x.children if c in free)
    hoisted = [x for x in order[:in_system] if x in free and (x in outermost or x in repeated)]
    looped = [x for x in order[:in_system] if x not in free and x in repeated]
    after = [x for x in order[in_system:] if x in repeated]
    return hoisted, looped, after


def _newton_lines(m: int, u: list[str], fail: str) -> list[str]:
    """The Newton iteration's tail after `g0..`, `s0_0..` hold the control
    gradient and the lower triangle of the control Hessian at the control
    `u`: A = L D L^T without pivoting, then A x = g.  `fail` ends the
    iteration where an entry or a pivot is not finite or a pivot is zero,
    or where a step takes some |u_i| to 1e6.  When every |g_i| is below TOL
    the iteration ends with `ok` telling whether every pivot is below 0,
    that is, by Sylvester's criterion, whether A is negative definite;
    otherwise u takes the step, each entry clipped to [-2, 2]."""
    g = [f"g{i}" for i in range(m)]
    d = [f"d{i}" for i in range(m)]
    lo = [[f"s{i}_{j}" for j in range(i + 1)] for i in range(m)]
    entries = g + [a for row in lo for a in row]
    lines = ["if not (" + " and ".join(f"isfinite({e})" for e in entries) + "):",
             f"    {fail}"]
    for i in range(m):
        for j in range(i):
            terms = "".join(f" - l{i}_{p} * l{j}_{p} * d{p}" for p in range(j))
            lines.append(f"l{i}_{j} = ({lo[i][j]}{terms}) / d{j}")
        lines += [f"d{i} = {lo[i][i]}" + "".join(f" - l{i}_{p} * l{i}_{p} * d{p}"
                                               for p in range(i)),
                  f"y{i} = g{i}" + "".join(f" - l{i}_{p} * y{p}" for p in range(i)),
                  f"if d{i} == 0 or not isfinite(d{i}):",
                  f"    {fail}"]
    for i in reversed(range(m)):
        lines.append(f"x{i} = y{i} / d{i}" + "".join(f" - l{p}_{i} * x{p}"
                                                   for p in range(i + 1, m)))
    lines += ["if " + " and ".join(f"abs({x}) < TOL" for x in g) + ":",
              "    ok = " + " and ".join(f"{x} < 0" for x in d),
              "    break",
              *(f"v{i} = {u[i]} - min(max(x{i}, -2.0), 2.0)" for i in range(m)),
              "if not (" + " and ".join(f"abs(v{i}) < 1e6" for i in range(m)) + "):",
              f"    {fail}",
              f"{', '.join(u)}, = {', '.join(f'v{i}' for i in range(m))},"]
    return lines


def stage_kernel(kind: str, system: tuple | None, outputs: tuple, rows: tuple,
                 controls: tuple, guess: tuple, *, tol: float, max_iter: int,
                 diverged: Callable, left_domain: Callable) -> Callable:
    """The generated kernel of one output kind over the sample rows `rows`.

    `system` is the implicit backend's Newton system over `rows + controls`
    (dH/du_1..m, then the lower triangle of d2H/du^2 row by row), or None
    for the closed form, whose outputs are over `rows` alone.  The kinds:

    - "controls", `k(*row values)`: the control solved by Newton from
      `guess`, as a list, or None where the solve fails;
    - "envelope", `k(ev, z, t)`: (outputs[0], the rest as a list), with z
      and t converted by float();
    - "field", `k(ev, t, y)`: the outputs as a list, the second half negated.

    On the implicit backend "envelope" and "field" start Newton from
    `ev._warm`, when it is set, and then from `guess`, and set `ev._warm`
    to the solved control before they evaluate the outputs.  A solve fails
    where an evaluation leaves the real domain or the float range (an
    exception in LEAVES_DOMAIN), where `_newton_lines` fails, where no
    iteration of `max_iter` converges, or where it converges with a control
    Hessian that is not negative definite; then these two raise
    `diverged(row values)`.  An output that leaves the real domain or the
    float range raises `left_domain(exception, row values)`.  The caller
    provides the ``np.errstate``.
    """
    implicit = system is not None
    m = len(controls)
    r = len(rows)
    names = {s: f"a{i}" for i, s in enumerate(rows + controls)}
    values = "(" + "".join(f"a{i}, " for i in range(r)) + ")"
    u = [f"a{r + j}" for j in range(m)]
    hoisted, looped, after = _plan(system or (), outputs, frozenset(controls))
    shared: dict = {}
    fail = "return None" if kind == "controls" else f"raise diverged({values}) from None"
    ns = {"np": np, "isfinite": math.isfinite, "TOL": tol, "RANGE": range(max_iter),
          "GUESS": guess, "LEAVES_DOMAIN": LEAVES_DOMAIN, "diverged": diverged,
          "left_domain": left_domain}

    def assign(block, prefix):
        out = []
        for i, x in enumerate(block):
            out.append(f"{prefix}{i} = " + sx.emit(x, names, shared, scalar=True))
            shared[x] = f"{prefix}{i}"
        return out

    with sx.compiling():
        if kind == "controls":
            lines = [f"def _k({', '.join(f'a{i}' for i in range(r))}):"]
        else:
            params, z, t = (("ev, z, t", "map(float, z)", "float(t)") if kind == "envelope"
                            else ("ev, t, y", "y", "t"))
            lines = [f"def _k({params}):",
                     f"    {''.join(f'a{i}, ' for i in range(r - 1))}= {z}",
                     f"    a{r - 1} = {t}"]
        if implicit and m:
            if hoisted:
                lines += ["    try:",
                          *(f"        {x}" for x in assign(hoisted, "h")),
                          "    except LEAVES_DOMAIN:",
                          f"        {fail}"]
            iteration = assign(looped, "c")
            g = [f"g{i}" for i in range(m)] + [f"s{i}_{j}" for i in range(m)
                                               for j in range(i + 1)]
            iteration += [f"{name} = " + sx.emit(x, names, shared, scalar=True)
                          for name, x in zip(g, system)]
            iteration += _newton_lines(m, u, "break")
            starts = ("(GUESS,)" if kind == "controls"
                      else "(GUESS,) if ev._warm is None else (ev._warm, GUESS)")
            lines += [f"    for {', '.join(u)}, in {starts}:",
                      "        ok = False",
                      "        try:",
                      "            for _ in RANGE:",
                      *(f"                {x}" for x in iteration),
                      "        except LEAVES_DOMAIN:",
                      "            continue",
                      "        if ok:",
                      "            break",
                      "    else:",
                      f"        {fail}"]
        if kind == "controls":
            lines.append(f"    return [{', '.join(u)}]")
        else:
            if implicit:
                lines.append(f"    ev._warm = [{', '.join(u)}]")
            body = assign(after, "p")
            emitted = [sx.emit(x, names, shared, scalar=True) for x in outputs]
            if kind == "envelope":
                body.append(f"return {emitted[0]}, [{', '.join(emitted[1:])}]")
            else:
                half = len(emitted) // 2
                body.append("return [" + ", ".join(emitted[:half] + [
                    f"-({e})" for e in emitted[half:]]) + "]")
            lines += ["    try:",
                      *(f"        {x}" for x in body),
                      "    except LEAVES_DOMAIN as exc:",
                      f"        raise left_domain(exc, {values}) from None"]
        exec("\n".join(lines), ns)
    return ns["_k"]


def _real(value) -> float:
    """`value` as a float; TypeError for a complex value, numpy's included,
    whose float() would keep the real part and warn."""
    if isinstance(value, complex):
        raise TypeError(f"{value!r} is not real")
    return float(value)


@cache
def trajectory_loop(n: int, caught: tuple) -> Callable:
    """The RK4 loop over the time grid of an n-degree-of-freedom Hamiltonian
    flow, as straight-line Python built once per (n, caught).

    `loop(evaluate, rhs, denominators, y, t0, step, last, ys, envs, pole)`
    steps the state `y`, 2n floats, from grid point 0 at t0 to grid point
    `last`, the grid time of point k being ``t0 + step * k``.  At each grid
    point it

    - checks the compiled `denominators` at (y, t): each must be real, at
      least 1e-2 from zero and of the sign it had at the last grid point;
    - makes one `evaluate(y, t)` call, whose (H, gradient of 2n+1 floats) is
      the point's row of `envs`, and whose state is its row of `ys`; the rows
      are written CHUNK at a time;
    - unpacks the first stage k1 = (dH/dpsi, -dH/dx) from the gradient and
      calls `rhs(t, y)` for the stages k2 to k4, with each coordinate the
      floating-point operations of ``y + half * k1`` and
      ``y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)``.

    It raises ``pole(time)``: at the grid time where a denominator check
    fails (from None) or the evaluation raises an exception in `caught`
    (chained) or is not finite; at the start of a step whose later stage
    raises (chained) or whose new state is not finite; and at a stage's own
    time where its right-hand side is not finite.  The caller provides the
    ``np.errstate``.
    """
    d = 2 * n
    y = [f"y{i}" for i in range(d)]
    g = [f"g{i}" for i in range(d + 1)]
    k = [[f"k{s}_{i}" for i in range(d)] for s in range(1, 5)]
    new = [f"v{i}" for i in range(d)]

    def unpack(names):
        return ", ".join(names) + ","

    def finite(names):
        return " and ".join(f"isfinite({x})" for x in names)

    lines = ["def _loop(evaluate, rhs, denominators, y, t0, step, last, ys, envs, pole):",
             f"    {unpack(y)} = y",
             "    half, sixth = step / 2, step / 6",
             "    previous = None",
             "    yrows, erows = [], []",
             "    for k in range(last + 1):",
             "        t = t0 + step * k",
             "        if denominators:",
             "            try:",
             f"                current = [real(d({', '.join(y)}, t)) for d in denominators]",
             "            except LEAVES_DOMAIN:    # a pole, or a complex value",
             "                raise pole(t) from None",
             "            if any(abs(now) < 1e-2 or before * now < 0",
             "                   for before, now in zip(previous or current, current)):",
             "                raise pole(t)",
             "            previous = current",
             "        try:",
             f"            h, ({unpack(g)}) = evaluate([{', '.join(y)}], t)",
             "        except CAUGHT as exc:",
             "            raise pole(t) from exc",
             f"        if not (isfinite(h) and {finite(g)}):",
             "            raise pole(t)",
             f"        yrows.append(({unpack(y)}))",
             f"        erows.append((h, {unpack(g)}))",
             "        if k == last:",
             "            break",
             "        if len(erows) == CHUNK:",
             "            ys[k + 1 - CHUNK:k + 1] = yrows",
             "            envs[k + 1 - CHUNK:k + 1] = erows",
             "            yrows, erows = [], []"]
    lines.append(f"        {unpack(k[0])} = {', '.join(g[n:d] + [f'-{x}' for x in g[:n]])}")
    for s, (at, scale) in enumerate([("t + half", "half"), ("t + half", "half"),
                                      ("t + step", "step")], start=1):
        stage = ", ".join(f"{a} + {scale} * {b}" for a, b in zip(y, k[s - 1]))
        lines += ["        try:",
                  f"            {unpack(k[s])} = rhs({at}, [{stage}])",
                  "        except CAUGHT as exc:",
                  "            raise pole(t) from exc",
                  f"        if not ({finite(k[s])}):",
                  f"            raise pole({at})"]
    lines += [f"        {v} = {a} + sixth * ({b1} + 2 * {b2} + 2 * {b3} + {b4})"
              for v, a, b1, b2, b3, b4 in zip(new, y, *k)]
    lines += [f"        if not ({finite(new)}):",
              "            raise pole(t)",
              f"        {unpack(y)} = {unpack(new)}"]
    lines += ["    ys[last + 1 - len(erows):] = yrows",
              "    envs[last + 1 - len(erows):] = erows"]
    ns = {"isfinite": math.isfinite, "real": _real, "LEAVES_DOMAIN": LEAVES_DOMAIN,
          "CAUGHT": caught, "CHUNK": CHUNK}
    exec("\n".join(lines), ns)
    return ns["_loop"]
