"""Independent oracles the tests check the pipeline against.

`evaluate` evaluates an expression tree at one point in IEEE doubles, with
domain guards; it is the reference for `symexpr.compile_fn`.
`bracket` is the canonical Poisson bracket of two expressions, built
symbolically, and `fd_bracket_oracle` approximates it by central
differences of pointwise evaluation; `Residual` evaluates
R(F) = dF/dt + {F, H} of a whole candidate expression; `combine` builds the
family map at one parameter vector; `independence_rank_sequential` is the
rank gate projecting one seed at a time; `ldl_solve`, `reference_step` and
`reference_newton` are the generic LDL^T solve, the Newton iteration that
`ocp._newton_kernel` unrolls, and the Newton loop around it;
`reference_rk4_step` is the RK4 step that `verify._rk4_step` unrolls;
`reference_bracket_values` is the bracket tensor as two whole-tensor
einsums, which `poisson.bracket_values` fills row by row;
`reference_add` and `reference_mul` are the canonical sum and product
constructors rebuilding every factor, which `symexpr.add` and
`symexpr.mul` must match.  None of them is used by the pipeline.
"""

import math
from fractions import Fraction

import numpy as np

from ocquad import symexpr as sx
from ocquad.kk import PROJECTION_TOL, RANK_POINTS, RANK_SV_TOL, RankEvidence
from ocquad.ocp import NEWTON_MAX_ITER, NEWTON_TOL, HamiltonianEvaluator, PhaseFunction
from ocquad.symexpr import HAMILTONIAN_SYMBOL, Expr, SymbolTable

_TAN_POLE_GUARD = 1e-9


class DomainError(sx.EvaluationError):
    pass


class PoleError(sx.EvaluationError):
    pass


def evaluate(e: Expr, point) -> float:
    """Pointwise IEEE-double evaluation with domain guards."""
    if e.is_constant:
        return float(e.value)
    if e.is_symbol:
        try:
            return float(point[e.symbol])
        except KeyError:
            raise sx.UnboundSymbolError(f"symbol {e.symbol.name!r} is unbound") from None
    if e.is_sum:
        return math.fsum(evaluate(c, point) for c in e.terms)
    if e.is_product:
        out = 1.0
        for c in e.factors:
            out *= evaluate(c, point)
        return out
    if e.is_power:
        b = evaluate(e.base, point)
        exp = e.exponent
        if b == 0.0 and exp < 0:
            raise sx.DivisionByZeroError("division by zero")
        if exp.denominator == 1:
            return b ** exp.numerator
        if b < 0.0:
            raise DomainError("fractional power of a negative base")
        return b ** float(exp)
    arg = evaluate(e.children[0], point)
    name = e.value
    if name == "sin":
        return math.sin(arg)
    if name == "cos":
        return math.cos(arg)
    if name == "tan":
        if abs(math.cos(arg)) < _TAN_POLE_GUARD:
            raise PoleError(f"tan evaluated within {_TAN_POLE_GUARD} of a pole")
        return math.tan(arg)
    if name == "exp":
        return math.exp(arg)
    if arg <= 0.0:
        raise DomainError("ln of a non-positive value")
    return math.log(arg)


def bracket(f: Expr, g: Expr, table: SymbolTable) -> Expr:
    """Canonical Poisson bracket of two plain expressions."""
    terms = []
    for x, p in zip(table.states, table.costates):
        terms.append(sx.mul(sx.differentiate(f, x), sx.differentiate(g, p)))
        terms.append(sx.negate(sx.mul(sx.differentiate(f, p), sx.differentiate(g, x))))
    return sx.add(*terms)


def fd_bracket_oracle(f, g, table, point, h=1e-5):
    """Central-difference approximation of the canonical Poisson bracket."""

    def partial(e, s):
        up, dn = dict(point), dict(point)
        up[s] = point[s] + h
        dn[s] = point[s] - h
        return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)

    total = 0.0
    for x, p in zip(table.states, table.costates):
        total += partial(f, x) * partial(g, p) - partial(f, p) * partial(g, x)
    return total


class Residual:
    """R(F) = dF/dt + {F, H} for a candidate first integral.

    `values` evaluates numerically against either control backend; `symbolic`
    is available only when the reduced Hamiltonian has a closed form.
    """

    def __init__(self, f, th):
        self.th = th
        self.func = f if isinstance(f, PhaseFunction) else PhaseFunction(f, th.table)

    def symbolic(self):
        if not self.th.is_closed_form:
            return None
        fs = sx.substitute(self.func.expr, {HAMILTONIAN_SYMBOL: self.th.reduced})
        table = self.th.table
        return sx.add(sx.differentiate(fs, table.time),
                      bracket(fs, self.th.reduced, table))

    def values(self, batch):
        """dF/dt along the flow: the gradient of F against the flow velocity."""
        return (self.func.gradient(batch) * batch.velocity()).sum(axis=0)


def combine(family, weights):
    """The family map at one integer parameter vector:
    sum_k weights_k * component_k."""
    assert len(weights) == family.m
    expr = sx.add(*(sx.mul(sx.num(Fraction(int(w))), c.function.expr)
                    for w, c in zip(weights, family.components)))
    return PhaseFunction(expr, family.components[0].function.table)


def independence_rank_sequential(selection, r_basis, sampler):
    """The rank gate one seed at a time: the 4 * RANK_POINTS seeds of one
    `sampler.draw` are read in draw order until RANK_POINTS converge, and
    each is Gauss-Newton projected on its own, with a per-point
    `np.linalg.lstsq` step, before the next is read.  `kk.independence_rank`
    projects the same seeds as one batch; it must give the same evidence in
    the same order and the same skip count.  This one evaluates every point
    again, through an evaluator of its own."""
    seeds = sampler.draw(4 * RANK_POINTS).points
    evaluator = HamiltonianEvaluator(sampler.evaluator.th)
    n_sel = len(selection)
    r_mat = np.array([[float(v) for v in row] for row in r_basis]).T \
        if r_basis else np.zeros((n_sel, 0))
    evidence = []
    skipped = 0
    attempts = 0
    while len(evidence) < RANK_POINTS and attempts < 4 * RANK_POINTS:
        z, t_val = seeds[:-1, attempts], seeds[-1, attempts]
        attempts += 1

        def values_at(zv):
            """(batch, selection values) at (zv, t_val), or (None, None)."""
            b, keep = evaluator.prepare(np.append(zv, t_val)[:, None])
            if not keep.all():
                return None, None
            return b, np.array([f.values(b)[0] for f in selection])

        b, vals = values_at(z)
        if b is None:
            skipped += 1
            continue
        if r_mat.shape[1]:
            proj, *_ = np.linalg.lstsq(r_mat, vals, rcond=None)
            target = r_mat @ proj
        else:
            target = np.zeros(n_sel)
        ok = False
        jac = None
        for it in range(50):
            if it:  # the seed's batch and values serve the first step
                b, vals = values_at(z)
            if b is None or np.abs(z).max() > 1e3:
                break
            jac = np.array([f.gradient(b)[:-1, 0] for f in selection])
            resid = vals - target
            if np.abs(resid).max() < PROJECTION_TOL:
                ok = True
                break
            step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
            if not np.isfinite(step).all():
                break
            z = z - step
        if not ok:
            skipped += 1
            continue
        sv = np.linalg.svd(jac, compute_uv=False)
        rank = int((sv > RANK_SV_TOL * sv[0]).sum()) if sv[0] > 0 else 0
        evidence.append(RankEvidence(
            point={s.name: v for s, v in b.point(0).items()}, rank=rank))
    return evidence, skipped


def ldl_solve(lower, rhs):
    """Solve A s = rhs for the symmetric m x m matrix A whose lower triangle
    `lower` lists row by row (A_11, A_21, A_22, A_31, ..), on Python floats.

    A = L D L^T without pivoting.  Returns (s, negative_definite), or None when
    a pivot is zero or not finite.  By Sylvester's criterion A is negative
    definite exactly when every pivot is below 0.
    """
    m = len(rhs)
    rows, pivots, y = [], [], []     # L below the diagonal, D, and L^-1 rhs
    for i in range(m):
        a = lower[i * (i + 1) // 2:]
        row = []
        for j in range(i):
            s = a[j]
            for p in range(j):
                s -= row[p] * rows[j][p] * pivots[p]
            row.append(s / pivots[j])
        d, s = a[i], rhs[i]
        for p in range(i):
            d -= row[p] * row[p] * pivots[p]
            s -= row[p] * y[p]
        if d == 0 or not math.isfinite(d):
            return None
        rows.append(row)
        pivots.append(d)
        y.append(s)
    x = [0.0] * m
    for i in reversed(range(m)):
        s = y[i] / pivots[i]
        for p in range(i + 1, m):
            s -= rows[p][i] * x[p]
        x[i] = s
    return x, all(d < 0 for d in pivots)


def reference_step(out, u):
    """One pass of the reference Newton loop: `out` is the compiled
    `newton_system` at the control `u` (g_1..g_m, then the lower triangle of
    the control Hessian).  Returns what `ocp._newton_kernel(m)` must return:
    None on a non-finite entry or a broken-down pivot; whether the Hessian is
    negative definite once every |g_i| is below NEWTON_TOL; else the clipped
    update, or None when some |u_i| reaches 1e6."""
    m = len(u)
    if not all(map(math.isfinite, out)):
        return None
    solved = ldl_solve(out[m:], out[:m])
    if solved is None:
        return None
    step, negative_definite = solved
    if all(abs(g) < NEWTON_TOL for g in out[:m]):
        return negative_definite
    u = [a - min(max(s, -2.0), 2.0) for a, s in zip(u, step)]
    return u if all(abs(a) < 1e6 for a in u) else None


def reference_newton(newton_fn, base, u):
    """dH/du = 0 at the sample point `base` by Newton from the control `u`,
    with `newton_fn` the compiled `TrueHamiltonian.newton_system` over
    (sample rows, controls) and `reference_step` the iteration.  Returns what
    `HamiltonianEvaluator._newton` must return: the control, or None."""
    with np.errstate(all="ignore"):
        try:
            for _ in range(NEWTON_MAX_ITER):
                new = reference_step(newton_fn(*base, *u), u)
                if isinstance(new, bool):
                    return u if new else None
                if new is None:
                    return None
                u = new
        except (ArithmeticError, TypeError):
            return None
    return None


def reference_rk4_step(rhs, t, y, k1, half, step, sixth):
    """One classical RK4 step as a loop over list comprehensions: `rhs(t, y)`
    is the right-hand side, `y` the state as floats, `k1` its finite first
    stage, `step` the step and `half` and `sixth` its half and sixth.
    Returns what `verify._rk4_step(d)` must return: the next state as a
    list, or "k2" to "k4" for the first later stage whose right-hand side is
    not finite, or "y" when the new state is not finite.  A stage that
    raises raises through it."""
    k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
    if not all(map(math.isfinite, k2)):
        return "k2"
    k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
    if not all(map(math.isfinite, k3)):
        return "k3"
    k4 = rhs(t + step, [a + step * b for a, b in zip(y, k3)])
    if not all(map(math.isfinite, k4)):
        return "k4"
    new = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
           for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return new if all(map(math.isfinite, new)) else "y"


def reference_bracket_values(funcs, batch):
    """The (m, m, N) tensor {F_p, F_q} as two (m, m, N) einsums: the body that
    `poisson.bracket_values` must match bit for bit."""
    n = funcs[0].table.n
    grads = np.stack([f.gradient(batch) for f in funcs])
    gx = np.ascontiguousarray(grads[:, :n])
    gp = np.ascontiguousarray(grads[:, n:2 * n])
    out = np.einsum("pin,qin->pqn", gx, gp)
    out -= np.einsum("pin,qin->pqn", gp, gx)
    return out


def reference_add(*terms):
    """`symexpr.add` splitting each term into a coefficient and a rest
    expression, and putting a coefficient back on with `reference_mul`."""
    const = Fraction(0)
    buckets = {}
    stack = [sx._as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if t.is_sum:
            stack.extend(reversed(t.terms))
            continue
        c, rest = sx._coeff_rest(t)
        if rest is None:
            const += c
        else:
            buckets[rest] = buckets.get(rest, Fraction(0)) + c
    out = [rest if c == 1 else reference_mul(sx.num(c), rest)
           for rest, c in buckets.items() if c != 0]
    if const != 0 or not out:
        out.append(sx.num(const))
    if len(out) == 1:
        return out[0]
    out.sort(key=Expr.sort_key)
    return Expr(sx._ADD, None, tuple(out))


def reference_mul(*factors):
    """`symexpr.mul` rebuilding every factor as power(base, summed exponent)."""
    coeff = Fraction(1)
    bases = {}
    stack = [sx._as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if f.is_product:
            stack.extend(reversed(f.factors))
        elif f.is_constant:
            coeff *= f.value
        elif f.is_power:
            bases[f.base] = bases.get(f.base, Fraction(0)) + f.exponent
        else:
            bases[f] = bases.get(f, Fraction(0)) + 1
    if coeff == 0:
        return sx.ZERO
    out = []
    for base, exp in bases.items():
        p = sx.power(base, exp)
        if p.is_constant:
            coeff *= p.value
        else:
            out.append(p)
    if not out:
        return sx.num(coeff)
    if len(out) == 1 and coeff == 1:
        return out[0]
    out.sort(key=Expr.sort_key)
    if coeff != 1:
        out.insert(0, sx.num(coeff))
    return Expr(sx._MUL, None, tuple(out))
