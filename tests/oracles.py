"""Independent oracles the tests check the pipeline against.

`evaluate` evaluates an expression tree at one point in IEEE doubles, with
domain guards; it is the reference for `symexpr.compile_fn`.
`bracket` is the canonical Poisson bracket of two expressions, built
symbolically, and `fd_bracket_oracle` approximates it by central
differences of pointwise evaluation; `ComponentFunctions` compiles and evaluates each
expression of a list on its own, which `ocp.PhaseFunction` fuses into one
call and must match bit for bit; `Residual` evaluates
R(F) = dF/dt + {F, H} of a whole candidate expression; `combine` builds the
family map at one parameter vector; `independence_rank_sequential` is the
rank gate projecting one seed at a time; `ldl_solve`, `reference_step` and
`reference_newton` are the generic LDL^T solve, the Newton iteration that
the stage kernels of `ocquad.stage` unroll, and the Newton loop around it;
`ReferenceStages` composes that loop with separately compiled system,
envelope and field into the stage evaluations the kernels must match;
`reference_rk4_step` is the RK4 step that `stage.trajectory_loop` unrolls,
and `reference_trajectory` the loop around it;
`reference_bracket_values` is the bracket tensor as two whole-tensor
einsums, which `poisson.bracket_values` fills row by row;
`reference_add` and `reference_mul` are the canonical sum and product
constructors rebuilding every factor, which `symexpr.add` and
`symexpr.mul` must match; `reference_extract_family` builds, compiles and
evaluates an expression for every nullspace candidate before it prunes,
which `noether.extract_family` must match without building the pruned
ones.  None of them is used by the pipeline.
"""

import math
from fractions import Fraction

import numpy as np

from ocquad import symexpr as sx
from ocquad.kk import PROJECTION_TOL, RANK_POINTS, RANK_SV_TOL, RankEvidence
from ocquad.noether import (_NEAR, FAMILY_TOL, EmptyNullspaceError, Family, FamilyComponent,
                            _finite_matrix, _pivot, independent_columns, rationalize_vector)
from ocquad.ocp import (NEWTON_MAX_ITER, NEWTON_TOL, HamiltonianEvaluator, NewtonDivergenceError,
                        OcpError, _fmt_point, sample_symbols)
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


class ComponentFunctions:
    """Functions F_1..F_k of (x, psi, t, H), each compiled and evaluated on
    its own: `values` is (k, N) and `gradient` (k, 2n+1, N), with dF_i/dH
    times the batch's envelope gradient added where F_i holds H.  The
    interface of `ocp.PhaseFunction`, which compiles all k into one call
    and must give the same arrays bit for bit."""

    def __init__(self, exprs, table):
        self.exprs = tuple(exprs)
        self.table = table
        args = sample_symbols(table) + (HAMILTONIAN_SYMBOL,)
        self._values = [sx.compile_fn(e, args) for e in self.exprs]
        self._gradients = [sx.compile_fn(tuple(sx.differentiate(e, s) for s in args), args)
                           for e in self.exprs]

    def values(self, batch):
        return np.array([np.full(batch.size, fn(*batch.points, batch.hvalue), dtype=float)
                         for fn in self._values]).reshape(len(self.exprs), batch.size)

    def gradient(self, batch):
        out = []
        for e, fn in zip(self.exprs, self._gradients):
            partials = np.array([np.full(batch.size, v, dtype=float)
                                 for v in fn(*batch.points, batch.hvalue)])
            grad = partials[:-1]
            if HAMILTONIAN_SYMBOL in e.free():
                grad += partials[-1] * batch.hgrad
            out.append(grad)
        return np.array(out).reshape(len(self.exprs), -1, batch.size)


class Residual:
    """R(F) = dF/dt + {F, H} for a candidate first integral F, an expression.

    `values` evaluates numerically against either control backend; `symbolic`
    is available only when the reduced Hamiltonian has a closed form.
    """

    def __init__(self, f, th):
        self.th = th
        self.expr = f
        self.func = ComponentFunctions((f,), th.table)

    def symbolic(self):
        if not self.th.is_closed_form:
            return None
        fs = sx.substitute(self.expr, {HAMILTONIAN_SYMBOL: self.th.reduced})
        table = self.th.table
        return sx.add(sx.differentiate(fs, table.time),
                      bracket(fs, self.th.reduced, table))

    def values(self, batch):
        """dF/dt along the flow: the gradient of F against the flow velocity."""
        return (self.func.gradient(batch)[0] * batch.velocity()).sum(axis=0)


def combine(family, weights):
    """The family map at one integer parameter vector, as an expression:
    sum_k weights_k * component_k."""
    assert len(weights) == family.m
    return sx.add(*(sx.mul(sx.num(Fraction(int(w))), c.expr)
                    for w, c in zip(weights, family.components)))


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
    n_sel = len(selection.exprs)
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
            return b, selection.values(b)[:, 0]

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
            jac = selection.gradient(b)[:, :-1, 0]
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
    the control Hessian).  Returns what one iteration of a stage kernel's
    Newton loop does:
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
    (sample rows, controls) and `reference_step` the iteration.  Returns
    what a stage kernel's solve gives: the control, or None where an
    evaluation leaves the real domain or the float range, or the iteration
    fails.  The caller provides the ``np.errstate``."""
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


class ReferenceStages:
    """The stage evaluations of `HamiltonianEvaluator` and `HamiltonianFlow`
    composed from parts: `reference_newton` on a separately compiled Newton
    system, then a separately compiled scalar envelope or field, and the
    field's negation.  `controls` is `prepare`'s solve, from the guess;
    `value_and_gradient` and `rhs` solve from the last solved control, then
    from the guess, like one evaluator and its flow.  The generated stage
    kernels must match it bit for bit, exceptions and messages included."""

    def __init__(self, th):
        self.th = th
        self.rows = sample_symbols(th.table)
        n = th.table.n
        args = self.rows + (() if th.is_closed_form else th.table.controls)
        env = th.envelope
        self.system = (None if th.is_closed_form
                       else sx.compile_fn(th.newton_system, args, scalar=True))
        self.envelope = sx.compile_fn(env, args, scalar=True)
        self.field = sx.compile_fn(env[n + 1:2 * n + 1] + env[1:n + 1], args, scalar=True)
        self.warm = None

    def controls(self, *base):
        return reference_newton(self.system, base, self.th.law.guess)

    def value_and_gradient(self, z, t):
        h, *grad = self._call(self.envelope, [*map(float, z), float(t)])
        return h, grad

    def rhs(self, t, y):
        out = self._call(self.field, [*y, t])
        n = self.th.table.n
        return [*out[:n], *[-g for g in out[n:]]]

    def _call(self, fn, args):
        try:
            if self.system is not None:
                args += self._solve(args)
            return fn(*args)
        except (ArithmeticError, TypeError) as exc:
            what = "overflows" if isinstance(exc, OverflowError) else "leaves the real domain"
            point = dict(zip(self.rows, args))
            raise OcpError(f"Hamiltonian {what} at {_fmt_point(point)}") from None

    def _solve(self, base):
        guess = self.th.law.guess
        for u0 in ((guess,) if self.warm is None else (self.warm, guess)):
            u = reference_newton(self.system, base, u0)
            if u is not None:
                self.warm = u
                return u
        raise NewtonDivergenceError(dict(zip(self.rows, base)))


def reference_rk4_step(rhs, t, y, k1, half, step, sixth):
    """One classical RK4 step as a loop over list comprehensions: `rhs(t, y)`
    is the right-hand side, `y` the state as floats, `k1` its finite first
    stage, `step` the step and `half` and `sixth` its half and sixth.
    Returns the next state as a list, or "k2" to "k4" for the first later
    stage whose right-hand side is not finite, or "y" when the new state is
    not finite.  A stage that raises raises through it."""
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


def reference_trajectory(evaluate, rhs, denominators, y, t0, step, last, caught, pole):
    """The RK4 run that `stage.trajectory_loop` generates, one grid point at a
    time: at grid time ``t0 + step * k`` the pole guard of the compiled
    `denominators`, one `evaluate(y, t)` call, and `reference_rk4_step` on
    `rhs` from k1 = (dH/dpsi, -dH/dx).  Returns the states and the
    (H, gradient) rows of grid points 0 to `last` as lists of lists, or
    raises what the loop must raise: ``pole(time)``, chained to the
    exception in `caught` that `evaluate` or a stage raised, or from None
    where a denominator raises or is not real."""
    n = len(y) // 2
    half, sixth = step / 2, step / 6
    states, rows = [], []
    previous = None
    for k in range(last + 1):
        t = t0 + step * k
        if denominators:
            current = []
            try:
                for d in denominators:
                    value = d(*y, t)
                    if isinstance(value, complex):
                        raise TypeError(f"{value!r} is not real")
                    current.append(float(value))
            except (ArithmeticError, TypeError):
                raise pole(t) from None
            if any(abs(now) < 1e-2 or before * now < 0
                   for before, now in zip(previous or current, current)):
                raise pole(t)
            previous = current
        try:
            h, grad = evaluate(y, t)
        except caught as exc:
            raise pole(t) from exc
        if not all(map(math.isfinite, [h, *grad])):
            raise pole(t)
        states.append(list(y))
        rows.append([h, *grad])
        if k == last:
            break
        try:
            y = reference_rk4_step(rhs, t, y, grad[n:2 * n] + [-g for g in grad[:n]],
                                   half, step, sixth)
        except caught as exc:
            raise pole(t) from exc
        if isinstance(y, str):
            raise pole({"k2": t + half, "k3": t + half, "k4": t + step}.get(y, t))
    return states, rows


def reference_bracket_values(func, batch):
    """The (m, m, N) tensor {F_p, F_q} of the functions of `func` as two
    (m, m, N) einsums: the body that `poisson.bracket_values` must match bit
    for bit."""
    n = func.table.n
    grads = func.gradient(batch)
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


def reference_extract_family(ansatz, basis, th, sampler, tol=FAMILY_TOL, holdout=100):
    """`noether.extract_family` building and compiling an expression for every
    candidate that passes the holdout check, and pruning on the compiled
    values."""
    if not basis:
        raise EmptyNullspaceError("no symmetry found at this ansatz degree")
    hold_batch = sampler.draw(holdout)
    hold_matrix = _finite_matrix(ansatz, hold_batch)
    prelim, pivots = [], []
    for vector in basis:
        chosen = None
        rat = rationalize_vector(vector)
        if rat is not None:
            # rationalize_vector turns every entry within _NEAR of 0 into 0
            support = np.flatnonzero(np.abs(vector) > _NEAR)
            exact = np.zeros(vector.size)
            exact[support] = [float(rat[k]) for k in support]
            r = float(np.abs(hold_matrix @ exact).max())
            if r < tol:
                chosen, rational, resid = rat, True, r
        if chosen is None:
            r = float(np.abs(hold_matrix @ vector).max())
            if r < tol:
                chosen, rational, resid = tuple(vector), False, r
                support = np.flatnonzero(vector)
        if chosen is None:
            continue
        groups = ansatz.group_exprs(chosen, support.tolist())
        expr = sx.simplify(ansatz.family_expr(groups))
        if sx.is_zero(expr):
            continue
        prelim.append(FamilyComponent(
            expr=expr,
            rational=rational,
            holdout_residual=resid,
            generators=ansatz.provenance(groups),
        ))
        pivots.append(_pivot(vector))
    if not prelim:
        raise EmptyNullspaceError("all nullspace candidates failed holdout verification")
    # drop components that are constant functions
    values = ComponentFunctions([c.expr for c in prelim], th.table).values(hold_batch).T
    spread = values.max(axis=0) - values.min(axis=0)
    keepers = sorted(np.flatnonzero(spread > 1e-10).tolist(),
                     key=lambda i: (HAMILTONIAN_SYMBOL in prelim[i].expr.free(), pivots[i]))
    final = [prelim[i] for i in independent_columns(values, keepers)]
    if not final:
        raise EmptyNullspaceError("all candidates pruned as constant or dependent")
    return Family(final, th.table)
