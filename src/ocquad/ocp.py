"""Optimal control problems and their true Hamiltonians.

The Hamiltonian of a problem with running cost L and dynamics phi is
``H = -L + psi . phi``.  Eliminating the control through the stationarity
condition ``dH/du = 0`` yields the reduced (true) Hamiltonian, either as a
closed-form expression or, when the stationarity system is not symbolically
invertible, as a pointwise Newton solve.  Both backends expose the same
interface: values and the envelope gradient of the reduced Hamiltonian over
``(x, psi, t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import symexpr as sx
from .symexpr import (
    HAMILTONIAN_SYMBOL,
    Expr,
    Role,
    Symbol,
    SymbolTable,
)

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-12
DENOMINATOR_CLEARANCE = 0.1


class OcpError(Exception):
    pass


class NotAffineInControlError(OcpError):
    """Stationarity is not affine in u with an invertible diagonal coefficient;
    the problem file must supply a control law (closed-form or a Newton guess)."""


class SingularControlHessianError(OcpError):
    pass


class InvalidControlLawError(OcpError):
    pass


class NewtonDivergenceError(OcpError):
    def __init__(self, point):
        super().__init__(f"control Newton solve diverged at {_fmt_point(point)}")
        self.point = point


class SingularHessianAtError(OcpError):
    def __init__(self, point):
        super().__init__(f"control Hessian not negative definite at {_fmt_point(point)}")
        self.point = point


class SamplerStarvationError(OcpError):
    pass


def _fmt_point(point: dict) -> str:
    return "{" + ", ".join(f"{s.name}={v:.4g}" for s, v in point.items()) + "}"


@dataclass(frozen=True)
class Problem:
    """An optimal control problem with all parameter values already bound."""

    name: str
    table: SymbolTable
    lagrangian: Expr
    dynamics: tuple[Expr, ...]
    parameters: dict[str, Fraction] = field(default_factory=dict)
    sampling_box: dict[Symbol, tuple[float, float]] = field(default_factory=dict)
    excluded_denominators: tuple[Expr, ...] = ()
    control_law: tuple[Expr, ...] | None = None
    control_guess: tuple[float, ...] | None = None
    k_u: int = 0

    def __post_init__(self):
        n = self.table.n
        if len(self.dynamics) != n:
            raise OcpError(f"{len(self.dynamics)} dynamics for {n} states")
        costates = set(self.table.costates)
        for label, e in [("lagrangian", self.lagrangian)] + [
                (f"dynamics[{i}]", d) for i, d in enumerate(self.dynamics)]:
            if sx.free_symbols(e) & costates:
                raise OcpError(f"{label} must not mention costates")
        sampled = set(self.table.phase) | {self.table.time}
        missing = sampled - set(self.sampling_box)
        if missing:
            raise OcpError("sampling box misses " + ", ".join(sorted(s.name for s in missing)))
        controls = set(self.table.controls)
        for e in self.excluded_denominators:
            if sx.free_symbols(e) & controls:
                raise OcpError("excluded denominators may not depend on controls")
        if self.control_law is not None and len(self.control_law) != self.table.m_ctl:
            raise OcpError("control law must give one expression per control")

    def guess_vector(self) -> np.ndarray:
        if self.control_guess is not None:
            return np.asarray(self.control_guess, dtype=float)
        return np.zeros(self.table.m_ctl)


@dataclass(frozen=True)
class ClosedFormLaw:
    """u_bar(x, psi, t) solving the stationarity condition in closed form."""

    expressions: tuple[Expr, ...]


@dataclass(frozen=True)
class ImplicitLaw:
    """Stationarity solved pointwise by damped Newton from a fixed guess."""

    guess: tuple[float, ...]


def build_hamiltonian(problem: Problem) -> Expr:
    """H(x, u, psi, t) = -L + sum_i psi_i * phi_i."""
    terms = [sx.negate(problem.lagrangian)]
    for psi, phi in zip(problem.table.costates, problem.dynamics):
        terms.append(sx.mul(sx.symref(psi), phi))
    return sx.add(*terms)


def solve_stationarity(problem: Problem, hamiltonian: Expr):
    """Solve dH/du = 0 for u when it is affine with a u-free diagonal matrix.

    Returns a ClosedFormLaw, or passes through a user-supplied law from the
    problem file.  Raises NotAffineInControlError when symbolic elimination is
    out of reach, which signals the caller to fall back to the implicit
    backend.
    """
    if problem.control_law is not None:
        return ClosedFormLaw(problem.control_law)
    controls = problem.table.controls
    control_set = set(controls)
    grads = [sx.differentiate(hamiltonian, u) for u in controls]
    diag = []
    for j, gj in enumerate(grads):
        for k, uk in enumerate(controls):
            m_jk = sx.differentiate(gj, uk)
            if sx.free_symbols(m_jk) & control_set:
                raise NotAffineInControlError(
                    f"dH/d{controls[j].name} is not affine in the controls")
            if j != k and not sx.is_symbolically_zero(m_jk):
                raise NotAffineInControlError(
                    "stationarity couples controls; supply a control law")
            if j == k:
                if sx.is_symbolically_zero(m_jk):
                    raise SingularControlHessianError(
                        f"d2H/d{controls[j].name}^2 vanishes identically")
                diag.append(m_jk)
    zeros = {u: sx.ZERO for u in controls}
    law = []
    for gj, m_jj in zip(grads, diag):
        g0 = sx.substitute(gj, zeros)
        law.append(sx.negate(sx.divide(g0, m_jj)))
    for gj in grads:
        resub = sx.substitute(gj, dict(zip(controls, law)))
        if not sx.is_symbolically_zero(resub):
            raise SingularControlHessianError(
                "eliminated control does not satisfy stationarity symbolically")
    return ClosedFormLaw(tuple(law))


@dataclass(frozen=True)
class TrueHamiltonian:
    """The control-eliminated Hamiltonian of a problem."""

    problem: Problem
    hamiltonian: Expr
    law: ClosedFormLaw | ImplicitLaw
    reduced: Expr | None
    k_u: int = 0

    @property
    def is_closed_form(self) -> bool:
        return isinstance(self.law, ClosedFormLaw)

    @property
    def table(self) -> SymbolTable:
        return self.problem.table

    @cached_property
    def envelope(self) -> tuple[Expr, ...]:
        """(H, dH/dx_1, .., dH/dpsi_n, dH/dt): the reduced Hamiltonian and its
        partials over the sample rows.  On the implicit backend H is the full
        Hamiltonian and the partials are taken at fixed controls."""
        h = self.reduced if self.is_closed_form else self.hamiltonian
        return (h,) + tuple(sx.differentiate(h, s) for s in sample_symbols(self.table))

    @cached_property
    def control_derivatives(self) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
        """(dH/du_j, d2H/du_j du_k row-major) for the implicit backend's Newton step."""
        controls = self.table.controls
        grads = tuple(sx.differentiate(self.hamiltonian, u) for u in controls)
        return grads, tuple(sx.differentiate(g, u) for g in grads for u in controls)

    def evaluator(self) -> "HamiltonianEvaluator":
        return HamiltonianEvaluator(self)

    def flow(self) -> "HamiltonianFlow":
        return HamiltonianFlow(self)


def true_hamiltonian(problem: Problem, hamiltonian: Expr | None = None,
                     law=None, backend: str = "auto") -> TrueHamiltonian:
    """Build the true Hamiltonian, choosing or forcing a control backend."""
    h = hamiltonian if hamiltonian is not None else build_hamiltonian(problem)
    if law is None:
        if backend == "implicit":
            law = ImplicitLaw(tuple(problem.guess_vector()))
        else:
            try:
                law = solve_stationarity(problem, h)
            except NotAffineInControlError:
                if backend == "closed":
                    raise
                law = ImplicitLaw(tuple(problem.guess_vector()))
    if isinstance(law, ClosedFormLaw):
        for e in law.expressions:
            if sx.free_symbols(e) & set(problem.table.controls):
                raise InvalidControlLawError("closed-form law must be control-free")
        bindings = dict(zip(problem.table.controls, law.expressions))
        reduced = sx.expand(sx.substitute(h, bindings))
        if sx.free_symbols(reduced) & set(problem.table.controls):
            raise InvalidControlLawError("reduced Hamiltonian still mentions controls")
        return TrueHamiltonian(problem, h, law, reduced, k_u=problem.k_u)
    return TrueHamiltonian(problem, h, law, None, k_u=problem.k_u)


def sample_symbols(table: SymbolTable) -> tuple[Symbol, ...]:
    """Row order of every sample array: x_1..x_n, psi_1..psi_n, t."""
    return table.phase + (table.time,)


def sample_row(table: SymbolTable, sym: Symbol) -> int:
    """Row of `sym` in a sample array."""
    return sample_symbols(table).index(sym)


def _stacked(fn, args, count: int) -> np.ndarray:
    """(k, count) values of a compiled function returning a k-tuple; constants
    broadcast."""
    values = fn(*args)
    out = np.empty((len(values), count))
    for row, v in zip(out, values):
        row[:] = v
    return out


class SampleBatch:
    """Sample points plus the true-Hamiltonian envelope data.

    `points` and `hgrad` are (2n+1, N) arrays whose rows follow
    ``table.phase + (table.time,)``; `hvalue` is (N,), and `controls` is the
    (N, m) solved control of the implicit backend.
    """

    def __init__(self, table: SymbolTable, points: np.ndarray, hvalue: np.ndarray,
                 hgrad: np.ndarray, controls: np.ndarray | None = None):
        self.table = table
        self.points = points
        self.hvalue = hvalue
        self.hgrad = hgrad
        self.controls = controls

    @property
    def size(self) -> int:
        return len(self.hvalue)

    def column(self, sym: Symbol) -> np.ndarray:
        if sym is HAMILTONIAN_SYMBOL:
            return self.hvalue
        return self.points[sample_row(self.table, sym)]

    def point(self, i: int) -> dict[Symbol, float]:
        return dict(zip(sample_symbols(self.table), self.points[:, i].tolist()))

    def velocity(self) -> np.ndarray:
        """(2n+1, N) rates of the sample rows along the Hamiltonian flow:
        xdot = dH/dpsi, psidot = -dH/dx, tdot = 1."""
        n = self.table.n
        return np.vstack([self.hgrad[n:2 * n], -self.hgrad[:n], np.ones((1, self.size))])

    def take(self, index) -> "SampleBatch":
        """The points picked by a boolean mask or a slice."""
        ctl = self.controls[index] if self.controls is not None else None
        return SampleBatch(self.table, self.points[:, index], self.hvalue[index],
                           self.hgrad[:, index], ctl)

    def concat(self, other: "SampleBatch") -> "SampleBatch":
        ctl = None
        if self.controls is not None and other.controls is not None:
            ctl = np.vstack([self.controls, other.controls])
        return SampleBatch(self.table, np.hstack([self.points, other.points]),
                           np.concatenate([self.hvalue, other.hvalue]),
                           np.hstack([self.hgrad, other.hgrad]), ctl)


class HamiltonianEvaluator:
    """Values and envelope gradient of the reduced Hamiltonian over (x, psi, t).

    With a closed-form law the gradient comes from compiled symbolic partials
    of the reduced expression.  With an implicit law, each point gets a damped
    Newton solve of dH/du = 0 (negative-definite control Hessian enforced) and
    the gradient is the envelope gradient of H at the solved control.  The
    value and the whole gradient are one compiled call, `_envelope`, on both
    paths; so are the Newton gradient and the Newton Hessian.
    """

    def __init__(self, th: TrueHamiltonian):
        self.th = th
        self._grad_syms = sample_symbols(th.table)
        args = self._grad_syms + (() if th.is_closed_form else th.table.controls)
        self._envelope = sx.compile_fn(th.envelope, args)
        if not th.is_closed_form:
            grads_u, hess_u = th.control_derivatives
            self._newton_grad = sx.compile_fn(grads_u, args)
            self._newton_hess = sx.compile_fn(hess_u, args)
            self._guess = np.asarray(th.law.guess, dtype=float)
            self._warm: np.ndarray | None = None

    # ---- batch path --------------------------------------------------------
    def prepare(self, points: np.ndarray):
        """Evaluate the envelope over a (2n+1, N) array of sample points.

        Returns (batch, keep) where `keep` marks the input columns that
        survived (implicit-backend Newton failures and non-finite evaluations
        drop out).
        """
        n_pts = points.shape[1]
        args = list(points)
        keep = np.ones(n_pts, dtype=bool)
        u_sol = None
        if not self.th.is_closed_form:
            u_sol, keep = self._newton_batch(args, n_pts)
            args += list(u_sol.T)
        with np.errstate(all="ignore"):
            env = _stacked(self._envelope, args, n_pts)
        keep &= np.isfinite(env).all(axis=0)
        return SampleBatch(self.th.table, points, env[0], env[1:], u_sol).take(keep), keep

    def _hessians(self, args, n_pts) -> np.ndarray:
        """(N, m, m) control Hessians of H."""
        m = self.th.table.m_ctl
        flat = _stacked(self._newton_hess, args, n_pts)
        return flat.reshape(m, m, n_pts).transpose(2, 0, 1)

    def _newton_batch(self, base, n_pts):
        m = self.th.table.m_ctl
        u = np.tile(self._guess, (n_pts, 1))
        ok = np.ones(n_pts, dtype=bool)
        if m == 0:
            return u, ok
        converged = np.zeros(n_pts, dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            with np.errstate(all="ignore"):
                g = _stacked(self._newton_grad, base + list(u.T), n_pts).T
            finite = np.isfinite(g).all(axis=1)
            ok &= finite | converged
            converged = converged | (ok & (np.abs(g).max(axis=1) < NEWTON_TOL))
            active = ok & ~converged
            if not active.any():
                break
            with np.errstate(all="ignore"):
                hess = self._hessians(base + list(u.T), n_pts)
            hess_ok = np.isfinite(hess).all(axis=(1, 2))
            ok &= hess_ok | converged
            active &= hess_ok
            if not active.any():
                continue
            step = np.zeros_like(u)
            try:
                step[active] = np.linalg.solve(hess[active], g[active, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                for i in np.nonzero(active)[0]:
                    try:
                        step[i] = np.linalg.solve(hess[i], g[i])
                    except np.linalg.LinAlgError:
                        ok[i] = False
                        active[i] = False
            step = np.clip(step, -2.0, 2.0)
            u = np.where(active[:, None], u - step, u)
            bounded = np.abs(u).max(axis=1) < 1e6
            ok &= bounded | converged
        ok &= converged
        if ok.any():
            with np.errstate(all="ignore"):
                hess = self._hessians(base + list(u.T), n_pts)
            sym = 0.5 * (hess + np.swapaxes(hess, 1, 2))
            bad = np.zeros(n_pts, dtype=bool)
            idx = np.nonzero(ok)[0]
            eig = np.linalg.eigvalsh(sym[idx])
            bad[idx] = eig.max(axis=1) >= 0.0
            ok &= ~bad
        return u, ok

    # ---- scalar path -------------------------------------------------------
    def value_and_gradient(self, z, t: float):
        """(H, (2n+1,) gradient over x, psi, t) at the phase point z and time
        t; the implicit backend's Newton solve is warm-started."""
        args = [*map(float, z), float(t)]
        if not self.th.is_closed_form:
            args += list(self._newton_point(args))
        env = self._envelope(*args)
        return float(env[0]), np.array(env[1:], dtype=float)

    def solve_control(self, z, t: float) -> np.ndarray:
        args = [*map(float, z), float(t)]
        if self.th.is_closed_form:
            bindings = dict(zip(self._grad_syms, args))
            return np.array([sx.evaluate(e, bindings) for e in self.th.law.expressions])
        return self._newton_point(args)

    def _newton_point(self, base) -> np.ndarray:
        starts = [self._warm] if self._warm is not None else []
        starts.append(self._guess)
        for u0 in starts:
            u = self._newton_damped(base, np.array(u0, dtype=float))
            if u is not None:
                self._warm = u.copy()
                return u
        raise NewtonDivergenceError(dict(zip(self._grad_syms, base)))

    def _newton_damped(self, base, u):
        def norm(vec):
            return np.abs(vec).max() if len(vec) else 0.0

        m = len(u)

        def hessian(u):
            return np.array(self._newton_hess(*base, *u), dtype=float).reshape(m, m)

        with np.errstate(all="ignore"):
            g = np.array(self._newton_grad(*base, *u), dtype=float)
        if not np.isfinite(g).all():
            return None
        for _ in range(NEWTON_MAX_ITER):
            if norm(g) < NEWTON_TOL:
                hess = hessian(u)
                sym = 0.5 * (hess + hess.T)
                if not np.isfinite(sym).all() or np.linalg.eigvalsh(sym).max() >= 0.0:
                    raise SingularHessianAtError(dict(zip(self._grad_syms, base)))
                return u
            with np.errstate(all="ignore"):
                hess = hessian(u)
            if not np.isfinite(hess).all():
                return None
            try:
                step = np.linalg.solve(hess, g)
            except np.linalg.LinAlgError:
                return None
            lam, improved = 1.0, False
            while lam > 1e-6:
                cand = u - lam * step
                with np.errstate(all="ignore"):
                    g_cand = np.array(self._newton_grad(*base, *cand), dtype=float)
                if np.isfinite(g_cand).all() and norm(g_cand) < norm(g):
                    u, g, improved = cand, g_cand, True
                    break
                lam *= 0.5
            if not improved:
                return None
        return None


class PhaseFunction:
    """A function of (x, psi, t) whose expression may reference the reduced
    Hamiltonian through the placeholder symbol ``H``.

    Values and (chain-ruled) gradients are evaluated against a SampleBatch, so
    the same object works with both control backends.
    """

    def __init__(self, expr: Expr, table: SymbolTable):
        self.expr = expr
        self.table = table
        self.has_hamiltonian = HAMILTONIAN_SYMBOL in sx.free_symbols(expr)
        self._args = sample_symbols(table) + (HAMILTONIAN_SYMBOL,)
        self._value_fn = sx.compile_fn(expr, self._args)

    @cached_property
    def _gradient_fn(self):
        """The partials over the sample rows, then dF/dH, as one compiled call.

        Built on the first `gradient` call: most candidates of a family search
        are only ever evaluated.
        """
        return sx.compile_fn(
            tuple(sx.differentiate(self.expr, s) for s in self._args), self._args)

    def values(self, batch: SampleBatch) -> np.ndarray:
        return np.full(batch.size, self._value_fn(*batch.points, batch.hvalue), dtype=float)

    def gradient(self, batch: SampleBatch) -> np.ndarray:
        """(2n+1, N) gradient over the sample rows."""
        stacked = _stacked(self._gradient_fn, (*batch.points, batch.hvalue), batch.size)
        out = stacked[:-1]
        if self.has_hamiltonian:
            out += stacked[-1] * batch.hgrad
        return out

    def to_symbolic(self, th: TrueHamiltonian) -> Expr:
        """Substitute the closed-form reduced Hamiltonian for the placeholder."""
        if not self.has_hamiltonian:
            return self.expr
        if not th.is_closed_form:
            raise OcpError("no closed form available for the Hamiltonian placeholder")
        return sx.substitute(self.expr, {HAMILTONIAN_SYMBOL: th.reduced})

    def __repr__(self) -> str:
        return f"PhaseFunction({sx.to_string(self.expr)})"


class HamiltonianFlow:
    """Right-hand side of xdot = dH/dpsi, psidot = -dH/dx."""

    def __init__(self, th: TrueHamiltonian):
        self.th = th
        self.evaluator = th.evaluator()
        n = th.table.n
        # gradient rows giving (xdot, psidot), and their signs
        self._rows = np.r_[n:2 * n, :n]
        self._signs = np.repeat([1.0, -1.0], n)
        self.symbolic = None
        if th.is_closed_form:
            partials = th.envelope[1:]
            self.symbolic = {
                "xdot": partials[n:2 * n],
                "psidot": tuple(sx.negate(d) for d in partials[:n]),
            }

    def rhs(self, t: float, y) -> np.ndarray:
        _, grad = self.evaluator.value_and_gradient(y, t)
        return grad[self._rows] * self._signs


def autonomize(th: TrueHamiltonian):
    """K(x, psi, theta, t) = reduced H - theta over the table extended with theta.

    Along the extended flow theta follows dH/dt, so K is conserved even for
    time-dependent problems.
    """
    if not th.is_closed_form:
        raise OcpError("autonomization needs a closed-form reduced Hamiltonian")
    theta = Symbol("theta", Role.AUTONOMIZATION)
    extended = th.table.extended(theta)
    k = sx.add(th.reduced, sx.negate(sx.symref(theta)))
    return k, extended


class PointSampler:
    """Uniform draws from the problem's sampling box.

    Points where an excluded denominator comes within 0.1 of zero are
    rejected, as are points the implicit backend cannot solve.
    """

    def __init__(self, problem: Problem, evaluator: HamiltonianEvaluator,
                 rng: np.random.Generator):
        self.problem = problem
        self.evaluator = evaluator
        self.rng = rng
        syms = sample_symbols(problem.table)
        self._bounds = [problem.sampling_box[s] for s in syms]
        self._denoms = [sx.compile_fn(d, syms) for d in problem.excluded_denominators]

    def draw(self, count: int) -> SampleBatch:
        got: SampleBatch | None = None
        attempts = 0
        while got is None or got.size < count:
            missing = count - (0 if got is None else got.size)
            attempts += missing
            if attempts > 200 * count + 1000:
                raise SamplerStarvationError(
                    f"could not find {count} admissible points in {attempts} draws")
            raw = np.array([self.rng.uniform(lo, hi, size=max(missing, 8))
                            for lo, hi in self._bounds])
            mask = np.ones(raw.shape[1], dtype=bool)
            with np.errstate(all="ignore"):
                for d in self._denoms:
                    mask &= np.abs(np.asarray(d(*raw), dtype=float)) >= DENOMINATOR_CLEARANCE
            if not mask.any():
                continue
            batch, _ = self.evaluator.prepare(raw[:, mask])
            got = batch if got is None else got.concat(batch)
        return got.take(slice(count))

    def draw_point(self) -> np.ndarray:
        """One admissible point as a (2n+1,) vector in sample-row order."""
        return self.draw(1).points[:, 0]
