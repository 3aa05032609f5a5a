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
from functools import cached_property, partial

import numpy as np

from . import symexpr as sx
from .stage import stage_kernel, trajectory_loop
from .symexpr import (
    HAMILTONIAN_SYMBOL,
    Expr,
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


class SamplerStarvationError(OcpError):
    pass


def _fmt_point(point: dict) -> str:
    return "{" + ", ".join(f"{s.name}={v:.4g}" for s, v in point.items()) + "}"


@dataclass(frozen=True)
class Problem:
    """An optimal control problem with all parameter values already bound.

    A plain record: `problems.load_problem` builds it and makes every check
    on it, among them that L and phi are free of costates and that a
    supplied control law and the excluded denominators are free of controls.
    """

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
            if m_jk.free() & control_set:
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
    def semidefinite(self) -> bool:
        """Whether the reduced H is (1/2) sum_j u_j*^2 over the closed-form law
        u*, by `sx.is_symbolically_zero`.  Then H >= 0, and dH = sum_j u_j* du_j*
        vanishes wherever H = 0.  False on the implicit backend, and a False
        is not a proof of the contrary."""
        if not self.is_closed_form:
            return False
        half_sum = sx.mul(sx.num(Fraction(-1, 2)),
                          sx.add(*(sx.power(u, 2) for u in self.law.expressions)))
        return sx.is_symbolically_zero(sx.add(self.reduced, half_sum))

    @cached_property
    def newton_system(self) -> tuple[Expr, ...]:
        """(dH/du_1, .., dH/du_m, then the lower triangle of d2H/du^2 row by
        row: H_11, H_21, H_22, H_31, ..) for the implicit backend's Newton step."""
        controls = self.table.controls
        grads = tuple(sx.differentiate(self.hamiltonian, u) for u in controls)
        return grads + tuple(sx.differentiate(grads[i], controls[j])
                             for i in range(len(controls)) for j in range(i + 1))

    @cached_property
    def control_kernel(self):
        """`k(x_1, .., psi_n, t)`: the control `prepare` solves at a sample
        point, by Newton from the guess, or None.  Implicit backend only."""
        return self._stage_kernel("controls", ())

    @cached_property
    def envelope_kernel(self):
        """`k(evaluator, z, t)`: `HamiltonianEvaluator.value_and_gradient`."""
        return self._stage_kernel("envelope", self.envelope)

    @cached_property
    def field_kernel(self):
        """`k(evaluator, t, y)`: `HamiltonianFlow.rhs`, (dH/dpsi, -dH/dx)."""
        n = self.table.n
        return self._stage_kernel("field", self.envelope[n + 1:2 * n + 1]
                                  + self.envelope[1:n + 1])

    @cached_property
    def trajectory_kernel(self):
        """`stage.trajectory_loop` of this phase dimension: RK4 verification's
        loop, which ends where an evaluation raises OcpError or numpy's
        FloatingPointError."""
        return trajectory_loop(self.table.n, (OcpError, FloatingPointError))

    def _stage_kernel(self, kind: str, outputs: tuple):
        """`stage.stage_kernel` of this Hamiltonian: built once per output
        kind, for every evaluator and flow of the problem."""
        rows = sample_symbols(self.table)
        closed = self.is_closed_form
        try:
            return stage_kernel(
                kind, None if closed else self.newton_system, outputs, rows,
                () if closed else self.table.controls, () if closed else self.law.guess,
                tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                diverged=lambda values: NewtonDivergenceError(dict(zip(rows, values))),
                left_domain=partial(_left_domain, rows))
        except sx.EvaluationError as exc:
            label = "reduced Hamiltonian" if closed else "Hamiltonian"
            raise type(exc)(f"{label}: {exc}") from None

    @cached_property
    def denominators(self) -> tuple:
        """The problem's excluded denominators, each compiled over the sample
        rows: the one pole guard of the sampler and of RK4 verification."""
        syms = sample_symbols(self.table)
        return tuple(_compile(f"excluded_denominators[{i}]", d, syms)
                     for i, d in enumerate(self.problem.excluded_denominators))


def true_hamiltonian(problem: Problem, backend: str = "auto") -> TrueHamiltonian:
    """Build the true Hamiltonian, choosing or forcing a control backend.

    A closed-form law supplied by the problem file (with k_u = 0) must
    satisfy dH/du = 0 at 50 admissible sample points; otherwise it raises
    InvalidControlLawError.
    """
    h = build_hamiltonian(problem)
    if backend != "implicit":
        try:
            law = solve_stationarity(problem, h)
        except NotAffineInControlError:
            if backend == "closed":
                raise
        else:
            bindings = dict(zip(problem.table.controls, law.expressions))
            try:
                reduced = sx.expand(sx.substitute(h, bindings))
            except sx.EvaluationError as exc:
                raise type(exc)(f"reduced Hamiltonian: {exc}") from None
            th = TrueHamiltonian(problem, h, law, reduced)
            if problem.control_law is not None and problem.k_u == 0:
                try:
                    points = PointSampler(th, np.random.default_rng(0)).draw(50).points
                except SamplerStarvationError as exc:
                    raise SamplerStarvationError(
                        f"cannot check control_solution on sample points: {exc}") from None
                for g, u in zip(th.newton_system, problem.table.controls):   # dH/du_j
                    residual = sx.compile_fn(sx.substitute(g, bindings), sample_symbols(th.table))
                    worst = float(np.abs(np.asarray(residual(*points), dtype=float)).max())
                    if worst > 1e-9:
                        raise InvalidControlLawError(
                            f"supplied control_solution violates dH/d{u.name} = 0 "
                            f"(residual {worst:.3g} on sampled points)")
            return th
    guess = problem.control_guess or (0.0,) * problem.table.m_ctl
    return TrueHamiltonian(problem, h, ImplicitLaw(tuple(map(float, guess))), None)


def sample_symbols(table: SymbolTable) -> tuple[Symbol, ...]:
    """Row order of every sample array: x_1..x_n, psi_1..psi_n, t."""
    return table.phase + (table.time,)


def sample_row(table: SymbolTable, sym: Symbol) -> int:
    """Row of `sym` in a sample array."""
    return sample_symbols(table).index(sym)


def _compile(label: str, e, args: tuple[Symbol, ...], rows: bool = False):
    """compile_fn, with `label` naming the expression in a compile error."""
    try:
        return sx.compile_fn(e, args, rows=rows)
    except sx.EvaluationError as exc:
        raise type(exc)(f"{label}: {exc}") from None


def _left_domain(rows: tuple, exc: Exception, values: tuple) -> OcpError:
    """The error of an evaluation at the sample point `values` that raised
    `exc`: an overflow of a Python float, or a value off the real domain."""
    what = "overflows" if isinstance(exc, OverflowError) else "leaves the real domain"
    return OcpError(f"Hamiltonian {what} at {_fmt_point(dict(zip(rows, values)))}")


class SampleBatch:
    """Sample points plus the true-Hamiltonian envelope data.

    `points` and `hgrad` are (2n+1, N) arrays whose rows follow
    ``table.phase + (table.time,)``, and `hvalue` is (N,).
    """

    def __init__(self, table: SymbolTable, points: np.ndarray, hvalue: np.ndarray,
                 hgrad: np.ndarray):
        self.table = table
        self.points = points
        self.hvalue = hvalue
        self.hgrad = hgrad

    @property
    def size(self) -> int:
        return len(self.hvalue)

    def point(self, i: int) -> dict[Symbol, float]:
        return dict(zip(sample_symbols(self.table), self.points[:, i].tolist()))

    def velocity(self) -> np.ndarray:
        """(2n+1, N) rates of the sample rows along the Hamiltonian flow:
        xdot = dH/dpsi, psidot = -dH/dx, tdot = 1."""
        n = self.table.n
        return np.vstack([self.hgrad[n:2 * n], -self.hgrad[:n], np.ones((1, self.size))])

    def take(self, index) -> "SampleBatch":
        """The points picked by a boolean mask or a slice."""
        return SampleBatch(self.table, self.points[:, index], self.hvalue[index],
                           self.hgrad[:, index])

    def concat(self, other: "SampleBatch") -> "SampleBatch":
        return SampleBatch(self.table, np.hstack([self.points, other.points]),
                           np.concatenate([self.hvalue, other.hvalue]),
                           np.hstack([self.hgrad, other.hgrad]))


class HamiltonianEvaluator:
    """Values and envelope gradient of the reduced Hamiltonian over (x, psi, t).

    With a closed-form law the gradient comes from compiled symbolic partials
    of the reduced expression.  With an implicit law each point gets its own
    Newton solve of dH/du = 0, and the gradient is the envelope gradient of
    H at the solved control.  `prepare` evaluates sample columns: the
    Hamiltonian's `control_kernel` solves each column, then one compiled
    array call gives the value and the whole gradient.
    `value_and_gradient` is one call of the generated `envelope_kernel` (see
    `stage`), on Python floats, whose Newton solve warm-starts from the last
    control this evaluator solved.
    """

    def __init__(self, th: TrueHamiltonian):
        self.th = th
        self._closed_form = th.is_closed_form
        args = sample_symbols(th.table) + (() if self._closed_form else th.table.controls)
        label = "reduced Hamiltonian" if self._closed_form else "Hamiltonian"
        self._envelope = _compile(label, th.envelope, args, rows=True)
        # the problem's kernels and RK4 loop, built with its first evaluator,
        # before the analysis' arrays exist: compiled later, beside them, their
        # transient source and syntax trees raised the peak memory
        self._envelope_kernel = th.envelope_kernel
        self._field_kernel = th.field_kernel
        th.trajectory_kernel
        self.newton_failures = 0    # sample points `prepare` found no control for
        if not self._closed_form:
            self._controls = th.control_kernel
            self._warm = None       # the last control `value_and_gradient` or `rhs` solved

    def prepare(self, points: np.ndarray):
        """Evaluate the envelope over a (2n+1, N) array of sample points.

        Returns (batch, keep) where `keep` marks the input columns that
        survived (implicit-backend Newton failures and non-finite evaluations
        drop out).
        """
        n_pts = points.shape[1]
        args = list(points)
        keep = np.ones(n_pts, dtype=bool)
        with np.errstate(all="ignore"):
            if not self._closed_form:
                guess = self.th.law.guess
                u_sol = np.empty((n_pts, len(guess)))
                for i, column in enumerate(points.T.tolist()):
                    u = self._controls(*column)
                    keep[i] = u is not None
                    u_sol[i] = guess if u is None else u
                self.newton_failures += n_pts - np.count_nonzero(keep)
                args += list(u_sol.T)
            env = np.empty((len(self.th.envelope), n_pts))
            self._envelope(*args, env)
        keep &= np.isfinite(env).all(axis=0)
        return SampleBatch(self.th.table, points, env[0], env[1:]).take(keep), keep

    def value_and_gradient(self, z, t: float):
        """(H, the gradient over x, psi, t as a list of 2n+1 floats) at the
        phase point z and time t, from one call of the envelope kernel, whose
        Python floats are returned as they are.  The caller provides the
        ``np.errstate``: a numpy function that leaves the real domain or the
        float range warns under numpy's default and raises under ``raise``.
        An evaluation that leaves the real domain (a negative base under a
        fractional power, a zero base under a negative power) or overflows a
        Python float raises OcpError; on the implicit backend a point with
        no concave stationary control raises NewtonDivergenceError."""
        return self._envelope_kernel(self, z, t)


class PhaseFunction:
    """Functions F_1..F_k of (x, psi, t) whose expressions may reference the
    reduced Hamiltonian through the placeholder symbol ``H``.

    Values and (chain-ruled) gradients are evaluated against a SampleBatch, so
    the same object works with both control backends.  Each is one compiled
    call over all k expressions, built on its first use: a family that is
    only printed, or a selection that the exact rank pre-gate decides, is
    never compiled.
    """

    def __init__(self, exprs: tuple[Expr, ...], table: SymbolTable):
        self.exprs = tuple(exprs)
        self.table = table
        self.hamiltonian_rows = [i for i, e in enumerate(self.exprs)
                                 if HAMILTONIAN_SYMBOL in e.free()]
        self._args = sample_symbols(table) + (HAMILTONIAN_SYMBOL,)

    @cached_property
    def _value_fn(self):
        return sx.compile_fn(self.exprs, self._args, rows=True)

    @cached_property
    def _gradient_fn(self):
        """The partials of every F_i over the sample rows, F_1's first, then
        dF_i/dH of the functions that hold H, as one compiled call."""
        rows = self._args[:-1]
        return sx.compile_fn(
            tuple(sx.differentiate(e, s) for e in self.exprs for s in rows)
            + tuple(sx.differentiate(self.exprs[i], HAMILTONIAN_SYMBOL)
                    for i in self.hamiltonian_rows), self._args, rows=True)

    def values(self, batch: SampleBatch) -> np.ndarray:
        """(k, N) values."""
        out = np.empty((len(self.exprs), batch.size))
        self._value_fn(*batch.points, batch.hvalue, out)
        return out

    def gradient(self, batch: SampleBatch) -> np.ndarray:
        """(k, 2n+1, N) gradient over the sample rows; on the functions that
        hold H, dF/dH times the batch's envelope gradient is added."""
        k, width = len(self.exprs), len(self._args) - 1
        out = np.empty((k * width + len(self.hamiltonian_rows), batch.size))
        self._gradient_fn(*batch.points, batch.hvalue, out)
        grad = out[:k * width].reshape(k, width, batch.size)
        for i, dfdh in zip(self.hamiltonian_rows, out[k * width:]):
            grad[i] += dfdh * batch.hgrad
        return grad

    def __repr__(self) -> str:
        return f"PhaseFunction({', '.join(map(sx.to_string, self.exprs))})"


class HamiltonianFlow:
    """Right-hand side of xdot = dH/dpsi, psidot = -dH/dx.

    The vector field is the Hamiltonian's generated `field_kernel`, and
    its Newton solve warm-starts from the flow's evaluator's last control.
    """

    def __init__(self, th: TrueHamiltonian):
        self.evaluator = HamiltonianEvaluator(th)
        self._field = self.evaluator._field_kernel

    def rhs(self, t: float, y) -> list:
        """(xdot, psidot) as a list of floats, from one kernel call, with the
        errors of `HamiltonianEvaluator.value_and_gradient`."""
        return self._field(self.evaluator, t, y)


class PointSampler:
    """Uniform draws from the problem's sampling box, evaluated by the
    sampler's own HamiltonianEvaluator.

    Points where an excluded denominator comes within 0.1 of zero are
    rejected, as are points the implicit backend cannot solve and points
    where the envelope is not finite.  A draw that runs out of attempts
    raises SamplerStarvationError, which counts the rejections by reason.
    """

    def __init__(self, th: TrueHamiltonian, rng: np.random.Generator):
        self.evaluator = HamiltonianEvaluator(th)
        self.rng = rng
        self._bounds = [th.problem.sampling_box[s] for s in sample_symbols(th.table)]
        self._denominators = th.denominators

    def draw(self, count: int) -> SampleBatch:
        got: SampleBatch | None = None
        attempts = drawn = dropped = 0
        near_pole = [0] * len(self._denominators)
        newton_before = self.evaluator.newton_failures
        while got is None or got.size < count:
            missing = count - (0 if got is None else got.size)
            attempts += missing
            if attempts > 200 * count + 1000:
                newton = self.evaluator.newton_failures - newton_before
                reasons = [f"{r} within {DENOMINATOR_CLEARANCE} of excluded_denominators[{k}]"
                           for k, r in enumerate(near_pole) if r]
                reasons += [f"{r} {why}" for r, why in [
                    (dropped - newton, "with a non-finite envelope"),
                    (newton, "with a failed Newton solve")] if r]
                raise SamplerStarvationError(f"could not find {count} admissible points "
                                             f"in {drawn} draws: {', '.join(reasons)}")
            raw = np.array([self.rng.uniform(lo, hi, size=max(missing, 8))
                            for lo, hi in self._bounds])
            drawn += raw.shape[1]
            mask = np.ones(raw.shape[1], dtype=bool)
            with np.errstate(all="ignore"):
                for k, d in enumerate(self._denominators):
                    clear = np.abs(np.asarray(d(*raw), dtype=float)) >= DENOMINATOR_CLEARANCE
                    near_pole[k] += np.count_nonzero(mask & ~clear)
                    mask &= clear
            if not mask.any():
                continue
            batch, keep = self.evaluator.prepare(raw[:, mask])
            dropped += keep.size - np.count_nonzero(keep)
            got = batch if got is None else got.concat(batch)
        return got.take(slice(count))
