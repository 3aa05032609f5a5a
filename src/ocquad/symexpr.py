"""Exact symbolic expressions over the variables of an optimal control problem.

Expressions are immutable trees whose constants are exact rationals; floating
point enters only through :func:`evaluate` and :func:`compile_fn`.  Every
constructor canonicalises its result (flattened and ordered sums/products,
folded constants, collected like terms), so structural equality doubles as a
cheap syntactic equality test and ``parse(to_string(e)) == e`` holds for every
expression the module can build.

Simplification is deliberately shallow: no trigonometric identities, no ring
expansion, no factorisation.  Callers that need a "this is zero" statement for
an expression the canonical form cannot collapse must fall back to sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Role",
    "Symbol",
    "SymbolTable",
    "Expr",
    "ExprError",
    "EvaluationError",
    "DivisionByZeroError",
    "DomainError",
    "PoleError",
    "UnboundSymbolError",
    "ParseError",
    "num",
    "symref",
    "add",
    "mul",
    "power",
    "fn",
    "negate",
    "divide",
    "differentiate",
    "substitute",
    "simplify",
    "expand",
    "is_symbolically_zero",
    "evaluate",
    "compile_fn",
    "to_string",
    "parse",
    "free_symbols",
    "HAMILTONIAN_SYMBOL",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln")
_RESERVED = set(FUNCTIONS) | {"sqrt"}

_TAN_POLE_GUARD = 1e-9


class Role(Enum):
    STATE = 0
    COSTATE = 1
    CONTROL = 2
    TIME = 3
    PARAMETER = 4
    AUTONOMIZATION = 5
    HAMILTONIAN = 6


@dataclass(frozen=True)
class Symbol:
    """A named variable with a phase-space role and (where applicable) an index."""

    name: str
    role: Role
    index: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.role.value, self.index, self.name)

    def __repr__(self) -> str:
        return self.name


#: Placeholder for the reduced Hamiltonian inside family components when the
#: control law has no closed form.  Never a member of a SymbolTable.
HAMILTONIAN_SYMBOL = Symbol("H", Role.HAMILTONIAN)


class ExprError(Exception):
    pass


class EvaluationError(ExprError):
    pass


class DivisionByZeroError(EvaluationError):
    pass


class DomainError(EvaluationError):
    pass


class PoleError(EvaluationError):
    pass


class UnboundSymbolError(EvaluationError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SymbolTable:
    """Frozen, ordered collection of the symbols of one problem.

    Phase coordinates enumerate as (x_1..x_n, psi_1..psi_n) in fixed order.
    """

    def __init__(self, symbols: Iterable[Symbol]):
        self._symbols = tuple(symbols)
        self._by_name: dict[str, Symbol] = {}
        for s in self._symbols:
            if s.name in self._by_name:
                raise ValueError(f"duplicate symbol name {s.name!r}")
            if s.name in _RESERVED:
                raise ValueError(f"symbol name {s.name!r} shadows a built-in function")
            if s.role is Role.HAMILTONIAN:
                raise ValueError("the Hamiltonian placeholder cannot live in a table")
            self._by_name[s.name] = s
        self._states = tuple(sorted((s for s in self._symbols if s.role is Role.STATE),
                                    key=lambda s: s.index))
        self._costates = tuple(sorted((s for s in self._symbols if s.role is Role.COSTATE),
                                      key=lambda s: s.index))
        self._controls = tuple(sorted((s for s in self._symbols if s.role is Role.CONTROL),
                                      key=lambda s: s.index))
        times = [s for s in self._symbols if s.role is Role.TIME]
        if len(times) != 1:
            raise ValueError("a table needs exactly one time symbol")
        self._time = times[0]
        autos = [s for s in self._symbols if s.role is Role.AUTONOMIZATION]
        if len(autos) > 1:
            raise ValueError("at most one autonomization symbol is allowed")
        self._auto = autos[0] if autos else None
        for seq in (self._states, self._costates, self._controls):
            if [s.index for s in seq] != list(range(1, len(seq) + 1)):
                raise ValueError("indices must run 1..k without gaps")
        if len(self._states) != len(self._costates):
            raise ValueError("states and costates must pair up")

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return self._symbols

    @property
    def n(self) -> int:
        return len(self._states)

    @property
    def m_ctl(self) -> int:
        return len(self._controls)

    @property
    def states(self) -> tuple[Symbol, ...]:
        return self._states

    @property
    def costates(self) -> tuple[Symbol, ...]:
        return self._costates

    @property
    def controls(self) -> tuple[Symbol, ...]:
        return self._controls

    @property
    def time(self) -> Symbol:
        return self._time

    @property
    def autonomization(self) -> Symbol | None:
        return self._auto

    @property
    def parameters(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._symbols if s.role is Role.PARAMETER)

    @property
    def phase(self) -> tuple[Symbol, ...]:
        """(x_1..x_n, psi_1..psi_n)."""
        return self._states + self._costates

    def state(self, i: int) -> Symbol:
        return self._states[i - 1]

    def costate(self, i: int) -> Symbol:
        return self._costates[i - 1]

    def control(self, j: int) -> Symbol:
        return self._controls[j - 1]

    def lookup(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown identifier {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def extended(self, *extra: Symbol) -> "SymbolTable":
        return SymbolTable(self._symbols + tuple(extra))


# node kinds
_NUM, _SYM, _CALL, _POW, _MUL, _ADD = range(6)

Scalar = Union[int, Fraction]


class Expr:
    """Immutable canonical expression node; build through the module helpers."""

    __slots__ = ("kind", "value", "children", "_hash", "_key", "_free")

    def __init__(self, kind: int, value, children: tuple):
        # internal only: all canonicalisation happens in the constructors below
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_free", None)

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    # ---- structure probes -------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.kind == _NUM

    @property
    def is_symbol(self) -> bool:
        return self.kind == _SYM

    @property
    def is_sum(self) -> bool:
        return self.kind == _ADD

    @property
    def is_product(self) -> bool:
        return self.kind == _MUL

    @property
    def is_power(self) -> bool:
        return self.kind == _POW

    @property
    def is_call(self) -> bool:
        return self.kind == _CALL

    @property
    def constant(self) -> Fraction:
        if self.kind != _NUM:
            raise ExprError("not a constant")
        return self.value

    @property
    def symbol(self) -> Symbol:
        if self.kind != _SYM:
            raise ExprError("not a symbol")
        return self.value

    @property
    def terms(self) -> tuple["Expr", ...]:
        return self.children if self.kind == _ADD else (self,)

    @property
    def factors(self) -> tuple["Expr", ...]:
        return self.children if self.kind == _MUL else (self,)

    @property
    def base(self) -> "Expr":
        if self.kind != _POW:
            raise ExprError("not a power")
        return self.children[0]

    @property
    def exponent(self) -> Fraction:
        if self.kind != _POW:
            raise ExprError("not a power")
        return self.value

    @property
    def func_name(self) -> str:
        if self.kind != _CALL:
            raise ExprError("not a function application")
        return self.value

    @property
    def argument(self) -> "Expr":
        if self.kind != _CALL:
            raise ExprError("not a function application")
        return self.children[0]

    # ---- identity ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.kind == other.kind and self.value == other.value
                and self.children == other.children)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.kind, self.value, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> tuple:
        k = self._key
        if k is None:
            if self.kind == _NUM:
                k = (_NUM, (self.value.numerator, self.value.denominator))
            elif self.kind == _SYM:
                k = (_SYM, self.value.sort_key)
            elif self.kind == _CALL:
                k = (_CALL, self.value, self.children[0].sort_key())
            elif self.kind == _POW:
                k = (_POW, self.children[0].sort_key(),
                     (self.value.numerator, self.value.denominator))
            else:
                k = (self.kind, tuple(c.sort_key() for c in self.children))
            object.__setattr__(self, "_key", k)
        return k

    def free(self) -> frozenset:
        s = self._free
        if s is None:
            if self.kind == _SYM:
                s = frozenset((self.value,))
            elif self.kind == _NUM:
                s = frozenset()
            else:
                s = frozenset().union(*(c.free() for c in self.children))
            object.__setattr__(self, "_free", s)
        return s

    # ---- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return add(self, negate(_as_expr(other)))

    def __rsub__(self, other):
        return add(_as_expr(other), negate(self))

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return divide(self, _as_expr(other))

    def __rtruediv__(self, other):
        return divide(_as_expr(other), self)

    def __pow__(self, other):
        return power(self, other)

    def __neg__(self):
        return negate(self)

    def __repr__(self) -> str:
        return to_string(self)

    def diff(self, s: Symbol) -> "Expr":
        return differentiate(self, s)

    def subs(self, bindings: Mapping[Symbol, "Expr"]) -> "Expr":
        return substitute(self, bindings)

    def eval(self, point: Mapping[Symbol, float]) -> float:
        return evaluate(self, point)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return num(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, Expr) and v.kind == _NUM:
        return v.value
    raise TypeError("expected an exact rational")


# ---------------------------------------------------------------------------
# canonical constructors
# ---------------------------------------------------------------------------

def num(v: Scalar) -> Expr:
    """Exact rational constant.  Floats are rejected; convert them explicitly."""
    if isinstance(v, float):
        raise TypeError("no float literals in expression trees; pass a Fraction")
    return Expr(_NUM, Fraction(v), ())


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)


def symref(s: Symbol) -> Expr:
    return Expr(_SYM, s, ())


def _coeff_rest(term: Expr) -> tuple[Fraction, Expr | None]:
    """Split a term into (rational coefficient, remaining factor)."""
    if term.kind == _NUM:
        return term.value, None
    if term.kind == _MUL and term.children[0].kind == _NUM:
        rest = term.children[1:]
        rest_expr = rest[0] if len(rest) == 1 else Expr(_MUL, None, rest)
        return term.children[0].value, rest_expr
    return Fraction(1), term


def add(*terms) -> Expr:
    """Flattened, collected, canonically ordered sum."""
    const = Fraction(0)
    buckets: dict[Expr, Fraction] = {}
    stack = [_as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if t.kind == _ADD:
            stack.extend(reversed(t.children))
            continue
        c, rest = _coeff_rest(t)
        if rest is None:
            const += c
        else:
            buckets[rest] = buckets.get(rest, Fraction(0)) + c
    out = []
    for rest, c in buckets.items():
        if c == 0:
            continue
        out.append(rest if c == 1 else mul(num(c), rest))
    if const != 0 or not out:
        out.append(num(const))
    if len(out) == 1:
        return out[0]
    out.sort(key=Expr.sort_key)
    return Expr(_ADD, None, tuple(out))


def mul(*factors) -> Expr:
    """Flattened product with folded constants and collected like bases."""
    coeff = Fraction(1)
    bases: dict[Expr, Fraction] = {}
    order: list[Expr] = []
    stack = [_as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if f.kind == _MUL:
            stack.extend(reversed(f.children))
            continue
        if f.kind == _NUM:
            coeff *= f.value
            continue
        if f.kind == _POW:
            base, exp = f.children[0], f.value
        else:
            base, exp = f, Fraction(1)
        if base not in bases:
            bases[base] = Fraction(0)
            order.append(base)
        bases[base] += exp
    if coeff == 0:
        return ZERO
    out = []
    for base in order:
        exp = bases[base]
        p = power(base, exp)
        if p.kind == _NUM:
            coeff *= p.value
        else:
            out.append(p)
    if not out:
        return num(coeff)
    if len(out) == 1 and coeff == 1:
        return out[0]
    out.sort(key=Expr.sort_key)
    if coeff != 1:
        out.insert(0, num(coeff))
    return Expr(_MUL, None, tuple(out))


def _int_root(x: int, q: int) -> int | None:
    if x < 0:
        return None
    r = round(x ** (1.0 / q))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** q == x:
            return cand
    return None


def power(base, exponent) -> Expr:
    """base**exponent with an exact rational exponent."""
    base = _as_expr(base)
    exp = _as_fraction(exponent)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if base.kind == _NUM:
        v = base.value
        if exp.denominator == 1:
            if v == 0 and exp < 0:
                raise DivisionByZeroError("division by zero in constant")
            return num(v ** exp.numerator) if exp > 0 else num(Fraction(1) / v ** (-exp.numerator))
        pn = _int_root(v.numerator if exp > 0 else v.denominator, exp.denominator)
        pd = _int_root(v.denominator if exp > 0 else v.numerator, exp.denominator)
        if pn is not None and pd is not None:
            return num(Fraction(pn, pd) ** abs(exp.numerator))
        return Expr(_POW, exp, (base,))
    if base.kind == _POW and exp.denominator == 1:
        return power(base.children[0], base.value * exp)
    if base.kind == _MUL and exp.denominator == 1:
        return mul(*(power(f, exp) for f in base.children))
    return Expr(_POW, exp, (base,))


def fn(name: str, arg) -> Expr:
    """Apply one of sin, cos, tan, exp, ln, sqrt."""
    arg = _as_expr(arg)
    if name == "sqrt":
        return power(arg, Fraction(1, 2))
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if arg.kind == _NUM:
        v = arg.value
        if v == 0 and name in ("sin", "tan"):
            return ZERO
        if v == 0 and name in ("cos", "exp"):
            return ONE
        if v == 1 and name == "ln":
            return ZERO
    return Expr(_CALL, name, (arg,))


def negate(e) -> Expr:
    return mul(MINUS_ONE, _as_expr(e))


def divide(a, b) -> Expr:
    return mul(_as_expr(a), power(_as_expr(b), -1))


# ---------------------------------------------------------------------------
# calculus and rewriting
# ---------------------------------------------------------------------------

def differentiate(e: Expr, s: Symbol) -> Expr:
    """Partial derivative; symbols other than `s` are treated as independent."""
    if e.kind == _NUM:
        return ZERO
    if e.kind == _SYM:
        return ONE if e.value == s else ZERO
    if e.kind == _ADD:
        return add(*(differentiate(c, s) for c in e.children))
    if e.kind == _MUL:
        parts = []
        for i, c in enumerate(e.children):
            dc = differentiate(c, s)
            if dc is not ZERO and dc != ZERO:
                parts.append(mul(*e.children[:i], dc, *e.children[i + 1:]))
        return add(*parts) if parts else ZERO
    if e.kind == _POW:
        base, exp = e.children[0], e.value
        db = differentiate(base, s)
        if db == ZERO:
            return ZERO
        return mul(num(exp), power(base, exp - 1), db)
    # function application
    arg = e.children[0]
    da = differentiate(arg, s)
    if da == ZERO:
        return ZERO
    name = e.value
    if name == "sin":
        outer = fn("cos", arg)
    elif name == "cos":
        outer = negate(fn("sin", arg))
    elif name == "tan":
        outer = add(ONE, power(fn("tan", arg), 2))
    elif name == "exp":
        outer = e
    else:  # ln
        outer = power(arg, -1)
    return mul(outer, da)


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    """Simultaneous substitution, re-canonicalised bottom-up."""
    if not bindings:
        return e
    if e.kind == _SYM:
        return bindings.get(e.value, e)
    if e.kind == _NUM:
        return e
    kids = tuple(substitute(c, bindings) for c in e.children)
    if kids == e.children:
        return e
    if e.kind == _ADD:
        return add(*kids)
    if e.kind == _MUL:
        return mul(*kids)
    if e.kind == _POW:
        return power(kids[0], e.value)
    return fn(e.value, kids[0])


def simplify(e: Expr) -> Expr:
    """Deep rebuild through the canonical constructors (idempotent)."""
    if e.kind in (_NUM, _SYM):
        return e
    kids = tuple(simplify(c) for c in e.children)
    if e.kind == _ADD:
        return add(*kids)
    if e.kind == _MUL:
        return mul(*kids)
    if e.kind == _POW:
        return power(kids[0], e.value)
    return fn(e.value, kids[0])


def expand(e: Expr) -> Expr:
    """Distribute products over sums (and positive integer powers of sums).

    Not part of the canonical form; used where a structural zero is wanted,
    e.g. checking the stationarity identity after control elimination.
    """
    if e.kind in (_NUM, _SYM):
        return e
    if e.kind == _CALL:
        return fn(e.value, expand(e.children[0]))
    if e.kind == _POW:
        base = expand(e.children[0])
        exp = e.value
        if base.kind == _ADD and exp.denominator == 1 and 2 <= exp <= 16:
            out = base
            for _ in range(int(exp) - 1):
                out = _distribute(out, base)
            return out
        return power(base, exp)
    if e.kind == _ADD:
        return add(*(expand(c) for c in e.children))
    # product
    out = ONE
    for c in e.children:
        out = _distribute(out, expand(c))
    return out


def _distribute(a: Expr, b: Expr) -> Expr:
    lhs = a.children if a.kind == _ADD else (a,)
    rhs = b.children if b.kind == _ADD else (b,)
    if len(lhs) == 1 and len(rhs) == 1:
        return mul(a, b)
    return add(*(mul(x, y) for x in lhs for y in rhs))


def is_zero(e: Expr) -> bool:
    return e.kind == _NUM and e.value == 0


def is_symbolically_zero(e: Expr) -> bool:
    """Zero after canonicalisation or shallow expansion; a False is not a proof."""
    if is_zero(e):
        return True
    try:
        return is_zero(expand(e))
    except EvaluationError:
        return False


def free_symbols(e: Expr) -> frozenset:
    return e.free()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, point: Mapping[Symbol, float]) -> float:
    """Pointwise IEEE-double evaluation with domain guards."""
    if e.kind == _NUM:
        return float(e.value)
    if e.kind == _SYM:
        try:
            return float(point[e.value])
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.value.name!r} is unbound") from None
    if e.kind == _ADD:
        return math.fsum(evaluate(c, point) for c in e.children)
    if e.kind == _MUL:
        out = 1.0
        for c in e.children:
            out *= evaluate(c, point)
        return out
    if e.kind == _POW:
        b = evaluate(e.children[0], point)
        exp = e.value
        if b == 0.0 and exp < 0:
            raise DivisionByZeroError("division by zero")
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


def _emit(e: Expr, names: dict[Symbol, str], shared: dict[Expr, str]) -> str:
    """Python source of `e`; a subexpression in `shared` is read from its local."""
    if e.kind == _NUM:
        return repr(float(e.value))
    if e.kind == _SYM:
        try:
            return names[e.value]
        except KeyError:
            raise UnboundSymbolError(f"symbol {e.value.name!r} is unbound") from None
    if e in shared:
        return shared[e]
    if e.kind == _ADD:
        return "(" + " + ".join(_emit(c, names, shared) for c in e.children) + ")"
    if e.kind == _MUL:
        return "(" + " * ".join(_emit(c, names, shared) for c in e.children) + ")"
    if e.kind == _POW:
        exp = e.value
        es = str(exp.numerator) if exp.denominator == 1 else repr(float(exp))
        return "(" + _emit(e.children[0], names, shared) + " ** " + es + ")"
    f = {"ln": "log"}.get(e.value, e.value)
    return f"np.{f}(" + _emit(e.children[0], names, shared) + ")"


def _repeated_subexpressions(exprs: tuple[Expr, ...]) -> list[Expr]:
    """Compound subexpressions met more than once, each after its own."""
    seen: set[Expr] = set()
    repeated: set[Expr] = set()
    order: list[Expr] = []

    def visit(x: Expr) -> None:
        if x.kind in (_NUM, _SYM):
            return
        if x in seen:
            repeated.add(x)
            return
        seen.add(x)
        for c in x.children:
            visit(c)
        order.append(x)

    for x in exprs:
        visit(x)
    return [x for x in order if x in repeated]


@lru_cache(maxsize=8192)
def compile_fn(e: Expr | tuple[Expr, ...], args: tuple[Symbol, ...]) -> Callable:
    """Compile to a positional function over floats or numpy arrays.

    A tuple of expressions compiles to one function returning the tuple of
    their values.  A subexpression that occurs more than once is computed once
    into a local, so each value is the one its own compiled function would
    return, from the same floating-point operations.  The compiled form
    performs no domain guarding; callers are expected to stay inside the
    region the sampler accepts.
    """
    names = {s: f"a{i}" for i, s in enumerate(args)}
    exprs = e if isinstance(e, tuple) else (e,)
    missing = frozenset().union(*(x.free() for x in exprs)) - set(args)
    if missing:
        raise UnboundSymbolError(
            "cannot compile, unbound: " + ", ".join(sorted(s.name for s in missing)))
    shared: dict[Expr, str] = {}
    lines = ["def _f(" + ", ".join(names[s] for s in args) + "):"]
    for i, x in enumerate(_repeated_subexpressions(exprs)):
        lines.append(f"    c{i} = " + _emit(x, names, shared))
        shared[x] = f"c{i}"
    body = ("(" + "".join(_emit(x, names, shared) + ", " for x in e) + ")"
            if isinstance(e, tuple) else _emit(e, names, shared))
    src = "\n".join(lines + ["    return " + body])
    ns: dict = {"np": np}
    exec(src, ns)
    return ns["_f"]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _print(e: Expr, ctx: int) -> str:
    if e.kind == _NUM:
        s = str(e.value)
        need = ("-" in s and ctx > _PREC_ADD) or ("/" in s and ctx > _PREC_MUL)
        return f"({s})" if need else s
    if e.kind == _SYM:
        return e.value.name
    if e.kind == _CALL:
        return f"{e.value}({_print(e.children[0], _PREC_ADD)})"
    if e.kind == _POW:
        exp = e.value
        if exp == Fraction(1, 2):
            return f"sqrt({_print(e.children[0], _PREC_ADD)})"
        b = _print(e.children[0], _PREC_ATOM)
        if exp.denominator == 1 and exp > 0:
            s = f"{b}^{exp.numerator}"
        else:
            s = f"{b}^({exp})"
        return f"({s})" if ctx > _PREC_POW else s
    if e.kind == _MUL:
        coeff = Fraction(1)
        numer, denom = [], []
        for c in e.children:
            if c.kind == _NUM:
                coeff *= c.value
            elif c.kind == _POW and c.value < 0:
                denom.append(power(c.children[0], -c.value))
            else:
                numer.append(c)
        sign = ""
        if coeff < 0:
            sign, coeff = "-", -coeff
        if coeff.numerator != 1 or not numer:
            numer.insert(0, num(Fraction(coeff.numerator)))
        if coeff.denominator != 1:
            denom.insert(0, num(Fraction(coeff.denominator)))
        s = "*".join(_print(f, _PREC_POW) for f in numer)
        for f in denom:
            s += "/" + _print(f, _PREC_POW)
        s = sign + s
        return f"({s})" if (ctx > _PREC_MUL or (sign and ctx > _PREC_ADD)) else s
    # sum
    parts = []
    for i, t in enumerate(e.children):
        c, _ = _coeff_rest(t)
        if i == 0:
            parts.append(_print(t, _PREC_ADD))
        elif c < 0:
            parts.append(" - " + _print(negate(t), _PREC_MUL))
        else:
            parts.append(" + " + _print(t, _PREC_MUL))
    s = "".join(parts)
    return f"({s})" if ctx > _PREC_ADD else s


def to_string(e: Expr) -> str:
    return _print(e, _PREC_ADD)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("malformed number", i)
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(("num", Fraction(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str, table: SymbolTable):
        self.toks = _tokenize(text)
        self.pos = 0
        self.table = table

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, p = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", p)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, p = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", p)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = add(e, rhs if val == "+" else negate(rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else divide(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        kind, val, p = self.peek()
        if kind == "op" and val == "^":
            self.take()
            _, _, ep = self.peek()
            rhs = self.factor()
            if rhs.kind != _NUM:
                raise ParseError("exponent must be a rational constant", ep)
            e = power(e, rhs.value)
        return e

    def base(self) -> Expr:
        kind, val, p = self.take()
        if kind == "num":
            return num(val)
        if kind == "op" and val == "-":
            return negate(self.factor())
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if val in _RESERVED:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return fn(val, arg)
            try:
                return symref(self.table.lookup(val))
            except KeyError:
                raise ParseError(f"unknown identifier {val!r}", p) from None
        raise ParseError(f"unexpected token {val!r}", p)


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse an expression string against a symbol table."""
    return _Parser(text, table).parse()
