"""Problem-file schema and the built-in example corpus.

A problem file is a JSON document:

    {
      "name": "martinet",
      "states": ["x1", "x2", "x3"],
      "controls": ["u1", "u2"],
      "time": "t",
      "parameters": {"alpha": 1},
      "lagrangian": "(u1^2 + u2^2)/2",
      "dynamics": ["u1", "u2/(1 + alpha*x1)", "x2^2*u1"],
      "control_solution": [...],        # optional closed-form law
      "control_guess": [0.0, 0.0],      # optional Newton start
      "k_u": 0,                         # optional, with control_solution
      "sampling_box": {"x1": [-1, 1]},  # optional per-symbol overrides
      "excluded_denominators": ["1 + alpha*x1"]
    }

Costates are named psi1..psin automatically.  Parameter values are bound
exactly (decimal strings become rationals) before any analysis runs.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction

from . import symexpr as sx
from .ocp import Problem
from .symexpr import ParseError, Role, Symbol, SymbolTable

DEFAULT_BOX = (-1.0, 1.0)
DEFAULT_TIME_BOX = (0.0, 1.0)


class ProblemFileError(Exception):
    pass


_BUILTINS: dict[str, dict] = {
    "dubins": {
        "name": "dubins",
        "states": ["x1", "x2", "x3"],
        "controls": ["u1", "u2"],
        "time": "t",
        "parameters": {},
        "lagrangian": "(u1^2 + u2^2)/2",
        "dynamics": ["u1*cos(x3)", "u1*sin(x3)", "u2"],
    },
    "trailer": {
        "name": "trailer",
        "states": ["x1", "x2", "x3", "x4"],
        "controls": ["u1", "u2"],
        "time": "t",
        "parameters": {"a": 1, "b": 1, "c": 1},
        "lagrangian": "u1^2 + u2^2",
        "dynamics": [
            "u1*cos(x3)",
            "u1*sin(x3)",
            "u1*tan(u2)/c",
            "u1*(a/c*tan(u2)*cos(x3 - x4) - sin(x3 - x4))/b",
        ],
        "control_guess": [0.0, 0.0],
    },
    "martinet": {
        "name": "martinet",
        "states": ["x1", "x2", "x3"],
        "controls": ["u1", "u2"],
        "time": "t",
        "parameters": {"alpha": 1},
        "lagrangian": "(u1^2 + u2^2)/2",
        "dynamics": ["u1", "u2/(1 + alpha*x1)", "x2^2*u1"],
        "excluded_denominators": ["1 + alpha*x1"],
    },
}


def _sr_case(name: str, alpha: int, beta: int) -> dict:
    return {
        "name": name,
        "states": ["x1", "x2", "x3", "x4", "x5"],
        "controls": ["u1", "u2"],
        "time": "t",
        "parameters": {"alpha": alpha, "beta": beta},
        "lagrangian": "(u1^2 + u2^2)/2",
        "dynamics": ["u1", "u2", "x1*u2", "alpha/2*x1^2*u2", "beta*x1*x2*u2"],
    }


_BUILTINS["sr-2-3"] = _sr_case("sr-2-3", 0, 0)
_BUILTINS["sr-2-3-4"] = _sr_case("sr-2-3-4", 1, 0)
_BUILTINS["sr-2-3-5"] = _sr_case("sr-2-3-5", 1, 1)

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> dict:
    """A fresh copy of a built-in problem file."""
    try:
        return copy.deepcopy(_BUILTINS[name])
    except KeyError:
        raise ProblemFileError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}") from None


def _require(doc: dict, key: str, kind):
    if key not in doc:
        raise ProblemFileError(f"problem file misses required key {key!r}")
    v = doc[key]
    if not isinstance(v, kind):
        raise ProblemFileError(f"key {key!r} must be a {kind.__name__}")
    return v


def _optional(doc: dict, key: str, kind, default):
    return _require(doc, key, kind) if key in doc else default


def _as_float(value, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:       # an int too large for a float
            pass
    raise ProblemFileError(f"{what} must be a finite number, got {value!r}")


def _as_rational(value, what: str) -> Fraction:
    # a string takes ASCII digits only, as an expression does: Fraction reads
    # any Unicode decimal digit, "\u0663" as 3
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            or isinstance(value, str) and value.isascii()):
        try:
            out = Fraction(str(value) if isinstance(value, float) else value)
            float(out)      # overflows beyond the float range
            return out
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ProblemFileError(f"{what} must be a finite number, got {value!r}")


def load_problem(doc: dict, param_overrides: dict[str, object] | None = None) -> tuple[Problem, dict]:
    """Validate a problem document and bind parameters.

    Returns the Problem plus a normalised echo of the document (overrides
    applied) for the report.
    """
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must be a JSON object")
    name = _require(doc, "name", str)
    states = _require(doc, "states", list)
    controls = _require(doc, "controls", list)
    time_name = _require(doc, "time", str)
    lagrangian_src = _require(doc, "lagrangian", str)
    dynamics_src = _require(doc, "dynamics", list)
    if len(dynamics_src) != len(states):
        raise ProblemFileError(
            f"{len(dynamics_src)} dynamics for {len(states)} states")
    params = dict(_optional(doc, "parameters", dict, {}))
    for pname, pval in (param_overrides or {}).items():
        if pname not in params:
            raise ProblemFileError(f"--param {pname!r} is not a problem parameter")
        params[pname] = pval
    param_values = {k: _as_rational(v, f"parameter {k!r}") for k, v in params.items()}

    symbols = []
    for i, s in enumerate(states, start=1):
        symbols.append(Symbol(str(s), Role.STATE, i))
    costate_names = [f"psi{i}" for i in range(1, len(states) + 1)]
    for i, s in enumerate(costate_names, start=1):
        symbols.append(Symbol(s, Role.COSTATE, i))
    for j, s in enumerate(controls, start=1):
        symbols.append(Symbol(str(s), Role.CONTROL, j))
    symbols.append(Symbol(time_name, Role.TIME))
    for pname in param_values:
        symbols.append(Symbol(str(pname), Role.PARAMETER))
    try:
        table = SymbolTable(symbols)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None

    bindings = {table.lookup(k): sx.num(v) for k, v in param_values.items()}

    # the costates enter only through H = -L + psi.phi, and the controls are
    # what dH/du = 0 eliminates
    forbidden = {"costates": set(table.costates), "controls": set(table.controls)}

    def parse_bound(text: str, what: str, free_of: str) -> sx.Expr:
        if not isinstance(text, str):
            raise ProblemFileError(f"{what} must be an expression string")
        try:
            e = sx.substitute(sx.parse(text, table), bindings)
        except ParseError as exc:
            raise ProblemFileError(f"{what}: {exc}") from None
        if e.free() & forbidden[free_of]:
            raise ProblemFileError(f"{what} must not mention {free_of}")
        return e

    lagrangian = parse_bound(lagrangian_src, "lagrangian", "costates")
    dynamics = tuple(parse_bound(d, f"dynamics[{i}]", "costates")
                     for i, d in enumerate(dynamics_src))

    control_law = None
    if "control_solution" in doc:
        sol = _require(doc, "control_solution", list)
        if len(sol) != len(controls):
            raise ProblemFileError("control_solution must give one expression per control")
        control_law = tuple(parse_bound(s, f"control_solution[{i}]", "controls")
                            for i, s in enumerate(sol))
    control_guess = None
    if "control_guess" in doc:
        guess = _require(doc, "control_guess", list)
        if len(guess) != len(controls):
            raise ProblemFileError("control_guess must give one value per control")
        control_guess = tuple(_as_float(g, f"control_guess[{i}]")
                              for i, g in enumerate(guess))
    k_u = doc.get("k_u", 0)
    if not isinstance(k_u, int) or isinstance(k_u, bool) or k_u < 0:
        raise ProblemFileError(f"k_u must be a non-negative integer, got {k_u!r}")
    if k_u != 0 and control_law is None:
        raise ProblemFileError("k_u > 0 requires an explicit control_solution")

    box: dict[Symbol, tuple[float, float]] = {s: DEFAULT_BOX for s in table.phase}
    box[table.time] = DEFAULT_TIME_BOX
    sampled = {s.name: s for s in box}
    for key, rng in _optional(doc, "sampling_box", dict, {}).items():
        if key not in sampled:
            raise ProblemFileError(
                f"sampling_box names {key!r}, which is not a state, costate or the time")
        if not isinstance(rng, (list, tuple)) or len(rng) != 2:
            raise ProblemFileError(f"sampling_box[{key!r}] must be [lo, hi] with lo < hi")
        lo, hi = (_as_float(v, f"sampling_box[{key!r}] bound") for v in rng)
        if lo >= hi:
            raise ProblemFileError(f"sampling_box[{key!r}] must be [lo, hi] with lo < hi")
        box[sampled[key]] = (lo, hi)

    denominators = tuple(parse_bound(d, f"excluded_denominators[{i}]", "controls")
                         for i, d in enumerate(_optional(doc, "excluded_denominators",
                                                         list, [])))

    problem = Problem(
        name=name,
        table=table,
        lagrangian=lagrangian,
        dynamics=dynamics,
        parameters=param_values,
        sampling_box=box,
        excluded_denominators=denominators,
        control_law=control_law,
        control_guess=control_guess,
        k_u=k_u,
    )

    echo = copy.deepcopy(doc)
    echo["parameters"] = {k: str(v) for k, v in param_values.items()}
    return problem, echo


def load_problem_file(path: str, param_overrides=None) -> tuple[Problem, dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"{path}: cannot read the problem file ({exc})") from None
    return load_problem(doc, param_overrides)
