"""Symbolic-numeric toolkit for first integrals and quadrature-solvability
certificates of optimal control problems with open control sets."""

__version__ = "0.1.0"

from .symexpr import (  # noqa: F401
    Expr,
    ParseError,
    Role,
    Symbol,
    SymbolTable,
    differentiate,
    parse,
    simplify,
    substitute,
    to_string,
)
from .ocp import (  # noqa: F401
    PhaseFunction,
    PointSampler,
    Problem,
    TrueHamiltonian,
    build_hamiltonian,
    solve_stationarity,
    true_hamiltonian,
)
from .poisson import bracket  # noqa: F401
from .noether import (  # noqa: F401
    Ansatz,
    Family,
    assemble_system,
    build_ansatz,
    discover_family,
    discover_polynomial_integrals,
    extract_family,
    nullspace,
)
from .kk import (  # noqa: F401
    Certificate,
    admissible_levels,
    check_solvable_lie,
    decompose_in_span,
    find_certificate,
    independence_rank,
    sample_span,
)
from .verify import conservation_drift, integrate_extremal  # noqa: F401
from .problems import BUILTIN_NAMES, builtin, load_problem, load_problem_file  # noqa: F401
