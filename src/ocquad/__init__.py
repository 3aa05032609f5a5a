"""Symbolic-numeric toolkit for first integrals and quadrature-solvability
certificates of optimal control problems with open control sets."""

__version__ = "0.1.0"

import os

# One BLAS thread: every matrix of an analysis is small, so a thread pool
# gains nothing on it and loses much on a host whose other cores are busy.
# Set before any submodule imports numpy; a caller's own setting wins, and a
# program that imported numpy first keeps its pool.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

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
