"""In-memory span recorder that wraps ocquad's public names from outside.

Each wrapper is attached where callers look the name up: `cli` imports
`decompose_in_span`, `find_certificate`, `discover_family`,
`integrate_extremal`, ... by name, so those are patched on `ocquad.cli`;
functions called through their own module's globals are patched there;
methods are patched on their classes.  A span is (name index, start ns,
end ns, parent span index); self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

_clock = time.perf_counter_ns


def _draw_after(stats, args, kwargs, result):
    stats["points"] += result.size


def _prepare_after(stats, args, kwargs, result):
    _, keep = result
    stats["points"] += len(keep)
    stats["kept"] += int(keep.sum())


def _rank_after(stats, args, kwargs, result):
    evidence, skipped = result
    stats["converged"] += len(evidence)
    stats["attempts"] += len(evidence) + skipped


def _decompose_after(stats, args, kwargs, result):
    stats["ok"] += int(result.ok)


def _rationalize_after(stats, args, kwargs, result):
    stats["fallback"] += int(result is None)


def _nullspace_after(stats, args, kwargs, result):
    stats["nullity"] += len(result)


def _assemble_after(stats, args, kwargs, result):
    stats["cells"] += int(result.size)


def _extract_after(stats, args, kwargs, result):
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    stats["candidates"] += len(basis)
    stats["kept"] += result.m


# (span name, module, attribute, counter hook).  A name with two entries is
# looked up by callers in two modules.
FUNCTIONS = [
    ("problems.load_problem", "ocquad.cli", "load_problem", None),
    ("ocp.true_hamiltonian", "ocquad.cli", "true_hamiltonian", None),
    ("noether.discover_family", "ocquad.cli", "discover_family", None),
    ("noether.discover_polynomial_integrals", "ocquad.cli",
     "discover_polynomial_integrals", None),
    ("kk.decompose_in_span", "ocquad.cli", "decompose_in_span", _decompose_after),
    ("kk.find_certificate", "ocquad.cli", "find_certificate", None),
    ("verify.integrate_extremal", "ocquad.cli", "integrate_extremal", None),
    ("verify.conservation_drift", "ocquad.cli", "conservation_drift", None),
    ("poisson.bracket_values", "ocquad.poisson", "bracket_values", None),
    ("kk.independence_rank", "ocquad.kk", "independence_rank", _rank_after),
    ("kk.check_solvable_lie", "ocquad.kk", "check_solvable_lie", None),
    ("noether.assemble_system", "ocquad.noether", "assemble_system", _assemble_after),
    ("noether.nullspace", "ocquad.noether", "nullspace", _nullspace_after),
    ("noether.rationalize_vector", "ocquad.noether", "rationalize_vector", _rationalize_after),
    ("noether.rationalize_vector", "ocquad.kk", "rationalize_vector", _rationalize_after),
    ("noether.extract_family", "ocquad.noether", "extract_family", _extract_after),
    ("symexpr.simplify", "ocquad.symexpr", "simplify", None),
]

# (span name, module, class, method, counter hook)
METHODS = [
    ("ocp.HamiltonianFlow.rhs", "ocquad.ocp", "HamiltonianFlow", "rhs", None),
    ("ocp.HamiltonianEvaluator.value_and_gradient", "ocquad.ocp", "HamiltonianEvaluator",
     "value_and_gradient", None),
    ("ocp.HamiltonianEvaluator.prepare", "ocquad.ocp", "HamiltonianEvaluator", "prepare",
     _prepare_after),
    ("ocp.PhaseFunction.values", "ocquad.ocp", "PhaseFunction", "values", None),
    ("ocp.PhaseFunction.gradient", "ocquad.ocp", "PhaseFunction", "gradient", None),
    ("ocp.PointSampler.draw", "ocquad.ocp", "PointSampler", "draw", _draw_after),
]

# Functions that call themselves through their module global: the wrapper
# puts the original back for the duration of the call, so one top-level call
# is one span.
RECURSIVE = {"symexpr.simplify"}

ROOT = "cli.main"


class Recorder:
    """Spans and per-layer totals of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self._open: list[int] = []       # span indices of the open spans
        self._child_ns: list[int] = []   # child time covered, per open span
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.stats: list[Counter] = []

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.stats.append(Counter())
        return self._index[name]

    def wrap(self, name: str, fn, after=None, restore=None):
        """A callable recording one span per call of `fn`.

        `restore` is an optional (module, attribute) that is pointed back at
        `fn` while the call runs, for functions that recurse through it.
        """
        idx = self._name(name)
        stats = self.stats[idx]
        spans, open_, child_ns = self.spans, self._open, self._child_ns
        calls, self_ns = self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(span)
            child_ns.append(0)
            if restore is not None:
                module, attr = restore
                current = getattr(module, attr)
                setattr(module, attr, fn)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                if restore is not None:
                    setattr(module, attr, current)
                open_.pop()
                covered = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                spans[span] = (idx, start, end, parent)
                calls[idx] += 1
                self_ns[idx] += duration - covered
            if after is not None:
                after(stats, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Attach a wrapper to every name in FUNCTIONS and METHODS."""
        for name, module_name, attr, after in FUNCTIONS:
            module = importlib.import_module(module_name)
            restore = (module, attr) if name in RECURSIVE else None
            setattr(module, attr, self.wrap(name, getattr(module, attr), after, restore))
        for name, module_name, cls_name, attr, after in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def summary(self) -> dict:
        """Per-layer calls, self seconds and counters, keyed by span name."""
        return {name: {"calls": self.calls[i], "self_s": self.self_ns[i] * 1e-9,
                       **self.stats[i]}
                for i, name in enumerate(self.names)}
