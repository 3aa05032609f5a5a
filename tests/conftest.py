import random
from fractions import Fraction

import numpy as np
import pytest

from ocquad.ocp import PointSampler, true_hamiltonian
from ocquad.problems import builtin, load_problem
from ocquad.symexpr import (
    ExprError,
    Role,
    Symbol,
    SymbolTable,
    add,
    fn,
    mul,
    num,
    power,
    symref,
)


def bits(values):
    """The IEEE bit pattern of a float vector, or None."""
    return None if values is None else np.asarray(values, dtype=float).tobytes()


def setup_problem(name, backend="auto", seed=42):
    """A built-in problem, its true Hamiltonian and a seeded sampler."""
    problem, _ = load_problem(builtin(name))
    th = true_hamiltonian(problem, backend=backend)
    sampler = PointSampler(th, np.random.default_rng(seed))
    return problem, th, sampler


def make_table(n, m_ctl=0, params=()):
    syms = [Symbol(f"x{i}", Role.STATE, i) for i in range(1, n + 1)]
    syms += [Symbol(f"psi{i}", Role.COSTATE, i) for i in range(1, n + 1)]
    syms += [Symbol(f"u{j}", Role.CONTROL, j) for j in range(1, m_ctl + 1)]
    syms.append(Symbol("t", Role.TIME))
    syms += [Symbol(p, Role.PARAMETER) for p in params]
    return SymbolTable(syms)


@pytest.fixture
def table3():
    return make_table(3, m_ctl=2)


class ExprGen:
    """Seeded random expression trees over the full node grammar."""

    def __init__(self, table, seed=0, funcs=("sin", "cos", "tan", "exp", "ln")):
        self.table = table
        self.rng = random.Random(seed)
        self.funcs = funcs

    def leaf(self):
        if self.rng.random() < 0.3:
            return num(Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 4)))
        return symref(self.rng.choice(self.table.phase + (self.table.time,)))

    def expr(self, depth):
        while True:
            try:
                return self._expr(depth)
            except ExprError:
                continue  # e.g. a folded constant hit a pole of its own

    def _expr(self, depth):
        if depth <= 0:
            return self.leaf()
        pick = self.rng.random()
        if pick < 0.3:
            k = self.rng.randint(2, 3)
            return add(*(self._expr(depth - 1) for _ in range(k)))
        if pick < 0.6:
            k = self.rng.randint(2, 3)
            return mul(*(self._expr(depth - 1) for _ in range(k)))
        if pick < 0.75:
            exp = self.rng.choice([2, 3, -1, -2, Fraction(1, 2)])
            return power(self._expr(depth - 1), exp)
        if pick < 0.95:
            return fn(self.rng.choice(self.funcs), self._expr(depth - 1))
        return self.leaf()

    def point(self, lo=0.3, hi=1.2):
        return {s: self.rng.uniform(lo, hi) for s in self.table.symbols}
