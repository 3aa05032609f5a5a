"""Independent oracles the tests check the pipeline against.

`fd_bracket_oracle` approximates the canonical Poisson bracket by central
differences of pointwise evaluation; `Residual` evaluates
R(F) = dF/dt + {F, H} of a whole candidate expression; `combine` builds the
family map at one parameter vector.  None of them is used by the pipeline.
"""

from fractions import Fraction

from ocquad import symexpr as sx
from ocquad.ocp import PhaseFunction
from ocquad.poisson import bracket
from ocquad.symexpr import HAMILTONIAN_SYMBOL


def fd_bracket_oracle(f, g, table, point, h=1e-5):
    """Central-difference approximation of the canonical Poisson bracket."""

    def partial(e, s):
        up, dn = dict(point), dict(point)
        up[s] = point[s] + h
        dn[s] = point[s] - h
        return (sx.evaluate(e, up) - sx.evaluate(e, dn)) / (2 * h)

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
    expr = sx.add(*(sx.mul(sx.num(Fraction(int(w))), c.expr)
                    for w, c in zip(weights, family.components)))
    return PhaseFunction(expr, family.components[0].function.table)
