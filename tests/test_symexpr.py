import math
from fractions import Fraction

import numpy as np
import pytest

from ocquad.symexpr import (
    ExprError,
    DivisionByZeroError,
    DomainError,
    ParseError,
    PoleError,
    Role,
    Symbol,
    SymbolTable,
    UnboundSymbolError,
    add,
    compile_fn,
    differentiate,
    evaluate,
    fn,
    free_symbols,
    mul,
    negate,
    num,
    parse,
    power,
    simplify,
    substitute,
    symref,
    to_string,
)
from conftest import ExprGen, make_table


def central_diff(e, s, point, h=1e-5):
    up = dict(point)
    dn = dict(point)
    up[s] = point[s] + h
    dn[s] = point[s] - h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


class TestParse:
    def test_sum_of_products(self, table3):
        e = parse("psi1*cos(x3) + psi2*sin(x3)", table3)
        assert e.is_sum
        assert all(t.is_product for t in e.terms)

    def test_power_quotient_becomes_rational_coefficient(self, table3):
        e = parse("x1^2/2", table3)
        assert e.is_product
        coeffs = [c for c in e.factors if c.is_constant]
        assert coeffs and coeffs[0].constant == Fraction(1, 2)

    def test_unknown_identifier(self, table3):
        with pytest.raises(ParseError, match="psi9"):
            parse("psi9", table3)

    def test_syntax_error_carries_position(self, table3):
        with pytest.raises(ParseError) as exc:
            parse("x1 + * x2", table3)
        assert exc.value.position == 5

    def test_malformed_number(self, table3):
        with pytest.raises(ParseError, match="malformed number"):
            parse("1. + x1", table3)

    def test_decimals_become_exact_rationals(self, table3):
        assert parse("0.5*x1", table3) == parse("x1/2", table3)

    def test_fractional_exponent(self, table3):
        assert parse("x1^(3/2)", table3).exponent == Fraction(3, 2)
        with pytest.raises(ParseError, match="rational constant"):
            parse("x1^x2", table3)

    def test_unary_minus_binds_like_a_factor(self, table3):
        assert parse("-x1^2", table3) == negate(power(symref(table3.state(1)), 2))
        assert parse("-2*x1", table3) == mul(num(-2), symref(table3.state(1)))


class TestCanonicalForm:
    def test_zero_annihilates(self, table3):
        assert parse("0*sin(x1) + psi1", table3) == symref(table3.costate(1))

    def test_like_terms_collect(self, table3):
        assert parse("x1 + x1", table3) == parse("2*x1", table3)

    def test_like_factors_collect(self, table3):
        e = parse("(1+x1)*(1+x1)^(-3)", table3)
        assert e == power(parse("1+x1", table3), -2)

    def test_sums_flatten(self, table3):
        e = parse("(x1 + (x2 + x3)) + psi1", table3)
        assert e.is_sum and len(e.terms) == 4
        assert not any(t.is_sum for t in e.terms)

    def test_constant_folding(self, table3):
        assert parse("2^3 + 1/4 - 3", table3) == num(Fraction(21, 4))
        assert parse("sqrt(9/4)", table3) == num(Fraction(3, 2))

    def test_structural_equality_is_order_insensitive(self, table3):
        a = parse("x1*psi2 + sin(x2)*x3", table3)
        b = parse("x3*sin(x2) + psi2*x1", table3)
        assert a == b and hash(a) == hash(b)

    def test_division_by_zero_constant(self, table3):
        with pytest.raises(DivisionByZeroError):
            parse("1/0", table3)


class TestDifferentiate:
    def test_cos_rule(self, table3):
        x3 = table3.state(3)
        assert differentiate(fn("cos", symref(x3)), x3) == negate(fn("sin", symref(x3)))

    def test_time_free_expression(self, table3):
        e = parse("psi1*cos(x3) + x1^2", table3)
        assert differentiate(e, table3.time) == num(0)

    def test_dubins_hamiltonian_gradient_vs_finite_differences(self, table3):
        h = parse("((cos(x3)*psi1 + sin(x3)*psi2)^2 + psi3^2)/2", table3)
        d = differentiate(h, table3.costate(1))
        gen = ExprGen(table3, seed=7)
        for _ in range(50):
            pt = gen.point(-1.0, 1.0)
            assert abs(evaluate(d, pt) - central_diff(h, table3.costate(1), pt)) < 1e-6

    def test_derivative_matches_central_differences_on_random_trees(self, table3):
        gen = ExprGen(table3, seed=42)
        checked = 0
        while checked < 1000:
            e = gen.expr(3)
            s = gen.rng.choice(table3.phase + (table3.time,))
            pt = gen.point()
            try:
                v = evaluate(e, pt)
                d = evaluate(differentiate(e, s), pt)
                fd = central_diff(e, s, pt)
            except ExprError:
                continue
            if not (math.isfinite(v) and math.isfinite(d) and math.isfinite(fd)):
                continue
            if abs(v) > 100 or abs(d) > 100:
                continue  # steep regions defeat the finite-difference oracle
            assert abs(d - fd) <= 1e-5 * (1 + abs(v))
            checked += 1

    def test_linearity(self, table3):
        gen = ExprGen(table3, seed=3)
        done = 0
        while done < 100:
            e1, e2 = gen.expr(2), gen.expr(2)
            s = gen.rng.choice(table3.phase)
            a = num(Fraction(gen.rng.randint(-3, 3)))
            b = num(Fraction(gen.rng.randint(-3, 3)))
            combo = differentiate(add(mul(a, e1), mul(b, e2)), s)
            split = add(mul(a, differentiate(e1, s)), mul(b, differentiate(e2, s)))
            pt = gen.point()
            try:
                lhs, rhs = evaluate(combo, pt), evaluate(split, pt)
            except ExprError:
                continue
            if not (math.isfinite(lhs) and abs(lhs) < 1e6):
                continue
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
            done += 1


class TestSubstitute:
    def test_quadratic_elimination(self, table3):
        u1 = table3.control(1)
        e = parse("-u1^2/2 + psi1*u1", table3)
        assert substitute(e, {u1: symref(table3.costate(1))}) == parse("psi1^2/2", table3)

    def test_empty_binding_is_identity(self, table3):
        e = parse("sin(x1)*psi2 - t", table3)
        assert substitute(e, {}) == e

    def test_simultaneous(self, table3):
        x1, x2 = table3.state(1), table3.state(2)
        e = parse("x1 + x2", table3)
        swapped = substitute(e, {x1: symref(x2), x2: symref(x1)})
        assert swapped == e


class TestEvaluate:
    def test_square(self, table3):
        assert evaluate(parse("x1^2", table3), {table3.state(1): 3.0}) == 9.0

    def test_division_by_zero(self, table3):
        e = parse("1/(1+alpha*x1)", make_table(1, params=("alpha",)))
        tab = make_table(1, params=("alpha",))
        e = parse("1/(1+alpha*x1)", tab)
        with pytest.raises(DivisionByZeroError):
            evaluate(e, {tab.lookup("alpha"): 1.0, tab.state(1): -1.0})

    def test_ln_domain(self, table3):
        with pytest.raises(DomainError):
            evaluate(parse("ln(x1)", table3), {table3.state(1): -2.0})

    def test_tan_pole_guard(self, table3):
        with pytest.raises(PoleError):
            evaluate(parse("tan(x1)", table3), {table3.state(1): math.pi / 2})

    def test_unbound_symbol(self, table3):
        with pytest.raises(UnboundSymbolError):
            evaluate(parse("x1+x2", table3), {table3.state(1): 0.0})

    def test_matches_hand_composed_arithmetic(self, table3):
        h = parse("((cos(x3)*psi1 + sin(x3)*psi2)^2 + psi3^2)/2", table3)
        gen = ExprGen(table3, seed=11)
        for _ in range(20):
            pt = gen.point(-1.0, 1.0)
            direct = 0.5 * ((math.cos(pt[table3.state(3)]) * pt[table3.costate(1)]
                             + math.sin(pt[table3.state(3)]) * pt[table3.costate(2)]) ** 2
                            + pt[table3.costate(3)] ** 2)
            assert abs(evaluate(h, pt) - direct) < 1e-12


class TestRoundTrip:
    def test_goldens(self, table3):
        for text in [
            "psi1*cos(x3) + psi2*sin(x3)",
            "x1^2/2",
            "-(x1 - 2*x2)^2/(3*sqrt(x3+2)) - 5/7",
            "tan(u1)/(1+x1)^2",
            "exp(-t)*ln(x1+3)",
            "x1^(-3/2) + 2^(1/3)",
        ]:
            e = parse(text, table3)
            assert parse(to_string(e), table3) == e

    def test_random_trees(self, table3):
        gen = ExprGen(table3, seed=5)
        for _ in range(500):
            e = gen.expr(4)
            assert parse(to_string(e), table3) == e


class TestSimplify:
    def test_idempotent_and_eval_preserving(self, table3):
        gen = ExprGen(table3, seed=9)
        done = 0
        while done < 100:
            e = gen.expr(3)
            s = simplify(e)
            assert s == e  # constructors already canonicalise
            pt = gen.point()
            try:
                v = evaluate(e, pt)
            except ExprError:
                continue
            if not math.isfinite(v) or abs(v) > 1e8:
                continue
            assert abs(evaluate(s, pt) - v) <= 1e-12 * (1 + abs(v))
            done += 1


class TestExpand:
    def test_cancellation_after_distribution(self, table3):
        a = parse("psi1*cos(x3)", table3)
        b = parse("psi2*sin(x3)", table3)
        e = add(negate(add(a, b)), a, b)
        from ocquad.symexpr import expand, is_symbolically_zero
        assert is_symbolically_zero(e)
        assert expand(e) == num(0)

    def test_square_of_sum(self, table3):
        from ocquad.symexpr import expand
        e = expand(parse("(x1+x2)^2", table3))
        assert e == parse("x1^2 + 2*x1*x2 + x2^2", table3)

    def test_eval_preserving(self, table3):
        from ocquad.symexpr import expand
        gen = ExprGen(table3, seed=21)
        done = 0
        while done < 60:
            e = gen.expr(3)
            try:
                x = expand(e)
                pt = gen.point()
                v, vx = evaluate(e, pt), evaluate(x, pt)
            except ExprError:
                continue
            if not (math.isfinite(v) and abs(v) < 1e6):
                continue
            assert abs(v - vx) <= 1e-9 * (1 + abs(v))
            done += 1


class TestCompile:
    def test_agrees_with_evaluate(self, table3):
        gen = ExprGen(table3, seed=13)
        done = 0
        while done < 100:
            e = gen.expr(3)
            args = tuple(sorted(free_symbols(e), key=lambda s: s.sort_key))
            pt = gen.point()
            try:
                v = evaluate(e, pt)
            except ExprError:
                continue
            if not math.isfinite(v) or abs(v) > 1e8:
                continue
            f = compile_fn(e, args)
            got = f(*[pt[s] for s in args])
            assert abs(got - v) <= 1e-9 * (1 + abs(v))
            arr = f(*[np.full(3, pt[s]) for s in args])
            assert np.allclose(arr, v)
            done += 1

    def test_unbound_symbol_rejected(self, table3):
        with pytest.raises(UnboundSymbolError):
            compile_fn(parse("x1+x2", table3), (table3.state(1),))

    def test_shared_subexpressions_change_no_value(self, table3):
        # a tuple of an expression and its partials repeats subexpressions;
        # computing each once must give exactly the values of straight-line
        # code that recomputes them
        from ocquad import symexpr

        gen = ExprGen(table3, seed=21)
        args = table3.phase + (table3.time,)
        names = {s: f"a{i}" for i, s in enumerate(args)}
        shared = 0
        with np.errstate(all="ignore"):
            for _ in range(60):
                e = gen.expr(3)
                exprs = (e,) + tuple(differentiate(e, s) for s in args[:3])
                shared += len(symexpr._repeated_subexpressions(exprs))
                ns = {"np": np}
                exec("def ref(" + ", ".join(names.values()) + "):\n    return ("
                     + "".join(symexpr._emit(x, names, {}) + ", " for x in exprs) + ")", ns)
                fused = compile_fn(exprs, args)
                pt = gen.point()
                scalars = [pt[s] for s in args]
                arrays = [np.linspace(v - 0.2, v + 0.2, 5) for v in scalars]
                for got, want in zip(fused(*scalars), ns["ref"](*scalars)):
                    assert got == want or (math.isnan(got) and math.isnan(want))
                for got, want in zip(fused(*arrays), ns["ref"](*arrays)):
                    assert np.array_equal(got, want, equal_nan=True)
        assert shared > 0


class TestSymbolTable:
    def test_requires_one_time_symbol(self):
        with pytest.raises(ValueError, match="time"):
            SymbolTable([Symbol("x1", Role.STATE, 1), Symbol("psi1", Role.COSTATE, 1)])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            SymbolTable([Symbol("x1", Role.STATE, 1), Symbol("x1", Role.COSTATE, 1),
                         Symbol("t", Role.TIME)])

    def test_rejects_reserved_names(self):
        with pytest.raises(ValueError, match="built-in"):
            SymbolTable([Symbol("sin", Role.STATE, 1), Symbol("psi1", Role.COSTATE, 1),
                         Symbol("t", Role.TIME)])

    def test_phase_enumeration_order(self, table3):
        names = [s.name for s in table3.phase]
        assert names == ["x1", "x2", "x3", "psi1", "psi2", "psi3"]
