import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ocquad.symexpr import (
    FUNCTIONS,
    ExprError,
    DivisionByZeroError,
    EvaluationError,
    ParseError,
    Role,
    Symbol,
    SymbolTable,
    UnboundSymbolError,
    add,
    compile_fn,
    differentiate,
    fn,
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
from oracles import DomainError, PoleError, evaluate, reference_add, reference_mul


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
        assert coeffs and coeffs[0].value == Fraction(1, 2)

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

    @pytest.mark.parametrize("text, shown", [("(-8)^(1/3)", "(-8)^(1/3)"),
                                             ("(-1)^(3/2)", "(-1)^(3/2)"),
                                             ("sqrt(-4)", "(-4)^(1/2)"),
                                             ("(-1/8)^(-2/3)", "(-1/8)^(-2/3)")])
    def test_negative_constant_under_a_fractional_power_is_refused(self, table3, text,
                                                                   shown):
        # a real odd root such as (-8)^(1/3) is refused too, not folded
        with pytest.raises(EvaluationError, match=fr"^constant {re.escape(shown)} is not real$"):
            parse(text, table3)

    def test_constant_roots_fold(self, table3):
        assert parse("8^(1/3)", table3) == num(2)
        assert parse("(4/9)^(-3/2)", table3) == num(Fraction(27, 8))
        assert parse("2^(1/2)", table3) == power(num(2), Fraction(1, 2))

    def test_zero_under_a_negative_fractional_power_divides_by_zero(self, table3):
        with pytest.raises(DivisionByZeroError, match="division by zero in constant"):
            parse("0^(-1/2)", table3)

    def test_unary_minus_binds_like_a_factor(self, table3):
        assert parse("-x1^2", table3) == negate(power(symref(table3.state(1)), 2))
        assert parse("-2*x1", table3) == mul(num(-2), symref(table3.state(1)))

    @pytest.mark.parametrize("text", ["(" * 400 + "x1" + ")" * 400,
                                      "-" * 3000 + "x1",
                                      "x1" + "^1" * 3000,
                                      "sin(" * 400 + "x1" + ")" * 400],
                             ids=["parentheses", "unary_minus", "power_chain", "calls"])
    def test_deep_nesting_is_a_parse_error(self, table3, text):
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse(text, table3)
        assert 0 <= exc.value.position < len(text)


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

    def test_add_and_mul_match_the_rebuilding_constructors(self, table3):
        # add and mul reuse canonical factors instead of rebuilding them;
        # the result must be the same tree.  Repeated and negated operands
        # make like terms and like bases collect, cancel and fold
        gen = ExprGen(table3, seed=31)
        for _ in range(400):
            ops = [gen.expr(2) for _ in range(gen.rng.randint(1, 4))]
            ops += [gen.rng.choice(ops) for _ in range(gen.rng.randint(0, 2))]
            if gen.rng.random() < 0.3:
                ops.append(negate(gen.rng.choice(ops)))
            for got, want in ((add(*ops), reference_add(*ops)),
                              (mul(*ops), reference_mul(*ops))):
                assert got == want
                assert got.sort_key() == want.sort_key()
                assert to_string(got) == to_string(want)


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

    def test_term_budget(self, table3):
        from ocquad.symexpr import MAX_EXPANDED_TERMS, expand

        def poly(var, count):
            return "(" + " + ".join(["1"] + [f"{var}^{k}" for k in range(1, count)]) + ")"

        # 52 x 52 = 2,704 terms compile, and 53 x 53 = 2,809 are past the budget
        assert MAX_EXPANDED_TERMS == 2_800
        assert len(expand(parse(poly("x1", 52) + "*" + poly("x2", 52), table3)).terms) == 2_704
        with pytest.raises(EvaluationError, match=r"expanding .{77}\.\.\. gives more than "
                                                  r"2,800 terms\)$"):
            expand(parse("psi1*" + poly("x1", 53) + "*" + poly("x2", 53), table3))
        # a power fails at the step past the budget, and names itself
        e = parse("(x1 + x2 + x3 + t + 1)^12", table3)
        assert len(expand(e).terms) == 1_820
        with pytest.raises(EvaluationError, match=r"^cannot compile: expression too long or too "
                                                  r"deeply nested \(expanding "
                                                  r"\(1 \+ x1 \+ x2 \+ x3 \+ t\)\^16 gives"):
            expand(parse("x3*(x1 + x2 + x3 + t + 1)^16", table3))


class TestPolynomialReader:
    @staticmethod
    def rows(table):
        return table.phase + (table.time,)

    def test_reads_a_product_of_sums(self, table3):
        from ocquad.symexpr import polynomial
        got = polynomial(parse("(x1 + psi2/2)^2 - x1^2 + 3*t", table3), self.rows(table3))
        # rows x1 x2 x3 psi1 psi2 psi3 t
        assert got == {(1, 0, 0, 0, 1, 0, 0): Fraction(1),
                       (0, 0, 0, 0, 2, 0, 0): Fraction(1, 4),
                       (0, 0, 0, 0, 0, 0, 1): Fraction(3)}

    def test_zero_is_the_empty_polynomial(self, table3):
        from ocquad.symexpr import polynomial
        assert polynomial(parse("x1*psi1 - psi1*x1", table3), self.rows(table3)) == {}

    @pytest.mark.parametrize("text", ["sin(x1)", "x1^(1/2)", "psi1/(1 + x1)^2", "x1^(-1)",
                                      "u1*psi1"])
    def test_rejects_what_is_not_a_polynomial_in_the_rows(self, table3, text):
        from ocquad.symexpr import polynomial
        assert polynomial(parse(text, table3), self.rows(table3)) is None

    def test_rejects_martinets_hamiltonian(self):
        from ocquad.ocp import sample_symbols, true_hamiltonian
        from ocquad.problems import builtin, load_problem
        from ocquad.symexpr import polynomial
        problem, _ = load_problem(builtin("martinet"))
        th = true_hamiltonian(problem)
        assert polynomial(th.envelope[0], sample_symbols(problem.table)) is None

    def test_values_match_the_expression_on_random_trees(self, table3):
        from ocquad.symexpr import polynomial
        gen = ExprGen(table3, seed=8, funcs=("sin",))
        rows = self.rows(table3)
        read = 0
        for _ in range(400):
            e = gen.expr(3)
            poly = polynomial(e, rows)
            if poly is None:
                continue
            pt = gen.point()
            want = evaluate(e, pt)
            got = sum(float(c) * math.prod(pt[s] ** k for s, k in zip(rows, m))
                      for m, c in poly.items())
            assert abs(got - want) <= 1e-9 * (1 + abs(want))
            read += 1
        assert read >= 50


class TestPolynomialArithmetic:
    """`poly_product` and `poly_derivative` agree with `mul` and `differentiate`
    on random polynomial trees, each read back by `polynomial`."""

    @staticmethod
    def random_polynomial(rng, rows, depth):
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.3:
                return f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
            return rng.choice(rows).name
        parts = [TestPolynomialArithmetic.random_polynomial(rng, rows, depth - 1)
                 for _ in range(rng.randint(2, 3))]
        pick = rng.random()
        if pick < 0.4:
            return "(" + rng.choice([" + ", " - "]).join(parts) + ")"
        if pick < 0.8:
            return "(" + "*".join(parts) + ")"
        return f"({parts[0]})^{rng.randint(2, 3)}"

    def test_product_and_derivative_match_the_trees(self, table3):
        from ocquad.symexpr import poly_derivative, poly_product, polynomial
        rng = random.Random(17)
        rows = table3.phase + (table3.time,)
        for _ in range(150):
            a, b = (parse(self.random_polynomial(rng, rows, 3), table3) for _ in range(2))
            pa, pb = polynomial(a, rows), polynomial(b, rows)
            assert polynomial(mul(a, b), rows) == poly_product(pa, pb)
            for r, s in enumerate(rows):
                assert polynomial(differentiate(a, s), rows) == poly_derivative(pa, r)


class TestCompile:
    def test_agrees_with_evaluate(self, table3):
        gen = ExprGen(table3, seed=13)
        done = 0
        while done < 100:
            e = gen.expr(3)
            args = tuple(sorted(e.free(), key=lambda s: s.sort_key))
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

    @pytest.mark.parametrize("value", [Fraction(10) ** 400, -Fraction(10) ** 400,
                                       Fraction(1, 3) * Fraction(10) ** 309],
                             ids=["1e400", "-1e400", "1e309/3"])
    def test_constant_beyond_the_float_range(self, table3, value):
        x1 = table3.state(1)
        with pytest.raises(EvaluationError, match="float range"):
            compile_fn(mul(num(value), symref(x1)), (x1,))
        with pytest.raises(EvaluationError, match="float range"):
            compile_fn((symref(x1), num(value)), (x1,))

    def test_flat_sum_too_long_to_compile(self):
        table = make_table(10000)
        e = add(*(symref(s) for s in table.states))
        with pytest.raises(EvaluationError, match="too long or too deeply nested"):
            compile_fn(e, table.states)

    def test_nesting_too_deep_to_compile(self, table3):
        x1 = table3.state(1)
        e = symref(x1)
        for _ in range(400):
            e = fn("sin", e)
        with pytest.raises(EvaluationError, match="too long or too deeply nested"):
            compile_fn(e, (x1,))

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


class TestScalarCompile:
    """`compile_fn(..., scalar=True)` returns Python floats, bit for bit the
    values of the array compilation, for every function of the grammar."""

    # "" is the call-free input: the same arithmetic around x1 itself
    @pytest.mark.parametrize("name", [*FUNCTIONS, pytest.param("", id="no_call")])
    def test_agrees_bit_for_bit_with_the_array_compilation(self, table3, name):
        args = (table3.state(1), table3.state(2))
        call = fn(name, symref(args[0])) if name else symref(args[0])
        # the call under the arithmetic a compiled Hamiltonian applies to it:
        # products, integer and fractional powers, and a division
        exprs = (call, parse(f"{name}(x1)^3*x2 - ({name}(x1*x2)^2 + 1)^(1/2) "
                             f"+ x1/{name}(x2) + {name}(x1)^(-2)", table3))
        scalar, array = compile_fn(exprs, args, scalar=True), compile_fn(exprs, args)
        columns = np.random.default_rng(5).uniform(1.1, 1.4, size=(2, 200))
        for point in columns.T.tolist():
            got = scalar(*point)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(array(*point), dtype=float).tobytes()
        # the call alone, evaluated over whole columns
        by_point = [scalar(*point)[0] for point in columns.T.tolist()]
        assert np.array(by_point).tobytes() == array(*columns)[0].tobytes()

    def test_fractional_power_of_a_negative_base_raises(self, table3):
        # Python evaluates (-1.0) ** 0.5 to a complex number; the scalar form
        # raises TypeError there instead of passing it on
        args = (table3.state(1),)
        e = parse("x1^(1/2)", table3)
        scalar, array = compile_fn(e, args, scalar=True), compile_fn(e, args)
        got = scalar(2.0)
        assert type(got) is float
        assert np.array(got).tobytes() == np.array(array(np.array([2.0])), dtype=float).tobytes()
        with pytest.raises(TypeError):
            scalar(-1.0)
        # under a function call, whose float() would keep the real part
        with pytest.raises(TypeError):
            compile_fn(parse("exp(x1^(1/2))", table3), args, scalar=True)(-1.0)


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
