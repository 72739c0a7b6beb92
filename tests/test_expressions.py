"""Expression core: parsing, differentiation, simplification, evaluation."""

import math
import random

import pytest

from clairaut import (
    Call,
    Const,
    DomainError,
    ExprSyntaxError,
    Neg,
    Pow,
    Prod,
    Quot,
    Sum,
    Sym,
    UnboundSymbolError,
    compile_evaluator,
    differentiate,
    evaluate,
    free_symbols,
    parse_expression,
    simplify,
)

SYMBOL_POOL = ("x", "y", "z", "w", "d(x)")


def random_tree(rng, depth):
    """Random expression tree of bounded depth over SYMBOL_POOL."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(round(rng.uniform(0.5, 2.5), 3))
        return Sym(rng.choice(SYMBOL_POOL))
    kind = rng.choice(("sum", "prod", "pow", "neg", "quot", "call"))
    if kind == "sum":
        k = rng.randint(2, 3)
        return Sum(tuple(random_tree(rng, depth - 1) for _ in range(k)))
    if kind == "prod":
        k = rng.randint(2, 3)
        return Prod(tuple(random_tree(rng, depth - 1) for _ in range(k)))
    if kind == "pow":
        exponent = Const(float(rng.randint(1, 3)))
        return Pow(random_tree(rng, depth - 1), exponent)
    if kind == "neg":
        return Neg(random_tree(rng, depth - 1))
    if kind == "quot":
        return Quot(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    fn = rng.choice(("sin", "cos", "exp", "log", "sqrt"))
    return Call(fn, random_tree(rng, depth - 1))


def random_bindings(rng):
    return {name: rng.uniform(0.6, 1.7) for name in SYMBOL_POOL}


class TestParse:
    def test_velocity_symbol_is_flat(self):
        e = parse_expression("d(x)")
        assert e == Sym("d(x)")
        assert free_symbols(e) == {"d(x)"}

    def test_precedence_unary_minus_and_power(self):
        # -x^2 is -(x^2): power binds tighter than unary minus
        e = parse_expression("-x^2")
        assert e == Neg(Pow(Sym("x"), Const(2)))

    def test_power_right_associative(self):
        e = parse_expression("x^y^z")
        assert e == Pow(Sym("x"), Pow(Sym("y"), Sym("z")))

    def test_division_left_associative(self):
        e = parse_expression("a/b/c")
        assert e == Quot(Quot(Sym("a"), Sym("b")), Sym("c"))

    def test_products_flatten(self):
        e = parse_expression("a*b*c")
        assert e == Prod((Sym("a"), Sym("b"), Sym("c")))

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("2*^x")
        assert err.value.line == 1
        assert err.value.column == 3
        assert err.value.expected  # non-empty expected-token set

    def test_error_unknown_function(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("tan(x)")
        assert "tan" in str(err.value)

    def test_error_unbalanced(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(x + 1")

    def test_comment_and_lines(self):
        e = parse_expression("x +  # trailing note\n y")
        assert e == Sum((Sym("x"), Sym("y")))

    def test_error_line_tracking(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("x +\n* y")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_roundtrip_random_trees(self):
        rng = random.Random(7)
        for _ in range(300):
            normal = simplify(random_tree(rng, 4))
            again = parse_expression(str(normal))
            assert again == normal, f"round-trip changed {normal!r} into {again!r}"


class TestSimplify:
    def test_identities(self):
        assert simplify(parse_expression("x + 0")) == Sym("x")
        assert simplify(parse_expression("1*x")) == Sym("x")
        assert simplify(parse_expression("0*x")) == Const(0)
        assert simplify(parse_expression("x^1")) == Sym("x")
        assert simplify(parse_expression("x^0")) == Const(1)

    def test_constant_folding(self):
        assert simplify(parse_expression("2*3*x")) == Prod((Const(6), Sym("x")))
        assert simplify(parse_expression("2 + 3 + x")) == Sum((Sym("x"), Const(5)))

    def test_like_terms(self):
        assert simplify(parse_expression("x + x")) == Prod((Const(2), Sym("x")))
        assert simplify(parse_expression("0*x + 1*y")) == Sym("y")
        assert simplify(parse_expression("3*x - x")) == Prod((Const(2), Sym("x")))
        assert simplify(parse_expression("x - x")) == Const(0)

    def test_no_fold_division_by_zero(self):
        e = simplify(parse_expression("1/0"))
        assert isinstance(e, Quot)
        with pytest.raises(DomainError):
            evaluate(e, {})

    def test_no_fold_log_or_sqrt_of_negative(self):
        e = simplify(parse_expression("log(0 - 1)"))
        assert isinstance(e, Call)
        e = simplify(parse_expression("sqrt(0 - 4)"))
        assert isinstance(e, Call)

    def test_idempotent_random_trees(self):
        rng = random.Random(11)
        for _ in range(1000):
            e = random_tree(rng, 6)
            once = simplify(e)
            twice = simplify(once)
            assert once == twice, f"simplify not idempotent on {e!r}"

    def test_value_preserved_random_trees(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(1000):
            e = random_tree(rng, 5)
            b = random_bindings(rng)
            try:
                before = evaluate(e, b)
            except DomainError:
                continue
            if abs(before) > 1e8:
                continue
            after = evaluate(simplify(e), b)
            assert after == pytest.approx(before, rel=1e-10, abs=1e-10)
            checked += 1
        assert checked > 400


class TestDifferentiate:
    def test_quadratic_velocity(self):
        e = parse_expression("m*d(x)^2/2")
        assert differentiate(e, "d(x)") == Prod((Sym("m"), Sym("d(x)")))

    def test_exponential_coefficient(self):
        e = parse_expression("x*exp(k*d(x))")
        assert differentiate(e, "x") == Call("exp", Prod((Sym("k"), Sym("d(x)"))))

    def test_velocity_and_coordinate_independent(self):
        e = parse_expression("x^2")
        assert differentiate(e, "d(x)") == Const(0)

    def test_chain_rule_sqrt(self):
        e = parse_expression("sqrt(x^2 + 1)")
        d = differentiate(e, "x")
        val = evaluate(d, {"x": 3.0})
        assert val == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-12)

    def test_symbolic_exponent(self):
        e = parse_expression("x^y")
        d = differentiate(e, "y")
        val = evaluate(d, {"x": 2.0, "y": 3.0})
        assert val == pytest.approx(8.0 * math.log(2.0), rel=1e-12)

    def test_against_central_differences(self):
        rng = random.Random(42)
        step = 1e-6
        checked = 0
        while checked < 1000:
            e = random_tree(rng, 6)
            name = rng.choice(SYMBOL_POOL)
            b = random_bindings(rng)
            try:
                d_val = evaluate(differentiate(e, name), b)
                up = dict(b, **{name: b[name] + step})
                dn = dict(b, **{name: b[name] - step})
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2.0 * step)
            except DomainError:
                continue
            if abs(d_val) > 1e6 or abs(fd) > 1e6:
                continue
            assert abs(d_val - fd) <= 1e-5 * (1.0 + abs(d_val)), (
                f"derivative mismatch on {e!r} wrt {name}: {d_val} vs {fd}"
            )
            checked += 1


    def test_output_is_already_simplified(self):
        # callers need no second simplify over a derivative
        rng = random.Random(17)
        for _ in range(300):
            e = random_tree(rng, 5)
            for name in ("x", "d(x)"):
                d = differentiate(e, name)
                assert simplify(d) == d


class TestEvaluate:
    def test_unbound_symbol_names_it(self):
        with pytest.raises(UnboundSymbolError) as err:
            evaluate(parse_expression("x + q"), {"x": 1.0})
        assert err.value.name == "q"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("1/x"), {"x": 0.0})
        with pytest.raises(DomainError):
            evaluate(parse_expression("log(x)"), {"x": -1.0})
        with pytest.raises(DomainError):
            evaluate(parse_expression("sqrt(x)"), {"x": -4.0})
        with pytest.raises(DomainError):
            evaluate(parse_expression("x^0.5"), {"x": -1.0})

    def test_basic_values(self):
        assert evaluate(parse_expression("2^3^2"), {}) == 512.0
        assert evaluate(parse_expression("sin(0) + cos(0)"), {}) == pytest.approx(1.0)


class TestCompile:
    def test_matches_interpreter(self):
        rng = random.Random(3)
        names = list(SYMBOL_POOL)
        for _ in range(200):
            e = simplify(random_tree(rng, 5))
            b = random_bindings(rng)
            fn = compile_evaluator(e, names)
            vals = [b[n] for n in names]
            try:
                expected = evaluate(e, b)
            except DomainError:
                with pytest.raises(DomainError):
                    fn(vals)
                continue
            if abs(expected) > 1e12:
                continue
            assert fn(vals) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_vector_form(self):
        exprs = [parse_expression("x + y"), parse_expression("x*y")]
        fn = compile_evaluator(exprs, ["x", "y"])
        assert fn([2.0, 3.0]) == (5.0, 6.0)

    def test_unbound_at_compile_time(self):
        with pytest.raises(UnboundSymbolError):
            compile_evaluator(parse_expression("x + q"), ["x"])

    def test_domain_error_at_call_time(self):
        fn = compile_evaluator(parse_expression("1/x"), ["x"])
        with pytest.raises(DomainError):
            fn([0.0])
