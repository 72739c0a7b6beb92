"""Expression core: parsing, differentiation, simplification, evaluation."""

import copy
import gc
import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clairaut import (
    Call,
    ClairautError,
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
from clairaut import expressions
from clairaut.errors import ArgumentError
from clairaut.expressions import MAX_NESTING
from clairaut.fixtures import BUNDLED, load_bundled

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

    def test_overflowing_literal_error_position(self):
        with pytest.raises(ExprSyntaxError, match="number 1e400 is not a finite double") as err:
            parse_expression("x +\n  2*1e400")
        assert (err.value.line, err.value.column) == (2, 5)
        assert parse_expression("1e300") == Const(1e300)

    def test_roundtrip_random_trees(self):
        rng = random.Random(7)
        for _ in range(300):
            normal = simplify(random_tree(rng, 4))
            again = parse_expression(str(normal))
            assert again is normal, f"round-trip changed {normal!r} into {again!r}"


# expression source nested `depth` levels deep, in each form that nests
NESTED_FORMS = {
    "parentheses": lambda depth: "(" * depth + "d(x)*x" + ")" * depth,
    "calls": lambda depth: "sin(" * depth + "d(x)" + ")" * depth,
    "unary_minus": lambda depth: "-" * depth + "d(x)",
    "power_chain": lambda depth: "^".join(["d(x)"] * (depth + 1)),
    "quotient_chain": lambda depth: "/".join(["(1+d(x)^2)"] + ["x"] * depth),
}


class TestNestingLimit:
    @pytest.mark.parametrize("form", sorted(NESTED_FORMS))
    def test_deeper_than_the_limit_is_a_syntax_error(self, form):
        for depth in (MAX_NESTING + 1, 400, 5000):
            with pytest.raises(ExprSyntaxError, match=f"more than {MAX_NESTING} levels"):
                parse_expression(NESTED_FORMS[form](depth))

    @pytest.mark.parametrize("form", sorted(NESTED_FORMS))
    def test_tree_at_the_limit_differentiates_and_compiles(self, form):
        e = parse_expression(NESTED_FORMS[form](MAX_NESTING))
        d = differentiate(e, "d(x)")
        assert simplify(d) == d
        names = ["x", "d(x)"]
        f = compile_evaluator([e, d], names)
        point = {"x": 1.1, "d(x)": 1.2}
        got = f([point[n] for n in names])
        assert got[0] == pytest.approx(evaluate(e, point), rel=1e-12)
        assert got[1] == pytest.approx(evaluate(d, point), rel=1e-12)


    @pytest.mark.parametrize("form", sorted(NESTED_FORMS))
    def test_tree_at_the_limit_prints_and_reparses(self, form):
        e = parse_expression(NESTED_FORMS[form](MAX_NESTING))
        assert parse_expression(str(e)) == e

    @pytest.mark.parametrize("text", [
        "x - " + "-" * (MAX_NESTING - 1) + "d(x)",
        "-" * (MAX_NESTING - 1) + "d(x) + y",
        "x^" + "-" * (MAX_NESTING - 1) + "y",
        "--x + --y - --z*w",
        "-(-(a*b))/(-c)",
    ])
    def test_negation_chains_round_trip(self, text):
        e = parse_expression(text)
        assert parse_expression(str(e)) == e


class TestPrintedForm:
    @pytest.mark.parametrize("text", ["x^(a*b)", "x^(a/b)", "x^(a + b)", "x^-(a*b)", "x^y^z"])
    def test_composite_exponent_keeps_its_parentheses(self, text):
        e = parse_expression(text)
        assert str(e) == text
        assert parse_expression(str(e)) is e

    def test_zero_normal_form_is_positive_zero(self):
        # -0.0 prints as "0", which parses to +0.0
        for e in (Neg(Const(0)), Const(-0.0), Quot(Neg(Const(0)), Const(2))):
            assert simplify(e) is Const(0.0)
            assert parse_expression(str(simplify(e))) is simplify(e)


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

    def test_no_fold_sin_or_cos_of_inf(self):
        # math.sin(inf) raises ValueError; the call stays for evaluate to raise
        for fn in ("sin", "cos"):
            e = Call(fn, Prod((Const(1e300), Const(1e300))))
            assert simplify(e) is Call(fn, Const(math.inf))
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
            assert once is twice, f"simplify not idempotent on {e!r}"

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


def full_diff(e, x, d):
    """expressions._diff with the full sum, negation and product rules, which
    keep the terms whose derivative is 0, over interned nodes throughout."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Sym):
        return Const(1.0 if e.name == x else 0.0)
    if isinstance(e, Sum):
        return Sum(tuple(d[t] for t in e.terms))
    if isinstance(e, Neg):
        return Neg(d[e.child])
    if isinstance(e, Prod):
        fs = e.factors
        return Sum(tuple(Prod(tuple(d[f] if j == i else f for j, f in enumerate(fs)))
                         for i in range(len(fs))))
    if isinstance(e, Quot):
        num = Sum((Prod((d[e.num], e.den)), Neg(Prod((e.num, d[e.den])))))
        return full_quot(num, Pow(e.den, Const(2.0)))
    if isinstance(e, Pow):
        c = expressions._signed_const(e.exponent)
        if c is not None:
            return Prod((Const(c), Pow(e.base, Const(c - 1.0)), d[e.base]))
        bracket = Sum((Prod((d[e.exponent], Call("log", e.base))),
                       Prod((e.exponent, full_quot(d[e.base], e.base)))))
        return Prod((e, bracket))
    u, du = e.arg, d[e.arg]
    if e.fn == "sin":
        return Prod((Call("cos", u), du))
    if e.fn == "cos":
        return Neg(Prod((Call("sin", u), du)))
    if e.fn == "exp":
        return Prod((e, du))
    if e.fn == "log":
        return full_quot(du, u)
    return full_quot(du, Prod((Const(2.0), Call("sqrt", u))))


def full_quot(num, den):
    """expressions._dquot over interned nodes: num/den, 0 where num is."""
    return Const(0.0) if simplify(num) is Const(0.0) else Quot(num, den)


def full_missing(memo, e):
    """_Derivatives.__missing__ without the free-symbol shortcut: every node
    is derived by full_diff."""
    out = memo[e] = full_diff(e, memo.x, memo)
    return out


def by_full_rules(fn, *args):
    """fn(*args) with every derivation by the full rules (full_missing)."""
    missing = expressions._Derivatives.__missing__
    expressions._Derivatives.__missing__ = full_missing
    try:
        return fn(*args)
    finally:
        expressions._Derivatives.__missing__ = missing


def special_trees(depth=4):
    """Trees over x, y and d(x) whose constants include -0.0, inf, nan and
    1e308, whose square overflows."""
    leaves = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 1e308, math.inf, math.nan]).map(Const),
        st.sampled_from(["x", "y", "d(x)"]).map(Sym),
    )
    if depth == 0:
        return leaves
    sub = special_trees(depth - 1)
    return st.one_of(
        leaves,
        st.lists(sub, min_size=2, max_size=3).map(Sum),
        st.lists(sub, min_size=2, max_size=4).map(Prod),
        st.builds(Pow, sub, st.sampled_from([2.0, 3.0, 0.5, -1.0]).map(Const)),
        st.builds(Pow, sub, sub),
        st.builds(Neg, sub),
        st.builds(Quot, sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), sub),
    )


class TestZeroPruning:
    """The sum, negation and product rules leave out zero terms, and a
    derivation skips the subtrees that do not read its symbol; the
    derivative, first and second, is the very node the full rules give."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(special_trees(), st.sampled_from(["x", "y", "d(x)", "z"]))
    @example(parse_expression("1e308*x^2"), "x")
    @example(parse_expression("1e300*1e300*x*d(y) - y*d(y)"), "d(y)")
    @example(Prod((Const(-0.0), Sym("x"), Neg(Const(math.inf)), Sym("y"))), "x")
    def test_the_node_of_the_full_rules(self, e, name):
        for _ in range(2):
            pruned = differentiate(e, name)
            assert pruned is by_full_rules(differentiate, e, name), e
            e = pruned

    def test_an_inf_coefficient_keeps_its_nan(self):
        # 1e300*1e300 folds to inf, and d(y)'s second derivative is inf*0
        e = differentiate(parse_expression("1e300*1e300*x*d(y)"), "d(y)")
        assert differentiate(e, "d(y)") is Const(math.nan)
        # inf*x does not read y, but holds inf: it is derived, to inf*0
        assert differentiate(parse_expression("1e300*1e300*x + y"), "y") is Const(math.nan)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_cores_compile_to_the_same_source(self, name):
        def sources():
            core = load_bundled(name).core
            return core.fn.source, core.third[0].source, core.third[1]

        assert sources() == by_full_rules(sources)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(special_trees(), st.sampled_from(["x", "d(x)"]))
    def test_a_derivative_is_interned_throughout(self, e, name):
        # the rules' scaffolding is not interned; simplify's normal form is
        # (a copy of an interned node rebuilds through the table: itself)
        d = differentiate(e, name)
        assert all(copy.copy(k) is k for k in expressions._walk([d]))

    def test_a_derivation_visits_only_the_nodes_that_read_its_symbol(self, monkeypatch):
        e = simplify(parse_expression("sin(x)*cos(y)^2 + exp(y)*y/(1 + y^2) - x"))
        calls, diff = [], expressions._diff
        monkeypatch.setattr(expressions, "_diff", lambda k, x, d: calls.append(k) or diff(k, x, d))
        for name, reading in (("x", 5), ("z", 0)):
            calls.clear()
            differentiate(e, name)
            assert len(calls) == reading
            assert set(calls) == {k for k in expressions._walk([e]) if name in free_symbols(k)}


class TestFreeSymbols:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(special_trees())
    def test_the_names_a_walk_finds(self, e):
        # the kept set marks a non-finite constant below; free_symbols drops it
        walk = expressions._walk([e])
        names = {k.name for k in walk if isinstance(k, Sym)}
        marked = any(isinstance(k, Const) and not math.isfinite(k.value) for k in walk)
        assert free_symbols(e) == names
        assert expressions._free_names(e) == names | ({expressions._NON_FINITE} if marked else set())

    def test_threads_reading_one_new_tree_agree(self):
        # a node's set is filled on first read without a lock: threads that
        # race on it may both compute it, and every one reads the same names
        width, rounds, start = 8, 50, threading.Barrier(4)
        trees = [parse_expression("+".join(f"sin(race_{r}_{i}*d(x))" for i in range(width)))
                 for r in range(rounds)]
        want = [{"d(x)"} | {f"race_{r}_{i}" for i in range(width)} for r in range(rounds)]
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append([free_symbols(e) for e in trees])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [want] * 4


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

    @pytest.mark.parametrize("text, x", [("1/x", 0.0), ("log(x)", -1.0)])
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
    def test_domain_error_for_numpy_inputs(self, text, x, container):
        # numpy scalars would turn these faults into silent inf or nan
        fn = compile_evaluator(parse_expression(text), ["x"])
        with pytest.raises(DomainError):
            fn(container([np.float64(x)]))


class TestInterning:
    def test_equal_structure_is_one_node(self):
        x, y = Sym("x"), Sym("y")
        assert Sum((x, y)) is Sum((x, y))
        assert Sum([x, y]) is Sum((x, y))
        assert Const(2) is Const(2.0)
        assert Call("sin", Prod((x, y))) is Call("sin", Prod((x, y)))
        assert Sum((x, y)) is not Sum((y, x))

    def test_unknown_function_is_a_typed_error(self):
        with pytest.raises(ArgumentError, match="unknown function 'tan'") as exc:
            Call("tan", Sym("x"))
        assert isinstance(exc.value, ClairautError) and isinstance(exc.value, ValueError)

    def test_signed_zeros_stay_apart(self):
        assert Const(-0.0) is not Const(0.0)
        assert str(Const(-0.0)) == "0"
        assert "-0.0" in compile_evaluator(Prod((Sym("x"), Const(-0.0))), ["x"]).source

    def test_copies_and_pickles_are_the_node(self):
        e = parse_expression("sin(x)*exp(-y)/(1 + d(x)^2)")
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_table_shrinks_when_the_last_reference_goes(self):
        before = len(expressions._nodes)
        e = parse_expression("sin(only_here*d(only_here))^3 + exp(only_here)/only_here")
        d = differentiate(differentiate(e, "only_here"), "d(only_here)")
        assert len(expressions._nodes) > before + 10
        del e, d
        # no reference cycles: refcounting alone frees the nodes and memos
        assert len(expressions._nodes) == before

    def test_threads_building_the_same_nodes_get_the_same_objects(self):
        start = threading.Barrier(2)
        built = [None, None]

        def build(slot):
            start.wait()
            built[slot] = [Sum((Sym(f"thread_{i}"), Const(i))) for i in range(1000)]

        threads = [threading.Thread(target=build, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(a is b for a, b in zip(*built))


    def test_a_node_dying_under_the_lock_leaves_at_once(self):
        # the death callback takes no lock: a node may die inside _intern's
        # locked store, when a collection runs there
        held = [Sum((Sym("dies_under_lock"), Const(0.5)))]
        key, gone = (Sum, held[0].terms), []
        assert expressions._nodes[key]() is held[0]
        worker = threading.Thread(target=lambda: gone.append(
            held.clear() or key not in expressions._nodes))
        with expressions._nodes_lock:
            worker.start()
            worker.join(timeout=10)
            blocked = worker.is_alive()
        worker.join(timeout=10)
        assert not blocked and gone == [True]

    def test_no_dead_entries_after_a_collection(self):
        cycle = [parse_expression("sin(in_a_cycle*d(in_a_cycle))^2")]
        cycle.append(cycle)  # only the collector frees these nodes
        del cycle
        gc.collect()
        assert (Sym, "in_a_cycle") not in expressions._nodes
        assert all(ref() is not None for ref in list(expressions._nodes.values()))

    def test_a_node_rebuilt_after_its_death_is_shared(self):
        key = (Sym, "reborn")
        Sym("reborn")
        assert key not in expressions._nodes
        again = Sym("reborn")
        assert Sym("reborn") is again
        # a late callback for the dead node keeps its live replacement
        stale = expressions._Ref(Sym("stale"), None)
        stale.key = key
        expressions._drop(stale)
        assert expressions._nodes[key]() is again and Sym("reborn") is again


def _chain(kind, depth):
    v = Sym("d(u)")
    e = v
    for _ in range(depth):
        e = Pow(v, e) if kind == "power" else Call("sin", e)
    return e


class TestDepthGrowth:
    """Deriving a nested chain costs work per distinct node, so doubling the
    depth at most about doubles the node visits (counted, not timed)."""

    @staticmethod
    def visits(monkeypatch, kind, depth):
        counts = {"diff": 0, "simplify": 0}
        diff, simp = expressions._diff, expressions.simplify

        def counted_diff(e, x, d):
            counts["diff"] += 1
            return diff(e, x, d)

        def counted_simplify(e):
            counts["simplify"] += e._simple is None  # a node not yet simplified
            return simp(e)

        monkeypatch.setattr(expressions, "_diff", counted_diff)
        monkeypatch.setattr(expressions, "simplify", counted_simplify)
        # the second derivative, as the core's velocity Hessian needs
        expressions.differentiate(expressions.differentiate(_chain(kind, depth), "d(u)"), "d(u)")
        monkeypatch.undo()
        return counts

    @pytest.mark.parametrize("kind", ["power", "sin"])
    def test_visits_at_most_about_double(self, monkeypatch, kind):
        shallow = self.visits(monkeypatch, kind, 25)
        deep = self.visits(monkeypatch, kind, 50)
        for name in shallow:
            assert 0 < deep[name] <= 2.1 * shallow[name], (name, shallow, deep)
