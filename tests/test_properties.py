"""Property tests of the expression core over generated trees.

Hypothesis runs derandomized and without an example database, so every run
draws the same trees.  SymPy serves only as an independent oracle for the
derivatives; the package itself does not use it.
"""

import math

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from clairaut import (
    Call,
    Const,
    DomainError,
    Neg,
    Pow,
    Prod,
    Quot,
    Sum,
    Sym,
    compile_evaluator,
    differentiate,
    evaluate,
    parse_expression,
    simplify,
)

NAMES = ("x", "y", "d(x)")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")
DEPTH = 5  # far inside MAX_NESTING: every printed tree parses

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def trees(depth=DEPTH):
    """Expression trees at most depth levels deep over NAMES."""
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 0.25, 1.5]).map(Const),
        st.sampled_from(NAMES).map(Sym),
    )
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return st.one_of(
        leaves,
        st.lists(sub, min_size=2, max_size=3).map(Sum),
        st.lists(sub, min_size=2, max_size=3).map(Prod),
        st.builds(Pow, sub, st.sampled_from([1.0, 2.0, 3.0, 0.5]).map(Const)),
        st.builds(Pow, sub, sub),
        st.builds(Neg, sub),
        st.builds(Quot, sub, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    )


bindings = st.fixed_dictionaries({n: st.floats(0.6, 1.7) for n in NAMES})


def outcome(fn):
    """The float fn returns, as its bit pattern, or the DomainError it raises."""
    try:
        return fn().hex()
    except DomainError:
        return "DomainError"


@SETTINGS
@given(trees(), bindings)
def test_interpreted_and_compiled_evaluators_agree_bit_for_bit(e, b):
    compiled = compile_evaluator(e, list(NAMES))
    args = [b[n] for n in NAMES]
    assert outcome(lambda: evaluate(e, b)) == outcome(lambda: compiled(args))


@SETTINGS
@given(trees(), bindings)
def test_simplify_is_idempotent_and_keeps_values(e, b):
    once = simplify(e)
    assert simplify(once) is once
    try:
        before = evaluate(e, b)
    except DomainError:
        return
    assume(math.isfinite(before) and abs(before) < 1e8)
    assert evaluate(once, b) == pytest.approx(before, rel=1e-9, abs=1e-9)


@SETTINGS
@given(trees())
def test_printed_normal_form_parses_to_the_same_node(e):
    normal = simplify(e)
    assert parse_expression(str(normal)) is normal


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Float(e.value)
    if isinstance(e, Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, Sum):
        return sympy.Add(*map(to_sympy, e.terms))
    if isinstance(e, Prod):
        return sympy.Mul(*map(to_sympy, e.factors))
    if isinstance(e, Pow):
        return sympy.Pow(to_sympy(e.base), to_sympy(e.exponent))
    if isinstance(e, Neg):
        return -to_sympy(e.child)
    if isinstance(e, Quot):
        return to_sympy(e.num) / to_sympy(e.den)
    return getattr(sympy, e.fn)(to_sympy(e.arg))


@SETTINGS
@given(trees(), st.sampled_from(NAMES), bindings)
def test_derivative_matches_sympy(e, name, b):
    try:
        got = evaluate(differentiate(e, name), b)
    except DomainError:
        assume(False)
    assume(math.isfinite(got) and abs(got) < 1e8)
    oracle = sympy.diff(to_sympy(e), sympy.Symbol(name))
    want = complex(oracle.evalf(30, subs={sympy.Symbol(n): v for n, v in b.items()}))
    assert abs(want.imag) <= 1e-9 * (1.0 + abs(want.real))
    assert got == pytest.approx(want.real, rel=1e-8, abs=1e-8)

