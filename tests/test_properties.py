"""Property tests of the expression core over generated trees, of every
subcommand over generated argument lists, and of the float rank against
numpy's elimination.

Hypothesis runs derandomized and without an example database, so every run
draws the same trees and argument lists.  SymPy serves only as an
independent oracle for the derivatives; the package itself does not use it.
"""

import contextlib
import functools
import io
import json
import math
import os
import re
import tempfile
from importlib import resources

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
jsonschema = pytest.importorskip("jsonschema")

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from clairaut import (
    Call,
    ClairautTransform,
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
    load_bundled,
    parse_expression,
    simplify,
)
from clairaut.cli import main
from clairaut.fixtures import BUNDLED
from clairaut.numerics import rank_and_pivots

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
    # a derivative folds its dead 0/u terms, so the derivative of c/0 is 0,
    # where sympy has no oracle: it cannot build c/0, or folds e to zoo or
    # nan (whose derivative it takes as 0)
    try:
        se = to_sympy(e)
    except ZeroDivisionError:
        assume(False)
    assume(not se.has(sympy.nan, sympy.zoo))
    oracle = sympy.diff(se, sympy.Symbol(name))
    want = complex(oracle.evalf(30, subs={sympy.Symbol(n): v for n, v in b.items()}))
    assert abs(want.imag) <= 1e-9 * (1.0 + abs(want.real))
    assert got == pytest.approx(want.real, rel=1e-8, abs=1e-8)



# ------------------------------------------------------- simulate from argv

SIMULATED = ("particle", "christ_lee", "synthetic_gaugeless")


@functools.lru_cache(maxsize=None)
def csv_header(name):
    split = ClairautTransform(load_bundled(name)).split
    return ",".join(["t"] + [f"q:{c}" for c in load_bundled(name).coords]
                    + [f"p:{c}" for c in split.regular] + [f"v:{c}" for c in split.degenerate]
                    + ["H_phys", "consistency_residual", "el_residual"])


def now_and_then(good, bad):
    """Draws from good, and about one time in sixteen from the list bad."""
    return st.sampled_from(range(16)).flatmap(
        lambda i: st.sampled_from(bad) if i == 15 else good)


@st.composite
def simulate_argv(draw):
    """simulate on one of SIMULATED, with --t1 <= 0.05 (so at most 50 steps
    at the smallest --dt drawn), --init over the model's names and --gauge
    over its degenerate coordinates, each now and then a bad one."""
    name = draw(st.sampled_from(SIMULATED))
    split = ClairautTransform(load_bundled(name)).split
    names = (list(load_bundled(name).coords) + [f"p_{c}" for c in split.regular]
             + [f"d({c})" for c in split.degenerate])
    init = draw(st.dictionaries(
        now_and_then(st.sampled_from(names), ["bogus", "p_bogus"]),
        now_and_then(st.floats(-1.0, 1.0, width=32).map(repr),
                     ["100", "1e300", "nan", "inf", "x", ""]),
        max_size=4))
    gauge = draw(st.dictionaries(
        now_and_then(st.sampled_from(split.degenerate), ["bogus"]),
        now_and_then(st.one_of(st.sampled_from(["solve", "zero", "1"]),
                               st.builds("{}+{}*sin(t)".format, st.floats(1.0, 2.0, width=32),
                                         st.floats(-0.5, 0.5, width=32))),
                     ["log(t)", "y", "1/0", "sin(", "nan"]),
        max_size=2))
    argv = ["simulate", name,
            "--t1", draw(now_and_then(st.floats(0.01, 0.05).map(repr), ["0", "1e-4", "nan"])),
            "--dt", draw(now_and_then(st.sampled_from(["1e-3", "2.5e-3", "0.01"]), ["0", "inf"]))]
    if init:
        argv += ["--init", ",".join(f"{k}={v}" for k, v in init.items())]
    if gauge:
        argv += ["--gauge", ",".join(f"{k}={v}" for k, v in gauge.items())]
    return argv


@settings(SETTINGS, max_examples=60)
@given(simulate_argv())
def test_simulate_exits_with_a_documented_code_and_a_whole_csv(argv):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "out.csv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", path])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            t1, dt = float(argv[argv.index("--t1") + 1]), float(argv[argv.index("--dt") + 1])
            assert lines[0] == csv_header(argv[1])
            assert len(lines) == 1 + int(round(t1 / dt)) + 1


# ---------------------------------------------- transform and pde from argv

TRANSFORMED = ("oscillator", "exponential", "cawley", "particle", "christ_lee",
               "synthetic_gaugeless")

# values from ordinary to huge and tiny magnitudes, subnormals included
values = st.one_of(
    st.floats(-2.0, 2.0, width=32).map(repr),
    st.builds(lambda m, e: repr(m * 10.0 ** e), st.floats(-9.99, 9.99), st.integers(-320, 307)),
    st.sampled_from(["1e308", "-1e308", "1e154", "1e-308", "5e-324", "0"]),
)


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, out, err):
    """An exit code from the README, no traceback, and no inf or nan printed
    by a run that succeeded."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out), out


@st.composite
def transform_argv(draw):
    """transform on one of TRANSFORMED with every coordinate and regular
    momentum bound (now and then one missing or a bogus name), and the
    degenerate velocities now and then."""
    name = draw(st.sampled_from(TRANSFORMED))
    split = ClairautTransform(load_bundled(name)).split
    names = list(load_bundled(name).coords) + [f"p_{c}" for c in split.regular]
    names += draw(st.lists(st.sampled_from([f"d({c})" for c in split.degenerate] or [""]),
                           max_size=2, unique=True))
    names = [n for n in names if n]
    names = draw(now_and_then(st.just(names), [names[1:], names + ["bogus"]]))
    at = ",".join(f"{n}={draw(values)}" for n in names)
    return ["transform", name, "--at", at]


@settings(SETTINGS, max_examples=60)
@given(transform_argv())
def test_transform_exits_with_a_documented_code(argv):
    assert_documented(*run_main(argv))


PDE_F = {1: ("z1^2", "exp(z1)", "z1^4/4 + z1", "log(1 + z1^2)"),
         2: ("z1^2+z2", "z1^2+z2^2", "z1*z2", "exp(z1)+z2^2"),
         3: ("z1^2+z2^2+z3", "z1^2+z2^2+z3^2")}


@st.composite
def pde_argv(draw):
    """pde with an f of one to three slopes in each mode, the constants the
    mode needs (now and then one too many or too few) and --at over x1..xn,
    all from values."""
    n = draw(st.sampled_from(sorted(PDE_F)))
    mode = draw(st.sampled_from(["general", "envelope", "mixed"]))
    argv = ["pde", "--f", draw(st.sampled_from(PDE_F[n])), "--mode", mode]
    first = 1
    if mode == "mixed":
        s = draw(now_and_then(st.integers(0, n), [-1, n + 1]))
        argv += ["--s", str(s)]
        first = s + 1
    elif mode == "envelope":
        first = n + 1
    slots = draw(now_and_then(st.just(range(first, n + 1)),
                              [range(first + 1, n + 1), range(first - 1, n + 1)]))
    constants = ",".join(f"c{j}={draw(values)}" for j in slots if j >= 1)
    if constants:
        argv += ["--c", constants]
    return argv + ["--at", ",".join(f"x{j}={draw(values)}" for j in range(1, n + 1))]


@settings(SETTINGS, max_examples=100)
@given(pde_argv())
def test_pde_exits_with_a_documented_code(argv):
    assert_documented(*run_main(argv))


# ------------------------------------------------- analyze and verify from argv

SCHEMAS = {name: json.loads(resources.files("clairaut").joinpath(
    f"schemas/{name}.schema.json").read_text(encoding="utf-8")) for name in ("analyze", "verify")}


@st.composite
def model_argv(draw, command):
    """command on a bundled model with --seed, --probes in 1..40 and --param
    overrides of the model's parameters, each now and then a bad one."""
    name = draw(st.sampled_from(BUNDLED))
    argv = [command, name]
    if draw(st.booleans()):
        argv += ["--seed", draw(now_and_then(st.integers(0, 2 ** 32).map(str),
                                             ["-1", "1e20", "x"]))]
    if draw(st.booleans()):
        argv += ["--probes", draw(now_and_then(st.integers(1, 40).map(str), ["0", "-3", "2.5"]))]
    params = draw(st.dictionaries(
        now_and_then(st.sampled_from(sorted(load_bundled(name).params) or ["bogus"]), ["bogus"]),
        now_and_then(st.floats(-3.0, 3.0, width=32).map(repr), ["0", "1e300", "nan", "x"]),
        max_size=2))
    if params:
        argv += ["--param", ",".join(f"{k}={v}" for k, v in params.items())]
    return argv


def assert_reported(command, argv):
    """A documented exit code, no traceback, and on 0 or 1 a report that
    validates against the command's schema."""
    code, out, err = run_main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (0, 1):
        jsonschema.validate(json.loads(out), SCHEMAS[command])


@settings(SETTINGS, max_examples=40)
@given(model_argv("analyze"))
def test_analyze_exits_with_a_documented_code_and_a_valid_report(argv):
    assert_reported("analyze", argv)


@settings(SETTINGS, max_examples=25)
@given(model_argv("verify"))
def test_verify_exits_with_a_documented_code_and_a_valid_report(argv):
    assert_reported("verify", argv)


# ------------------------------------------------------------ float rank

def numpy_rank_and_pivots(matrix, rel_tol=1e-9):
    """Complete-pivoting rank on numpy arrays: the elimination that
    rank_and_pivots runs on Python floats, as numpy computes it."""
    a = np.array(matrix, dtype=float)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0, []
    threshold = rel_tol * scale
    rows, cols = list(range(a.shape[0])), list(range(a.shape[1]))
    pivot_cols = []
    with np.errstate(all="ignore"):
        while rows and cols:
            sub = np.abs(a[np.ix_(rows, cols)])
            ri, ci = divmod(int(np.argmax(sub)), sub.shape[1])
            if sub[ri, ci] <= threshold:
                break
            pr, pc = rows.pop(ri), cols.pop(ci)
            pivot_cols.append(pc)
            if rows:
                ratios = a[rows, pc] / a[pr, pc]
                a[np.ix_(rows, cols)] -= np.outer(ratios, a[pr, cols])
    return len(pivot_cols), pivot_cols


SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf]


@st.composite
def rank_inputs(draw):
    """(matrix, rel_tol): up to 7 x 7, empty shapes included; entries from
    special values, small integers (ties) and any float, or a product of
    integer factors (rank k, exact cancellations), now and then scaled to
    1e-300."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        ints = st.integers(-3, 3)
        u = np.array(draw(st.lists(ints, min_size=rows * k, max_size=rows * k)), dtype=float)
        v = np.array(draw(st.lists(ints, min_size=k * cols, max_size=k * cols)), dtype=float)
        a = u.reshape(rows, k) @ v.reshape(k, cols)
    else:
        entry = st.one_of(st.sampled_from(SPECIAL), st.integers(-2, 2).map(float), st.floats())
        a = np.array(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                     dtype=float).reshape(rows, cols)
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            a = a * 1e-300
    matrix = a.tolist() if rows and draw(st.booleans()) else a  # list or ndarray
    return matrix, draw(st.sampled_from([0.0, 1e-9, 1e-3]))


@settings(SETTINGS, max_examples=400)
@given(rank_inputs())
@example(([[math.inf, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.0))  # zero pivots, nan threshold
@example(([[math.nan, 1.0], [2.0, math.nan]], 1e-9))
@example(([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], 1e-9))  # ties: the first largest
@example((np.empty((0, 0)), 1e-9))
@example((np.empty((0, 3)), 1e-9))
@example((np.empty((3, 0)), 1e-9))
def test_float_rank_is_numpys(case):
    matrix, rel_tol = case
    assert rank_and_pivots(matrix, rel_tol) == numpy_rank_and_pivots(matrix, rel_tol)
