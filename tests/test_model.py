"""Model loading, Hessian construction, and the regular/degenerate split."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clairaut
from clairaut import (
    ClairautTransform,
    DomainError,
    IntegratorConfig,
    ModelError,
    RankVariationError,
    UnboundSymbolError,
    evaluate,
    fenchel_conjugate,
    parse_expression,
)
from clairaut.dynamics import el_residual, integrate
from clairaut import numerics
from clairaut.cli import main
from clairaut.expressions import (Call, Const, Pow, Quot, differentiate, free_symbols, simplify,
                                  substitute)
from clairaut.errors import ArgumentError, ClairautError
from clairaut.fixtures import BUNDLED, load_bundled
from clairaut.gauge import classify, phase_probes
from clairaut import model as model_module
from clairaut.model import (
    check_rank_constancy,
    default_probes,
    hessian_matrix,
    parse_model,
    split_variables,
)
from clairaut.numerics import Rng, probe_ranks, rank_and_pivots
from clairaut.verify import run_verification


def hessian_value(model, bindings):
    w = hessian_matrix(model)
    extended = model.base_bindings()
    extended.update(bindings)
    n = model.n
    return np.array([[evaluate(w[i][j], extended) for j in range(n)] for i in range(n)])


class TestParsing:
    def test_loads_all_bundled(self):
        for name in ("oscillator", "mixed", "cawley", "particle", "christ_lee"):
            m = load_bundled(name)
            assert m.n >= 1

    def test_undeclared_velocity(self):
        with pytest.raises(ModelError) as err:
            parse_model("coord x; lagrangian = d(w)^2/2;")
        assert "w" in str(err.value)

    def test_undeclared_symbol(self):
        with pytest.raises(ModelError) as err:
            parse_model("coord x; lagrangian = q*d(x);")
        assert "q" in str(err.value)

    def test_duplicate_coordinate(self):
        with pytest.raises(ModelError):
            parse_model("coord x, x; lagrangian = d(x)^2;")

    def test_missing_lagrangian(self):
        with pytest.raises(ModelError):
            parse_model("coord x; param m = 1;")

    def test_duplicate_lagrangian(self):
        with pytest.raises(ModelError):
            parse_model("coord x; lagrangian = d(x); lagrangian = x;")

    def test_negative_param(self):
        m = parse_model("coord x; param g = -9.8; lagrangian = g*x + d(x)^2/2;")
        assert m.params["g"] == -9.8

    def test_pinned_degenerate_unknown_coord(self):
        with pytest.raises(ModelError):
            parse_model("coord x; degenerate { z }; lagrangian = d(x)^2/2;")


class TestHessian:
    def test_mixed_model_matrix(self):
        # hand value: [[m*y, 0], [0, 0]]
        m = load_bundled("mixed")
        w = hessian_value(m, {"x": 0.3, "y": 0.7, "d(x)": 0.2, "d(y)": -0.4})
        assert np.allclose(w, [[0.7, 0.0], [0.0, 0.0]])

    def test_cawley_matrix(self):
        # hand value: constant [[0,1,0],[1,0,0],[0,0,0]] in (x, y, z) order
        m = load_bundled("cawley")
        w = hessian_value(m, {c: 0.9 for c in ("x", "y", "z", "d(x)", "d(y)", "d(z)")})
        assert np.allclose(w, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])

    def test_mirrored_instances(self):
        m = load_bundled("mixed")
        w = hessian_matrix(m)
        assert w[0][1] is w[1][0]

    def test_symmetry_numerically(self):
        m = load_bundled("particle")
        b = {"x0": 0.1, "x": 0.2, "y": 0.3, "z": 0.1,
             "d(x0)": 1.0, "d(x)": 0.2, "d(y)": -0.1, "d(z)": 0.3}
        w = hessian_value(m, b)
        assert np.allclose(w, w.T, atol=0.0)


class TestSplit:
    def test_oscillator_regular(self):
        m = load_bundled("oscillator")
        s = split_variables(m)
        assert s.r == 1
        assert s.regular == ("x",)
        assert s.degenerate == ()

    def test_mixed_split(self):
        m = load_bundled("mixed")
        s = split_variables(m)
        assert (s.r, s.regular, s.degenerate) == (1, ("x",), ("y",))

    def test_cawley_split(self):
        m = load_bundled("cawley")
        s = split_variables(m)
        assert (s.r, s.regular, s.degenerate) == (2, ("x", "y"), ("z",))

    def test_particle_pinned_split(self):
        m = load_bundled("particle")
        s = split_variables(m)
        assert s.r == 3
        assert s.degenerate == ("x0",)
        assert s.regular == ("x", "y", "z")

    def test_christ_lee_split(self):
        m = load_bundled("christ_lee")
        s = split_variables(m)
        assert s.r == 3
        assert s.regular == ("x1", "x2", "x3")
        assert s.degenerate == ("y1", "y2", "y3")

    def test_permutation_round_trip(self):
        m = load_bundled("cawley")
        s = split_variables(m)
        values = list(range(m.n))
        rearranged = [values[i] for i in s.order]
        restored = [rearranged[s.permutation[i]] for i in range(m.n)]
        assert restored == values

    def test_rank_variation_detected(self):
        # quartic velocity: Hessian 3*v^2 vanishes at v = 0
        m = parse_model("coord x; lagrangian = d(x)^4/4;")
        bad_probes = [
            {"x": 0.5, "d(x)": 1.0},
            {"x": 0.5, "d(x)": 0.0},
        ]
        with pytest.raises(RankVariationError) as err:
            split_variables(m, probes=bad_probes)
        assert "probe 1" in str(err.value)

    def test_wrong_pin_rejected(self):
        m = parse_model("coord x, y; degenerate { x }; lagrangian = d(x)^2/2 + d(y)*x;")
        # rank is 1 but the regular block {y} has a zero Hessian entry
        with pytest.raises(ModelError):
            split_variables(m)

    def test_rank_report(self):
        m = load_bundled("mixed")
        s = split_variables(m)
        report = check_rank_constancy(m, s)
        assert report.passed
        assert report.expected_rank == 1
        assert all(rank == 1 and ok for _, rank, ok in report.ranks)

    def test_non_finite_hessian_has_no_rank(self):
        # W = diag(1, x) at x = inf: the split refuses it, the report (which
        # never raises) records that probe as a failing row of rank None
        m = parse_model("coord x, y; lagrangian = d(x)^2/2 + x*d(y)^2/2;")
        probes = [{"x": x, "y": 0.0, "d(x)": 0.5, "d(y)": 0.5} for x in (1.0, math.inf, 2.0)]
        with pytest.raises(ModelError, match="^velocity Hessian has a non-finite entry at probe 1$"):
            split_variables(m, probes)
        report = check_rank_constancy(m, split_variables(m, probes[:1]), probes)
        assert not report.passed
        assert report.ranks == [(0, 2, True), (1, None, False), (2, 2, True)]

    def test_rank_report_failure(self):
        m = parse_model("coord x; lagrangian = d(x)^4/4;")
        s = split_variables(m, probes=[{"x": 0.0, "d(x)": 1.0}])
        report = check_rank_constancy(m, s, probes=[{"x": 0.0, "d(x)": 0.0}])
        assert not report.passed


class TestProbes:
    def test_probes_deterministic(self):
        m = load_bundled("mixed")
        a = default_probes(m, seed=42)
        b = default_probes(m, seed=42)
        assert a == b

    def test_particle_probes_respect_sqrt_domain(self):
        m = load_bundled("particle")
        for b in default_probes(m):
            arg = b["d(x0)"] ** 2 - b["d(x)"] ** 2 - b["d(y)"] ** 2 - b["d(z)"] ** 2
            assert arg >= 0.1

    @pytest.mark.parametrize("name", ["christ_lee", "particle", "synthetic_gauge"])
    def test_verify_draws_each_probe_set_once(self, name, monkeypatch):
        draws = []
        draw = model_module._draw_probes
        monkeypatch.setattr(model_module, "_draw_probes",
                            lambda *args: draws.append(args[1:]) or draw(*args))
        run_verification(load_bundled(name), seed=42)
        assert draws == [(17, 42)]
        draws.clear()
        run_verification(load_bundled(name), seed=7)  # the split keeps seed 42
        assert draws == [(17, 42), (17, 7)]

    def test_cached_draw_equals_fresh_draw_and_hands_out_copies(self):
        m = load_bundled("particle")
        first = default_probes(m, count=5, seed=3)
        assert first == model_module._draw_probes(load_bundled("particle"), 5, 3)
        first[0]["x"] = 99.0
        first.append({})
        again = default_probes(m, count=5, seed=3)
        assert len(again) == 5 and again[0]["x"] != 99.0
        assert again[0] is not default_probes(m, count=5, seed=3)[0]
        assert default_probes(m, count=5, seed=None) != default_probes(m, count=5, seed=None)


    @pytest.mark.parametrize("kwargs, message", [
        # -1 drew no probe, 2.5 drew 3, and seed -1 raised a raw ValueError
        ({"count": -1}, "count must be an integer of at least 1, not -1"),
        ({"count": 0}, "count must be an integer of at least 1, not 0"),
        ({"count": 2.5}, "count must be an integer of at least 1, not 2.5"),
        ({"seed": -1}, "seed must be an integer of at least 0, not -1"),
        ({"seed": 1.5}, "seed must be an integer of at least 0, not 1.5"),
    ])
    @pytest.mark.parametrize("draw", ["default_probes", "phase_probes"])
    def test_bad_count_or_seed_raises(self, draw, kwargs, message):
        m = load_bundled("synthetic_bianchi")
        with pytest.raises(ArgumentError, match=re.escape(message)):
            if draw == "default_probes":
                default_probes(m, **kwargs)
            else:
                phase_probes(ClairautTransform(m), **kwargs)


# Models whose derivatives fold 0/u terms, with points at the zeros of every
# folded denominator: particle's 2*sqrt(d(x0)^2 - |d(x)|^2) (the light cone),
# 2*sqrt(x) and x.
FOLDED = {
    "particle": (load_bundled("particle"),
                 [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0], [2.0, 2.0, 0.0, 0.0],
                  [-3.0, 0.0, 3.0, 0.0], [5.0, 3.0, 4.0, 0.0]]),
    "sqrt": (parse_model("coord x; lagrangian = sqrt(x)*d(x)^2/2;"), [[0.0], [-0.0]]),
    "log": (parse_model("coord x; lagrangian = log(x)*d(x)^2/2;"), [[0.0], [-0.0]]),
}


class TestFoldedQuotients:
    """Derivatives drop the 0/u terms that the quotient and chain rules leave."""

    def test_folded_blocks(self):
        particle = FOLDED["particle"][0].core.exprs
        assert all(e is Const(0.0) for e in particle["L_q"] + particle["L_vq"])
        assert str(FOLDED["sqrt"][0].core.exprs["W"][0]) == "sqrt(x)"
        assert str(FOLDED["log"][0].core.exprs["W"][0]) == "log(x)"

    @pytest.mark.parametrize("name", sorted(FOLDED))
    def test_core_still_fails_where_a_folded_denominator_vanishes(self, name):
        model, zeros = FOLDED[name]
        assert "0.0/" not in model.core.fn.source
        rng = np.random.default_rng(7)
        for zero in zeros:
            # particle's zeros are velocities, the others' coordinates
            fixed = zero + rng.uniform(-1.0, 1.0, model.n).tolist()
            args = fixed[model.n:] + fixed[:model.n] if name == "particle" else fixed
            with pytest.raises(DomainError):
                model.core.fn(args)

    def test_lagrangian_as_written_keeps_its_zero_quotient(self):
        m = parse_model("coord x; lagrangian = d(x)^2/2 + 0/x;")
        assert [str(e) for e in m.core.exprs["L_v"] + m.core.exprs["L_q"]] == ["d(x)", "0"]
        with pytest.raises(DomainError):
            m.core.fn([0.0, 1.0])


class TestRankKernel:
    def test_complete_pivoting_order(self):
        rank, cols = rank_and_pivots([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert rank == 2
        assert sorted(cols) == [0, 1]

    def test_threshold_is_relative(self):
        scaled = 1e-6 * np.array([[2.0, 1.0], [1.0, 2.0]])
        rank, _ = rank_and_pivots(scaled, rel_tol=1e-9)
        assert rank == 2

    def test_tiny_pivot_treated_as_zero(self):
        m = np.array([[1.0, 0.0], [0.0, 1e-12]])
        rank, _ = rank_and_pivots(m, rel_tol=1e-9)
        assert rank == 1

    def test_zero_matrix(self):
        rank, cols = rank_and_pivots(np.zeros((3, 3)))
        assert (rank, cols) == (0, [])

    def test_probe_ranks_refuses_a_non_finite_matrix(self):
        good, bad = [0.0, 1.0, -1.0, 0.0], [0.0, math.nan, -1.0, 0.0]
        with pytest.raises(ModelError, match="^field strength has a non-finite entry at probe 1$"):
            probe_ranks([good, bad], None, 1e-10, "field strength")
        # unnamed, the matrix gets no rank instead
        assert probe_ranks([good, bad], None, 1e-10, None) == ([0, 1], [2, None], [2, None])

    def test_non_matrix_is_a_typed_error(self):
        with pytest.raises(ArgumentError, match="expects a matrix") as exc:
            rank_and_pivots([1.0, 2.0])
        assert isinstance(exc.value, ClairautError) and isinstance(exc.value, ValueError)


def reference_ranks(matrices, block, rel_tol, matrix):
    """probe_ranks by one elimination of each matrix and of its block."""
    ranks, block_ranks = [], []
    for index, m in enumerate(matrices):
        if not all(map(math.isfinite, m)):
            if matrix is not None:
                raise ModelError(f"{matrix} has a non-finite entry at probe {index}")
            ranks.append(None)
            block_ranks.append(None)
            continue
        k = math.isqrt(len(m))
        rank, pivots = rank_and_pivots([m[i * k:i * k + k] for i in range(k)], rel_tol)
        block = sorted(pivots) if block is None else block
        ranks.append(rank)
        block_ranks.append(rank_and_pivots([[m[i * k + j] for j in block] for i in block],
                                           rel_tol)[0])
    return block, ranks, block_ranks


# entries that make repeated, rank-deficient and signed-zero matrices likely
ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-12, 3.0, math.inf])


@st.composite
def probe_matrices(draw):
    """(matrices, block): a few distinct k x k matrices, repeated, some
    with their zeros' signs flipped, and block None, a partial one or all."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(ENTRIES, min_size=k * k, max_size=k * k), min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                          min_size=1, max_size=8))
    matrices = [[-v if flip and v == 0.0 else v for v in pool[i]] for i, flip in picks]
    block = draw(st.one_of(st.none(), st.just(list(range(k))),
                           st.lists(st.integers(0, k - 1), unique=True).map(sorted)))
    return matrices, block


class TestProbeRankTable:
    """probe_ranks eliminates each distinct matrix and block once, with the
    numbers of one elimination per matrix."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(probe_matrices())
    def test_matches_one_elimination_per_matrix(self, case):
        matrices, block = case
        assert (probe_ranks(matrices, block, 1e-9, None)
                == reference_ranks(matrices, block, 1e-9, None))
        if all(math.isfinite(v) for m in matrices for v in m):
            assert (probe_ranks(iter(matrices), block, 1e-9, "F")
                    == reference_ranks(matrices, block, 1e-9, "F"))

    @staticmethod
    def count_eliminations(monkeypatch):
        calls, real = [], numerics.rank_and_pivots
        monkeypatch.setattr(numerics, "rank_and_pivots", lambda matrix, rel_tol=1e-9: (
            calls.append(matrix) or real(matrix, rel_tol)))
        return calls

    def test_constant_hessian_is_eliminated_once(self, monkeypatch):
        # christ_lee's W is diag(1, 1, 1, 0, 0, 0) at all 17 probes: one
        # elimination of W, one of its 3 x 3 regular block
        model = load_bundled("christ_lee")
        probes = default_probes(model)
        calls = self.count_eliminations(monkeypatch)
        split = split_variables(model, probes)
        assert split.r == 3 and [len(m) for m in calls] == [6, 3]

    @pytest.mark.parametrize("name", ["mixed", "cawley", "christ_lee", "particle"])
    def test_zero_field_strength_is_eliminated_once(self, name, monkeypatch):
        ct = ClairautTransform(load_bundled(name))
        calls = self.count_eliminations(monkeypatch)
        cls = classify(ct)
        assert cls.kind == "limit" and len(calls) == 1


def child_nodes(e):
    """The operands of an expression node."""
    for field in ("terms", "factors"):
        if hasattr(e, field):
            return list(getattr(e, field))
    return [getattr(e, f) for f in ("base", "exponent", "child", "num", "den", "arg")
            if hasattr(e, f)]


def interpreted_probes(model, count, seed):
    """The reference rule of default_probes, guard by guard in the tree
    interpreter: a draw is kept where every denominator, log or sqrt
    argument and fractional-power base of L that reads a coordinate or a
    velocity evaluates, and keeps 0.1 from zero (a denominator) or from the
    negative numbers (the others)."""
    drawn = set(model.coords) | set(model.velocity_names)
    away, nonneg, stack = [], [], [model.lagrangian]
    while stack:
        e = stack.pop()
        stack.extend(child_nodes(e))
        guard, near_zero = None, False
        if isinstance(e, Quot):
            guard, near_zero = e.den, True
        elif isinstance(e, Call) and e.fn in ("log", "sqrt"):
            guard = e.arg
        elif isinstance(e, Pow) and not (isinstance(e.exponent, Const)
                                         and e.exponent.value.is_integer()):
            guard = e.base
        if guard is not None and drawn & free_symbols(guard):
            (away if near_zero else nonneg).append(guard)
    rng = seed if hasattr(seed, "uniform") else Rng(seed)
    names, probes = [*model.coords, *model.velocity_names], []
    for _ in range(max(400 * count, 4000)):
        bindings = model.base_bindings()
        bindings.update(zip(names, rng.uniform(-1.0, 1.0, size=len(names))))
        try:
            ok = (all(not abs(evaluate(g, bindings)) < 0.1 for g in away)
                  and all(not evaluate(g, bindings) < 0.1 for g in nonneg))
        except DomainError:
            ok = False
        if ok:
            probes.append(bindings)
            if len(probes) == count:
                return probes
    raise AssertionError("the reference drew too few probes")


# text models with each kind of guard; the last two hold a parameter-only
# denominator and sqrt argument inside the probe margin
GUARDED = {
    "sqrt": "coord x, y; lagrangian = sqrt(1 + x - d(y)^2)*d(x)^2/2 + d(y)^2/2;",
    "log": "coord x; lagrangian = log(x + 1.05)*d(x)^2/2;",
    "power": "coord x; lagrangian = (x + 0.8)^1.5*d(x)^2/2 - x^0.5 + 2^x;",
    "coordinate quotient": "coord x, y; lagrangian = d(x)^2/(2*(x - y)) + d(y)^2/2;",
    "parameter quotient": "coord x; param m = 0.04; lagrangian = d(x)^2/(2*m) - x^2/2;",
    "parameter sqrt": ("coord x; param a = 0.3; param g = 0.05;"
                       "lagrangian = d(x)^2/(x - a) - sqrt(g)*x^2/2;"),
}
GUARDED_MODELS = [(name, lambda name=name: load_bundled(name)) for name in BUNDLED] + [
    (name, lambda text=text: parse_model(text)) for name, text in GUARDED.items()]


def hex_bindings(probes):
    return [{k: float(v).hex() for k, v in b.items()} for b in probes]


class TestCompiledGuards:
    """default_probes draws, bit for bit, what the interpreted rule draws."""

    @pytest.mark.parametrize("name, build", GUARDED_MODELS, ids=[n for n, _ in GUARDED_MODELS])
    def test_same_bindings_as_the_interpreted_rule(self, name, build):
        for seed in (0, 1, 7, 42, 100):
            got, want = default_probes(build(), seed=seed), interpreted_probes(build(), 17, seed)
            assert hex_bindings(got) == hex_bindings(want), seed
        fresh = [np.random.default_rng(3) for _ in range(2)]
        got = default_probes(build(), count=9, seed=fresh[0])
        assert hex_bindings(got) == hex_bindings(interpreted_probes(build(), 9, fresh[1]))
        assert fresh[0].bit_generator.state == fresh[1].bit_generator.state

    def test_only_drawn_guards_are_compiled(self, monkeypatch):
        compiled, real = [], model_module.compile_evaluator
        monkeypatch.setattr(model_module, "compile_evaluator",
                            lambda exprs, names: compiled.append(list(exprs)) or real(exprs, names))
        for name in BUNDLED:
            default_probes(load_bundled(name))
        default_probes(parse_model(GUARDED["parameter sqrt"]))
        assert [[str(e) for e in exprs] for exprs in compiled] == [
            ["d(x0)^2 - d(x)^2 - d(y)^2 - d(z)^2"], ["x - a"]]


class TestParameterGuards:
    """A guard that reads only parameters is decided once, with no margin."""

    def run(self, tmp_path, text, *argv):
        path = tmp_path / "guarded.lag"
        path.write_text(text)
        return main([argv[0], str(path), *argv[1:]])

    def test_denominator_inside_the_margin(self, tmp_path, capsys):
        text = GUARDED["parameter quotient"]
        assert self.run(tmp_path, text, "analyze") == 0
        assert self.run(tmp_path, text, "transform", "--at", "x=1,p_x=1") == 0
        assert "H_phys = 0.52000000000000002" in capsys.readouterr().out

    def test_sqrt_argument_inside_the_margin(self, tmp_path, capsys):
        text = "coord x; param g = 0.05; lagrangian = d(x)^2/2 - sqrt(g)*x^2/2;"
        assert self.run(tmp_path, text, "simulate", "--init", "x=1,p_x=0", "--t1", "0.1",
                        "--dt", "0.01", "--out", str(tmp_path / "t.csv")) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("node, params", [
        ("1/0", ""), ("sqrt(-1)", ""), ("log(0)", ""), ("0^-0.5", ""),
        ("1/m", "param m = 0;"), ("sqrt(g)", "param g = -2;"), ("log(c)", "param c = 0;"),
        ("x/m", "param m = 0;"), ("c^d(x)", "param c = -1;"),
    ])
    def test_undefined_node_is_named(self, node, params):
        model = parse_model(f"coord x; {params} lagrangian = d(x)^2/2 + {node}*x;", name="bad")
        with pytest.raises(ModelError, match=re.escape(
                f"{node} in the lagrangian of bad is undefined at the parameter values")):
            default_probes(model)

    def test_defined_parameter_guards_set_no_bound(self):
        # each inside the 0.1 margin, none undefined: every draw is kept
        model = parse_model("coord x; param m = 0.01; param c = 0.02;"
                            "lagrangian = d(x)^2/(2*m) + log(c)*x + c^0.5*x^2 + 0.05^d(x);")
        probes = default_probes(model, count=17, seed=5)
        rng = Rng(5)
        assert hex_bindings(probes) == hex_bindings(
            [{"m": 0.01, "c": 0.02, **dict(zip(["x", "d(x)"], rng.uniform(-1.0, 1.0, size=2)))}
             for _ in range(17)])


def count_calls(monkeypatch, *names):
    """Wrap the named expressions functions wherever a clairaut module binds
    them; returns the call counter."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "clairaut" or n.startswith("clairaut."))]
    for name in names:
        original = getattr(clairaut.expressions, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


class TestDerivativeCore:
    def test_built_once_per_model(self):
        m = load_bundled("mixed")
        assert m.core is m.core
        assert ClairautTransform(m)._f_core is m.core.fn

    @pytest.mark.parametrize("name", ["oscillator", "mixed", "particle"])
    def test_consumers_reuse_the_transform_core(self, name, monkeypatch):
        m = load_bundled(name)
        ct = ClairautTransform(m)
        traj = None
        if ct.n == ct.r:
            traj = integrate(ct, ct.point([1.0], [0.0]),
                             cfg=IntegratorConfig(t1=0.01, dt=1e-3))
        probes = default_probes(m, count=3)
        # a derivation opens derivative memos: one per differentiate call,
        # one per symbol in a core
        counts = count_calls(monkeypatch, "_Derivatives", "compile_evaluator")
        split = split_variables(m, probes)
        check_rank_constancy(m, split, probes)
        hessian_matrix(m)
        if traj is not None:
            fenchel_conjugate(m, [1.0], [0.5], grid=3)
            el_residual(m, traj)
        assert counts == {"_Derivatives": 0, "compile_evaluator": 0}
        clairaut.model.DerivativeCore(m)  # the counters do see a rebuild
        assert counts == {"_Derivatives": 2 * m.n, "compile_evaluator": 1}

    @pytest.mark.parametrize("name", BUNDLED)
    def test_shared_memos_give_the_per_call_derivatives(self, name):
        m = load_bundled(name)
        lag = simplify(substitute(m.lagrangian, m.params))
        qs, vs = m.coords, m.velocity_names
        lv = [differentiate(lag, v) for v in vs]
        want = {"L": [lag], "L_v": lv, "L_q": [differentiate(lag, c) for c in qs],
                # W's lower triangle mirrors the upper one
                "W": [differentiate(lv[min(i, j)], vs[max(i, j)])
                      for i in range(m.n) for j in range(m.n)],
                "L_vq": [differentiate(d, c) for d in lv for c in qs]}
        got = m.core.exprs
        assert list(got) == list(want)
        for block, exprs in want.items():
            assert len(got[block]) == len(exprs)
            assert all(g is e for g, e in zip(got[block], exprs)), block

    @pytest.mark.parametrize("name", BUNDLED)
    def test_rank_report_sees_the_split_ranks(self, name):
        # ranks recomputed from the interpreted Hessian, an independent route
        m = load_bundled(name)
        probes = default_probes(m, count=5, seed=3)
        split = split_variables(m, probes)
        report = check_rank_constancy(m, split, probes)
        assert report.passed and report.expected_rank == split.r
        want = [rank_and_pivots(hessian_value(m, b))[0] for b in probes]
        assert [rank for _, rank, _ in report.ranks] == want == [split.r] * len(probes)
        assert [k for k, _, ok in report.ranks if ok] == list(range(len(probes)))

    def test_probe_missing_a_coordinate(self):
        m = load_bundled("mixed")
        probe = {"x": 0.3, "d(x)": 0.2, "d(y)": -0.4}
        with pytest.raises(UnboundSymbolError, match="y"):
            split_variables(m, probes=[probe])
        with pytest.raises(UnboundSymbolError, match="y"):
            check_rank_constancy(m, split_variables(m), probes=[probe])

    def test_probe_outside_the_domain(self):
        m = parse_model("coord x; lagrangian = sqrt(x)*d(x)^2/2;")
        probe = {"x": -1.0, "d(x)": 0.5}
        with pytest.raises(DomainError):
            evaluate(hessian_matrix(m)[0][0], probe)
        with pytest.raises(DomainError):
            split_variables(m, probes=[probe])

    def test_no_probes_is_a_model_error(self):
        with pytest.raises(ModelError, match="at least one probe"):
            split_variables(load_bundled("mixed"), probes=[])
