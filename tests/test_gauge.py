"""Sector brackets, long derivatives, field strength, classification."""

import inspect
import itertools
import math
import re
from functools import lru_cache

import numpy as np
import pytest

from clairaut import (
    ClairautTransform,
    ModelError,
    PhasePoint,
    RankDeficiencyError,
    RankVariationError,
    load_bundled,
    parse_model,
)
from clairaut import gauge, numerics, verify
from clairaut import transform as transform_module
from clairaut.errors import ArgumentError
from clairaut.expressions import differentiate, evaluate
from clairaut.fixtures import BUNDLED, bundled_model_text
from clairaut.model import momentum_name
from clairaut.gauge import (
    BObservable,
    ExprObservable,
    FiniteDifferenceObservable,
    bianchi_residual,
    bracket_gauge,
    bracket_new,
    classify,
    delta_b,
    field_strength,
    long_derivative,
    maxwell_current,
    phase_probes,
    poisson_phys,
)

RNG_SEED = 77
STEP = 1e-5  # FiniteDifferenceObservable's default step


@lru_cache(maxsize=None)
def transform(name):
    return ClairautTransform(load_bundled(name))


@lru_cache(maxsize=None)
def classification(name):
    return classify(transform(name))


def sample_points(name, count=3):
    return phase_probes(transform(name))[:count]


class TestObservables:
    def test_expression_observable_gradients(self):
        ct = transform("mixed")
        obs = ExprObservable(ct, "x^2*p_x + y")
        pt = ct.point([0.7, 1.5], [2.0])
        assert abs(obs.value(pt) - (0.49 * 2.0 + 1.5)) < 1e-12
        assert np.max(np.abs(obs.d_dq(pt) - np.array([2 * 0.7 * 2.0, 1.0]))) < 1e-12
        assert np.max(np.abs(obs.d_dp(pt) - np.array([0.49]))) < 1e-12

    @pytest.mark.parametrize("name", ["mixed", "particle", "christ_lee"])
    def test_one_evaluator_bit_equal_to_interpreted(self, name):
        # value and both gradients come from one compiled evaluator; each
        # matches the interpreted expression and its partials bit for bit
        ct = transform(name)
        qs = ct.model.coords
        ps = [momentum_name(c) for c in ct.split.regular]
        obs = ExprObservable(ct, f"{qs[-1]}^2*{ps[0]} + sin({qs[0]})/(1 + {ps[-1]}^2)"
                                 f" - exp({qs[0]}*{ps[0]})*{qs[-1]}")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            q, p = rng.uniform(-1.0, 1.0, ct.n).tolist(), rng.uniform(-1.0, 1.0, ct.r).tolist()
            b = dict(zip(qs, q)) | dict(zip(ps, p))
            pt = ct.point(q, p)
            assert obs.value(pt).hex() == evaluate(obs.expr, b).hex()
            for got, names in ((obs.d_dq(pt), qs), (obs.d_dp(pt), ps)):
                want = [evaluate(differentiate(obs.expr, x), b) for x in names]
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    def test_velocity_symbols_rejected(self):
        with pytest.raises(ModelError):
            ExprObservable(transform("mixed"), "d(x)")

    def test_degenerate_momentum_rejected(self):
        # p_y is conjugate to a degenerate coordinate, not a phase variable
        with pytest.raises(ModelError):
            ExprObservable(transform("mixed"), "p_y")

    @pytest.mark.parametrize("expr", [123, 1.5, None, ["x"]])
    def test_expression_must_be_text_or_expr(self, expr):
        # an int raised a raw AttributeError
        with pytest.raises(ArgumentError, match="an observable is an Expr or its text"):
            ExprObservable(transform("mixed"), expr)

    @pytest.mark.parametrize("step", [0.0, -1e-5, math.inf, math.nan])
    def test_finite_difference_step_must_be_finite_and_positive(self, step):
        # a zero step raised ZeroDivisionError on the first gradient
        with pytest.raises(ArgumentError, match="step must be finite and positive"):
            FiniteDifferenceObservable(lambda pt: 1.0, transform("mixed"), step)

    def test_finite_difference_wrapper_matches_analytic(self):
        ct = transform("mixed")
        obs = ExprObservable(ct, "x^2*p_x + sin(y)")
        fd = FiniteDifferenceObservable(obs.value, ct)
        pt = ct.point([0.7, 1.5], [2.0])
        assert np.max(np.abs(obs.d_dq(pt) - fd.d_dq(pt))) < 1e-8
        assert np.max(np.abs(obs.d_dp(pt) - fd.d_dp(pt))) < 1e-8


class TestDegenerateDirection:
    """BObservable, delta_b and long_derivative take a degenerate direction
    only as an integer in 0..n-r-1 (ClairautTransform._degenerate_index):
    -1 read the last direction and the others raised IndexError or
    TypeError from a list, a tuple or an ndarray."""

    def test_out_of_range_raises_naming_the_range(self):
        ct = transform("synthetic_bianchi")
        pt, x = sample_points("synthetic_bianchi", 1)[0], ExprObservable(ct, "x*p_x")
        assert ct.n - ct.r == 3
        for alpha in (ct.n - ct.r, -1, 1.5, "x"):
            for call in (lambda: BObservable(ct, alpha).value(pt),
                         lambda: delta_b(ct, alpha, x, pt),
                         lambda: long_derivative(ct, x, alpha, pt)):
                with pytest.raises(ArgumentError, match=r"integer in 0\.\.2, not "):
                    call()

    def test_valid_directions_read_their_rows(self):
        # the values of the unchecked reads, bit for bit, at every valid
        # index, as a Python int or a numpy integer
        ct = transform("synthetic_bianchi")
        x = ExprObservable(ct, "x*p_x + sin(a)*b + c^2*p_x")
        for pt in sample_points("synthetic_bianchi"):
            res, xq, xp = ct.resolve(pt), x.d_dq(pt), x.d_dp(pt)
            for a in range(ct.n - ct.r):
                bracket = gauge._poisson(ct, res.dB_dq[a], res.dB_dp[a], xq, xp)
                long = gauge._long_derivative(ct, res, a, xq, xp)
                for alpha in (a, np.int64(a)):
                    assert BObservable(ct, alpha).value(pt).hex() == res._flat("B")[a].hex()
                    assert delta_b(ct, alpha, x, pt).hex() == bracket.hex()
                    assert long_derivative(ct, x, alpha, pt).hex() == long.hex()

    def test_a_split_without_degenerate_directions_takes_none(self):
        ct = transform("oscillator")
        with pytest.raises(ArgumentError, match="a degenerate direction of this split"):
            BObservable(ct, 0)


class TestPoissonPhys:
    def test_canonical_pair(self):
        ct = transform("synthetic_gaugeless")
        x = ExprObservable(ct, "x")
        p = ExprObservable(ct, "p_x")
        pt = ct.point([0.4, 1.0, -0.7], [0.3])
        assert poisson_phys(ct, x, p, pt) == 1.0

    def test_self_bracket_vanishes(self):
        ct = transform("synthetic_bianchi")
        obs = ExprObservable(ct, "p_x*a + x^2")
        for pt in sample_points("synthetic_bianchi"):
            assert poisson_phys(ct, obs, obs, pt) == 0.0

    def test_antisymmetry(self):
        ct = transform("synthetic_bianchi")
        x = ExprObservable(ct, "p_x*a + x^2")
        y = ExprObservable(ct, "x*c - p_x")
        for pt in sample_points("synthetic_bianchi"):
            assert abs(poisson_phys(ct, x, y, pt)
                       + poisson_phys(ct, y, x, pt)) < 1e-12

    def test_each_observable_evaluates_once_per_point(self):
        ct = transform("synthetic_bianchi")
        x = ExprObservable(ct, "p_x*a + x^2")
        y = ExprObservable(ct, "x*c - p_x")
        calls = []
        for obs in (x, y):
            fn = obs._fn
            obs._fn = lambda args, fn=fn: calls.append(1) or fn(args)
        pt = sample_points("synthetic_bianchi", 1)[0]
        got = poisson_phys(ct, x, y, pt)
        assert len(calls) == 2  # d_dq and d_dp of each share one evaluation
        assert poisson_phys(ct, x, y, pt._replace(q=pt.q)) == got
        assert len(calls) == 4  # another point object evaluates afresh

    def test_zero_b_brackets_to_nothing(self):
        ct = transform("christ_lee")
        y = ExprObservable(ct, "x1*p_x2")
        for pt in sample_points("christ_lee"):
            for alpha in range(3):
                assert poisson_phys(ct, BObservable(ct, alpha), y, pt) == 0.0


class TestLongDerivative:
    def test_cawley_multiplier_direction(self):
        ct = transform("cawley")
        h = ct.hamiltonian_observable()
        pt = ct.point({"x": 0.3, "y": 1.2, "z": -0.5}, {"x": 0.4, "y": 0.8})
        assert abs(long_derivative(ct, h, 0, pt) + 1.2 ** 2 / 2) < 1e-12

    def test_mixed_closed_form(self):
        # D_y H = -p^2/(2 m y^2) + k p/(m y) with m = k = 1
        ct = transform("mixed")
        h = ct.hamiltonian_observable()
        pt = ct.point({"x": 0.3, "y": 1.2}, {"x": 0.4})
        expected = -0.4 ** 2 / (2 * 1.2 ** 2) + 0.4 / 1.2
        assert abs(long_derivative(ct, h, 0, pt) - expected) < 1e-12

    def test_vanishes_without_dependence_or_b(self):
        ct = transform("christ_lee")
        obs = ExprObservable(ct, "x1*p_x2")
        for pt in sample_points("christ_lee"):
            for alpha in range(3):
                assert long_derivative(ct, obs, alpha, pt) == 0.0

    def test_delta_decomposition(self):
        ct = transform("mixed")
        h = ct.hamiltonian_observable()
        pt = ct.point({"x": 0.3, "y": 1.2}, {"x": 0.4})
        res = ct.resolve(pt)
        total = long_derivative(ct, h, 0, pt)
        bracket_part = delta_b(ct, 0, h, pt)
        assert abs(total - bracket_part - res.dH_dq[1]) < 1e-12

    def test_delta_on_momentum(self):
        # {B_b, p_x} = {a x, p_x} = a
        ct = transform("synthetic_gaugeless")
        obs = ExprObservable(ct, "p_x")
        pt = ct.point({"x": 1.4, "a": 0.6, "b": -0.2}, {"x": 0.7})
        assert abs(delta_b(ct, 1, obs, pt) - 0.6) < 1e-12


class TestFieldStrength:
    def test_frozen_values(self):
        cases = {
            "synthetic_gaugeless": lambda q: [[0.0, q["x"]], [-q["x"], 0.0]],
            "synthetic_coupled": lambda q: [[0.0, q["x"] - q["a"]],
                                            [q["a"] - q["x"], 0.0]],
            "synthetic_bianchi": lambda q: [
                [0.0, q["x"] - q["a"], -q["b"]],
                [q["a"] - q["x"], 0.0, q["x"]],
                [q["b"], -q["x"], 0.0]],
        }
        q = {"x": 1.4, "a": 0.6, "b": -0.2, "c": 0.8}
        for name, expected in cases.items():
            ct = transform(name)
            pt = ct.point({c: q[c] for c in ct.model.coords}, {"x": 0.7})
            f = field_strength(ct, pt)
            assert np.max(np.abs(f - np.array(expected(q)))) < 1e-12, name

    def test_inert_directions_stay_zero(self):
        ct = transform("synthetic_gauge")
        pt = ct.point({"x": 1.4, "a": 0.6, "b": -0.2, "u": 3.0, "w": -9.0},
                      {"x": 0.7})
        f = field_strength(ct, pt)
        assert abs(f[0, 1] - (1.4 - 0.6)) < 1e-12
        assert np.max(np.abs(f[2:, :])) == 0.0
        assert np.max(np.abs(f[:, 2:])) == 0.0

    @pytest.mark.parametrize("name", ("synthetic_bianchi", "particle", "christ_lee"))
    def test_exact_antisymmetry(self, name):
        ct = transform(name)
        for pt in sample_points(name):
            f = field_strength(ct, pt)
            assert np.all(f + f.T == 0.0)

    @pytest.mark.parametrize("name", ("cawley", "mixed", "particle", "christ_lee"))
    def test_vanishing_cases(self, name):
        ct = transform(name)
        for pt in sample_points(name):
            assert np.max(np.abs(field_strength(ct, pt))) == 0.0


class TestClassify:
    @pytest.mark.parametrize("name,kind,r_f", [
        ("oscillator", "gaugeless", 0),
        ("exponential", "gaugeless", 0),
        ("synthetic_gaugeless", "gaugeless", 2),
        ("synthetic_coupled", "gaugeless", 2),
        ("synthetic_bianchi", "gauge", 2),
        ("synthetic_gauge", "gauge", 2),
        ("cawley", "limit", 0),
        ("mixed", "limit", 0),
        ("particle", "limit", 0),
        ("christ_lee", "limit", 0),
    ])
    def test_fixture_classes(self, name, kind, r_f):
        cls = classification(name)
        assert cls.kind == kind
        assert cls.r_f == r_f
        if kind == "gaugeless":
            assert cls.r_f == cls.n_deg

    def test_forced_subblock(self):
        # u and w rows of F vanish identically, so the minor must be {a, b}
        assert classification("synthetic_gauge").subblock_coords == ("a", "b")

    def test_subblock_minor_invertible(self):
        ct = transform("synthetic_bianchi")
        cls = classification("synthetic_bianchi")
        assert len(cls.subblock) == 2
        pt = sample_points("synthetic_bianchi", 1)[0]
        sub = field_strength(ct, pt)[np.ix_(cls.subblock, cls.subblock)]
        assert abs(np.linalg.det(sub)) > 1e-6

    def test_explicit_probes_and_rank_variation(self):
        ct = transform("synthetic_gaugeless")
        good = [ct.point({"x": 1.0, "a": 0.2, "b": 0.1}, {"x": 0.5}),
                ct.point({"x": 0.5, "a": -0.3, "b": 0.4}, {"x": -0.2})]
        assert classify(ct, probes=good).kind == "gaugeless"
        degenerate_probe = ct.point({"x": 0.0, "a": 0.2, "b": 0.1}, {"x": 0.5})
        with pytest.raises(RankVariationError):
            classify(ct, probes=good + [degenerate_probe])

    def test_limit_means_f_vanishes_at_probes(self):
        ct = transform("christ_lee")
        for pt in phase_probes(ct):
            assert np.max(np.abs(field_strength(ct, pt))) == 0.0


class TestBracketNew:
    def test_reduces_to_poisson_when_b_trivial(self):
        ct = transform("christ_lee")
        x = ExprObservable(ct, "x1*p_x2")
        y = ExprObservable(ct, "p_x1 + x3")
        for pt in sample_points("christ_lee"):
            assert bracket_new(ct, x, y, pt) == poisson_phys(ct, x, y, pt)

    def test_frozen_point_value(self):
        # at (x, a, b, p) = (1, 1, 0, 1): base {p_x, H} = -x = -1 and the
        # correction contracts to zero, so the bracket is exactly -1
        ct = transform("synthetic_gaugeless")
        x = ExprObservable(ct, "p_x")
        h = ct.hamiltonian_observable()
        pt = ct.point({"x": 1.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        assert abs(bracket_new(ct, x, h, pt) + 1.0) < 1e-9

    def test_matches_brute_force_assembly(self):
        ct = transform("synthetic_gaugeless")
        x = ExprObservable(ct, "p_x")
        h = ct.hamiltonian_observable()
        pt = ct.point({"x": 1.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        assert abs(bracket_new(ct, x, h, pt)
                   - _brute_bracket_px_h(ct, pt)) < 1e-6

    def test_coordinate_velocity_identity(self):
        # {q^i, H}_new must equal dH/dp_i - sum_a dB_a/dp_i v^a with the
        # sector velocities from the invertible-F solve
        ct = transform("synthetic_coupled")
        h = ct.hamiltonian_observable()
        for pt in sample_points("synthetic_coupled"):
            res = ct.resolve(pt)
            f = field_strength(ct, pt)
            dh = np.array([long_derivative(ct, h, a, pt) for a in range(2)])
            v = np.linalg.solve(f, dh)
            expected = res.dH_dp[0] - res.dB_dp[:, 0] @ v
            got = bracket_new(ct, ExprObservable(ct, "x"), h, pt)
            assert abs(got - expected) < 1e-12

    def test_each_gradient_taken_once(self):
        # a finite-difference observable pays a full sweep per gradient
        ct = transform("synthetic_coupled")
        calls = []

        class Counted(ExprObservable):
            def d_dq(self, pt):
                calls.append((self, "q"))
                return super().d_dq(pt)

            def d_dp(self, pt):
                calls.append((self, "p"))
                return super().d_dp(pt)

        x, y = Counted(ct, "x*p_x"), Counted(ct, "x^2 + p_x")
        bracket_new(ct, x, y, sample_points("synthetic_coupled")[0])
        assert len(calls) == len(set(calls)) == 4


def _brute_bracket_px_h(ct, pt, h=1e-6):
    """Assemble {p_x, H}_new for a 1-regular 2-degenerate model from plain
    central differences of h_phys and b_values only."""

    def h_at(x_, a_, b_, p_):
        return ct.h_phys(ct.point([x_, a_, b_], [p_]))

    def b_at(x_, a_, b_, p_):
        return ct.b_values(ct.point([x_, a_, b_], [p_]))

    x0, a0, b0 = pt.q
    p0 = pt.p[0]

    def d(fn, slot):
        args = [x0, a0, b0, p0]
        lo, hi = args.copy(), args.copy()
        lo[slot] -= h
        hi[slot] += h
        return (np.asarray(fn(*hi)) - np.asarray(fn(*lo))) / (2 * h)

    dh_dx, dh_da, dh_db, dh_dp = (d(h_at, s) for s in range(4))
    db_dx, db_da, db_db, db_dp = (d(b_at, s) for s in range(4))
    b_grad_q = {0: db_dx, 1: db_da, 2: db_db}
    # F_ab = dB_b/dq^a - dB_a/dq^b + {B_a, B_b}
    f = np.zeros((2, 2))
    f[0, 1] = b_grad_q[1][1] - b_grad_q[2][0] + (db_dx[0] * db_dp[1]
                                                 - db_dx[1] * db_dp[0])
    f[1, 0] = -f[0, 1]
    dh_vec = np.array([dh_da + db_dx[0] * dh_dp - dh_dx * db_dp[0],
                       dh_db + db_dx[1] * dh_dp - dh_dx * db_dp[1]])
    # X = p_x: {X, H} = -dH/dx, {X, B_a} = -dB_a/dx
    base = -dh_dx
    xb = np.array([-db_dx[0], -db_dx[1]])
    return float(base - xb @ np.linalg.solve(f, dh_vec))


class TestBracketGauge:
    @pytest.mark.parametrize("name", ("christ_lee", "cawley"))
    def test_limit_case_is_plain_poisson(self, name):
        ct = transform(name)
        cls = classification(name)
        x = ExprObservable(ct, ct.split.regular[0])
        from clairaut.model import momentum_name
        y = ExprObservable(ct, momentum_name(ct.split.regular[-1]))
        for pt in sample_points(name):
            assert bracket_gauge(ct, x, y, pt, cls) == poisson_phys(ct, x, y, pt)

    def test_matches_direct_subblock_assembly(self):
        ct = transform("synthetic_gauge")
        cls = classification("synthetic_gauge")
        x = ExprObservable(ct, "p_x")
        h = ct.hamiltonian_observable()
        for pt in sample_points("synthetic_gauge"):
            sub = list(cls.subblock)
            f = field_strength(ct, pt)[np.ix_(sub, sub)]
            xb = np.array([-delta_b(ct, a, x, pt) for a in sub])
            dh = np.array([long_derivative(ct, h, b, pt) for b in sub])
            expected = (poisson_phys(ct, x, h, pt)
                        - xb @ np.linalg.solve(f, dh))
            assert abs(bracket_gauge(ct, x, h, pt, cls) - expected) < 1e-12

    @pytest.mark.parametrize("name", ("oscillator", "exponential",
                                      "synthetic_gaugeless", "synthetic_coupled"))
    def test_gaugeless_case_is_bracket_new(self, name):
        ct = transform(name)
        cls = classification(name)
        assert cls.kind == "gaugeless"
        rng = np.random.default_rng(RNG_SEED)
        syms = list(ct.model.coords) + ["p_" + c for c in ct.split.regular]
        obs = [ExprObservable(ct, " + ".join(
            f"{rng.uniform(-1, 1):.6f}*{syms[i]}*{syms[j]}"
            for i, j in rng.integers(len(syms), size=(3, 2)))) for _ in range(3)]
        obs.append(ct.hamiltonian_observable())
        for pt in sample_points(name):
            for x in obs:
                for y in obs:
                    assert bracket_new(ct, x, y, pt) == bracket_gauge(ct, x, y, pt, cls)

    def test_singular_f_keeps_each_message(self):
        ct = transform("synthetic_gauge")
        x = ExprObservable(ct, "p_x")
        h = ct.hamiltonian_observable()
        pt = sample_points("synthetic_gauge")[0]
        with pytest.raises(RankDeficiencyError, match="use bracket_gauge"):
            bracket_new(ct, x, h, pt)


class TestCommutatorIdentity:
    def test_long_derivative_commutator(self):
        # [D_a, D_b]X = {F_ab, X}_phys; both sides equal the coefficient a
        ct = transform("synthetic_gaugeless")
        x = ExprObservable(ct, "p_x*a + x^2/2")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(3):
            q = rng.uniform(0.5, 1.5, 3)
            pt = ct.point(q, [rng.uniform(-1, 1)])
            d_b = FiniteDifferenceObservable(
                lambda s: long_derivative(ct, x, 1, s), ct)
            d_a = FiniteDifferenceObservable(
                lambda s: long_derivative(ct, x, 0, s), ct)
            lhs = (long_derivative(ct, d_b, 0, pt)
                   - long_derivative(ct, d_a, 1, pt))
            f_ab = FiniteDifferenceObservable(
                lambda s: float(field_strength(ct, s)[0, 1]), ct)
            rhs = poisson_phys(ct, f_ab, x, pt)
            assert abs(lhs - rhs) < 1e-4
            assert abs(rhs - q[1]) < 1e-4  # nontrivial: equals coordinate a


class TestLeibnizRule:
    def test_hand_checked_instance(self):
        # D_a{B_a, B_b} and its Leibniz expansion are both exactly -1 here
        ct = transform("synthetic_coupled")
        pt = ct.point({"x": 1.3, "a": 0.4, "b": -0.6}, {"x": 0.8})
        lhs, rhs = _leibniz_sides(ct, 0, 0, 1, pt)
        assert abs(lhs + 1.0) < 1e-4
        assert abs(rhs + 1.0) < 1e-4
        assert abs(lhs - rhs) < 1e-4

    def test_random_triples(self):
        ct = transform("synthetic_bianchi")
        rng = np.random.default_rng(RNG_SEED)
        pt = ct.point(rng.uniform(0.5, 1.5, 4), [rng.uniform(-1, 1)])
        for (a, b, g) in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            lhs, rhs = _leibniz_sides(ct, a, b, g, pt)
            assert abs(lhs - rhs) < 1e-4


def _leibniz_sides(ct, alpha, beta, gamma, pt):
    """(D_alpha {B_beta, B_gamma}, {D_alpha B_beta, B_gamma} + {B_beta, D_alpha B_gamma})."""
    bb, bg = BObservable(ct, beta), BObservable(ct, gamma)
    inner = FiniteDifferenceObservable(
        lambda s: poisson_phys(ct, bb, bg, s), ct)
    lhs = long_derivative(ct, inner, alpha, pt)
    d_bb = FiniteDifferenceObservable(
        lambda s: long_derivative(ct, bb, alpha, s), ct)
    d_bg = FiniteDifferenceObservable(
        lambda s: long_derivative(ct, bg, alpha, s), ct)
    rhs = poisson_phys(ct, d_bb, bg, pt) + poisson_phys(ct, bb, d_bg, pt)
    return lhs, rhs


class TestDeltaCommutator:
    @pytest.mark.parametrize("name", ("synthetic_coupled", "synthetic_bianchi"))
    def test_composition_rule(self, name):
        ct = transform(name)
        n_deg = ct.n - ct.r
        pt = sample_points(name, 1)[0]
        for gamma in range(n_deg):
            bg = BObservable(ct, gamma)
            for a in range(n_deg):
                for b in range(a + 1, n_deg):
                    inner_b = FiniteDifferenceObservable(
                        lambda s, _b=b: delta_b(ct, _b, bg, s), ct)
                    inner_a = FiniteDifferenceObservable(
                        lambda s, _a=a: delta_b(ct, _a, bg, s), ct)
                    lhs = (delta_b(ct, a, inner_b, pt)
                           - delta_b(ct, b, inner_a, pt))
                    generator = FiniteDifferenceObservable(
                        lambda s, _a=a, _b=b: poisson_phys(
                            ct, BObservable(ct, _a), BObservable(ct, _b), s), ct)
                    rhs = poisson_phys(ct, generator, bg, pt)
                    assert abs(lhs - rhs) < 1e-4


class TestMaxwellCurrent:
    def test_bianchi_fixture_current(self):
        ct = transform("synthetic_bianchi")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(3):
            pt = ct.point(rng.uniform(0.5, 1.5, 4), [rng.uniform(-1, 1)])
            j = maxwell_current(ct, pt)
            assert np.max(np.abs(j - np.array([0.0, -2.0, 0.0]))) < 1e-12

    def test_vanishing_field_strength_gives_no_current(self):
        for name in ("christ_lee", "cawley"):
            ct = transform(name)
            pt = sample_points(name, 1)[0]
            assert np.max(np.abs(maxwell_current(ct, pt))) < 1e-12

    def test_current_conservation(self):
        ct = transform("synthetic_bianchi")
        pt = ct.point({"x": 1.2, "a": 0.5, "b": 0.7, "c": -0.4}, {"x": 0.9})
        total = 0.0
        for alpha in range(3):
            j_alpha = FiniteDifferenceObservable(
                lambda s, _a=alpha: float(maxwell_current(ct, s)[_a]), ct)
            total += long_derivative(ct, j_alpha, alpha, pt)
        assert abs(total) < 1e-3


class TestBianchiIdentity:
    def test_three_direction_fixture(self):
        ct = transform("synthetic_bianchi")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(3):
            pt = ct.point(rng.uniform(0.5, 1.5, 4), [rng.uniform(-1, 1)])
            assert bianchi_residual(ct, pt) < 1e-12

    def test_small_sectors_return_zero(self):
        for name in ("mixed", "cawley", "oscillator"):
            ct = transform(name)
            pt = sample_points(name, 1)[0]
            assert bianchi_residual(ct, pt) == 0.0

    def test_nan_on_a_later_triple_is_nan(self, monkeypatch):
        # four directions give four triples; the second, (0, 1, 3), is nan
        ct = transform("synthetic_gauge")
        real = gauge._long_derivatives_of_f

        def patched(ct, pt):
            d = real(ct, pt)
            return lambda a, b, c: math.nan if (a, b, c) == (0, 1, 3) else d(a, b, c)

        monkeypatch.setattr(gauge, "_long_derivatives_of_f", patched)
        assert math.isnan(bianchi_residual(ct, sample_points("synthetic_gauge", 1)[0]))

    def test_limit_fixture(self):
        ct = transform("christ_lee")
        pt = sample_points("christ_lee", 1)[0]
        assert bianchi_residual(ct, pt) < 1e-12


def total_derivative_shift(name):
    """The bundled model with d f(q)/dt added to L, for the fixed quadratic
    f = sum_k (k+1)/4 q_k^2 + 3/8 sum_j<k q_j q_k + sum_k (1/2 - k/8) q_k over
    every coordinate, every pair coupled, and grad f as a function of q."""
    coords = load_bundled(name).coords
    n = len(coords)

    def partial(k):  # df/dq_k: (coefficient, coordinate) pairs, then a constant
        return [(0.5 * (k + 1), k)] + [(0.375, j) for j in range(n) if j != k], 0.5 - 0.125 * k

    rate = " + ".join(
        "(" + " + ".join(f"{c!r}*{coords[j]}" for c, j in pairs) + f" + {b!r})*d({x})"
        for x, (pairs, b) in zip(coords, map(partial, range(n))))
    text = re.sub(r"lagrangian\s*=(.*?);", lambda m: f"lagrangian = ({m.group(1)}) + {rate};",
                  bundled_model_text(name), flags=re.S)

    def grad(q):
        return [sum(c * q[j] for c, j in pairs) + b for pairs, b in map(partial, range(n))]

    return ClairautTransform(parse_model(text, name=name)), grad


def shift_defects(ct, shifted, grad):
    """{slot: max |got - want| / (eps * scale)} of the relation L' = L + d
    f(q)/dt over the seed-42 probes: each quantity of shifted at (q, p +
    d_r f) against ct's at (q, p)."""
    worst, eps = {}, np.finfo(float).eps
    for pt in phase_probes(ct, seed=42):
        g = grad(pt._q)
        moved = pt._replace(p=[p + g[i] for p, i in zip(pt._p, ct.reg_idx)])
        res, new = ct.resolve(pt), shifted.resolve(moved)
        # H' sums p' V, B' v_deg and -L': its rounding scales with theirs
        h_scale = (1 + np.abs(moved.p) @ np.abs(new.V) + np.abs(new.B) @ np.abs(pt.v_deg)
                   + abs(new.L))
        for slot, got, want, scale in (
                ("V", new.V, res.V, 1 + np.abs(res.V)),
                ("H", new.H, res.H, h_scale),
                ("B", new.B, res.B + [g[a] for a in ct.deg_idx], 1 + np.abs(new.B)),
                ("F", new.F, res.F, 1 + np.abs(res.F)),
                ("DH", new.DH, res.DH, 1 + np.abs(res.DH))):
            defect = float(np.max(np.abs(got - want) / (eps * scale), initial=0.0))
            worst[slot] = max(worst.get(slot, 0.0), defect)
    return worst


class TestTotalDerivative:
    """L' = L + d f(q)/dt is the canonical shift p -> p + grad f: at
    (q, p + d_r f), V' = V, H' = H, B' = B + d_a f, F' = F and D'H' = DH.
    The second model's core reaches F and D_a H by its own derivatives, a
    route the many-time rows cannot give, since G shares the block's."""

    ULPS = 16

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_total_derivative_leaves_the_sector_unchanged(self, name):
        ct = transform(name)
        shifted, grad = total_derivative_shift(name)
        assert shifted.split == ct.split
        for slot, defect in shift_defects(ct, shifted, grad).items():
            assert defect <= self.ULPS, slot

    @pytest.mark.parametrize("name", BUNDLED)
    def test_the_jet_identities_are_unchanged(self, name):
        # the shift is canonical, so it keeps the bracket and D_a: D_a F_bc
        # and the tower's second level {D_a H, H} are invariant at the mapped
        # point (dF and the Hessians, taken at fixed p, are not), the second
        # model's read off its own third partials
        ct = transform(name)
        shifted, grad = total_derivative_shift(name)
        nd, eps = ct.n - ct.r, np.finfo(float).eps
        for pt in phase_probes(ct, seed=42):
            g = grad(pt._q)
            moved = pt._replace(p=[p + g[i] for p, i in zip(pt._p, ct.reg_idx)])
            d, d_new = (gauge._long_derivatives_of_f(ct, pt),
                        gauge._long_derivatives_of_f(shifted, moved))
            for a, b, c in itertools.product(range(nd), repeat=3):
                want = d(a, b, c)
                assert abs(d_new(a, b, c) - want) <= self.ULPS * eps * (1 + abs(want))
            # {D_a H, H} rounds with the sizes of its bracket's products
            res = ct.resolve(pt)
            scale = (1 + np.abs(res.dDH[:, ct.reg_idx]) @ np.abs(res.dH_dp)
                     + np.abs(res.dDH[:, ct.n:]) @ np.abs(res.dH_dq[ct.reg_idx]))
            got, want = verify._level_two(shifted, moved), verify._level_two(ct, pt)
            assert np.all(np.abs(np.subtract(got, want)) <= self.ULPS * eps * scale)

    def test_a_sign_flip_in_the_blocks_field_strength_fails(self, monkeypatch):
        # numerics._block emitting (pp^T - pp) for F's (pp - pp^T) term: the
        # relation F' = F breaks on every model where that term is nonzero
        # (by 2 sum_j dB/dp_j d2f/dq^j dq^a, which needs f to couple a
        # regular and a degenerate coordinate), and holds on the others
        field = {name: [ClairautTransform(load_bundled(name)).resolve(pt)._flat("F")
                        for pt in phase_probes(transform(name), seed=42)] for name in BUNDLED}
        source = inspect.getsource(numerics._block)
        mutant = source.replace("term(pp[a][b]), term(pp[b][a])", "term(pp[b][a]), term(pp[a][b])")
        assert mutant != source
        namespace = dict(vars(numerics))
        exec(mutant, namespace)  # noqa: S102 (the emitter's own source, one term flipped)
        monkeypatch.setattr(numerics, "_block", namespace["_block"])
        monkeypatch.setattr(transform_module, "block_kernel",
                            lru_cache(maxsize=None)(numerics.block_kernel.__wrapped__))
        caught, moved = [], []
        for name in BUNDLED:
            ct = ClairautTransform(load_bundled(name))
            mutated = [ct.resolve(pt)._flat("F") for pt in phase_probes(ct, seed=42)]
            if mutated != field[name]:
                moved.append(name)
            shifted, grad = total_derivative_shift(name)
            if shift_defects(ct, shifted, grad)["F"] > 1e10:  # a relative defect above 2e-6
                caught.append(name)
        # particle's F is 1 x 1, so its (pp - pp^T) vanishes
        assert caught == moved == ["synthetic_coupled", "synthetic_bianchi", "synthetic_gauge"]


class TestLimitIndependence:
    def test_long_derivative_equals_plain_partial(self):
        ct = transform("christ_lee")
        h = ct.hamiltonian_observable()
        for pt in phase_probes(ct)[:5]:
            res = ct.resolve(pt)
            for alpha in range(3):
                plain = res.dH_dq[ct.deg_idx[alpha]]
                assert long_derivative(ct, h, alpha, pt) == plain


class _PerEntryDifferences:
    """Scalar central differences as a separate loop per direction: the
    per-entry formulation the array finite differences replaced."""

    def __init__(self, fn, step):
        self.fn = fn
        self.step = step

    def d_dq(self, pt):
        out = np.empty(len(pt.q))
        for a in range(len(pt.q)):
            h = self.step * (1 + abs(pt.q[a]))
            qp, qm = pt.q.copy(), pt.q.copy()
            qp[a] += h
            qm[a] -= h
            out[a] = (self.fn(PhasePoint(qp, pt.p, pt.v_deg))
                      - self.fn(PhasePoint(qm, pt.p, pt.v_deg))) / (2 * h)
        return out

    def d_dp(self, pt):
        out = np.empty(len(pt.p))
        for i in range(len(pt.p)):
            h = self.step * (1 + abs(pt.p[i]))
            pp, pm = pt.p.copy(), pt.p.copy()
            pp[i] += h
            pm[i] -= h
            out[i] = (self.fn(PhasePoint(pt.q, pp, pt.v_deg))
                      - self.fn(PhasePoint(pt.q, pm, pt.v_deg))) / (2 * h)
        return out


def _oracle_long_derivative(ct, x, alpha, pt):
    res = ct.resolve(pt)
    xq, xp = x.d_dq(pt), x.d_dp(pt)
    bq, bp = res.dB_dq[alpha], res.dB_dp[alpha]
    return float(xq[ct.deg_idx[alpha]] + bq[ct.reg_idx] @ xp - xq[ct.reg_idx] @ bp)


def _oracle_entry(ct, a, b, step):
    return _PerEntryDifferences(
        lambda s: float(field_strength(ct, s)[a, b]), step)


class _JetEntry:
    """F_ab with its gradient read from the public array slot Resolution.dF,
    one entry at a time."""

    def __init__(self, ct, a, b):
        self.ct, self.a, self.b = ct, a, b

    def d_dq(self, pt):
        return self.ct.resolve(pt).dF[self.a, self.b, :self.ct.n]

    def d_dp(self, pt):
        return self.ct.resolve(pt).dF[self.a, self.b, self.ct.n:]


def _oracle_maxwell(ct, pt, entry):
    n_deg = ct.n - ct.r
    out = np.zeros(n_deg)
    for b in range(n_deg):
        total = 0.0
        for a in range(n_deg):
            if a != b:
                total += _oracle_long_derivative(ct, entry(a, b), a, pt)
        out[b] = total
    return out


def _oracle_bianchi(ct, pt, entry):
    n_deg = ct.n - ct.r
    worst = 0.0
    for a in range(n_deg):
        for b in range(a + 1, n_deg):
            for c in range(b + 1, n_deg):
                total = (_oracle_long_derivative(ct, entry(b, c), a, pt)
                         + _oracle_long_derivative(ct, entry(a, b), c, pt)
                         + _oracle_long_derivative(ct, entry(c, a), b, pt))
                worst = max(worst, abs(total))
    return worst


MULTI_DIRECTION = [name for name in BUNDLED
                   if transform(name).n - transform(name).r >= 2]


class TestArrayFiniteDifferences:
    def test_multi_direction_models_are_covered(self):
        assert set(MULTI_DIRECTION) >= {"christ_lee", "synthetic_bianchi",
                                        "synthetic_gauge"}

    @pytest.mark.parametrize("name", MULTI_DIRECTION)
    def test_current_and_bianchi_match_per_entry_oracle_bitwise(self, name):
        # bit for bit the per-entry formulation on the public dF array, one
        # entry and one long derivative at a time; and, by an independent
        # route, per-entry central differences of F to the stencil's error
        ct = transform(name)
        for pt in phase_probes(ct):
            def jet(a, b):
                return _JetEntry(ct, a, b)

            def fd(a, b):
                return _oracle_entry(ct, a, b, STEP)

            current = maxwell_current(ct, pt)
            assert np.array_equal(current, _oracle_maxwell(ct, pt, jet))
            assert bianchi_residual(ct, pt) == _oracle_bianchi(ct, pt, jet)
            assert np.max(np.abs(current - _oracle_maxwell(ct, pt, fd))) <= 1e-9
            assert _oracle_bianchi(ct, pt, fd) <= 1e-9

    def test_array_shapes_and_entry_slices(self):
        ct = transform("synthetic_bianchi")
        pt = sample_points("synthetic_bianchi", 1)[0]
        k = ct.n - ct.r
        fd = FiniteDifferenceObservable(lambda s: field_strength(ct, s), ct)
        fq, fp = fd.d_dq(pt), fd.d_dp(pt)
        assert fq.shape == (k, k, ct.n) and fp.shape == (k, k, ct.r)
        for a in range(k):
            for b in range(k):
                assert fq[a, b].flags.c_contiguous
                entry = _oracle_entry(ct, a, b, STEP)
                assert np.array_equal(fq[a, b], entry.d_dq(pt))
                assert np.array_equal(fp[a, b], entry.d_dp(pt))
        vec = FiniteDifferenceObservable(lambda s: ct.b_values(s), ct)
        assert vec.d_dq(pt).shape == (k, ct.n)
        assert vec.d_dp(pt).shape == (k, ct.r)

    @pytest.mark.parametrize("name", ("mixed", "particle", "synthetic_gauge"))
    def test_scalar_function_unchanged(self, name):
        ct = transform(name)
        h = ct.hamiltonian_observable()
        for pt in sample_points(name):
            for step in (STEP, 1e-6):
                new = FiniteDifferenceObservable(h.value, ct, step)
                old = _PerEntryDifferences(h.value, step)
                got_q, got_p = new.d_dq(pt), new.d_dp(pt)
                assert got_q.shape == (ct.n,) and got_p.shape == (ct.r,)
                assert np.array_equal(got_q, old.d_dq(pt))
                assert np.array_equal(got_p, old.d_dp(pt))
                assert new.value(pt) == h.value(pt)

    def test_one_resolve_per_point(self, monkeypatch):
        # the exact current reads the jet at the point itself: no displaced point
        ct = ClairautTransform(load_bundled("christ_lee"))
        pt = phase_probes(ct, count=1)[0]
        resolve = ct.resolve
        misses = []

        def counting(point, v_init=None):
            if ct._last is None or ct._last[0] is not point or v_init is not None:
                misses.append(point)
            return resolve(point, v_init)

        monkeypatch.setattr(ct, "resolve", counting)
        maxwell_current(ct, pt)
        assert misses == [pt]
