"""Model loading, Hessian construction, and the regular/degenerate split."""

import sys

import numpy as np
import pytest

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
from clairaut.expressions import Const, differentiate, simplify, substitute
from clairaut.errors import ArgumentError, ClairautError
from clairaut.fixtures import BUNDLED, load_bundled
from clairaut import model as model_module
from clairaut.model import (
    check_rank_constancy,
    default_probes,
    hessian_matrix,
    parse_model,
    split_variables,
)
from clairaut.numerics import rank_and_pivots
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

    def test_non_matrix_is_a_typed_error(self):
        with pytest.raises(ArgumentError, match="expects a matrix") as exc:
            rank_and_pivots([1.0, 2.0])
        assert isinstance(exc.value, ClairautError) and isinstance(exc.value, ValueError)


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
