"""Report structure, determinism, and per-class check coverage."""

import json
import math
import re
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache

import pytest

from clairaut import (ClairautTransform, NewtonError, classify, dynamics, gauge, load_bundled,
                      manytime, parse_model, verify)
from clairaut.errors import ArgumentError
from clairaut.fixtures import BUNDLED
from clairaut.gauge import ExprObservable, phase_probes
from clairaut.model import DEFAULT_PROBE_COUNT, default_probes, momentum_name
from clairaut.transform import PhasePoint
from clairaut.verify import render_report, run_verification


@lru_cache(maxsize=None)
def report(name, seed=42):
    return run_verification(load_bundled(name), seed=seed)


def names_of(rep):
    return [c["name"] for c in rep["checks"]]


class TestStructure:
    def test_top_level_keys(self):
        rep = report("mixed")
        assert set(rep) == {"model", "seed", "probe_count", "split",
                            "classification", "checks", "all_pass"}
        assert rep["model"] == "mixed"
        assert rep["seed"] == 42
        assert rep["probe_count"] == 17
        assert rep["split"] == {"regular": ["x"], "degenerate": ["y"]}
        assert rep["classification"] == {"kind": "limit", "rank_F": 0}

    def test_every_check_is_well_formed(self):
        for name in ("oscillator", "cawley", "synthetic_gauge"):
            for c in report(name)["checks"]:
                assert {"name", "residual", "tol", "passed"} <= set(c)
                assert isinstance(c["passed"], bool)
                if c["residual"] is not None:
                    assert isinstance(c["residual"], float)

    def test_render_is_canonical_json(self):
        text = render_report(report("cawley"))
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed == report("cawley")
        # sorted keys at every level
        assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"

    def test_informational_checks_never_fail(self):
        for name in ("synthetic_gaugeless", "synthetic_bianchi", "cawley"):
            for c in report(name)["checks"]:
                if c["tol"] is None:
                    assert c["passed"]


class TestArguments:
    """run_verification takes a seed that is an integer >= 0 and a probe
    count that is an integer >= 1, as the CLI's flags do."""

    @pytest.mark.parametrize("kwargs, message", [
        # 0 probes gave six rows of residual 0.0 over nothing; 2.5 drew 3
        # probes and reported 2; -1 and 1.5 raised from Rng
        ({"probe_count": 0}, "probe_count must be an integer of at least 1, not 0"),
        ({"probe_count": 2.5}, "probe_count must be an integer of at least 1, not 2.5"),
        ({"seed": -1}, "seed must be an integer of at least 0, not -1"),
        ({"seed": 1.5}, "seed must be an integer of at least 0, not 1.5"),
        ({"seed": "42"}, "seed must be an integer of at least 0, not '42'"),
    ])
    def test_bad_arguments_raise(self, kwargs, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            run_verification(load_bundled("oscillator"), **kwargs)

    def test_the_smallest_arguments_run(self):
        rep = run_verification(load_bundled("oscillator"), seed=0, probe_count=1)
        assert (rep["seed"], rep["probe_count"], rep["all_pass"]) == (0, 1, True)


class TestDeterminism:
    @pytest.mark.parametrize("name", ("cawley", "synthetic_gauge", "particle"))
    def test_same_seed_same_bytes(self, name):
        a = render_report(run_verification(load_bundled(name)))
        b = render_report(run_verification(load_bundled(name)))
        assert a == b

    def test_seed_is_recorded(self):
        assert report("oscillator", seed=7)["seed"] == 7


class TestSharedReports:
    def test_one_many_time_form_per_probe(self, monkeypatch):
        # one integrability report feeds the two extra-time and the two
        # constraint rows: G is built once per probe and no Dirac report runs
        calls = Counter()

        def count(module, name):
            def counted(*args, _fn=getattr(module, name)):
                calls[name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)

        count(verify, "integrability_report")
        count(dynamics, "dirac_report")
        count(manytime, "g_matrix")
        count(dynamics, "g_matrix")
        rep = run_verification(load_bundled("synthetic_gaugeless"))
        assert calls == {"integrability_report": 1, "g_matrix": rep["probe_count"]}

    @pytest.mark.parametrize("name", [n for n in BUNDLED if n not in ("oscillator", "exponential")])
    def test_constraint_rows_equal_extra_time_rows(self, name):
        # every degenerate model: the same residual, tolerance and verdict
        rows = {c["name"]: c for c in report(name)["checks"]}
        for constraint, extra_time in (
                ("constraint_bracket_matches_field_strength",
                 "extra_time_block_matches_field_strength"),
                ("constraint_hamiltonian_bracket_sign",
                 "extra_time_row_matches_long_derivative")):
            assert rows[constraint] == rows[extra_time] | {"name": constraint}


class TestOneResolvePerProbe:
    """run_verification resolves each of its probes once and every row reads
    that resolution; the transform keeps none of them after the run."""

    @staticmethod
    def probe_values(name):
        probes = phase_probes(ClairautTransform(load_bundled(name)),
                              count=DEFAULT_PROBE_COUNT, seed=42)
        return [(pt._q, pt._p, pt._v) for pt in probes]

    @staticmethod
    def count_resolves(monkeypatch):
        calls, real = Counter(), ClairautTransform._resolve_args

        def counting(ct, q, p, v_deg, x0):
            calls[tuple(q), tuple(p), tuple(v_deg)] += 1
            return real(ct, q, p, v_deg, x0)

        monkeypatch.setattr(ClairautTransform, "_resolve_args", counting)
        return calls

    @staticmethod
    def capture_transform(monkeypatch):
        seen, real = [], verify.phase_probes
        monkeypatch.setattr(verify, "phase_probes",
                            lambda ct, **kwargs: seen.append(ct) or real(ct, **kwargs))
        return seen

    @pytest.mark.parametrize("name", BUNDLED)
    def test_each_probe_resolved_once(self, name, monkeypatch):
        # probe 0 of a degenerate model is also the start of displaced
        # copies with its values (the constraint-preservation projection)
        values = self.probe_values(name)
        calls = self.count_resolves(monkeypatch)
        run_verification(load_bundled(name), seed=42)
        first = 0 if name in ("oscillator", "exponential") else 1
        assert [calls[v] for v in values[first:]] == [1] * (len(values) - first)

    def test_a_failing_probe_fails_each_row_as_before(self, monkeypatch):
        # a probe whose resolve raises is kept out of the table, so every row
        # that reads it raises again: the report a run without the table gives
        bad = self.probe_values("oscillator")[1]
        calls, real = Counter(), ClairautTransform._resolve_args

        def failing(ct, q, p, v_deg, x0):
            if (tuple(q), tuple(p), tuple(v_deg)) == bad:
                calls["bad"] += 1
                raise NewtonError("no root at the second probe")
            return real(ct, q, p, v_deg, x0)

        monkeypatch.setattr(ClairautTransform, "_resolve_args", failing)
        rep = run_verification(load_bundled("oscillator"), seed=42)
        errors = [c["name"] for c in rep["checks"] if "error" in c]
        assert len(errors) >= 3 and calls["bad"] >= len(errors)
        assert {c["error"] for c in rep["checks"] if "error" in c} == {
            "NewtonError: no root at the second probe"}
        resolve = ClairautTransform.resolve
        monkeypatch.setattr(ClairautTransform, "resolve", lambda ct, pt, v_init=None: (
            ct._held.clear(), resolve(ct, pt, v_init))[1])
        assert run_verification(load_bundled("oscillator"), seed=42) == rep

    def test_no_resolution_held_after_the_run(self, monkeypatch):
        seen = self.capture_transform(monkeypatch)
        real, held = verify._conjugate_residual, []

        def check(ctx):
            held.append(sum(res is not None for _, res in ctx.ct._held.values()))
            return real(ctx)

        monkeypatch.setattr(verify, "_conjugate_residual", check)
        run_verification(load_bundled("christ_lee"), seed=42)
        assert held == [DEFAULT_PROBE_COUNT] and seen[0]._held == {}

    def test_no_resolution_held_after_an_exception(self, monkeypatch):
        seen = self.capture_transform(monkeypatch)

        def check(ctx):
            assert ctx.ct._held
            raise RuntimeError("check failed")

        monkeypatch.setattr(verify, "_conjugate_residual", check)
        with pytest.raises(RuntimeError, match="check failed"):
            run_verification(load_bundled("christ_lee"), seed=42)
        assert seen[0]._held == {}


class TestDefectFold:
    """run_verification folds each row's defects into max |defect|: a nan at
    any probe, not only the first, makes the row nan and failing."""

    @staticmethod
    def row_with_nan_at_probe_1(monkeypatch, model, name, row):
        # verify's binding of name returns nan (times its value) at the
        # run's second probe
        probes, real_probes, real = [], verify.phase_probes, getattr(verify, name)
        monkeypatch.setattr(verify, "phase_probes",
                            lambda *args, **kwargs: probes.extend(real_probes(*args, **kwargs))
                            or probes)
        monkeypatch.setattr(verify, name, lambda ct, *args: (
            real(ct, *args) * math.nan if args[-1] is probes[1] else real(ct, *args)))
        rep = run_verification(load_bundled(model))
        return next(c for c in rep["checks"] if c["name"] == row)

    def test_pair_check_row(self, monkeypatch):
        c = self.row_with_nan_at_probe_1(monkeypatch, "oscillator", "poisson_phys",
                                         "poisson_bracket_antisymmetry")
        assert math.isnan(c["residual"]) and not c["passed"]

    def test_field_strength_antisymmetry(self, monkeypatch):
        c = self.row_with_nan_at_probe_1(monkeypatch, "synthetic_gaugeless", "field_strength",
                                         "field_strength_antisymmetry")
        assert math.isnan(c["residual"]) and not c["passed"]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_row_returns_its_defects(self, name):
        # the fold stays in run_verification: no row folds to a float itself
        ct = ClairautTransform(load_bundled(name))
        probes = phase_probes(ct, count=DEFAULT_PROBE_COUNT, seed=42)
        ctx = verify._Context(ct, classify(ct, probes=probes), probes, 42)
        for row, _, fn, applicable in verify._check_table(ctx):
            if applicable:
                assert isinstance(fn(ctx), Iterable), row


class TestRankConstancyRow:
    """hessian_rank_constant probes with the run's own seed and count, not
    the default draws that the split itself passed."""

    # W = diag(1, x^8) has rank 1 where x^8 drops under the rank tolerance
    # (|x| below about 0.075): seed 42's probes miss that band, seed 0's hit it
    MODEL = "coord x, y; lagrangian = d(x)^2/2 + x^8*d(y)^2/2;"

    @staticmethod
    def row(rep):
        return next(c for c in rep["checks"] if c["name"] == "hessian_rank_constant")

    def test_a_seed_whose_probes_drop_the_rank_fails(self):
        rep = run_verification(parse_model(self.MODEL), seed=0)
        assert self.row(rep)["residual"] == 1.0 and not self.row(rep)["passed"]
        assert not rep["all_pass"]
        assert self.row(run_verification(parse_model(self.MODEL), seed=42))["passed"]

    def test_the_run_probe_count_and_seed(self, monkeypatch):
        model, seen = load_bundled("cawley"), []
        real = verify.check_rank_constancy
        monkeypatch.setattr(verify, "check_rank_constancy",
                            lambda *args: seen.append(args[2:]) or real(*args))
        run_verification(model, seed=3, probe_count=5)
        assert seen == [(default_probes(model, count=5, seed=3),)]


class TestAllFixturesPass:
    @pytest.mark.parametrize("name", (
        "oscillator", "exponential", "mixed", "cawley", "particle",
        "christ_lee", "synthetic_gaugeless", "synthetic_coupled",
        "synthetic_bianchi", "synthetic_gauge"))
    def test_all_pass(self, name):
        rep = report(name)
        failed = [c for c in rep["checks"] if not c["passed"]]
        assert rep["all_pass"], failed


class TestCoverageByClass:
    def test_regular_model_rows(self):
        got = names_of(report("oscillator"))
        assert "fenchel_reduction" in got
        assert "degenerate_sector_independence" not in got
        assert "constraint_preservation" not in got

    def test_gaugeless_rows(self):
        got = names_of(report("synthetic_gaugeless"))
        assert "sector_solve_consistency" in got
        assert "corrected_bracket_antisymmetry_defect" in got
        assert "corrected_bracket_jacobiator" in got
        assert "fenchel_reduction" not in got

    def test_gauge_rows(self):
        rep = report("synthetic_bianchi")
        assert rep["classification"]["kind"] == "gauge"
        got = names_of(rep)
        assert "solved_sector_consistency" in got
        assert "dependent_row_defect" in got
        assert "bianchi_identity" in got
        dep = next(c for c in rep["checks"]
                   if c["name"] == "dependent_row_defect")
        assert dep["tol"] is None and dep["passed"]

    def test_limit_rows(self):
        got = names_of(report("cawley"))
        for want in ("gauge_bracket_reduction", "consistency_functions",
                     "constraint_preservation"):
            assert want in got

    def test_vanishing_b_unlocks_reduction_rows(self):
        got = names_of(report("christ_lee"))
        assert "corrected_bracket_reduction" in got
        assert "limit_partial_derivative_identity" in got
        # the mixed model has B_y = k*x, so these identities are out of scope
        assert "corrected_bracket_reduction" not in names_of(report("mixed"))

    def test_envelope_row_needs_admissible_zero_gauge(self):
        # the square-root Lagrangian cannot be resolved at v_deg = 0
        assert "envelope_gradient_matches_velocities" not in names_of(
            report("particle"))
        assert "envelope_gradient_matches_velocities" in names_of(
            report("mixed"))


class TestConstraintPreservation:
    @pytest.mark.parametrize("name", ("mixed", "cawley", "christ_lee",
                                      "particle"))
    def test_drift_stays_small(self, name):
        c = next(c for c in report(name)["checks"]
                 if c["name"] == "constraint_preservation")
        assert c["passed"]
        assert c["residual"] <= 1e-5

    @pytest.mark.parametrize("seed", range(100, 130))
    def test_cawley_passes_at_other_probe_seeds(self, seed):
        # the trial run that picks the projection depth lasts a tenth of the
        # checked run, and the drift grows like t^2
        c = next(c for c in report("cawley", seed)["checks"]
                 if c["name"] == "constraint_preservation")
        assert c["passed"], c

    def test_a_model_that_needs_the_third_level(self, monkeypatch):
        # x*d(z) added to cawley: the first two levels' trial runs drift by
        # 1e-4 to 1e-2, and the third level (its gradient and Jacobian by
        # one stencil over the exact second level) lands on the surface
        levels, real = [], verify._project_to_surface
        monkeypatch.setattr(verify, "_project_to_surface",
                            lambda ct, pt, k, *args: levels.append(k) or real(ct, pt, k, *args))
        model = parse_model("coord x, y, z; lagrangian = d(x)*d(y) + z*y^2/2 + x*d(z);")
        for seed in (42, 100, 101):
            levels.clear()
            c = next(c for c in run_verification(model, seed=seed)["checks"]
                     if c["name"] == "constraint_preservation")
            assert levels == [1, 2, 3] and c["residual"] <= 1e-12, (seed, c)

    def test_raw_consistency_is_reported_not_gated(self):
        # off the invariant set the consistency functions are O(1); the
        # informational row records that without failing the run
        c = next(c for c in report("cawley")["checks"]
                 if c["name"] == "consistency_functions")
        assert c["tol"] is None
        assert c["residual"] > 1e-3


def drawn_texts(ctx, salt, count):
    """The text of each random observable that verify draws: three products
    and a linear term over the names of z = (q, p), each coefficient written
    with six decimals."""
    ct, rng = ctx.ct, ctx.rng(salt)
    syms = list(ct.model.coords) + [momentum_name(c) for c in ct.split.regular]
    out = []
    for _ in range(count):
        terms = []
        for _ in range(3):
            coeff = rng.uniform(-1.5, 1.5)
            s1 = syms[rng.integers(len(syms))]
            s2 = syms[rng.integers(len(syms))]
            terms.append(f"{coeff:.6f}*{s1}*{s2}")
        terms.append(f"{rng.uniform(-1.0, 1.0):.6f}*{syms[rng.integers(len(syms))]}")
        out.append(" + ".join(terms))
    return out


def bits(obs, pt):
    """float.hex of an observable's value, gradient (d_dq, d_dp) and jet."""
    grad, rows = obs._jet(pt)
    return ([obs.value(pt).hex()], [float(v).hex() for v in [*obs.d_dq(pt), *obs.d_dp(pt)]],
            [v.hex() for v in grad], [v.hex() for row in rows for v in row])


def seed_42_context(name):
    ct = ClairautTransform(load_bundled(name))
    probes = phase_probes(ct, count=DEFAULT_PROBE_COUNT, seed=42)
    return verify._Context(ct, classify(ct, probes=probes), probes, 42)


class TestRandomObservables:
    """verify's random observables are quadratics in closed form, bit for
    bit the ExprObservable of the text of their terms."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bit_equal_to_the_expression_pipeline(self, name):
        ctx = seed_42_context(name)
        for salt in range(100):
            texts = drawn_texts(ctx, salt, 3)
            for obs, text in zip(verify._random_observables(ctx, salt, 3), texts, strict=True):
                oracle = ExprObservable(ctx.ct, text)
                for pt in ctx.probes:
                    assert bits(obs, pt) == bits(oracle, pt), (salt, text)

    # over z = (x, y, p_x) of mixed: (c, i, j) is c*z_i*z_j, (c, i) is c*z_i
    TERMS = {
        "repeated_pair": [(0.7, 0, 1), (0.4, 0, 1), (-0.3, 2, 2), (0.2, 1)],
        "swapped_pair": [(0.7, 0, 1), (0.4, 1, 0), (1.1, 2, 0), (0.5, 2)],
        "square_and_linear": [(0.9, 0, 0), (0.4, 0, 1), (-0.6, 0), (0.3, 1, 2), (0.25, 0, 0)],
        "unit_coefficients": [(1.0, 0, 1), (-1.0, 2, 2), (-1.0, 0, 0), (1.0, 1), (1.0, 2, 1)],
        "cancellation": [(0.5, 0, 1), (-0.5, 0, 1), (0.3, 1, 0), (-0.3, 0, 1), (0.25, 1)],
        "all_cancel": [(0.5, 0, 1), (-0.5, 0, 1), (0.25, 1), (-0.25, 1)],
        "zero_before_like_term": [(0.0, 2, 2), (0.3, 0, 1), (0.7, 0, 0), (-0.6, 2, 2),
                                  (-0.0, 1, 0), (0.1, 1), (1.3, 1, 0)],
        "negative_zero_sum": [(0.7, 0, 1), (-0.4, 2, 0), (-0.5, 2)],  # -0.0 at ZEROS
    }
    ZEROS = PhasePoint((0.0, -0.75), (0.0,), (0.0,))

    @pytest.mark.parametrize("case", TERMS)
    def test_hand_written_terms(self, case):
        ctx = seed_42_context("mixed")
        names = ["x", "y", "p_x"]
        terms = self.TERMS[case]
        text = " + ".join(f"{c:.6f}*" + "*".join(names[i] for i in at) for c, *at in terms)
        obs, oracle = verify._Quadratic(ctx.ct, terms), ExprObservable(ctx.ct, text)
        for pt in [*ctx.probes, self.ZEROS]:
            assert bits(obs, pt) == bits(oracle, pt), text

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_run_builds_no_expression_observable(self, name, monkeypatch):
        built, init = [], gauge.ExprObservable.__init__
        monkeypatch.setattr(gauge.ExprObservable, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        run_verification(load_bundled(name))
        assert built == []
