"""Report structure, determinism, and per-class check coverage."""

import json
import math
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache

import pytest

from clairaut import ClairautTransform, classify, load_bundled, parse_model, verify
from clairaut.fixtures import BUNDLED
from clairaut.gauge import phase_probes
from clairaut.model import DEFAULT_PROBE_COUNT, default_probes
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


class TestDeterminism:
    @pytest.mark.parametrize("name", ("cawley", "synthetic_gauge", "particle"))
    def test_same_seed_same_bytes(self, name):
        a = render_report(run_verification(load_bundled(name)))
        b = render_report(run_verification(load_bundled(name)))
        assert a == b

    def test_seed_is_recorded(self):
        assert report("oscillator", seed=7)["seed"] == 7


class TestSharedReports:
    def test_each_report_computed_once_per_run(self, monkeypatch):
        # the two extra_time rows share one integrability report, the two
        # constraint rows one Dirac report per probe
        calls = Counter()
        for name in ("integrability_report", "dirac_report"):
            def counted(*args, _name=name, _fn=getattr(verify, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(verify, name, counted)
        rep = run_verification(load_bundled("synthetic_gaugeless"))
        assert calls == {"integrability_report": 1, "dirac_report": rep["probe_count"]}


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

    def test_raw_consistency_is_reported_not_gated(self):
        # off the invariant set the consistency functions are O(1); the
        # informational row records that without failing the run
        c = next(c for c in report("cawley")["checks"]
                 if c["name"] == "consistency_functions")
        assert c["tol"] is None
        assert c["residual"] > 1e-3
