"""Exit codes, output formats, and the spec'd worked examples for each
subcommand.  Tests drive main() in process; subprocess tests cover the
installed entry point, the import-time work and OpenBLAS's kernel sets."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from clairaut import ClairautTransform, bundled_model_path
from clairaut import model as model_module
from clairaut import transform as transform_module
from clairaut import cli
from clairaut.cli import MAX_PROBES, main
from clairaut.errors import ClairautError
from clairaut.model import DEFAULT_PROBE_COUNT
from clairaut.expressions import MAX_NESTING, free_symbols
from clairaut.fixtures import BUNDLED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """os.environ plus extra, with the checkout's src/ on PYTHONPATH: pytest's
    pythonpath setting does not reach a child interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def parse_kv_lines(text):
    out = {}
    for line in text.strip().split("\n"):
        name, _, value = line.partition(" = ")
        out[name] = float(value)
    return out


def load_schema(name):
    from importlib import resources

    raw = resources.files("clairaut").joinpath(f"schemas/{name}").read_text()
    return json.loads(raw)


class TestAnalyze:
    def test_cawley_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", bundled_model_path("cawley"))
        assert code == 0
        rep = json.loads(out)
        assert rep["hessian_rank"] == 2
        assert rep["degenerate"] == ["z"]
        assert rep["regular"] == ["x", "y"]
        assert rep["classification"] == {"kind": "limit", "rank_F": 0}
        assert rep["probes"] == {"count": 17, "seed": 42}

    def test_oscillator_is_nondegenerate(self, capsys):
        code, out, _ = run_cli(capsys, "analyze",
                               bundled_model_path("oscillator"))
        assert code == 0
        rep = json.loads(out)
        assert rep["hessian_rank"] == 1
        assert rep["degenerate"] == []
        assert rep["permutation"] == [0]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "missing.lag")
        assert code == 2
        assert "missing.lag" in err

    def test_param_override_is_applied(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", bundled_model_path("mixed"),
                               "--param", "k=2.5")
        assert code == 0
        assert json.loads(out)["params"]["k"] == 2.5

    def test_unknown_param_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", bundled_model_path("mixed"),
                               "--param", "nope=1")
        assert code == 2
        assert "nope" in err

    def test_field_strength_rank_variation_exits_3(self, capsys, tmp_path):
        # W has constant rank 1 here; the rank of F varies
        path = tmp_path / "varying.lag"
        path.write_text("coord x, a, b;\n"
                        "lagrangian = d(x)^2/2 + a*(x + sqrt(x^2))*d(b)/2 - x^2/2;\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert err.startswith("error: field strength rank varies across probes (ranks [0, 2])")

    def test_non_finite_velocity_hessian_exits_2(self, capsys, tmp_path):
        # simplify folds 1e300*1e300 to inf, and inf*0 makes W nan at every
        # probe: no rank, rather than every pivot counted
        path = tmp_path / "overflow.lag"
        path.write_text("coord x, a, b;\n"
                        "lagrangian = d(x)^2/2 + 1e300*1e300*x*d(a) - b*d(a) + x*a*d(b);\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err == "error: velocity Hessian has a non-finite entry at probe 0\n"

    def test_overflowing_literal_exits_2(self, capsys, tmp_path):
        path = tmp_path / "literal.lag"
        path.write_text("coord x; param k = 1e400; lagrangian = d(x)^2/2 + k*x;\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "number 1e400 is not a finite double (line 1, column 20)" in err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", bundled_model_path("cawley"),
                               "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["degenerate"] == ["z"]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_schema_valid_for_every_fixture(self, capsys, name):
        schema = load_schema("analyze.schema.json")
        jsonschema.Draft202012Validator.check_schema(schema)
        code, out, _ = run_cli(capsys, "analyze", bundled_model_path(name))
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    @pytest.mark.parametrize("lagrangian", ["x^0.5*d(x)^2", "d(x)^d(x)"])
    def test_probes_keep_fractional_power_bases_nonnegative(self, capsys, tmp_path,
                                                            lagrangian):
        # a power with a non-integer exponent needs a non-negative base,
        # like a sqrt argument; probes drawn outside it ended in exit 3
        path = tmp_path / "power.lag"
        path.write_text(f"coord x;\nlagrangian = {lagrangian};\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 0, err
        assert json.loads(out)["regular"] == ["x"]


class TestTransform:
    def test_particle_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", bundled_model_path("particle"),
            "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4")
        assert code == 0
        got = parse_kv_lines(out)
        assert abs(got["H_phys"]) < 1e-9
        assert abs(got["B_x0"] + math.sqrt(50.0)) < 1e-9
        assert got["clairaut_residual"] < 1e-10

    def test_particle_point_resolves_once(self, capsys, monkeypatch):
        # the residual is taken at the point already resolved: one solve
        real, calls = ClairautTransform._resolve_args, []
        monkeypatch.setattr(ClairautTransform, "_resolve_args",
                            lambda *args: calls.append(1) or real(*args))
        code, _, _ = run_cli(capsys, "transform", "particle",
                             "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4")
        assert code == 0 and len(calls) == 1

    def test_cawley_consistency_function_vanishes_at_y0(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", bundled_model_path("cawley"),
            "--at", "x=0.4,y=0,z=2.0,p_x=1.1,p_y=-0.3")
        assert code == 0
        got = parse_kv_lines(out)
        assert got["D_z H_phys"] == 0.0
        assert got["B_z"] == 0.0
        assert abs(got["H_phys"] - 1.1 * -0.3) < 1e-12

    def test_explicit_degenerate_velocity_binding(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", bundled_model_path("mixed"),
            "--at", "x=0.7,y=1.2,p_x=0.5,d(y)=2")
        assert code == 0
        got = parse_kv_lines(out)
        assert abs(got["B_y"] - 0.7) < 1e-12  # k*x with k = 1

    def test_field_strength_lines_for_three_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", bundled_model_path("christ_lee"),
            "--at", "x1=1,x2=0.5,x3=0.2,y1=0.1,y2=0.3,y3=0.7,"
                    "p_x1=0.4,p_x2=0.6,p_x3=0.8")
        assert code == 0
        got = parse_kv_lines(out)
        assert got["F[y1,y2]"] == 0.0
        assert got["F[y1,y3]"] == 0.0
        assert got["F[y2,y3]"] == 0.0

    def test_missing_momentum_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "transform",
                               bundled_model_path("cawley"),
                               "--at", "x=0,y=0,z=0,p_x=1")
        assert code == 2
        assert "p_y" in err

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "transform",
                               bundled_model_path("oscillator"),
                               "--at", "x=1,p_q=2")
        assert code == 2
        assert "p_q" in err

    def test_newton_trial_outside_the_lagrangians_domain_exits_3(self, capsys, tmp_path):
        # at p_x = -2.5 the root of v + 1/v = p_x has v < 0, where log(v) and
        # so L is undefined although L_v is not: Newton backtracks and fails
        path = tmp_path / "log.lag"
        path.write_text("coord x; lagrangian = d(x)^2/2 + log(d(x));\n")
        code, out, err = run_cli(capsys, "transform", str(path), "--at", "x=0.3,p_x=-2.5")
        assert code == 3 and not out
        assert err.startswith("error: ") and "newton" in err
        assert "Traceback" not in err

    def test_zero_quotient_written_in_the_lagrangian_keeps_its_domain(self, capsys, tmp_path):
        # derivatives fold their dead 0/u terms; L as written keeps its 0/x,
        # so its core still fails at x = 0
        path = tmp_path / "zero.lag"
        path.write_text("coord x; lagrangian = d(x)^2/2 + 0/x;\n")
        code, out, err = run_cli(capsys, "transform", str(path), "--at", "x=0,p_x=1")
        assert code == 3 and not out
        assert err.startswith("error: ") and "Traceback" not in err
        code, out, _ = run_cli(capsys, "transform", str(path), "--at", "x=1,p_x=1")
        assert code == 0 and out.startswith("H_phys = 0.5\n")

    def test_newton_failure_exits_3(self, capsys):
        # the exponential momentum map only reaches p*x > 0
        code, _, err = run_cli(capsys, "transform",
                               bundled_model_path("exponential"),
                               "--at", "x=1,p_x=-1")
        assert code == 3
        assert err

    def test_overflowing_value_exits_3(self, capsys):
        # p_y^2 overflows in H_phys: no inf printed, no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "transform", bundled_model_path("cawley"),
                                     "--at", "x=0,y=0,z=0,p_x=1,p_y=1e308")
        assert code == 3 and out == ""
        assert err == "error: the transform overflows at this point (H_phys = inf)\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSimulate:
    def test_oscillator_matches_cosine(self, capsys):
        code, out, err = run_cli(capsys, "simulate",
                                 bundled_model_path("oscillator"),
                                 "--init", "x=1,p_x=0")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["t", "q:x", "p:x", "H_phys",
                          "consistency_residual", "el_residual"]
        assert all(len(line.split(",")) == len(header) for line in lines[1:])
        final = lines[-1].split(",")
        assert abs(float(final[1]) - math.cos(1.0)) < 1e-6
        assert "max_el_residual" in err

    def test_csv_floats_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "simulate",
                               bundled_model_path("oscillator"),
                               "--init", "x=1,p_x=0", "--t1", "0.01")
        lines = out.strip().split("\n")
        x_cells = [line.split(",")[1] for line in lines[1:]]
        # 17 significant digits reproduce the doubles exactly
        assert x_cells[0] == "1"
        assert any(len(c) >= 17 for c in x_cells)
        for c in x_cells:
            assert f"{float(c):.17g}" == c

    def test_header_shows_sector_columns(self, capsys):
        code, out, _ = run_cli(capsys, "simulate",
                               bundled_model_path("cawley"),
                               "--gauge", "z=1", "--t1", "0.05")
        assert code == 0
        assert out.split("\n")[0] == ("t,q:x,q:y,q:z,p:x,p:y,v:z,"
                                      "H_phys,consistency_residual,el_residual")

    def test_particle_momenta_constant(self, capsys):
        code, out, _ = run_cli(capsys, "simulate",
                               bundled_model_path("particle"),
                               "--gauge", "x0=1+0.1*sin(t)", "--t1", "2",
                               "--init", "p_x=0.4,p_y=0.1,p_z=0.2")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        for name, want in (("p:x", 0.4), ("p:y", 0.1), ("p:z", 0.2)):
            col = header.index(name)
            vals = [float(line.split(",")[col]) for line in lines[1:]]
            assert max(abs(v - want) for v in vals) < 1e-7

    @pytest.mark.parametrize("lagrangian", [
        "x*d(x)^2/2",
        pytest.param("x^2*d(x)^2/2", marks=pytest.mark.xfail(
            strict=True, reason="det W_rr = x^2 keeps its sign through x = 0, so the RK4 "
            "loop's sign test cannot see the crossing (FOUND in CHANGES.md)"))])
    def test_a_run_through_a_singular_w_rr_exits_3(self, capsys, tmp_path, lagrangian):
        # v = p_x / x^k grows as x falls from 0.5 to 0: W_rr = x changes sign
        # between two steps; x^2 does not, and that run exits 0 with
        # max_el_residual 3.8e6
        path = tmp_path / "singular.lag"
        path.write_text(f"coord x; lagrangian = {lagrangian};\n")
        code, _, _ = run_cli(capsys, "simulate", str(path), "--init", "x=0.5,p_x=-1",
                             "--t1", "1", "--dt", "0.01")
        assert code == 3

    def test_the_step_count_rounds_half_to_even(self, capsys, tmp_path):
        # t1 / dt = 2.5 rounds to 2 steps, so the last row is at 2 * dt, short of t1
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(capsys, "simulate", bundled_model_path("oscillator"),
                             "--init", "x=1,p_x=0", "--t1", "0.01", "--dt", "0.004",
                             "--out", str(out_path))
        assert code == 0
        times = [line.split(",")[0] for line in out_path.read_text().splitlines()[1:]]
        assert times == ["0", "0.0040000000000000001", "0.0080000000000000002"]

    def test_tol_gates_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "simulate",
                               bundled_model_path("oscillator"),
                               "--init", "x=1,p_x=0", "--tol", "1e-12")
        assert code == 1  # RK4 EL residual ~ dt^2 scale, way above 1e-12

    @pytest.mark.parametrize("t1", ["0.001", "0.003", "0.0034"])
    def test_tol_on_fewer_than_five_samples_exits_2(self, capsys, t1):
        # the Euler-Lagrange residual is nan on every sample there, and a
        # nan never exceeds the tolerance
        code, out, err = run_cli(capsys, "simulate", bundled_model_path("christ_lee"),
                                 "--t1", t1, "--tol", "1e-12")
        assert code == 2 and out == ""
        assert err == (f"error: --tol needs at least 5 samples for the Euler-Lagrange "
                       f"residual's stencil; --t1 {float(t1)} at --dt 0.001 gives "
                       f"{round(float(t1) / 1e-3) + 1}\n")

    def test_tol_on_five_samples_gates_on_the_residual(self, capsys):
        code, _, err = run_cli(capsys, "simulate", bundled_model_path("oscillator"),
                               "--init", "x=1,p_x=0", "--t1", "0.004", "--tol", "1e-12")
        assert code == 1 and "max_el_residual = nan" not in err

    def test_nonpositive_dt_exits_2(self, capsys):
        for bad in ("0", "-1e-3"):
            code, _, _ = run_cli(capsys, "simulate",
                                 bundled_model_path("oscillator"),
                                 "--dt", bad)
            assert code == 2

    def test_unsolvable_initial_data_exits_3(self, capsys):
        # zero degenerate velocity leaves the square root unresolvable
        code, _, err = run_cli(capsys, "simulate",
                               bundled_model_path("particle"),
                               "--t1", "0.01")
        assert code == 3
        assert err

    def test_resolution_failure_exits_3_and_names_the_time(self, capsys):
        code, out, err = run_cli(capsys, "simulate", bundled_model_path("particle"),
                                 "--gauge", "x0=1+0.1*sin(t)", "--init", "p_x=100",
                                 "--t1", "0.01")
        assert code == 3 and out == ""
        assert err.startswith("error: velocity resolution failed at t=0: newton failed")

    def test_start_outside_the_domain_names_the_gauge_velocity(self, capsys):
        # the default gauge pins d(x0) = 0, where particle's square root is
        # undefined; the point's own d(x0) = 1 is not used for that slot
        for init in ("p_x=0.4,p_y=0.1,p_z=0.2", "p_x=0.4,p_y=0.1,p_z=0.2,d(x0)=1"):
            code, out, err = run_cli(capsys, "simulate", bundled_model_path("particle"),
                                     "--init", init, "--t1", "0.01")
            assert code == 3 and out == ""
            assert err == ("error: velocity resolution failed at t=0: newton failed from "
                           "initial guess and 8 restarts: math domain error; the start lies "
                           "outside the Lagrangian's domain at the gauge's d(x0) = 0\n")
        # a gauge velocity inside the domain keeps the resolve's own text
        code, _, err = run_cli(capsys, "simulate", bundled_model_path("particle"),
                               "--gauge", "x0=1+0.1*sin(t)", "--init", "p_x=100", "--t1", "0.01")
        assert code == 3 and "d(x0)" not in err

    def test_non_finite_row_exits_3(self, capsys, tmp_path):
        # x*x overflows at the start, so every H_phys would be nan
        path = tmp_path / "overflow.lag"
        path.write_text("coord x; lagrangian = d(x)*d(x)/2 - x*x/2;\n")
        code, out, err = run_cli(capsys, "simulate", str(path), "--init", "x=1e200,p_x=1e200",
                                 "--t1", "0.01", "--dt", "1e-3")
        assert (code, out, err) == (3, "", "error: non-finite H_phys = nan at t=0\n")

    def test_undefined_prescribed_velocity_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "simulate", bundled_model_path("particle"),
                                 "--gauge", "x0=1/(t-0.005)", "--init", "p_x=0.4",
                                 "--t1", "0.01", "--dt", "1e-3")
        assert (code, out) == (3, "")
        assert err == ("error: prescribed velocity d(x0) is not defined at t=0.005: "
                       "float division by zero\n")

    def test_singular_sector_crossing_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "simulate",
                               bundled_model_path("synthetic_coupled"),
                               "--init", "x=0.4,a=0.2,b=0.1,p_x=0.3",
                               "--t1", "1")
        assert code == 3
        assert "Pfaffian" in err and "t=0.907" in err

    def test_gauge_conflicting_with_class_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate",
                               bundled_model_path("synthetic_gaugeless"),
                               "--gauge", "b=1", "--t1", "0.01")
        assert code == 2
        assert "solving" in err

    def test_plot_and_out_files(self, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        svg = tmp_path / "traj.svg"
        code, out, _ = run_cli(capsys, "simulate",
                               bundled_model_path("oscillator"),
                               "--init", "x=1,p_x=0", "--t1", "0.1",
                               "--out", str(csv), "--plot", str(svg))
        assert code == 0 and out == ""
        assert csv.read_text().startswith("t,q:x,")
        body = svg.read_text()
        assert body.startswith("<svg") and "<polyline" in body


class TestJetStaysLazy:
    """The second-order jet's third partials are derived, compiled and read
    only where an identity needs them: never by simulate, analyze, transform
    or pde on the reference commands, nor by verify on particle (whose
    projection stops at its first iterate, with no commutator rows) and
    oscillator (no degenerate sector)."""

    COMMANDS = (
        [["simulate", "particle", "--gauge", "x0=1+0.1*sin(t)", "--init", "p_x=0.4,p_y=0.1,p_z=0.2",
          "--t1", "10", "--dt", "1e-3", "--out", "trajectory.csv"]]
        + [["analyze", name] for name in BUNDLED]
        + [["transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4"],
           ["pde", "--f", "z1^2+z2^2+z3", "--mode", "mixed", "--s", "2", "--c", "c3=1",
            "--at", "x1=2,x2=2,x3=3"],
           ["pde", "--f", "-(5*sqrt(1 - z1^2))", "--mode", "envelope", "--at", "x1=3"],
           ["verify", "particle", "--seed", "42"],
           ["verify", "oscillator", "--seed", "42"]])

    def test_no_third_partials_outside_the_identities(self, monkeypatch, tmp_path, capsys):
        # each compile_evaluator call in model.py is logged by its caller's
        # name: DerivativeCore.__init__'s core, or DerivativeCore.third's; the
        # probe guards' (_admissibility's) as "guard" where every guard it
        # compiles reads a coordinate or a velocity (particle's light cone)
        calls = []
        third, compile_evaluator = model_module._third_partials, model_module.compile_evaluator
        jet = transform_module.jet_kernel

        def compiled(exprs, names):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_admissibility":
                model = caller.f_locals["model"]
                drawn = set(model.coords) | set(model.velocity_names)
                calls.append("guard" if all(drawn & free_symbols(e) for e in exprs)
                             else "parameter guard")
            else:
                calls.append(caller.f_code.co_name)
            return compile_evaluator(exprs, names)

        monkeypatch.setattr(model_module, "_third_partials",
                            lambda core: calls.append("derive") or third(core))
        monkeypatch.setattr(model_module, "compile_evaluator", compiled)
        monkeypatch.setattr(transform_module, "jet_kernel", lambda *key: calls.append("jet")
                            or jet(*key))
        monkeypatch.chdir(tmp_path)
        for argv in self.COMMANDS:
            assert main(argv) == 0, argv
        assert set(calls) == {"__init__", "guard"}
        # the counters see a run that needs the jet
        assert main(["verify", "christ_lee", "--seed", "42"]) == 0
        assert {"derive", "third", "jet"} <= set(calls)
        capsys.readouterr()


class TestVerify:
    def test_cawley_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", bundled_model_path("cawley"))
        assert code == 0
        rep = json.loads(out)
        assert rep["all_pass"] is True
        schema = load_schema("verify.schema.json")
        jsonschema.Draft202012Validator.check_schema(schema)
        jsonschema.validate(rep, schema)

    def test_christ_lee_reports_constraint_preservation(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               bundled_model_path("christ_lee"))
        assert code == 0
        rep = json.loads(out)
        entry = next(c for c in rep["checks"]
                     if c["name"] == "constraint_preservation")
        assert entry["passed"] is True

    def test_fixed_seed_reports_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", bundled_model_path("mixed"),
                              "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", bundled_model_path("mixed"),
                               "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
    def test_reports_do_not_depend_on_the_blas_kernel_set(self, capsys, coretype):
        # every reported sum and solve is the package's own float arithmetic,
        # so the kernel set OpenBLAS picks for the CPU changes no byte; these
        # six reports went through numpy's BLAS and LAPACK before
        models = ["cawley", "particle", "christ_lee", "synthetic_coupled",
                  "synthetic_bianchi", "synthetic_gauge"]
        want = "".join(run_cli(capsys, "verify", m, "--seed", "42")[1] for m in models)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from clairaut.cli import main\n"
             "for m in sys.argv[1:]: main(['verify', m, '--seed', '42'])", *models],
            capture_output=True, text=True, env=child_env(OPENBLAS_CORETYPE=coretype))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == want

    def test_any_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "clairaut.cli.run_verification",
            lambda model, seed, probe_count: {"all_pass": False, "checks": []})
        code, _, _ = run_cli(capsys, "verify", bundled_model_path("cawley"))
        assert code == 1


class TestPde:
    def test_mixed_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "--f", "z1^2+z2^2+z3",
                               "--mode", "mixed", "--s", "2", "--c", "c3=1",
                               "--at", "x1=2,x2=2,x3=3")
        assert code == 0
        got = parse_kv_lines(out)
        assert abs(got["y"] - 4.0) < 1e-10
        assert got["residual"] < 1e-8

    def test_envelope_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "--f", "z1^2",
                               "--mode", "envelope", "--at", "x1=3")
        assert code == 0
        assert abs(parse_kv_lines(out)["y"] - 2.25) < 1e-10

    def test_envelope_on_a_bounded_domain(self, capsys):
        # z1 = 3/sqrt(34) solves 5 z1 / sqrt(1 - z1^2) = 3; most of the
        # line lies outside f's domain, the resolve's start z1 = 0 inside
        code, out, err = run_cli(capsys, "pde", "--f", "-(5*sqrt(1 - z1^2))",
                                 "--mode", "envelope", "--at", "x1=3")
        assert code == 0 and err == ""
        assert parse_kv_lines(out)["y"] == pytest.approx(math.sqrt(34.0), rel=1e-15)

    def test_envelope_needs_full_rank(self, capsys):
        code, _, err = run_cli(capsys, "pde", "--f", "z1^2+z2^2+z3",
                               "--mode", "envelope", "--at", "x1=2,x2=2,x3=3")
        assert code == 3
        assert "rank" in err

    def test_general_mode_needs_every_constant(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "--f", "z1^2+z2^2",
                               "--mode", "general", "--c", "c1=1,c2=0.5",
                               "--at", "x1=1,x2=2")
        assert code == 0
        # y = x.c - f(c) = 1 + 1 - 1.25
        assert abs(parse_kv_lines(out)["y"] - 0.75) < 1e-12
        code, _, err = run_cli(capsys, "pde", "--f", "z1^2+z2^2",
                               "--mode", "general", "--c", "c1=1",
                               "--at", "x1=1,x2=2")
        assert code == 2
        assert "c2" in err

    def test_unused_constants_rejected(self, capsys):
        code, _, err = run_cli(capsys, "pde", "--f", "z1^2",
                               "--mode", "envelope", "--c", "c1=1",
                               "--at", "x1=3")
        assert code == 2

    @pytest.mark.parametrize("c, at, y", [
        ("c1=1e200,c2=1", "x1=1e200,x2=1", "inf"),
        ("c1=-1e308,c2=1", "x1=1e308,x2=1", "-inf"),
    ])
    def test_general_overflow_exits_3(self, capsys, c, at, y):
        # x.c - f(c) overflows: a numeric error, without a numpy warning
        code, out, err = run_cli(capsys, "pde", "--f", "z1+z2", "--mode", "general",
                                 "--c", c, "--at", at)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: the general solution overflows at this point (y = {y})"]

    @pytest.mark.parametrize("argv, message", [
        (("--f", "z1^2+z2", "--mode", "mixed", "--s", "1", "--c", "c2=1e300",
          "--at", "x1=1,x2=1e300"), "the mixed solution overflows at this point (y = inf)"),
        (("--f", "z1^2", "--mode", "envelope", "--at", "x1=1e308"),
         "the envelope solution's slopes: newton failed from initial guess and 8 restarts: "
         "newton line search stalled"),
    ], ids=["mixed", "envelope"])
    def test_resolved_family_overflow_exits_3(self, capsys, argv, message):
        # the envelope and mixed families evaluate x.z - f(z) through the
        # general solution's guard, and f at every Newton iterate (z1^2
        # overflows at the root 5e307): the texts name the family, no inf
        # printed, no numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "pde", *argv)
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: {message}"]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_s_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pde", "--f", "z1^2", "--mode", "mixed",
                             "--s", "5", "--c", "", "--at", "x1=1")
        assert code == 2

    def test_foreign_symbol_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pde", "--f", "z1^2+q",
                               "--mode", "envelope", "--at", "x1=3")
        assert code == 2
        assert "q" in err

    def test_at_names_must_be_contiguous(self, capsys):
        code, _, err = run_cli(capsys, "pde", "--f", "z1^2",
                               "--mode", "envelope", "--at", "x2=3")
        assert code == 2


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ("simulate", "oscillator", "--dt", "nan"),
        ("simulate", "oscillator", "--dt", "inf"),
        ("simulate", "oscillator", "--t1", "nan"),
        ("simulate", "oscillator", "--t1", "inf"),
        ("simulate", "oscillator", "--t1", "-1"),
        ("simulate", "oscillator", "--tol", "nan"),
        ("simulate", "oscillator", "--tol", "0"),
        ("simulate", "oscillator", "--t1", "1e-6"),
        ("simulate", "oscillator", "--t1", "1e9"),
        ("verify", "oscillator", "--probes", "0"),
        ("analyze", "mixed", "--probes", "-3"),
    ], ids=" ".join)
    def test_bad_value_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("binding, argv", [
        ("x1", ("pde", "--f", "z1^2", "--mode", "envelope", "--at", "x1=nan")),
        ("c2", ("pde", "--f", "z1^2+z2", "--mode", "mixed", "--s", "1", "--c", "c2=nan",
                "--at", "x1=1,x2=2")),
        ("param k", ("analyze", "mixed", "--param", "k=inf")),
        ("p_x", ("transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=-inf,p_y=0,p_z=4")),
        ("x", ("simulate", "cawley", "--init", "x=1e999")),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_binding_exits_2(self, capsys, binding, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {binding} must be finite, got ")
        assert "Traceback" not in err

    def test_probes_message_names_the_flag(self, capsys):
        _, _, err = run_cli(capsys, "analyze", "mixed", "--probes", "-3")
        assert "--probes must be at least 1" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_probes_above_the_bound_rejected_before_any_draw(self, capsys, monkeypatch,
                                                             command):
        def no_draw(*args):
            raise AssertionError("probes drawn for a rejected --probes")

        monkeypatch.setattr(model_module, "_draw_probes", no_draw)
        code, _, err = run_cli(capsys, command, "mixed", "--probes", str(MAX_PROBES + 1))
        assert code == 2
        assert f"--probes must be at most {MAX_PROBES}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_negative_seed_is_a_usage_error(self, capsys, command):
        code, _, err = run_cli(capsys, command, "christ_lee", "--seed", "-1")
        assert code == 2
        assert err.splitlines() == ["error: --seed must be at least 0, got -1"]
        assert run_cli(capsys, command, "oscillator", "--seed", "0")[0] == 0


class TestRepeatedBinding:
    @pytest.mark.parametrize("flag, name, argv", [
        ("--at", "x", ("transform", "oscillator", "--at", "x=1,x=2,p_x=1")),
        ("--init", "x", ("simulate", "oscillator", "--init", "x=1,p_x=0,x=2")),
        ("--param", "k", ("analyze", "mixed", "--param", "k=1,k=3")),
        ("--gauge", "y1", ("simulate", "christ_lee", "--gauge", "y1=1,y1=zero")),
        ("--c", "c1", ("pde", "--f", "z1^2", "--mode", "general", "--c", "c1=1,c1=2",
                       "--at", "x1=1")),
    ], ids=["at", "init", "param", "gauge", "c"])
    def test_name_bound_twice_exits_2(self, capsys, flag, name, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} binds {name!r} more than once\n"


def error_classes(cls=ClairautError):
    """cls and every subclass of it, depth first, each once."""
    out = {cls: None}
    for sub in cls.__subclasses__():
        out.update(dict.fromkeys(error_classes(sub)))
    return list(out)


class TestExitCodeTable:
    @pytest.mark.parametrize("error", error_classes(), ids=lambda cls: cls.__name__)
    def test_main_returns_the_error_types_exit_code(self, capsys, monkeypatch, error):
        exc = error.__new__(error)
        Exception.__init__(exc, "injected")

        def load(spec):
            raise exc

        monkeypatch.setattr(cli, "_load", load)
        code, out, err = run_cli(capsys, "analyze", "oscillator")
        assert (code, out) == (error.exit_code, "")
        assert err.startswith("error: ")

    def test_usage_types_are_the_readmes(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme[readme.index("Exit codes:"):].split("\n\n")[0]
        usage, numeric = paragraph.split(" and 3 for ", 1)
        assert "2 for a usage or parse error" in usage
        assert "`ClairautError`" in numeric.split(";")[0]
        named = set(re.findall(r"`(\w+Error)`", usage))
        assert named == {cls.__name__ for cls in error_classes() if cls.exit_code == 2}
        assert {cls.exit_code for cls in error_classes()} == {2, 3}


class TestNestingLimit:
    @staticmethod
    def model_file(tmp_path, lagrangian):
        path = tmp_path / "deep.lag"
        path.write_text(f"coord x;\nlagrangian = {lagrangian};\n")
        return str(path)

    @pytest.mark.parametrize("lagrangian", [
        "sin(" * 400 + "d(x)" + ")" * 400,
        "(" * 400 + "d(x)^2" + ")" * 400,
        "-" * 400 + "d(x)^2",
        "^".join(["d(x)"] * 400),
    ], ids=["calls", "parentheses", "unary_minus", "power_chain"])
    def test_too_deep_exits_2(self, capsys, tmp_path, lagrangian):
        code, _, err = run_cli(capsys, "analyze", self.model_file(tmp_path, lagrangian))
        assert code == 2
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert f"more than {MAX_NESTING} levels" in err
        assert "Traceback" not in err

    def test_at_the_limit_succeeds(self, capsys, tmp_path):
        lagrangian = "sin(" * MAX_NESTING + "d(x)" + ")" * MAX_NESTING
        code, out, _ = run_cli(capsys, "analyze", self.model_file(tmp_path, lagrangian))
        assert code == 0
        assert json.loads(out)["regular"] == ["x"]


class TestWiring:
    def test_bad_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_one_parser_per_process(self, capsys):
        # later calls reuse the first call's parser, and no flag value of
        # one call carries over to the next
        runs = [("analyze", "mixed", "--probes", "3"), ("analyze", "mixed"),
                ("pde", "--f", "z1^2+z2^2+z3", "--mode", "mixed", "--s", "2", "--c", "c3=1",
                 "--at", "x1=2,x2=2,x3=3"),
                ("simulate", "particle", "--gauge", "x0=1+0.1*sin(t)",
                 "--init", "p_x=0.4,p_y=0.1,p_z=0.2", "--t1", "0.01"),
                ("verify", "mixed")]
        cli._build_parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in runs]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in runs:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0] * len(runs)
        assert json.loads(shared[1][1])["probes"]["count"] == DEFAULT_PROBE_COUNT

    def test_no_parser_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import clairaut.cli as cli; "
             "print(cli._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0 and proc.stdout == "0\n"

    def test_installed_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clairaut.cli", "analyze",
             bundled_model_path("oscillator")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hessian_rank"] == 1
