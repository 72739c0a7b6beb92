"""End-to-end acceptance gates.

Each test prints one pass/fail line (straight to the terminal, bypassing
capture) and then asserts, so a plain pytest run shows the full scoreboard.
Closed-form targets come from the worked models; tolerances are fixed here
and nowhere loosened at runtime.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from clairaut import (
    ClairautTransform,
    RankDeficiencyError,
    bundled_model_path,
    load_bundled,
)
from clairaut.clairaut_pde import (
    ClairautProblem,
    envelope_solution,
    general_solution,
    mixed_solution,
    pde_residual,
)
from clairaut.cli import main as cli_main
from clairaut.dynamics import (
    SIGMA,
    IntegratorConfig,
    calibrate_sigma,
    d_alpha_h,
    degenerate_velocities,
    dirac_report,
    el_residual,
    evolve_observable,
    gauge_input,
    integrate,
)
from clairaut.gauge import ExprObservable, classify, field_strength, phase_probes
from clairaut.manytime import integrability_report, map_to_manytime
from clairaut.verify import run_verification

ALL_FIXTURES = ("oscillator", "exponential", "mixed", "cawley", "particle",
                "christ_lee", "synthetic_gaugeless", "synthetic_coupled",
                "synthetic_bianchi", "synthetic_gauge")


def _report(num, label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {label}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@lru_cache(maxsize=None)
def transform(name):
    return ClairautTransform(load_bundled(name))


@lru_cache(maxsize=None)
def classification(name):
    return classify(transform(name))


@lru_cache(maxsize=None)
def verification(name):
    return run_verification(load_bundled(name))


def check_residual(report, name):
    entry = next(c for c in report["checks"] if c["name"] == name)
    assert entry["residual"] is not None, entry
    return entry["residual"], entry["tol"]


class TestAcceptance:
    def test_01_oscillator_closed_form_on_grid(self):
        ct = transform("oscillator")
        worst_h = worst_cl = 0.0
        for x in np.linspace(-2.0, 2.0, 10):
            for p in np.linspace(-2.0, 2.0, 10):
                pt = ct.point([x], [p])
                worst_h = max(worst_h, abs(ct.h_phys(pt)
                                           - (p * p / 2 + x * x / 2)))
                worst_cl = max(worst_cl, ct.clairaut_residual([x], [p]))
        _report(1, f"oscillator H_phys grid defect {worst_h:.2e} <= 1e-10, "
                   f"conjugate residual {worst_cl:.2e} <= 1e-10",
                worst_h <= 1e-10 and worst_cl <= 1e-10)

    def test_02_exponential_newton_branch(self):
        ct = transform("exponential")
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            x, p = rng.uniform(0.1, 3.0, size=2)
            got = ct.h_phys(ct.point([x], [p]))
            worst = max(worst, abs(got - (p * math.log(p / x) - p)))
        _report(2, f"exponential H_phys defect {worst:.2e} <= 1e-8 "
                   "at 50 random points", worst <= 1e-8)

    def test_03_mixed_split_and_hamiltonians(self):
        ct = transform("mixed")
        ok_split = (ct.split.regular == ("x",)
                    and ct.split.degenerate == ("y",))
        rng = np.random.default_rng(3)
        worst_h = worst_b = worst_mix = 0.0
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(0.3, 2.0)
            p = rng.uniform(-2.0, 2.0)
            pbar = rng.uniform(-2.0, 2.0)
            v = rng.uniform(-2.0, 2.0)
            pt = ct.point([x, y], [p], [v])
            res = ct.resolve(pt)
            worst_h = max(worst_h, abs(res.H - p * p / (2 * y)))
            worst_b = max(worst_b, abs(res.B[0] - x))
            target = p * p / (2 * y) + (pbar - x) * v
            worst_mix = max(worst_mix, abs(ct.h_mix(pt, [pbar]) - target))
        _report(3, f"mixed split ok={ok_split}, H defect {worst_h:.2e} <= "
                   f"1e-10, B_y defect {worst_b:.2e} <= 1e-12, H_mix defect "
                   f"{worst_mix:.2e} <= 1e-10",
                ok_split and worst_h <= 1e-10 and worst_b <= 1e-12
                and worst_mix <= 1e-10)

    def test_04_cawley_analysis_and_linear_motion(self, capsys):
        code = cli_main(["analyze", bundled_model_path("cawley")])
        rep = json.loads(capsys.readouterr().out)
        ok_analysis = (code == 0 and rep["hessian_rank"] == 2
                       and rep["degenerate"] == ["z"]
                       and rep["classification"]["kind"] == "limit")
        ct = transform("cawley")
        rng = np.random.default_rng(4)
        worst_dh = worst_b = 0.0
        for _ in range(25):
            q = rng.uniform(-2.0, 2.0, size=3)
            p = rng.uniform(-2.0, 2.0, size=2)
            pt = ct.point(q, p)
            res = ct.resolve(pt)
            worst_b = max(worst_b, abs(res.B[0]))
            worst_dh = max(worst_dh,
                           abs(d_alpha_h(ct, res)[0] + q[1] * q[1] / 2))
        gauge = gauge_input(ct, classification("cawley"), {"z": 1.0})
        start = ct.point({"x": 0.3, "y": 0.0, "z": 0.7},
                         {"x": 0.0, "y": 0.8})
        traj = integrate(ct, start, gauge,
                         IntegratorConfig(t1=5.0, dt=1e-3),
                         classification("cawley"))
        el = float(np.nanmax(el_residual(ct.model, traj)))
        linear = float(np.max(np.abs(traj.q[:, 0] - (0.3 + 0.8 * traj.t))))
        _report(4, f"cawley analyze ok={ok_analysis}, B_z {worst_b:.1e}, "
                   f"D_zH defect {worst_dh:.2e} <= 1e-12, EL {el:.2e} <= "
                   f"1e-5, x linearity {linear:.2e} <= 1e-6",
                ok_analysis and worst_b == 0.0 and worst_dh <= 1e-12
                and el <= 1e-5 and linear <= 1e-6)

    def test_05_particle_gauge_independent_momenta(self):
        ct = transform("particle")
        rng = np.random.default_rng(5)
        worst_h = worst_b = 0.0
        for _ in range(100):
            q = rng.uniform(-2.0, 2.0, size=4)
            p = rng.uniform(-2.0, 2.0, size=3)
            pt = ct.point(q, p, [1.0])
            res = ct.resolve(pt)
            worst_h = max(worst_h, abs(res.H))
            worst_b = max(worst_b,
                          abs(res.B[0] + math.sqrt(25.0 + float(p @ p))))
        cls = classification("particle")
        cfg = IntegratorConfig(t1=10.0, dt=1e-3)
        start = ct.point({}, {"x": 0.4, "y": 0.1, "z": 0.2}, [1.0])
        finals = []
        drift = 0.0
        for spec in ({"x0": "1 + 0.1*sin(t)"}, {"x0": 1.0}):
            traj = integrate(ct, start, gauge_input(ct, cls, spec), cfg, cls)
            drift = max(drift, float(np.max(np.abs(traj.p - traj.p[0]))))
            finals.append(traj.p[-1].copy())
        agree = float(np.max(np.abs(finals[0] - finals[1])))
        _report(5, f"particle H {worst_h:.2e} <= 1e-9, B {worst_b:.2e} <= "
                   f"1e-9, p drift {drift:.2e} <= 1e-7, two-gauge p "
                   f"agreement {agree:.2e} <= 1e-7",
                worst_h <= 1e-9 and worst_b <= 1e-9
                and drift <= 1e-7 and agree <= 1e-7)

    def test_06_christ_lee_constraints_and_reduction(self):
        ct = transform("christ_lee")
        cls = classification("christ_lee")
        rng = np.random.default_rng(6)

        def closed_form(x, y, p):
            return (float(p @ p) / 2 + float(p @ np.cross(x, y))
                    + float(x @ x) / 2)

        worst_h = 0.0
        worst_f = 0.0
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=3)
            y = rng.uniform(-1.5, 1.5, size=3)
            p = rng.uniform(-1.5, 1.5, size=3)
            pt = ct.point(np.concatenate([x, y]), p)
            worst_h = max(worst_h, abs(ct.h_phys(pt) - closed_form(x, y, p)))
            worst_f = max(worst_f,
                          float(np.max(np.abs(field_strength(ct, pt)))))
        ok_limit = cls.kind == "limit" and cls.r_f == 0

        # constraint-satisfying start: p parallel to x makes p x x vanish
        x0 = np.array([1.0, 0.6, -0.4])
        lam = 0.7
        start = ct.point(np.concatenate([x0, [0.2, -0.3, 0.5]]), lam * x0)
        traj = integrate(ct, start, None, IntegratorConfig(t1=10.0, dt=1e-3),
                         cls)
        cons = np.cross(traj.p, traj.q[:, :3])
        preserved = float(np.max(np.abs(cons)))

        worst_red = 0.0
        for _ in range(50):
            x = rng.uniform(0.3, 1.5, size=3)
            y = rng.uniform(-1.5, 1.5, size=3)
            lam = rng.uniform(-1.5, 1.5)
            p = lam * x
            h = ct.h_phys(ct.point(np.concatenate([x, y]), p))
            radial = math.sqrt(float(x @ x))
            p_rad = p[0] * radial / x[0]
            worst_red = max(worst_red,
                            abs(h - (p_rad * p_rad / 2 + radial * radial / 2)))
        _report(6, f"christ_lee H defect {worst_h:.2e} <= 1e-10, max|F| "
                   f"{worst_f:.1e} == 0, constraints {preserved:.2e} <= 1e-6 "
                   f"over [0,10], reduced-H defect {worst_red:.2e} <= 1e-9",
                worst_h <= 1e-10 and worst_f == 0.0 and ok_limit
                and preserved <= 1e-6 and worst_red <= 1e-9)

    def test_07_sector_identity_suite(self):
        worst_g_f = worst_g_dh = worst_fab = worst_dhf = worst_cl = 0.0
        sigmas = set()
        for name in ALL_FIXTURES:
            ct = transform(name)
            probes = phase_probes(ct, count=100, seed=42)
            rep = integrability_report(map_to_manytime(ct), probes)
            worst_g_f = max(worst_g_f, rep.f_defect)
            worst_g_dh = max(worst_g_dh, rep.dh_defect)
            for pt in probes:
                dr = dirac_report(ct, pt)
                worst_fab = max(worst_fab, dr.fab_residual)
                worst_dhf = max(worst_dhf, dr.dhf_residual)
                res = ct.resolve(pt)
                pbar = np.empty(ct.n)
                pbar[ct.reg_idx] = pt.p
                pbar[ct.deg_idx] = res.B
                worst_cl = max(worst_cl,
                               ct.clairaut_residual(pt.q, pbar,
                                                    v_deg=pt.v_deg))
            if ct.n > ct.r:
                sigma = calibrate_sigma(ct, probes[:10])
                if sigma is not None:
                    sigmas.add(sigma)
        one_sigma = sigmas == {SIGMA}
        _report(7, f"identities at 100 points x {len(ALL_FIXTURES)} models: "
                   f"|G-F| {worst_g_f:.2e}, |G_0-DH| {worst_g_dh:.2e}, "
                   f"|{{phi,phi}}-F| {worst_fab:.2e}, |{{phi,H}}-sigma*DH| "
                   f"{worst_dhf:.2e} <= 1e-9, conjugate {worst_cl:.2e} <= "
                   f"1e-8, global sigma={sorted(sigmas)}",
                worst_g_f <= 1e-9 and worst_g_dh <= 1e-9
                and worst_fab <= 1e-9 and worst_dhf <= 1e-9
                and worst_cl <= 1e-8 and one_sigma)

    def test_08_finite_difference_identity_suite(self):
        comm, _ = check_residual(verification("synthetic_gaugeless"),
                                 "long_derivative_commutator")
        leib, _ = check_residual(verification("synthetic_gaugeless"),
                                 "leibniz_rule")
        curr, _ = check_residual(verification("synthetic_gaugeless"),
                                 "current_conservation")
        bianchi, _ = check_residual(verification("synthetic_bianchi"),
                                    "bianchi_identity")
        ct = transform("synthetic_gaugeless")
        cls = classification("synthetic_gaugeless")
        sector = max(degenerate_velocities(ct, pt, cls=cls)[1]
                     for pt in phase_probes(ct, count=100, seed=42))

        # explicit degenerate-coordinate dependence would add a transport
        # term outside the bracket, so probe with a physical-sector function
        obs = ExprObservable(ct, "x*p_x")
        start = ct.point({"x": 0.4, "a": 0.2, "b": 0.1}, {"x": 0.3})
        residuals = {}
        for dt in (1e-3, 5e-4):
            traj = integrate(ct, start, None,
                             IntegratorConfig(t1=0.2, dt=dt), cls)
            residuals[dt] = float(np.nanmax(evolve_observable(ct, obs, traj,
                                                              cls)))
        ratio = residuals[1e-3] / residuals[5e-4]
        _report(8, f"commutator {comm:.2e} <= 1e-9, leibniz {leib:.2e} <= "
                   f"1e-9, bianchi {bianchi:.2e} <= 1e-9, current "
                   f"{curr:.2e} <= 1e-6, sector solve {sector:.2e} <= 1e-10, "
                   f"evolution {residuals[1e-3]:.2e} <= 1e-5 improving "
                   f"{ratio:.2f}x on halving",
                comm <= 1e-9 and leib <= 1e-9 and bianchi <= 1e-9
                and curr <= 1e-6 and sector <= 1e-10
                and residuals[1e-3] <= 1e-5 and ratio >= 3.2)

    def test_09_conjugate_pde_solution_families(self):
        rng = np.random.default_rng(9)
        quad = ClairautProblem(2, "z1^2 + z2^2")
        three = ClairautProblem(3, "z1^2 + z2^2 + z3")
        worst_env = worst_mix = worst_res = 0.0
        c3 = float(rng.uniform(-2.0, 2.0))
        mixed_fn = lambda x: mixed_solution(three, 2, [c3], x)
        env_fn = lambda x: envelope_solution(quad, x)
        gen_fn = general_solution(quad, [0.8, -0.6])
        for _ in range(100):
            x2 = rng.uniform(-3.0, 3.0, size=2)
            x3 = rng.uniform(-3.0, 3.0, size=3)
            worst_env = max(worst_env, abs(env_fn(x2)
                                           - (x2[0] ** 2 / 4 + x2[1] ** 2 / 4)))
            target = x3[0] ** 2 / 4 + x3[1] ** 2 / 4 + c3 * (x3[2] - 1.0)
            worst_mix = max(worst_mix, abs(mixed_fn(x3) - target))
            worst_res = max(worst_res,
                            pde_residual(quad, env_fn, x2),
                            pde_residual(quad, gen_fn, x2),
                            pde_residual(three, mixed_fn, x3))
        with pytest.raises(RankDeficiencyError):
            envelope_solution(three, np.array([1.0, 1.0, 1.0]))
        _report(9, f"envelope defect {worst_env:.2e} <= 1e-10, mixed defect "
                   f"{worst_mix:.2e} <= 1e-10, envelope on rank-2 f raises, "
                   f"equation residual {worst_res:.2e} <= 1e-8",
                worst_env <= 1e-10 and worst_mix <= 1e-10
                and worst_res <= 1e-8)

    def test_10_verify_determinism(self, capsys):
        outputs = []
        for _ in range(2):
            code = cli_main(["verify", bundled_model_path("mixed"),
                             "--seed", "42"])
            captured = capsys.readouterr()
            outputs.append(captured.out)
            assert code == 0
        ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
        _report(10, "verify twice with seed 42: byte-identical "
                    f"({len(outputs[0])} bytes)", ok)
