"""Sector velocity solving, integration, trajectory verification, and the
extended-phase-space constraint correspondence."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from clairaut import BUNDLED, ClairautTransform, IntegrabilityError, load_bundled, parse_model
from clairaut.dynamics import (
    DiracReport,
    GaugeInput,
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
from clairaut.errors import (ArgumentError, ClairautError, GaugeInputError, NewtonError,
                             RankDeficiencyError)
from clairaut.gauge import ExprObservable, classify, field_strength, phase_probes
from clairaut.manytime import g_matrix, map_to_manytime
from clairaut.model import momentum_name
from clairaut.numerics import dot
from clairaut.verify import run_verification
from conftest import pfaffian, reference_resolve


@lru_cache(maxsize=None)
def transform(name):
    return ClairautTransform(load_bundled(name))


@lru_cache(maxsize=None)
def classification(name):
    return classify(transform(name))


class TestGaugeInput:
    def test_defaults_follow_classification(self):
        gi = gauge_input(transform("synthetic_gaugeless"),
                         classification("synthetic_gaugeless"))
        assert gi.modes == ("solve", "solve")
        gi = gauge_input(transform("cawley"), classification("cawley"))
        assert gi.modes == ("zero",)
        gi = gauge_input(transform("synthetic_gauge"),
                         classification("synthetic_gauge"))
        assert gi.modes == ("solve", "solve", "zero", "zero")

    def test_prescribed_expression(self):
        gi = gauge_input(transform("cawley"), classification("cawley"),
                         {"z": "sin(t) + 1"})
        assert gi.modes == ("prescribed",)
        assert abs(gi.velocity(0, 0.5) - (math.sin(0.5) + 1)) < 1e-15

    def test_prescribed_number(self):
        gi = gauge_input(transform("particle"), classification("particle"),
                         {"x0": 2})
        assert abs(gi.velocity(0, 123.0) - 2.0) < 1e-15

    def test_unknown_coordinate_rejected(self):
        with pytest.raises(GaugeInputError):
            gauge_input(transform("cawley"), classification("cawley"),
                        {"x": "1"})

    def test_state_dependent_expression_rejected(self):
        with pytest.raises(GaugeInputError):
            gauge_input(transform("cawley"), classification("cawley"),
                        {"z": "y + t"})

    def test_solve_set_must_match_classification(self):
        # the limit case fixes nothing, so nothing may be marked solve
        with pytest.raises(GaugeInputError):
            gauge_input(transform("cawley"), classification("cawley"),
                        {"z": "solve"})
        # the gauge case must solve exactly the subblock
        with pytest.raises(GaugeInputError):
            gauge_input(transform("synthetic_gauge"),
                        classification("synthetic_gauge"), {"a": "zero"})

    def test_asking_prescribed_value_of_solved_slot(self):
        gi = gauge_input(transform("synthetic_gaugeless"),
                         classification("synthetic_gaugeless"))
        with pytest.raises(GaugeInputError, match="slot 0 is solved, not prescribed"):
            gi.velocity(0, 0.0)


class TestDegenerateVelocities:
    def test_gaugeless_hand_values(self):
        # F v = D H gives v_a = -a p / x, v_b = 0
        ct = transform("synthetic_gaugeless")
        pt = ct.point({"x": 1.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        v, resid = degenerate_velocities(ct, pt, cls=classification("synthetic_gaugeless"))
        assert np.max(np.abs(v - np.array([-1.0, 0.0]))) < 1e-12
        assert resid < 1e-10

    def test_gaugeless_matches_direct_solve(self):
        ct = transform("synthetic_coupled")
        cls = classification("synthetic_coupled")
        for pt in phase_probes(ct)[:5]:
            v, resid = degenerate_velocities(ct, pt, cls=cls)
            res = ct.resolve(pt)
            direct = np.linalg.solve(field_strength(ct, pt), d_alpha_h(ct, res))
            assert np.max(np.abs(v - direct)) < 1e-12
            assert resid < 1e-10

    def test_limit_case_reports_unconstrained_rows(self):
        # v_z passes straight through; the residual is |D_z H| = y^2/2
        ct = transform("cawley")
        cls = classification("cawley")
        gi = gauge_input(ct, cls, {"z": 2.5})
        pt = ct.point({"x": 0.1, "y": 1.4, "z": 0.0}, {"x": 0.2, "y": -0.3})
        v, resid = degenerate_velocities(ct, pt, gi, cls)
        assert abs(v[0] - 2.5) < 1e-15
        assert abs(resid - 1.4 ** 2 / 2) < 1e-12

    def test_particle_direction_is_free_and_consistent(self):
        ct = transform("particle")
        cls = classification("particle")
        gi = gauge_input(ct, cls, {"x0": 1.0})
        pt = ct.point({"x0": 0.0, "x": 0.1, "y": 0.2, "z": 0.3},
                      {"x": 3.0, "y": 0.0, "z": 4.0}, {"x0": 1.0})
        v, resid = degenerate_velocities(ct, pt, gi, cls)
        assert abs(v[0] - 1.0) < 1e-15
        assert resid < 1e-12

    def test_gauge_case_inert_rows_stay_consistent(self):
        ct = transform("synthetic_gauge")
        cls = classification("synthetic_gauge")
        for pt in phase_probes(ct)[:5]:
            v, resid = degenerate_velocities(ct, pt, cls=cls)
            assert v[2] == 0.0 and v[3] == 0.0
            assert resid < 1e-10

    def test_gauge_case_dependent_row_residual_reported(self):
        # with one direction pinned to zero the leftover row of F v = D H
        # need not close; the residual must say by how much
        ct = transform("synthetic_bianchi")
        cls = classification("synthetic_bianchi")
        pt = ct.point({"x": 1.2, "a": 0.5, "b": 0.7, "c": -0.4}, {"x": 0.9})
        v, resid = degenerate_velocities(ct, pt, cls=cls)
        res = ct.resolve(pt)
        defect = field_strength(ct, pt) @ v - d_alpha_h(ct, res)
        assert abs(resid - np.max(np.abs(defect))) < 1e-15
        solved = list(cls.subblock)
        assert np.max(np.abs(defect[solved])) < 1e-12

    @pytest.mark.parametrize("name, spec", [
        ("synthetic_gauge", {"u": "0.3*sin(t) + 0.2", "w": "zero"}),
        ("synthetic_gauge", {"u": "zero", "w": "-0.7"}),
        ("synthetic_bianchi", {"b": "0.4 - t^2"}),
    ])
    def test_mixed_modes_match_the_per_call_formula(self, name, spec):
        ct, cls = transform(name), classification(name)
        gauge = gauge_input(ct, cls, spec)
        assert {"solve", "prescribed"} <= set(gauge.modes)
        for k, pt in enumerate(phase_probes(ct)):
            t = 0.1 * k
            v, resid = degenerate_velocities(ct, pt, gauge, cls, t=t)
            # numpy's solve of the same system, as a reference: equal to rounding
            res = ct.resolve(pt)
            f, dh = res.F, d_alpha_h(ct, res)
            want = np.zeros(ct.n - ct.r)
            solve_idx = [a for a, m in enumerate(gauge.modes) if m == "solve"]
            for a, mode in enumerate(gauge.modes):
                if mode != "solve":
                    want[a] = gauge.velocity(a, t)
            other = [a for a in range(len(want)) if a not in solve_idx]
            rhs = dh[solve_idx] - f[np.ix_(solve_idx, other)] @ want[other]
            want[solve_idx] = np.linalg.solve(f[np.ix_(solve_idx, solve_idx)], rhs)
            scale = np.maximum(1.0, np.abs(want))
            assert np.max(np.abs(v - want) / scale) < 1e-12
            want_resid = float(np.max(np.abs(f @ want - dh)))
            assert abs(resid - want_resid) < 1e-12 * max(1.0, want_resid)

    def test_singular_sector_detected(self):
        ct = transform("synthetic_gaugeless")
        pt = ct.point({"x": 0.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        with pytest.raises(RankDeficiencyError):
            degenerate_velocities(ct, pt, cls=classification("synthetic_gaugeless"))

    def test_singular_sector_same_text_as_integrate(self):
        ct = transform("synthetic_gaugeless")
        cls = classification("synthetic_gaugeless")
        pt = ct.point({"x": 0.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        with pytest.raises(RankDeficiencyError) as sector:
            degenerate_velocities(ct, pt, cls=cls)
        with pytest.raises(RankDeficiencyError) as run:
            integrate(ct, pt, cfg=IntegratorConfig(t1=0.01, dt=1e-3), cls=cls)
        assert str(sector.value) == str(run.value) == (
            "sector subblock singular at this point; the constant-rank classification "
            "does not hold here")


class TestIntegratorConfig:
    @pytest.mark.parametrize("field", ["t0", "t1", "dt"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: bad})

    def test_span_shorter_than_one_step_rejected(self):
        with pytest.raises(ValueError, match="one step"):
            IntegratorConfig(t1=1e-5, dt=1e-3)

    @pytest.mark.parametrize("kwargs", [{"dt": 0.0}, {"t1": -1.0}, {"t1": 1e6, "dt": 1e-3}])
    def test_rejections_are_typed(self, kwargs):
        # an ArgumentError, which the CLI maps to exit 2, and still a ValueError
        with pytest.raises(ArgumentError) as exc:
            IntegratorConfig(**kwargs)
        assert isinstance(exc.value, ClairautError) and isinstance(exc.value, ValueError)


class TestIntegrate:
    def test_oscillator_cosine(self):
        ct = transform("oscillator")
        traj = integrate(ct, ct.point([1.0], [0.0]),
                         cfg=IntegratorConfig(t1=1.0, dt=1e-3))
        assert abs(traj.q[-1, 0] - math.cos(1.0)) < 1e-8
        assert abs(traj.p[-1, 0] + math.sin(1.0)) < 1e-8
        assert np.max(np.abs(traj.h_phys - 0.5)) < 1e-10

    def test_uniform_sampling_and_shapes(self):
        ct = transform("cawley")
        cls = classification("cawley")
        traj = integrate(ct, ct.point([0.0, 0.0, 0.0], [0.0, 1.0]),
                         gauge_input(ct, cls, {"z": 1.0}),
                         IntegratorConfig(t1=0.1, dt=1e-2), cls)
        assert len(traj) == 11
        assert np.max(np.abs(np.diff(traj.t) - 1e-2)) < 1e-12
        assert traj.q.shape == (11, 3)
        assert traj.p.shape == (11, 2)
        assert traj.v_deg.shape == (11, 1)
        assert np.all(traj.v_deg == 1.0)

    def test_cawley_linear_coordinate(self):
        # y(0)=0, p_x(0)=0 keeps the constraint surface; x follows p_y
        ct = transform("cawley")
        cls = classification("cawley")
        traj = integrate(ct, ct.point([0.0, 0.0, 0.0], [0.0, 1.0]),
                         gauge_input(ct, cls, {"z": 1.0}),
                         IntegratorConfig(t1=1.0, dt=1e-3), cls)
        assert np.max(np.abs(traj.q[:, 0] - traj.t)) < 1e-9
        assert np.max(np.abs(traj.q[:, 1])) < 1e-12
        assert not traj.flagged
        assert np.nanmax(el_residual(ct.model, traj)) < 1e-5

    def test_particle_momenta_frozen_in_any_gauge(self):
        ct = transform("particle")
        cls = classification("particle")
        start = ct.point({"x0": 0.0, "x": 0.1, "y": 0.2, "z": 0.3},
                         {"x": 3.0, "y": 0.0, "z": 4.0}, {"x0": 1.0})
        for spec in ({"x0": 1.0}, {"x0": "1 + 0.1*sin(t)"}):
            traj = integrate(ct, start, gauge_input(ct, cls, spec),
                             IntegratorConfig(t1=1.0, dt=1e-2), cls)
            assert np.max(np.abs(traj.p - traj.p[0])) == 0.0

    def test_off_surface_start_is_flagged_not_fatal(self):
        ct = transform("cawley")
        cls = classification("cawley")
        traj = integrate(ct, ct.point([0.0, 1.0, 0.0], [0.0, 0.0]),
                         gauge_input(ct, cls, {"z": 0.0}),
                         IntegratorConfig(t1=0.05, dt=1e-3), cls)
        assert traj.flagged
        assert traj.consistency[0] == pytest.approx(0.5)

    def test_consistency_drift_halts_with_truncated_trajectory(self):
        # y starts on the surface but grows linearly (dy/dt = p_x), so the
        # residual y^2/2 crosses the tolerance mid-run
        ct = transform("cawley")
        cls = classification("cawley")
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, ct.point([0.0, 0.0, 0.0], [0.1, 0.0]),
                      gauge_input(ct, cls, {"z": 0.0}),
                      IntegratorConfig(t1=1.0, dt=1e-3), cls)
        traj = info.value.trajectory
        assert traj is not None
        assert 0 < len(traj) < 200
        assert traj.consistency[-1] > 1e-6

    def test_singular_crossing_halts_with_truncated_trajectory(self):
        # F_ab = x - a passes through 0 near t = 0.907; the solve itself
        # never fails there, only the sign of the Pfaffian shows the crossing
        ct = transform("synthetic_coupled")
        cls = classification("synthetic_coupled")
        start = ct.point({"x": 0.4, "a": 0.2, "b": 0.1}, {"x": 0.3})
        with pytest.raises(IntegrabilityError, match="t=0.907") as info:
            integrate(ct, start, cfg=IntegratorConfig(t1=1.0, dt=1e-3), cls=cls)
        traj = info.value.trajectory
        assert len(traj) == 907
        f_start = field_strength(ct, traj.point(0))[0, 1]
        f_end = field_strength(ct, traj.point(len(traj) - 1))[0, 1]
        assert f_start > 0 and f_end > 0

    def test_a_w_rr_sign_change_halts_with_the_rows_before_the_step(self):
        # W_rr = x: V = p_x / x drives x from 0.5 through 0 inside one step,
        # where no stage meets the singular point itself
        ct = ClairautTransform(parse_model("coord x; lagrangian = x*d(x)^2/2;"))
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, ct.point([0.5], [-1.0]), cfg=IntegratorConfig(t1=1.0, dt=0.01))
        assert str(info.value) == (
            "regular velocity Hessian block W_rr's determinant changed sign between t=0.16 "
            "and t=0.17: the velocity resolution went singular inside that step")
        traj = info.value.trajectory
        assert len(traj) == 17 and traj.t[-1] == 16 * 0.01
        assert np.all(traj.q[:, 0] > 0) and np.all(np.isfinite(traj.h_phys))

    def test_same_start_integrates_before_the_crossing(self):
        ct = transform("synthetic_coupled")
        start = ct.point({"x": 0.4, "a": 0.2, "b": 0.1}, {"x": 0.3})
        traj = integrate(ct, start, cfg=IntegratorConfig(t1=0.5, dt=1e-3))
        assert len(traj) == 501

    def test_resolution_failure_at_the_first_stage_of_a_step(self):
        # particle at p_x = 100 does not resolve (FOUND in CHANGES.md): the
        # failure is in stage 1 of step 0, before its row is written
        ct = transform("particle")
        cls = classification("particle")
        start = ct.point({}, {"x": 100.0}, {"x0": 1.0})
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, start, gauge_input(ct, cls, {"x0": "1+0.1*sin(t)"}),
                      IntegratorConfig(t1=0.01, dt=1e-3), cls)
        assert str(info.value).startswith("velocity resolution failed at t=0: ")
        traj = info.value.trajectory
        assert len(traj) == 0 and traj.q.shape == (0, 4) and traj.v_deg.shape == (0, 1)

    def test_resolution_failure_inside_a_step(self, monkeypatch):
        # stage 2 of step 2, the 10th stage, gives up, and the damped resolve
        # of its fallback fails: rows 0 to 2 are written, the message names
        # step 2's t
        ct = ClairautTransform(load_bundled("christ_lee"))
        cls = classification("christ_lee")
        start = ct.point({"x1": 0.8, "x2": -0.6, "x3": 1.0, "y1": 0.2, "y2": -0.1, "y3": 0.3},
                         {"x1": 0.4, "x2": -0.3, "x3": 0.5})
        full = integrate(ct, start, cfg=IntegratorConfig(t1=0.002, dt=1e-3), cls=cls)
        log = spied_stages(monkeypatch, ct, [], give_up={4 * 2 + 2})

        def damped_resolve(*args):
            log.append("damped")
            raise NewtonError("newton line search stalled")

        monkeypatch.setattr(ClairautTransform, "_damped_resolve", damped_resolve)
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, start, cfg=IntegratorConfig(t1=0.01, dt=1e-3), cls=cls)
        assert log == ["fused"] * 9 + ["gave up", "damped"]
        assert str(info.value) == ("velocity resolution failed inside step at t=0.002: "
                                   "newton line search stalled")
        traj = info.value.trajectory
        assert len(traj) == 3 and traj.t[-1] == 0.002
        for field in ("t", "q", "p", "v_deg", "h_phys", "consistency"):
            assert getattr(traj, field).tobytes() == getattr(full, field).tobytes()

    def test_convergence_is_fourth_order(self):
        ct = transform("oscillator")
        errs = []
        for dt in (2e-2, 1e-2):
            traj = integrate(ct, ct.point([1.0], [0.0]),
                             cfg=IntegratorConfig(t1=1.0, dt=dt))
            errs.append(abs(traj.q[-1, 0] - math.cos(1.0)))
        ratio = errs[0] / errs[1]
        assert 12 < ratio < 20  # RK4: halving dt cuts the error ~16x


class TestUndefinedValuesEndTheRun:
    """A row with a non-finite value, or a prescribed velocity undefined at a
    stage's time, ends the run with an IntegrabilityError that says where and
    when and carries the rows written before it."""

    def test_nan_hamiltonian_at_the_start(self):
        # x*x overflows, so H_phys = inf - inf on every row
        ct = ClairautTransform(parse_model("coord x; lagrangian = d(x)*d(x)/2 - x*x/2;"))
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, ct.point([1e200], [1e200]), cfg=IntegratorConfig(t1=0.01, dt=1e-3))
        assert str(info.value) == "non-finite H_phys = nan at t=0"
        traj = info.value.trajectory
        assert len(traj) == 0 and traj.q.shape == (0, 1)

    def test_overflow_mid_run_keeps_the_finite_rows(self):
        # x = p = 1.3e154 e^t: x*x overflows once x passes sqrt(max double)
        ct = ClairautTransform(parse_model("coord x; lagrangian = d(x)*d(x)/2 + x*x/2;"))
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, ct.point([1.3e154], [1.3e154]), cfg=IntegratorConfig(t1=0.1, dt=1e-3))
        assert str(info.value) == "non-finite H_phys = nan at t=0.031"
        traj = info.value.trajectory
        assert len(traj) == 31 and traj.t[-1] == pytest.approx(0.03)
        assert np.all(np.isfinite(traj.h_phys)) and np.all(np.isfinite(traj.q))

    @pytest.mark.parametrize("lagrangian, start, stages", [
        ("d(x)*d(x)/2 - x*x/2", 1e200, 1),  # H_phys nan at row 0: stage 1 of step 0
        ("d(x)*d(x)/2 + x*x/2", 1.3e154, 4 * 31 + 1),  # at row 31
    ])
    def test_the_loop_stops_at_the_first_non_finite_row(self, monkeypatch, lagrangian,
                                                         start, stages):
        ct = ClairautTransform(parse_model(f"coord x; lagrangian = {lagrangian};"))
        log = spied_stages(monkeypatch, ct, [])
        with pytest.raises(IntegrabilityError, match="non-finite H_phys"):
            integrate(ct, ct.point([start], [start]), cfg=IntegratorConfig(t1=20.0, dt=1e-3))
        assert log == ["fused"] * stages

    def test_undefined_prescribed_velocity_names_the_slot_and_time(self):
        # d(x0) = 1/(t - 0.005) is undefined at stage 4 of step 4, whose row
        # (t = 0.004) is already written
        ct = transform("particle")
        cls = classification("particle")
        start = ct.point({}, {"x": 0.4}, {"x0": 1.0})
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, start, gauge_input(ct, cls, {"x0": "1/(t-0.005)"}),
                      IntegratorConfig(t1=0.01, dt=1e-3), cls)
        assert str(info.value) == ("prescribed velocity d(x0) is not defined at t=0.005: "
                                   "float division by zero")
        traj = info.value.trajectory
        assert len(traj) == 5 and traj.t[-1] == pytest.approx(0.004)

    def test_prescribed_velocity_undefined_at_the_start(self):
        ct = transform("particle")
        cls = classification("particle")
        start = ct.point({}, {"x": 0.4}, {"x0": 1.0})
        with pytest.raises(IntegrabilityError) as info:
            integrate(ct, start, gauge_input(ct, cls, {"x0": "1/t"}),
                      IntegratorConfig(t1=0.01, dt=1e-3), cls)
        assert str(info.value) == ("prescribed velocity d(x0) is not defined at t=0: "
                                   "float division by zero")
        assert len(info.value.trajectory) == 0


def spied_stages(monkeypatch, ct, log, give_up=()):
    """Append to log, per call of ct's fused RK4 stage, "fused" or, where it
    gave up, "gave up", and "at root" per call at tol = inf; the calls
    numbered (from 1) in give_up give up."""
    real, calls = ct._stage, itertools.count(1)

    def build(solve, other):
        kernel = real(solve, other)

        def stage(*args):
            out = None if next(calls) in give_up else kernel(*args)
            log.append("at root" if args[-1] == math.inf else
                       "fused" if out is not None else "gave up")
            return out

        return stage

    monkeypatch.setattr(ct, "_stage", build)
    return log


def forced_fallback(monkeypatch, damped_resolve=None):
    """Make every fused stage give up at a finite tol, so each RK4 stage runs
    the fallback: ClairautTransform._damped_resolve (damped_resolve in its
    place if given), then the fused stage at tol = inf from that root.
    Returns the list that each stage that gave up appends to."""
    stages, real = [], ClairautTransform._stage

    def build(ct, solve, other):
        kernel = real(ct, solve, other)

        def stage(*args):
            if args[-1] != math.inf:
                return stages.append(1)
            return kernel(*args)

        return stage

    monkeypatch.setattr(ClairautTransform, "_stage", build)
    if damped_resolve is not None:
        monkeypatch.setattr(ClairautTransform, "_damped_resolve", damped_resolve)
    return stages


def outcome(ct, pt, cls, gauge=None, t1=0.2):
    """integrate's trajectory, or its IntegrabilityError's text and rows, as bytes."""
    try:
        traj, text = integrate(ct, pt, gauge, IntegratorConfig(t1=t1, dt=1e-3), cls), None
    except IntegrabilityError as exc:
        traj, text = exc.trajectory, str(exc)
    return text, traj.flagged, [getattr(traj, field).tobytes() for field in
                                ("t", "q", "p", "v_deg", "h_phys", "consistency")]


class TestOneResolvePath:
    """Every RK4 stage is one call of the transform's fused stage, which
    takes full Newton steps inside and gives up where resolve_kernel's do;
    each stage that gives up runs ClairautTransform._damped_resolve, then the
    fused stage again at tol = inf from that root.  So integrate and verify
    give the same floats with every stage forced onto that fallback, and
    _damped_resolve replaced by conftest's reference_resolve."""

    CASES = [
        ("christ_lee", {"x1": 0.8, "x2": -0.6, "x3": 1.0, "y1": 0.2, "y2": -0.1, "y3": 0.3},
         {"x1": 0.4, "x2": -0.3, "x3": 0.5}, None, None),
        ("synthetic_gaugeless", {"x": 0.3, "a": 0.1, "b": -0.2}, {"x": 0.4}, None, None),
        ("particle", {}, {"x": 0.4, "y": 0.1, "z": 0.2}, {"x0": 1.0}, {"x0": "1+0.1*sin(t)"}),
        # 111 of its 2,001 stages start between tol and 4 tol and take one step
        ("exponential", [0.5], [1.0], None, None),
    ]

    @staticmethod
    def run(name, q, p, v_deg, spec, t1=0.5):
        ct = ClairautTransform(load_bundled(name))
        cls = classify(ct)
        gauge = gauge_input(ct, cls, spec) if spec else None
        return integrate(ct, ct.point(q, p, v_deg), gauge, IntegratorConfig(t1=t1, dt=1e-3), cls)

    @staticmethod
    def assert_same(got, want):
        for field in ("t", "q", "p", "v_deg", "h_phys", "consistency"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.flagged == want.flagged

    @pytest.mark.parametrize("name, q, p, v_deg, spec", CASES, ids=[c[0] for c in CASES])
    def test_integrate_same_floats_as_reference(self, name, q, p, v_deg, spec, monkeypatch):
        got = self.run(name, q, p, v_deg, spec)
        stages = forced_fallback(monkeypatch, reference_resolve)
        self.assert_same(got, self.run(name, q, p, v_deg, spec))
        assert len(stages) == 4 * 500 + 1

    @pytest.mark.parametrize("name", BUNDLED)
    def test_fused_same_bytes_as_the_fallback(self, name, monkeypatch):
        # from two probe points each: some runs are flagged, some stop with
        # an IntegrabilityError (particle's at t=0, synthetic_coupled's at a
        # Pfaffian sign change)
        ct = ClairautTransform(load_bundled(name))
        cls = classify(ct)
        points = phase_probes(ct, count=2)
        got = [outcome(ct, pt, cls) for pt in points]
        stages = forced_fallback(monkeypatch)
        assert [outcome(ClairautTransform(load_bundled(name)), pt, cls) for pt in points] == got
        assert stages

    @pytest.mark.parametrize("x, p", [(0.9, 1.0), (0.5, 2.0)])
    def test_core_failing_outside_the_newton_loop(self, x, p, monkeypatch):
        # L leaves its domain at |x| > 1 while L_v = (d(x), x) stays defined:
        # the fused stage gives up there, and the fallback's resolve fails
        # with the same text at the same row as with every stage on it
        model = parse_model("coord x, y; lagrangian = d(x)^2/2 + x*d(y) - sqrt(1 - x^2);")
        ct = ClairautTransform(model)
        cls = classify(ct)
        log = spied_stages(monkeypatch, ct, [])
        got = outcome(ct, ct.point([x, 0.0], [p]), cls, t1=1.0)
        assert got[0].startswith("velocity resolution failed inside step at t=")
        assert got[0].endswith("math domain error") and log[-1] == "gave up"
        forced_fallback(monkeypatch)
        assert outcome(ClairautTransform(model), ct.point([x, 0.0], [p]), cls, t1=1.0) == got

    @pytest.mark.parametrize("steps", [1, 7])
    def test_one_resolve_per_stage(self, steps, monkeypatch):
        # four stages a step and stage 1 of the last row's step, all fused:
        # none resolves through _resolve_args or _damped_resolve
        ct = ClairautTransform(load_bundled("christ_lee"))
        cls = classification("christ_lee")
        start = ct.point({"x1": 0.8, "x2": -0.6, "x3": 1.0, "y1": 0.2, "y2": -0.1, "y3": 0.3},
                         {"x1": 0.4, "x2": -0.3, "x3": 0.5})
        log = spied_stages(monkeypatch, ct, [])
        for name in ("_resolve_args", "_damped_resolve"):
            monkeypatch.setattr(ClairautTransform, name, lambda *args: log.append("resolve"))
        traj = integrate(ct, start, cfg=IntegratorConfig(t1=steps * 1e-3, dt=1e-3), cls=cls)
        assert len(traj) == steps + 1 and log == ["fused"] * (4 * steps + 1)

    def test_cold_stage_falls_back_to_damped_newton(self, monkeypatch):
        # particle's full steps from V = 0 do not lower the norm at p_x = 10:
        # the first stage gives up, resolves by damped Newton alone (never
        # replaying the full steps in resolve_kernel) and runs at that root;
        # every later one is fused, its full steps from the last stage's
        # velocities
        case = ("particle", {"x0": 0.0, "x": 0.1, "y": 0.2, "z": 0.3}, {"x": 10.0},
                {"x0": 1.0}, {"x0": "1+0.1*sin(t)"})
        ct = ClairautTransform(load_bundled("particle"))
        cls = classify(ct)
        gauge = gauge_input(ct, cls, case[-1])
        start = ct.point(*case[1:4])
        log = spied_stages(monkeypatch, ct, [])
        real_kernel, real_damped = ct._resolve_kernel, ClairautTransform._damped_resolve
        monkeypatch.setattr(ct, "_resolve_kernel",
                            lambda *args: log.append("resolve kernel") or real_kernel(*args))
        monkeypatch.setattr(ClairautTransform, "_damped_resolve",
                            lambda *args: log.append("damped") or real_damped(*args))
        got = integrate(ct, start, gauge, IntegratorConfig(t1=0.05, dt=1e-3), cls)
        assert log[:3] == ["gave up", "damped", "at root"]
        assert log[3:] == ["fused"] * (4 * 50)
        forced_fallback(monkeypatch, reference_resolve)
        self.assert_same(got, self.run(*case, t1=0.05))

    def test_verify_same_report_as_reference(self, monkeypatch):
        got = [repr(run_verification(load_bundled(name))) for name in BUNDLED]
        stages = forced_fallback(monkeypatch, reference_resolve)
        assert [repr(run_verification(load_bundled(name))) for name in BUNDLED] == got
        assert stages


class TestElResidual:
    def test_detects_corrupted_momenta(self):
        ct = transform("oscillator")
        traj = integrate(ct, ct.point([1.0], [0.0]),
                         cfg=IntegratorConfig(t1=0.2, dt=1e-3))
        clean = np.nanmax(el_residual(ct.model, traj))
        assert clean < 1e-5
        corrupted = Trajectory_with_p_offset(traj, 1e-2)
        assert np.nanmax(el_residual(ct.model, corrupted)) > 1e-3

    def test_stencil_edges_are_nan(self):
        ct = transform("oscillator")
        traj = integrate(ct, ct.point([1.0], [0.0]),
                         cfg=IntegratorConfig(t1=0.02, dt=1e-3))
        res = el_residual(ct.model, traj)
        assert np.all(np.isnan(res[:2])) and np.all(np.isnan(res[-2:]))
        assert np.all(np.isfinite(res[2:-2]))

    def test_degenerate_rows_enter_the_check(self):
        # on the surface p = 2ky the y-row of the Lagrange equations holds
        # nontrivially: d/dt(kx) and m(dx/dt)^2/2 both equal 2 here
        ct = transform("mixed")
        cls = classification("mixed")
        traj = integrate(ct, ct.point([0.2, 1.0], [2.0]),
                         cfg=IntegratorConfig(t1=0.2, dt=1e-3), cls=cls)
        assert not traj.flagged
        assert np.max(traj.consistency) < 1e-10
        assert np.nanmax(el_residual(ct.model, traj)) < 1e-5

    def test_halving_dt_quarters_the_residual(self):
        ct = transform("oscillator")
        values = []
        for dt in (2e-3, 1e-3):
            traj = integrate(ct, ct.point([1.0], [0.0]),
                             cfg=IntegratorConfig(t1=0.5, dt=dt))
            values.append(np.nanmax(el_residual(ct.model, traj)))
        assert 3.0 < values[0] / values[1] < 5.0


def Trajectory_with_p_offset(traj, eps):
    from dataclasses import replace
    return replace(traj, p=traj.p + eps)


class TestEvolveObservable:
    def test_energy_conservation_reproduced(self):
        ct = transform("oscillator")
        cls = classification("oscillator")
        traj = integrate(ct, ct.point([1.0], [0.0]),
                         cfg=IntegratorConfig(t1=0.5, dt=1e-3))
        res = evolve_observable(ct, ct.hamiltonian_observable(), traj, cls)
        assert np.nanmax(res) < 1e-5

    def test_momentum_evolution_gaugeless(self):
        ct = transform("synthetic_gaugeless")
        cls = classification("synthetic_gaugeless")
        traj = integrate(ct, ct.point([1.0, 0.5, 0.0], [0.3]),
                         cfg=IntegratorConfig(t1=0.3, dt=1e-3), cls=cls)
        obs = ExprObservable(ct, momentum_name("x"))
        assert np.nanmax(evolve_observable(ct, obs, traj, cls)) < 1e-5

    def test_angular_constraint_on_three_rotor_model(self):
        ct = transform("christ_lee")
        cls = classification("christ_lee")
        start = ct.point({"x1": 1.0, "x2": 0.2, "x3": -0.4},
                         {"x1": 0.3, "x2": 0.1, "x3": 0.5})
        traj = integrate(ct, start, cfg=IntegratorConfig(t1=0.5, dt=1e-3), cls=cls)
        obs = ExprObservable(ct, "p_x2*x3 - p_x3*x2")
        assert np.nanmax(evolve_observable(ct, obs, traj, cls)) < 1e-5


class TestDiracCorrespondence:
    @pytest.mark.parametrize("name", (
        "synthetic_gaugeless", "synthetic_coupled", "synthetic_bianchi",
        "synthetic_gauge", "mixed", "cawley", "particle", "christ_lee"))
    def test_bracket_identities_exact(self, name):
        ct = transform(name)
        for pt in phase_probes(ct)[:5]:
            rep = dirac_report(ct, pt)
            assert rep.fab_residual < 1e-9
            assert rep.dhf_residual < 1e-9
            assert np.max(np.abs(rep.phi)) == 0.0  # default p_deg = B

    def test_multiplier_example(self):
        ct = transform("cawley")
        pt = ct.point({"x": 0.1, "y": 1.4, "z": 0.2}, {"x": 0.3, "y": -0.2})
        rep = dirac_report(ct, pt, p_deg=[0.0])
        assert np.max(np.abs(rep.phi)) == 0.0  # B_z = 0
        assert rep.h_t == pytest.approx(ct.h_phys(pt))
        # {phi_z, H_T}_full = -D_z H = y^2/2 with v_z = 0
        assert rep.second_stage[0] == pytest.approx(1.4 ** 2 / 2)

    def test_rotor_constraints_reproduced(self):
        ct = transform("christ_lee")
        pt = ct.point({"x1": 1.0, "x2": 0.2, "x3": -0.4, "y1": 0.1},
                      {"x1": 0.3, "x2": 0.1, "x3": 0.5})
        rep = dirac_report(ct, pt, p_deg=[0.0, 0.0, 0.0])
        cross = np.cross(pt.p, pt.q[:3])
        assert np.max(np.abs(rep.second_stage - rep.sigma * cross)) < 1e-12

    def test_second_stage_closes_on_solved_velocities(self):
        ct = transform("synthetic_coupled")
        cls = classification("synthetic_coupled")
        for pt in phase_probes(ct)[:5]:
            v, _ = degenerate_velocities(ct, pt, cls=cls)
            solved_pt = ct.point(pt.q, pt.p, v)
            rep = dirac_report(ct, solved_pt)
            assert np.max(np.abs(rep.second_stage)) < 1e-10

    def test_nondegenerate_report_is_trivial(self):
        ct = transform("oscillator")
        pt = ct.point([0.7], [1.2])
        rep = dirac_report(ct, pt)
        assert rep.phi.shape == (0,)
        assert rep.fab_residual == 0.0 and rep.dhf_residual == 0.0
        assert rep.h_t == pytest.approx(ct.h_phys(pt))

    @pytest.mark.parametrize("p_deg", ([0.1, 0.2], [0.1], [0.1] * 5))
    def test_wrong_number_of_degenerate_momenta(self, p_deg):
        # synthetic_gauge has 4 degenerate directions; a shorter list was
        # broadcast by numpy (or refused by its broadcasting), not checked
        ct = transform("synthetic_gauge")
        pt = phase_probes(ct)[0]
        with pytest.raises(ArgumentError,
                           match=f"^dirac_report takes 4 degenerate values, not {len(p_deg)}$"):
            dirac_report(ct, pt, p_deg=p_deg)
        with pytest.raises(ArgumentError, match=f"^h_mix takes 4 degenerate values, not "
                                                f"{len(p_deg)}$"):
            ct.h_mix(pt, p_deg)

    @pytest.mark.parametrize("name", (
        "synthetic_gaugeless", "synthetic_coupled", "mixed", "cawley",
        "christ_lee"))
    def test_sign_is_globally_minus_one(self, name):
        ct = transform(name)
        assert calibrate_sigma(ct, phase_probes(ct)[:8]) == -1.0

    def test_sign_unmeasurable_when_hamiltonian_vanishes(self):
        ct = transform("particle")
        assert calibrate_sigma(ct, phase_probes(ct)[:8]) is None


def full_bracket_oracle(ct, res):
    """{phi_a, phi_b} and {phi_a, H_phys} over all n canonical pairs,
    phi_a = p_a - B_a, assembled as two brackets (the regular pairs', then
    the degenerate pairs' with their momenta as rows of the identity)."""
    n_deg = ct.n - ct.r
    eye, zeros, deg = np.eye(n_deg), np.zeros(n_deg), ct.deg_idx

    def full(xq, xp, xd, yq, yp, yd):
        return (dot(xq[ct.reg_idx], yp) - dot(yq[ct.reg_idx], xp)) + (
            dot(xq[deg], yd) - dot(yq[deg], xd))

    phi = [(-res.dB_dq[a], -res.dB_dp[a], eye[a]) for a in range(n_deg)]
    fab = np.array([[full(*x, *y) for y in phi] for x in phi]).reshape(n_deg, n_deg)
    dhf = np.array([full(*x, res.dH_dq, res.dH_dp, zeros) for x in phi])
    return fab, dhf


# calibrate_sigma at the 17 seed-42 phase probes, as the two-bracket
# assembly computed it
SIGMA_AT_PROBES = {"oscillator": None, "exponential": None, "particle": None,
                   "mixed": -1.0, "cawley": -1.0, "christ_lee": -1.0,
                   "synthetic_gaugeless": -1.0, "synthetic_coupled": -1.0,
                   "synthetic_bianchi": -1.0, "synthetic_gauge": -1.0}


class TestConstraintBracketsAreGBlocks:
    """The Dirac brackets are read off the many-time form G; these pin the
    identity that makes that exact: G's degenerate block and minus its first
    row equal the full-bracket assembly entry for entry."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_brackets_equal_g_blocks(self, name):
        ct = transform(name)
        mts = map_to_manytime(ct)
        for pt in phase_probes(ct):
            res = ct.resolve(pt)
            fab, dhf = full_bracket_oracle(ct, res)
            g = g_matrix(mts, pt)
            assert np.array_equal(g[1:, 1:], fab) and np.array_equal(-g[0, 1:], dhf)
            rep = dirac_report(ct, pt)
            assert rep.fab_residual == float(np.max(np.abs(fab - res.F), initial=0.0))
            assert rep.dhf_residual == float(np.max(np.abs(dhf + res.DH), initial=0.0))
            assert np.array_equal(rep.second_stage,
                                  dhf + np.array([dot(row, pt.v_deg) for row in fab]))
            assert type(rep.fab_residual) is float and type(rep.dhf_residual) is float

    @pytest.mark.parametrize("name", BUNDLED)
    def test_calibrated_sign(self, name):
        ct = transform(name)
        assert calibrate_sigma(ct, phase_probes(ct)) == SIGMA_AT_PROBES[name]


class TestPfaffian:
    def test_small_cases(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0
        assert pfaffian(np.array([[0.0, 2.5], [-2.5, 0.0]])) == 2.5
        assert pfaffian(np.zeros((3, 3))) == 0.0

    def test_four_by_four_closed_form_and_determinant(self):
        rng = np.random.default_rng(3)
        for n in (4, 6):
            for _ in range(20):
                m = rng.normal(size=(n, n))
                a = m - m.T
                pf = pfaffian(a)
                assert pf * pf == pytest.approx(np.linalg.det(a), rel=1e-9)
                if n == 4:
                    want = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
                    assert pf == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_sign_changes_where_determinant_does_not(self):
        def f(s):
            return np.array([[0.0, s, 0.0, 0.0], [-s, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
        assert np.linalg.det(f(-0.5)) > 0 and np.linalg.det(f(0.5)) > 0
        assert pfaffian(f(-0.5)) < 0 < pfaffian(f(0.5))


def loop_el_residual(model, traj):
    """el_residual as a per-sample loop with Python's max: the reference for
    the vectorised stencil."""
    m, dt, coords = len(traj.t), traj.dt, traj.coords
    n = len(coords)
    reg = [coords.index(c) for c in traj.regular]
    deg = [coords.index(c) for c in traj.degenerate]
    core = model.core
    v_fd = np.full((m, n), np.nan)
    v_fd[1:-1] = (traj.q[2:] - traj.q[:-2]) / (2 * dt)
    lv, lq = np.full((m, n), np.nan), np.full((m, n), np.nan)
    for k in range(1, m - 1):
        vals = core.fn(list(traj.q[k]) + list(v_fd[k]))
        lv[k], lq[k] = vals[core.slices["L_v"]], vals[core.slices["L_q"]]
    out = np.full(m, np.nan)
    for k in range(2, m - 2):
        worst = 0.0
        for i, pos in enumerate(reg):
            worst = max(worst, abs((traj.p[k + 1, i] - traj.p[k - 1, i]) / (2 * dt) - lq[k, pos]))
            worst = max(worst, abs(traj.p[k, i] - lv[k, pos]))
        for pos in deg:
            worst = max(worst, abs((lv[k + 1, pos] - lv[k - 1, pos]) / (2 * dt) - lq[k, pos]))
        out[k] = worst
    return out


class TestVectorisedElResidual:
    @pytest.mark.parametrize("name", ["particle", "christ_lee", "synthetic_gauge"])
    def test_bit_equal_to_the_loop_nan_entries_skipped(self, name):
        ct = transform(name)
        pt = phase_probes(ct)[0]
        traj = integrate(ct, pt, cfg=IntegratorConfig(t1=0.03, dt=1e-3, consistency_tol=math.inf),
                         gauge=gauge_input(ct, classification(name),
                                           {"x0": "1"} if name == "particle" else None))
        assert el_residual(ct.model, traj).tobytes() == loop_el_residual(ct.model, traj).tobytes()
        traj.p[10, 0] = np.nan  # a nan term, which max skips
        got = el_residual(ct.model, traj)
        assert got.tobytes() == loop_el_residual(ct.model, traj).tobytes()
        assert np.isfinite(got[9:12]).all()
