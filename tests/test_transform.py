"""Velocity resolution, physical Hamiltonian, and conjugate identities."""

import math
import random
import re
import sys
import threading

import numpy as np
import pytest

from clairaut import (
    ClairautTransform,
    FenchelError,
    IntegratorConfig,
    NewtonError,
    PhasePoint,
    fenchel_conjugate,
    integrate,
    load_bundled,
    parse_model,
)
from clairaut import transform as transform_module
from clairaut.errors import ArgumentError
from clairaut.fixtures import BUNDLED
from clairaut.gauge import phase_probes
from clairaut.numerics import block_kernel, dot, third_layout
from clairaut.transform import Resolution
from conftest import reference_resolve

RNG_SEED = 1234


def transform(name):
    return ClairautTransform(load_bundled(name))


DEGENERATE_FIXTURES = (
    "mixed", "cawley", "christ_lee",
    "synthetic_gaugeless", "synthetic_coupled", "synthetic_bianchi",
    "synthetic_gauge",
)


def random_point(ct, rng, scale=1.0):
    """Random phase point kept inside every fixture's admissible region."""
    name = ct.model.name
    q = rng.uniform(-scale, scale, ct.n)
    p = rng.uniform(-scale, scale, ct.r)
    v = rng.uniform(-scale, scale, ct.n - ct.r)
    if name == "mixed":
        q[1] = rng.uniform(0.5, 2.0)  # keep m*y invertible
    elif name == "exponential":
        q[0] = rng.uniform(0.5, 2.0)
        p[0] = rng.uniform(0.5, 3.0)
    elif name == "particle":
        v[0] = rng.uniform(0.8, 1.5)  # timelike worldline direction
    return ct.point(q, p, v)


class TestResolvedVelocities:
    def test_oscillator_linear_solve(self):
        ct = transform("oscillator")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            x, p = rng.uniform(-3, 3, 2)
            v = ct.resolve_regular_velocities(ct.point([x], [p]))
            assert v.shape == (1,)
            assert abs(v[0] - p) < 1e-12  # m = 1

    def test_exponential_log_solve(self):
        ct = transform("exponential")
        v = ct.resolve_regular_velocities(ct.point([1.0], [math.e]))
        assert abs(v[0] - 1.0) < 1e-10

    def test_warm_start_matches_cold(self):
        ct = transform("particle")
        pt = ct.point({"x": 0.1}, {"x": 3.0, "z": 4.0}, {"x0": 1.0})
        cold = ct.resolve(pt).V
        warm = ct.resolve(pt, v_init=cold + 1e-3).V
        assert np.max(np.abs(cold - warm)) < 1e-10

    def test_unreachable_momentum_raises(self):
        # x*exp(v) has positive slope in v for x > 0, so p < 0 has no preimage
        ct = transform("exponential")
        with pytest.raises(NewtonError):
            ct.resolve_regular_velocities(ct.point([1.0], [-1.0]))


class TestPhysicalHamiltonian:
    def test_oscillator_closed_form(self):
        ct = transform("oscillator")
        for x in np.linspace(-2, 2, 5):
            for p in np.linspace(-2, 2, 5):
                h = ct.h_phys(ct.point([x], [p]))
                assert abs(h - (p * p / 2 + x * x / 2)) < 1e-10

    def test_exponential_closed_form(self):
        # k = 1: H = p*log(p/x) - p
        ct = transform("exponential")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            x = rng.uniform(0.5, 2.0)
            p = rng.uniform(0.5, 3.0)
            h = ct.h_phys(ct.point([x], [p]))
            assert abs(h - (p * math.log(p / x) - p)) < 1e-8

    def test_mixed_hamiltonian_and_b(self):
        ct = transform("mixed")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            pt = random_point(ct, rng)
            x, y = pt.q
            res = ct.resolve(pt)
            assert abs(res.H - pt.p[0] ** 2 / (2 * y)) < 1e-10
            assert abs(res.B[0] - x) < 1e-12  # B_y = k x with k = 1
        dbq, dbp = ct.grad_b(ct.point([0.3, 1.1], [0.7], [0.2]))
        assert np.max(np.abs(dbq - np.array([[1.0, 0.0]]))) < 1e-12
        assert np.max(np.abs(dbp)) < 1e-12

    def test_mixed_h_mix_formula(self):
        ct = transform("mixed")
        pt = ct.point([0.7, 2.0], [1.3], [0.9])
        expected = 1.3 ** 2 / 4 + (2.5 - 0.7) * 0.9
        assert abs(ct.h_mix(pt, [2.5]) - expected) < 1e-10

    def test_cawley_closed_form(self):
        ct = transform("cawley")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            pt = random_point(ct, rng)
            x, y, z = pt.q
            px, py = pt.p
            res = ct.resolve(pt)
            assert abs(res.H - (px * py - z * y * y / 2)) < 1e-10
            assert abs(res.B[0]) < 1e-12

    def test_particle_energy_and_zero_hamiltonian(self):
        ct = transform("particle")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            pt = random_point(ct, rng, scale=2.0)
            res = ct.resolve(pt)
            energy = math.sqrt(25.0 + float(pt.p @ pt.p))  # m = 5
            assert abs(res.H) < 1e-9
            assert abs(res.B[0] + energy) < 1e-9

    def test_christ_lee_closed_form(self):
        ct = transform("christ_lee")
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            pt = random_point(ct, rng)
            x = pt.q[:3]
            y = pt.q[3:]
            p = pt.p
            res = ct.resolve(pt)
            expected = (p @ p) / 2 + p @ np.cross(x, y) + (x @ x) / 2
            assert abs(res.H - expected) < 1e-10
            assert np.max(np.abs(res.B)) < 1e-12

    def test_fully_degenerate_model(self):
        # No regular sector at all: resolution is trivial and H comes out
        # purely from the B terms.
        model = parse_model(
            "coord x, y; lagrangian = x*d(y) - x^2/2;", name="inline")
        ct = ClairautTransform(model)
        assert ct.r == 0
        pt = ct.point([0.8, -0.3], v_deg=[0.4, 1.7])
        res = ct.resolve(pt)
        assert abs(res.H - 0.8 ** 2 / 2) < 1e-12
        assert np.max(np.abs(res.B - np.array([0.0, 0.8]))) < 1e-12
        assert np.max(np.abs(res.dH_dq - np.array([0.8, 0.0]))) < 1e-12


class TestDegenerateIndependence:
    @pytest.mark.parametrize("name", DEGENERATE_FIXTURES + ("particle",))
    def test_h_and_b_ignore_degenerate_velocities(self, name):
        ct = transform(name)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            pt_a = random_point(ct, rng)
            pt_b = ct.point(pt_a.q, pt_a.p,
                            pt_a.v_deg + rng.uniform(0.1, 0.5, ct.n - ct.r))
            res_a, res_b = ct.resolve(pt_a), ct.resolve(pt_b)
            assert abs(res_a.H - res_b.H) < 1e-9
            assert np.max(np.abs(res_a.B - res_b.B)) < 1e-9

    def test_h_mix_collapses_at_pbar_equal_b(self):
        ct = transform("mixed")
        pt = ct.point([0.4, 1.2], [0.9], [2.0])
        res = ct.resolve(pt)
        assert abs(ct.h_mix(pt, res.B) - res.H) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("name", ("mixed", "cawley", "christ_lee",
                                      "synthetic_coupled", "synthetic_gauge"))
    def test_envelope_consistency_at_zero(self, name):
        # with the degenerate velocities off, dH/dp_i is exactly V^i
        ct = transform(name)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            pt = random_point(ct, rng)
            pt = ct.point(pt.q, pt.p)  # v_deg = 0
            res = ct.resolve(pt)
            assert np.max(np.abs(res.dH_dp - res.V)) < 1e-12

    @pytest.mark.parametrize("name", DEGENERATE_FIXTURES + (
        "oscillator", "exponential", "particle"))
    def test_gradients_match_finite_differences(self, name):
        ct = transform(name)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(3):
            pt = random_point(ct, rng)
            res = ct.resolve(pt)
            for a in range(ct.n):
                step = 1e-6 * (1 + abs(pt.q[a]))
                qp, qm = pt.q.copy(), pt.q.copy()
                qp[a] += step
                qm[a] -= step
                fd = (ct.h_phys(ct.point(qp, pt.p, pt.v_deg))
                      - ct.h_phys(ct.point(qm, pt.p, pt.v_deg))) / (2 * step)
                assert abs(res.dH_dq[a] - fd) < 1e-5 * (1 + abs(fd))
            for i in range(ct.r):
                step = 1e-6 * (1 + abs(pt.p[i]))
                pp, pm = pt.p.copy(), pt.p.copy()
                pp[i] += step
                pm[i] -= step
                fd = (ct.h_phys(ct.point(pt.q, pp, pt.v_deg))
                      - ct.h_phys(ct.point(pt.q, pm, pt.v_deg))) / (2 * step)
                assert abs(res.dH_dp[i] - fd) < 1e-5 * (1 + abs(fd))

    @pytest.mark.parametrize("name", ("mixed", "cawley", "synthetic_bianchi",
                                      "particle"))
    def test_b_gradients_match_finite_differences(self, name):
        ct = transform(name)
        rng = np.random.default_rng(RNG_SEED)
        pt = random_point(ct, rng)
        dbq, dbp = ct.grad_b(pt)
        for a in range(ct.n):
            step = 1e-6 * (1 + abs(pt.q[a]))
            qp, qm = pt.q.copy(), pt.q.copy()
            qp[a] += step
            qm[a] -= step
            fd = (ct.b_values(ct.point(qp, pt.p, pt.v_deg))
                  - ct.b_values(ct.point(qm, pt.p, pt.v_deg))) / (2 * step)
            assert np.max(np.abs(dbq[:, a] - fd)) < 1e-5 * (1 + np.max(np.abs(fd)))
        for i in range(ct.r):
            step = 1e-6 * (1 + abs(pt.p[i]))
            pp, pm = pt.p.copy(), pt.p.copy()
            pp[i] += step
            pm[i] -= step
            fd = (ct.b_values(ct.point(pt.q, pp, pt.v_deg))
                  - ct.b_values(ct.point(pt.q, pm, pt.v_deg))) / (2 * step)
            assert np.max(np.abs(dbp[:, i] - fd)) < 1e-5 * (1 + np.max(np.abs(fd)))

    def test_h_gradient_ignores_degenerate_velocities(self):
        ct = transform("mixed")
        pt_a = ct.point([0.7, 2.0], [1.3], [0.9])
        pt_b = ct.point([0.7, 2.0], [1.3], [-0.4])
        ga, gb = ct.resolve(pt_a), ct.resolve(pt_b)
        assert np.max(np.abs(ga.dH_dq - gb.dH_dq)) < 1e-9
        assert np.max(np.abs(ga.dH_dp - gb.dH_dp)) < 1e-9


class TestConjugateIdentity:
    @pytest.mark.parametrize("name", DEGENERATE_FIXTURES + (
        "oscillator", "exponential", "particle"))
    def test_residual_small_for_true_hamiltonian(self, name):
        ct = transform(name)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            pt = random_point(ct, rng)
            pbar = np.empty(ct.n)
            pbar[ct.reg_idx] = pt.p
            pbar[ct.deg_idx] = rng.uniform(-1, 1, ct.n - ct.r)
            assert ct.clairaut_residual(pt.q, pbar, v_deg=pt.v_deg) < 1e-8

    def test_residual_detects_wrong_hamiltonian(self):
        # doubling the kinetic term leaves a defect of exactly p^2/2
        ct = transform("oscillator")

        def wrong(q, pbar):
            return pbar[0] ** 2 + q[0] ** 2 / 2  # p^2/m instead of p^2/2m

        r = ct.clairaut_residual([0.3], [1.0], h_value=wrong)
        assert abs(r - 0.5) < 1e-12
        assert ct.clairaut_residual([0.3], [1.0]) < 1e-12


class TestLengthsAgainstTheSplit:
    """mixed splits (x, y) into regular x and degenerate y: a point has two
    coordinates, one regular momentum and one degenerate velocity."""

    def test_h_mix_takes_one_value_per_degenerate_slot(self):
        ct = transform("mixed")
        pt = ct.point([0.4, 1.2], [2.4], [0.0])
        assert ct.h_mix(pt, [1.0]) == ct.h_phys(pt)  # v_deg = 0
        with pytest.raises(ArgumentError, match="h_mix takes 1 degenerate values, not 3"):
            ct.h_mix(pt, [1.0, 2.0, 3.0])

    def test_resolve_refuses_an_extra_momentum(self):
        ct = transform("mixed")
        with pytest.raises(ArgumentError,
                           match=r"2, 1 and 1 values in q, p and v_deg, not \(2, 2, 1\)"):
            ct.resolve(PhasePoint([0.4, 1.2], [2.4, 1.0], [0.0]))

    @pytest.mark.parametrize("q, p", [([0.4, 1.2], [2.4, 1.0]), ([0.4], [2.4])])
    def test_integrate_refuses_a_point_of_other_lengths(self, q, p):
        # the extra momentum was dropped and the short q raised an IndexError
        ct = transform("mixed")
        with pytest.raises(ArgumentError, match="values in q, p and v_deg"):
            integrate(ct, PhasePoint(q, p, [0.0]), cfg=IntegratorConfig(t1=0.01, dt=1e-3))


    @pytest.mark.parametrize("pbar", [[2.4], [2.4, 1.0, 0.5]])
    def test_clairaut_residual_takes_one_value_per_coordinate(self, pbar):
        # a short pbar raised an IndexError
        ct = transform("mixed")
        assert ct.clairaut_residual([0.4, 1.2], [2.4, 1.0]) < 1e-12
        with pytest.raises(ArgumentError, match="takes 2 pbar values, not"):
            ct.clairaut_residual([0.4, 1.2], pbar)

    @pytest.mark.parametrize("v_init", [[], [1, 2, 3, 4, 5]])
    def test_resolve_takes_one_start_per_regular_velocity(self, v_init):
        # the generated resolve kernel raised "too many values to unpack"
        # (or "not enough"); the right length still resolves from it
        ct = transform("synthetic_bianchi")
        pt = phase_probes(ct)[0]
        assert ct.r == 1
        with pytest.raises(ArgumentError, match="v_init takes 1 values on this split, not"):
            ct.resolve(pt, v_init=v_init)
        assert ct.resolve(pt, v_init=[0.0]).H == ct.resolve(pt._replace()).H

    @pytest.mark.parametrize("q", [["a"], [None], [[1.0, 2.0]]])
    def test_a_point_takes_numbers_only(self, q):
        # float("a") raised a raw ValueError, float(None) a TypeError;
        # ArgumentError is still a ValueError
        with pytest.raises(ArgumentError, match="expected a flat sequence of numbers"):
            PhasePoint(q, [1.0], [0, 0, 0])
        with pytest.raises(ValueError):
            PhasePoint(q, [1.0], [0, 0, 0])


class TestPointNames:
    """synthetic_bianchi has coordinates x, a, b, c, regular x and degenerate
    a, b, c: a dict key that names none of its kind raises."""

    @pytest.mark.parametrize("slot, kind, valid", [
        ("q", "coordinate", "x, a, b, c"),
        ("p", "regular coordinate", "x"),
        ("v_deg", "degenerate coordinate", "a, b, c"),
    ])
    def test_an_unknown_name_raises(self, slot, kind, valid):
        # a misspelt name read 0.0 silently
        ct = transform("synthetic_bianchi")
        args = {"q": [0.0] * 4, slot: {"zz": 1.0}}
        with pytest.raises(ArgumentError,
                           match=re.escape(f"unknown {kind} 'zz'; valid names: {valid}")):
            ct.point(**args)
        args[slot] = {valid[0]: 1.0}
        pt = ct.point(**args)
        assert [*pt._q, *pt._p, *pt._v].count(1.0) == 1


class TestFenchelOracle:
    def test_oscillator_value(self):
        value = fenchel_conjugate(load_bundled("oscillator"), [1.0], [2.0])
        assert abs(value - 2.5) < 1e-10

    def test_exponential_value(self):
        value = fenchel_conjugate(load_bundled("exponential"), [1.0], [1.0])
        assert abs(value + 1.0) < 1e-8

    def test_matches_h_phys_when_nondegenerate(self):
        model = load_bundled("oscillator")
        ct = ClairautTransform(model)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            x, p = rng.uniform(-2, 2, 2)
            direct = ct.h_phys(ct.point([x], [p]))
            assert abs(fenchel_conjugate(model, [x], [p]) - direct) < 1e-7

    def test_degenerate_model_rejected(self):
        with pytest.raises(FenchelError):
            fenchel_conjugate(load_bundled("mixed"), [0.5, 1.0], [1.0, 2.0])

    def test_one_core_call_per_iterate(self, monkeypatch):
        # the residual's core call feeds the Jacobian, the convexity check
        # and the value at the root
        model = load_bundled("exponential")
        calls, residuals = [], []
        core = model.core.fn
        monkeypatch.setattr(model.core, "fn", lambda args: calls.append(1) or core(args))
        real_newton = transform_module.damped_newton

        def counted_newton(residual, jacobian, x0, cfg):
            def jac(x):
                before = len(calls)
                out = jacobian(x)
                assert len(calls) == before
                return out

            return real_newton(lambda x: residuals.append(1) or residual(x), jac, x0, cfg)

        monkeypatch.setattr(transform_module, "damped_newton", counted_newton)
        value = fenchel_conjugate(model, [1.0], [1.0])
        assert abs(value + 1.0) < 1e-8
        assert residuals and len(calls) == len(residuals)


class TestPhasePointImmutability:
    """resolve memoizes by point identity, so a point must not change."""

    def test_arrays_are_read_only(self):
        pt = PhasePoint(np.array([0.1, 0.2]), np.array([0.3]), np.array([0.4]))
        for arr in (pt.q, pt.p, pt.v_deg):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_fields_cannot_be_rebound(self):
        pt = PhasePoint([0.1, 0.2], [0.3], [0.4])
        for name in ("q", "p", "v_deg", "_q"):
            with pytest.raises(AttributeError):
                setattr(pt, name, [9.0, 9.0])
        assert pt._q == (0.1, 0.2) and pt.q.tolist() == [0.1, 0.2]

    def test_caller_arrays_stay_writeable_and_detached(self):
        q, p, v = np.array([0.1, 0.2]), np.array([0.3]), np.array([0.4])
        pt = PhasePoint(q, p, v)
        for arr in (q, p, v):
            assert arr.flags.writeable
        q[0] = 9.0
        assert pt.q[0] == 0.1

    def test_displaced_point_shares_only_its_unchanged_arrays(self):
        pt = PhasePoint(np.array([0.1, 0.2]), np.array([0.3]), np.array([0.4]))
        q = np.array([0.5, 0.6])
        moved = pt._replace(q=q)
        assert moved._p is pt._p and moved._v is pt._v and moved._q == (0.5, 0.6)
        assert all(type(x) is float for x in moved._q + moved._p + moved._v)
        assert moved.q is not q and not moved.q.flags.writeable
        q[0] = 9.0
        assert moved.q.tolist() == [0.5, 0.6] and pt.q.tolist() == [0.1, 0.2]
        both = pt._replace(q=[1, 2], p=[3])
        assert both._v is pt._v and both._p == (3.0,) and both.p.dtype == np.float64
        # the public constructor copies even another point's arrays
        again = PhasePoint(pt.q, pt.p, pt.v_deg)
        assert all(a is not b for a, b in zip((again.q, again.p, again.v_deg),
                                              (pt.q, pt.p, pt.v_deg)))

    def test_new_point_from_modified_data_resolves_afresh(self):
        ct = transform("mixed")
        q, p = np.array([0.3, 1.2]), np.array([0.7])
        pt = ct.point(q, p)
        first = ct.resolve(pt)
        q[1] = 1.5
        moved = ct.point(q, p)
        second = ct.resolve(moved)
        assert second is not first
        assert ct.resolve(pt) is not second
        assert second.V[0] != first.V[0]
        assert abs(second.H - ct.h_phys(ct.point([0.3, 1.5], [0.7]))) == 0.0


class TestHeldResolutions:
    """_held keeps, by identity, the resolution of each point it was given
    (verify's probes, for one run) after that point's first resolve without
    v_init: the same PhasePoint object reads it back after _last has moved
    on, any other point resolves as before."""

    @staticmethod
    def held(monkeypatch, name="christ_lee"):
        ct = transform(name)
        points = phase_probes(ct, count=3)
        ct._held = {id(pt): (pt, None) for pt in points}
        calls = []
        real = ct._resolve_args
        monkeypatch.setattr(ct, "_resolve_args", lambda *args: calls.append(args) or real(*args))
        return ct, points, calls

    def test_a_held_point_resolves_once(self, monkeypatch):
        ct, points, calls = self.held(monkeypatch)
        first = [ct.resolve(pt) for pt in points]
        assert [ct.resolve(pt) for pt in points] == first and len(calls) == 3
        assert all(ct._held[id(pt)] == (pt, res) for pt, res in zip(points, first))

    def test_an_equal_fresh_point_resolves_anew(self, monkeypatch):
        ct, points, calls = self.held(monkeypatch)
        pt = points[0]
        res = ct.resolve(pt)
        twin = PhasePoint(pt._q, pt._p, pt._v)
        again = ct.resolve(twin)
        assert again is not res and len(calls) == 2 and id(twin) not in ct._held
        assert hexed((again.args, again._v, again._core)) == hexed((res.args, res._v, res._core))
        assert ct.resolve(pt) is res and len(calls) == 2

    def test_v_init_bypasses_the_table(self, monkeypatch):
        ct, points, calls = self.held(monkeypatch)
        pt = points[0]
        warm = ct.resolve(pt, v_init=[0.1] * ct.r)
        assert ct._held[id(pt)] == (pt, None)  # a resolve from v_init is not kept
        ct.resolve(points[1])  # _last moves on
        res = ct.resolve(pt)
        assert res is not warm and len(calls) == 3
        assert ct.resolve(pt, v_init=res.V) is not res and len(calls) == 4
        assert ct._held[id(pt)] == (pt, res)

    def test_a_failing_point_raises_each_time(self, monkeypatch):
        ct = transform("exponential")
        pt = ct.point([0.2], [-3.0])  # x exp(v) = p < 0: no root
        ct._held = {id(pt): (pt, None)}
        errors = []
        for _ in range(2):
            with pytest.raises(NewtonError) as exc:
                ct.resolve(pt)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] and ct._held[id(pt)] == (pt, None)


def rel_error(got, want):
    """max |got - want| over max(1, |want|), entry by entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


def reference_block(ct, res):
    """The derivative block, F and D_a H from the core with numpy, W_rr
    factored twice: np.linalg.solve for dV_dq, np.linalg.inv for dV_dp."""
    n, reg, deg = ct.n, ct.reg_idx, ct.deg_idx
    core = np.array(ct._f_core(res.args))
    w = core[ct.core_slices["W"]].reshape(n, n)
    lvq = core[ct.core_slices["L_vq"]].reshape(n, n)
    lq = core[ct.core_slices["L_q"]]
    w_rr, w_dr = w[np.ix_(reg, reg)], w[np.ix_(deg, reg)]
    if ct.r:
        solved = np.linalg.solve(w_rr, lvq[reg, :])
        dv_dp = np.linalg.inv(w_rr)
    else:
        solved, dv_dp = np.zeros((0, n)), np.zeros((0, 0))
    db_dq = lvq[deg, :] - w_dr @ solved
    db_dp = w_dr @ dv_dp
    dh_dq, dh_dp = -lq + res.pt.v_deg @ db_dq, res.V + res.pt.v_deg @ db_dp
    m = db_dq[:, deg].T
    pp = db_dq[:, reg] @ db_dp.T
    return {
        "W": w, "dV_dq": -solved, "dV_dp": dv_dp, "dB_dq": db_dq, "dB_dp": db_dp,
        "dH_dq": dh_dq, "dH_dp": dh_dp,
        "F": (m - m.T) + (pp - pp.T),
        "DH": dh_dq[deg] + db_dq[:, reg] @ dh_dp - db_dp @ dh_dq[reg],
    }


class TestLeanDerivativeBlock:
    """One W_rr factorisation per resolution, and slots filled on first read."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_block_matches_separate_solve_and_inv(self, name):
        # the generated block eliminates on floats and numpy rounds as its
        # BLAS does: equal to rounding, never bit for bit
        ct = transform(name)
        for pt in phase_probes(ct):
            res = ct.resolve(pt)
            for attr, want in reference_block(ct, res).items():
                assert rel_error(getattr(res, attr), want) < 1e-12, attr

    def test_slots_fill_on_first_read(self, monkeypatch):
        ct = transform("christ_lee")
        calls = []
        build = Resolution._derivatives
        monkeypatch.setattr(Resolution, "_derivatives",
                            lambda res: calls.append(1) or build(res))
        res = ct.resolve(phase_probes(ct)[0])
        assert res._W is None and not calls
        res.F
        assert res._W is not None and len(calls) == 1
        for attr in ("W", "dV_dq", "dV_dp", "dB_dq", "dB_dp", "dH_dq", "dH_dp"):
            getattr(res, attr)
        assert res.F is res.F and len(calls) == 1
        with pytest.raises(AttributeError):
            res.not_an_attribute

    @pytest.mark.parametrize("name", BUNDLED)
    def test_lazy_slots_equal_the_eager_build(self, name):
        # each slot read in a shuffled order, against all of them built at
        # once from the resolve's floats, as a Resolution once built them
        ct = transform(name)
        rng = random.Random(42)
        for pt in phase_probes(ct):
            want = eager_slots(ct, pt)
            res = ct.resolve(pt)
            order = list(want)
            rng.shuffle(order)
            for attr in order:
                got = getattr(res, attr)
                assert np.shape(got) == np.shape(want[attr]), attr
                assert hexes(got) == hexes(want[attr]), attr
            assert not res.F.flags.writeable and not res.DH.flags.writeable

    def test_reading_dh_builds_dh_alone(self, monkeypatch):
        ct = transform("christ_lee")
        calls = []
        build = Resolution._derivatives
        monkeypatch.setattr(Resolution, "_derivatives",
                            lambda res: calls.append(1) or build(res))
        res = ct.resolve(phase_probes(ct)[0])
        res.DH
        assert len(calls) == 1
        for attr in LAZY_SLOTS:
            if attr != "DH":
                with pytest.raises(AttributeError):
                    getattr(Resolution, attr).__get__(res)

    def test_reading_v_b_h_and_w_runs_no_kernel(self, monkeypatch):
        ct = transform("christ_lee")
        monkeypatch.setattr(Resolution, "_derivatives", lambda res: pytest.fail("kernel ran"))
        res = ct.resolve(phase_probes(ct)[0])
        res.V, res.B, res.H, res.W
        assert res._W is None

    def test_threads_sharing_a_transform_read_the_same_floats(self):
        # the resolve memo is one tuple matched by identity and every slot a
        # pure function of the resolution's floats: threads resolving
        # interleaved points, and reading shared resolutions in opposite slot
        # orders, see a single thread's values
        points = phase_probes(transform("christ_lee"))
        single = transform("christ_lee")
        want = [{attr: hexes(getattr(single.resolve(pt), attr)) for attr in LAZY_SLOTS}
                for pt in points]
        ct = transform("christ_lee")
        shared = [ct.resolve(pt) for pt in points]
        got = {}
        start = threading.Barrier(4)

        def work(key, step, slots):
            start.wait()
            out = []
            for k in range(len(points))[::step]:
                for res in (shared[k], ct.resolve(points[k])):
                    out.append((k, {attr: hexes(getattr(res, attr)) for attr in slots}))
            got[key] = out

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = []  # more threads than cores, half in the opposite orders
            for key in range(4):
                step = -1 if key % 2 else 1
                threads.append(threading.Thread(target=work, args=(key, step, LAZY_SLOTS[::step])))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for key in range(4):
            assert len(got[key]) == 2 * len(points)
            for k, values in got[key]:
                assert values == want[k]


def v_difference_defect(ct, probes, step=1e-6):
    """max |dV - central difference of V| / (1 + |difference|) over dV_dq and
    dV_dp at the probes, V resolved at q, then p, displaced by step * (1 + |x|)."""
    worst = 0.0
    for pt in probes:
        res = ct.resolve(pt)
        for got, base, at in ((res.dV_dq, pt._q, lambda x: pt._replace(q=x)),
                              (res.dV_dp, pt._p, lambda x: pt._replace(p=x))):
            for j, x in enumerate(base):
                up, down = list(base), list(base)
                up[j], down[j] = x + step * (1 + abs(x)), x - step * (1 + abs(x))
                ref = (ct.resolve(at(up)).V - ct.resolve(at(down)).V) / (up[j] - down[j])
                worst = max(worst, float(np.max(np.abs(got[:, j] - ref) / (1 + np.abs(ref)),
                                                initial=0.0)))
    return worst


class TestImplicitFunctionBlock:
    """dV_dq and dV_dp, the block no verify row reads, against differences of
    the resolved V itself."""

    TOL = 1e-8

    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_central_differences_of_v(self, name):
        ct = transform(name)
        assert v_difference_defect(ct, phase_probes(ct, seed=42)) <= self.TOL

    @pytest.mark.parametrize("name", BUNDLED)
    def test_catches_a_perturbed_w_rr(self, name):
        # 1e-6 on W_rr's diagonal leaves Newton's root V where it was (p =
        # L_v is unchanged) but moves the block, W_rr^-1 and its products
        ct = transform(name)
        probes = phase_probes(ct, seed=42)
        real, w = ct._f_core, ct.core_slices["W"]
        diag = [w.start + i * ct.n + i for i in ct._reg]

        def perturbed(args):
            core = list(real(args))
            for k in diag:
                core[k] += 1e-6
            return core

        ct._f_core = perturbed
        assert v_difference_defect(ct, probes) > self.TOL


def jet_difference_defect(ct, probes, step=1e-6):
    """max |jet - central difference of the block| / (1 + |difference|) at
    the probes: d2V, d2B and d2H against the block's exact first derivatives
    (dV_dq | dV_dp, dB_dq | dB_dp, dH_dq | dH_dp), dF and dDH against F and
    D_a H, each resolved at z = (q, p) displaced by step * (1 + |z_k|)."""
    worst, n = 0.0, ct.n
    slots = (("d2V", "dV_dq", "dV_dp"), ("d2B", "dB_dq", "dB_dp"), ("d2H", "dH_dq", "dH_dp"),
             ("dF", "F"), ("dDH", "DH"))
    for pt in probes:
        res = ct.resolve(pt)
        jets = [getattr(res, slot) for slot, *_ in slots]
        z = [*pt._q, *pt._p]
        for k, x in enumerate(z):
            up, down = list(z), list(z)
            up[k], down[k] = x + step * (1 + abs(x)), x - step * (1 + abs(x))
            hi, lo = (ct.resolve(pt._replace(q=u[:n], p=u[n:])) for u in (up, down))
            for got, (_, *block) in zip(jets, slots):
                grad = [np.concatenate([getattr(s, name) for name in block], axis=-1)
                        for s in (hi, lo)]
                ref = (grad[0] - grad[1]) / (up[k] - down[k])
                worst = max(worst, float(np.max(np.abs(got[..., k] - ref) / (1 + np.abs(ref)),
                                                initial=0.0)))
    return worst


def jet_probes(ct):
    """The seed-42 phase probes, then the first with its degenerate
    velocities scaled by 1.5 (nonzero where the model has any)."""
    probes = phase_probes(ct, seed=42)
    return probes + [probes[0]._replace(v_deg=[1.5 * v for v in probes[0]._v])]


class TestSecondOrderJet:
    """d2V, d2B and d2H from numerics.jet_kernel against central differences
    of the exact derivative block they differentiate, as
    TestImplicitFunctionBlock checks the block against V.  The worst
    defect is exponential's 1.6e-9, the stencil's truncation; the smallest
    perturbed one is particle's 2.0e-8, whose partials are O(600)."""

    TOL = 5e-9
    # B_a and B_b both depending on the other's coordinate, so that each of
    # F's terms differs from its transpose, and B depending on p
    COUPLED = ("coord x, a, b; lagrangian = d(x)^2/2 + sin(b)*x*d(a) + a^2*x*d(b) - x^2/2;",
               "coord x, a, b; lagrangian = (d(x) + d(a))^2/2 + exp(a)*x*d(b) + b*x^2*d(a)"
               " - x^2/2;")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_central_differences_of_the_block(self, name):
        ct = transform(name)
        assert jet_difference_defect(ct, jet_probes(ct)) <= self.TOL

    @pytest.mark.parametrize("text", COUPLED)
    def test_matches_on_models_where_each_term_of_f_moves(self, text):
        ct = ClairautTransform(parse_model(text))
        assert jet_difference_defect(ct, jet_probes(ct)) <= self.TOL

    # oscillator's and cawley's jets read no third partial: each they would is 0
    @pytest.mark.parametrize("name", [n for n in BUNDLED if n not in ("oscillator", "cawley")])
    def test_catches_a_perturbed_third_partial(self, name):
        # 1e-6 on the largest third partial the kernel reads at the first
        # probe: the block, from the core alone, does not move, the jet does
        ct = ClairautTransform(load_bundled(name))
        probes = jet_probes(ct)
        pairs = len(third_layout(ct.n)[0])
        read = {int(k) for k in re.findall(r"d3\[(\d+)\]", ct._jet_kernel.source)}
        real, first = ct._f_third, ct.resolve(probes[0]).args
        values = real(first)
        k = max(sorted(read - set(range(pairs))), key=lambda k: abs(values[k]))
        assert values[k] != 0.0

        def perturbed(args):
            third = list(real(args))
            third[k] += 1e-6
            return third

        ct._f_third = perturbed
        assert jet_difference_defect(ct, probes) > self.TOL


LAZY_SLOTS = ("V", "B", "H", "W", "dV_dq", "dV_dp", "dB_dq", "dB_dp", "dH_dq", "dH_dp",
              "F", "DH")


def hexes(value):
    return [float(x).hex() for x in np.ravel(value)]


def eager_slots(ct, pt):
    """Every slot of ct.resolve(pt), built at once by the formulas of the
    eager Resolution: V, B and H (summed left to right by numerics.dot, as
    the stage kernel sums it), then one block-kernel call reshaped."""
    n, r = ct.n, ct.r
    _, v, core = ct._resolve_args(pt.q.tolist(), pt.p.tolist(), pt.v_deg.tolist(), [0.0] * r)
    V = np.array(v)
    B = np.array([core[i] for i in ct._b_pos])
    out = block_kernel(n, ct._reg)(core, V.tolist(), pt.v_deg.tolist())
    shapes = ((r, n), (r, r), (n - r, n), (n - r, r), n, r, (n - r, n - r), n - r)
    slots = dict(zip(("dV_dq", "dV_dp", "dB_dq", "dB_dp", "dH_dq", "dH_dp", "F", "DH"),
                     (np.array(flat).reshape(shape) for flat, shape in zip(out, shapes))))
    slots.update(V=V, B=B, H=dot(pt.p.tolist() + B.tolist(), v + pt.v_deg.tolist()) - core[0],
                 W=np.array(core[ct.core_slices["W"]]).reshape(n, n))
    return slots


def hexed(resolved):
    return [list(map(float.hex, part)) for part in resolved]


def outcome(resolve, *args):
    """A resolve's floats in hex, or its error's type and text."""
    try:
        return hexed(resolve(*args))
    except NewtonError as exc:
        return type(exc).__name__, str(exc)


def counted(monkeypatch, ct):
    """Count ct's core calls, the full steps of the resolve kernel (its core
    calls after the first), the fallbacks and their residual calls; a
    Jacobian may make no core call."""
    log = {"core": 0, "steps": 0, "fallbacks": 0, "residuals": 0, "jacobians": 0}
    core = ct._f_core
    real_pair, kernel = transform_module.newton_pair, ct._resolve_kernel
    real_newton = transform_module.newton_with_restarts

    def f_core(args):
        log["core"] += 1
        return core(args)

    def newton_pair(*args):
        residual, jacobian, last = real_pair(*args)

        def jac(x):
            before = log["core"]
            out = jacobian(x)
            assert log["core"] == before
            return out

        return residual, jac, last

    def resolve_kernel(*args):
        before = log["core"]
        try:
            return kernel(*args)
        finally:
            log["steps"] += log["core"] - before - 1

    def newton_with_restarts(residual, jacobian, x0, cfg):
        log["fallbacks"] += 1

        def counted_residual(x):
            log["residuals"] += 1
            return residual(x)

        def counted_jacobian(x):
            log["jacobians"] += 1
            return jacobian(x)

        return real_newton(counted_residual, counted_jacobian, x0, cfg)

    monkeypatch.setattr(ct, "_f_core", f_core)
    monkeypatch.setattr(transform_module, "newton_pair", newton_pair)
    monkeypatch.setattr(ct, "_resolve_kernel", resolve_kernel)
    monkeypatch.setattr(transform_module, "newton_with_restarts", newton_with_restarts)
    return log


class TestOneResolvePath:
    """Every resolve takes full Newton steps while the residual norm falls,
    which are damped Newton's own iterates, and reruns newton_with_restarts
    from the same start otherwise: the floats are damped Newton's."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_same_floats_as_reference(self, name):
        ct = transform(name)
        for pt in phase_probes(ct):
            q, p, vd = pt.q.tolist(), pt.p.tolist(), pt.v_deg.tolist()
            for x0 in ([0.0] * ct.r, [0.3] * ct.r):
                assert outcome(ct._resolve_args, q, p, vd, x0) == \
                    outcome(reference_resolve, ct, q, p, vd, x0)

    @pytest.mark.parametrize("name, most_steps", [("christ_lee", 2), ("particle", 1)])
    def test_large_momenta_same_floats_as_reference(self, name, most_steps, monkeypatch):
        # momenta of order 1e4: on christ_lee some first steps land a few
        # ulps above the 1e-12 tolerance, and the second must be kept or
        # refused as damped Newton would; particle has no root there and
        # must fail with the reference's error
        ct = transform(name)
        log = counted(monkeypatch, ct)
        steps = []
        for pt in phase_probes(ct):
            q, p, vd = pt.q.tolist(), (pt.p * 1e4).tolist(), pt.v_deg.tolist()
            for x0 in ([0.0] * ct.r, [0.3] * ct.r):
                log["steps"] = 0
                got = outcome(ct._resolve_args, q, p, vd, x0)
                steps.append(log["steps"])
                assert got == outcome(reference_resolve, ct, q, p, vd, x0)
        assert max(steps) == most_steps

    @pytest.mark.parametrize("name", ["christ_lee", "cawley", "synthetic_gaugeless",
                                      "particle", "exponential"])
    def test_warm_resolve_full_steps_no_fallback(self, name, monkeypatch):
        # regular sectors linear in V (the first three) and not alike: one
        # core call at the start and one per full step
        ct = transform(name)
        pt = phase_probes(ct)[0]
        start = ct.resolve(pt).V
        moved = ct.point(pt.q, pt.p + 0.05, pt.v_deg)
        log = counted(monkeypatch, ct)
        warm = ct.resolve(moved, v_init=start)
        warm.F
        assert log["steps"] >= 1 and not log["fallbacks"]
        assert log["core"] == log["steps"] + 1
        assert warm._core == ct._f_core(warm.args)
        lv = np.array(warm._core[ct.core_slices["L_v"]])
        assert np.max(np.abs(lv[ct.reg_idx] - moved.p)) <= ct.newton.tol
        want = reference_resolve(ct, moved.q.tolist(), moved.p.tolist(),
                                 moved.v_deg.tolist(), start.tolist())
        assert hexed((warm.args, warm.V.tolist(), warm._core)) == hexed(want)
        # started at the root: the start's call is the last one
        log.update(core=0, steps=0)
        again = ct.resolve(ct.point(moved.q, moved.p, moved.v_deg), v_init=warm.V)
        assert log["core"] == 1 and not log["steps"] and not log["fallbacks"]
        assert again.V.tolist() == warm.V.tolist() and again._core == warm._core

    @pytest.mark.parametrize("name, q, p, v_deg", [
        ("particle", {"x0": 0.0, "x": 0.1, "y": 0.2, "z": 0.3}, {"x": 10.0}, {"x0": 1.0}),
        ("exponential", [0.2], [0.5], None),
    ])
    def test_cold_resolve_falls_back_once(self, name, q, p, v_deg, monkeypatch):
        # a full step that does not lower the norm hands over to damped
        # Newton, which evaluates the core once per residual, none per
        # Jacobian, and ends on a call at its root
        ct = transform(name)
        pt = ct.point(q, p, v_deg)
        want = reference_resolve(ct, pt.q.tolist(), pt.p.tolist(), pt.v_deg.tolist(),
                                 [0.0] * ct.r)
        log = counted(monkeypatch, ct)
        res = ct.resolve(pt)
        res.F
        assert log["fallbacks"] == 1 and log["jacobians"] >= 1
        assert log["core"] == 1 + log["steps"] + log["residuals"]
        assert hexed((res.args, res.V.tolist(), res._core)) == hexed(want)
        lv = np.array(res._core[ct.core_slices["L_v"]])
        assert np.max(np.abs(lv[ct.reg_idx] - pt.p)) <= ct.newton.tol

    def test_non_finite_step_falls_back(self, monkeypatch):
        # a core whose W_rr is subnormal at the start sends the full step to
        # inf, where this fake L_v meets p; damped Newton refuses such a step
        ct = transform("oscillator")
        core = ct._f_core
        w = ct.core_slices["W"].start

        def f_core(args):
            if math.isinf(args[1]):
                return core([args[0], 1.0])
            vals = list(core(args))
            if args[1] == 0.0:
                vals[w] = 1e-320
            return tuple(vals)

        monkeypatch.setattr(ct, "_f_core", f_core)
        q, p = [0.0], [1.0]
        want = reference_resolve(ct, q, p, [], [0.0])
        assert abs(want[1][0] - 1.0) <= ct.newton.tol  # from a restart
        assert hexed(ct._resolve_args(q, p, [], [0.0])) == hexed(want)

    @pytest.mark.parametrize("name, lagrangian, q, p, error", [
        ("exponential", None, 0.2, -3.0, "singular jacobian"),  # x exp(v) = p < 0: no root
        ("inline", "x^2*d(x)^2/2 - x^2/2", 0.0, 1.0, "singular jacobian"),  # W_rr = x^2 = 0
        ("inline", "d(x)^2/2 - log(x)", -1.0, 1.0, "math domain error"),  # L at x < 0
    ])
    def test_failures_as_reference(self, name, lagrangian, q, p, error):
        model = (load_bundled(name) if lagrangian is None
                 else parse_model(f"coord x; lagrangian = {lagrangian};", name=name))
        ct = ClairautTransform(model)
        with pytest.raises(NewtonError, match=error) as got:
            ct.resolve(ct.point([q], [p]))
        with pytest.raises(NewtonError) as want:
            reference_resolve(ct, [q], [p], [], [0.0])
        assert str(got.value) == str(want.value)
