"""Extra-time Hamiltonians, the G matrix, and its cross-identities."""

import math
from functools import lru_cache

import numpy as np
import pytest

from clairaut import ClairautTransform, ModelError, load_bundled, parse_model
from clairaut import manytime
from clairaut.dynamics import d_alpha_h
from clairaut.gauge import FiniteDifferenceObservable, field_strength, phase_probes
from clairaut.manytime import (
    ManyTimeSystem,
    g_matrix,
    integrability_report,
    map_to_manytime,
)

ALL_FIXTURES = (
    "oscillator",
    "exponential",
    "mixed",
    "cawley",
    "particle",
    "christ_lee",
    "synthetic_gaugeless",
    "synthetic_coupled",
    "synthetic_bianchi",
    "synthetic_gauge",
)


@lru_cache(maxsize=None)
def transform(name):
    return ClairautTransform(load_bundled(name))


@lru_cache(maxsize=None)
def system(name):
    return map_to_manytime(transform(name))


class TestMapping:
    @pytest.mark.parametrize("name, m", [
        ("oscillator", 1),
        ("cawley", 2),
        ("mixed", 2),
        ("particle", 2),
        ("synthetic_coupled", 3),
        ("christ_lee", 4),
        ("synthetic_bianchi", 4),
    ])
    def test_time_count(self, name, m):
        mts = system(name)
        assert mts.m == m
        assert len(mts.hamiltonians) == m

    def test_time_labels(self):
        assert system("cawley").times == ("t", "z")
        assert system("mixed").times == ("t", "y")
        assert system("oscillator").times == ("t",)

    def test_cawley_hamiltonians(self):
        ct = transform("cawley")
        pt = ct.point([1.0, 1.4, 0.3], [0.5, 2.0])
        vals = system("cawley").hamiltonian_values(pt)
        # H_0 = p_x p_y - z y^2/2, H_z = -B_z = 0
        assert vals == pytest.approx([0.5 * 2.0 - 0.3 * 0.98, 0.0], abs=1e-12)

    def test_particle_extra_time_hamiltonian_is_the_energy(self):
        ct = transform("particle")
        pt = ct.point([0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0], [1.0])
        vals = system("particle").hamiltonian_values(pt)
        assert abs(vals[0]) < 1e-9
        assert vals[1] == pytest.approx(np.sqrt(50.0), abs=1e-9)

    def test_mixed_extra_time_hamiltonian(self):
        ct = transform("mixed")
        pt = ct.point([0.2, 1.0], [0.5])
        assert system("mixed").hamiltonian_values(pt)[1] == pytest.approx(-0.2, abs=1e-12)

    def test_christ_lee_extra_hamiltonians_vanish(self):
        ct = transform("christ_lee")
        pt = phase_probes(ct)[0]
        vals = system("christ_lee").hamiltonian_values(pt)
        assert np.max(np.abs(vals[1:])) < 1e-12


class TestGMatrix:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_exactly_antisymmetric(self, name):
        mts = system(name)
        for pt in phase_probes(mts.ct)[:4]:
            g = g_matrix(mts, pt)
            assert np.all(g + g.T == 0.0)

    def test_cawley_first_row(self):
        ct = transform("cawley")
        pt = ct.point([1.0, 1.4, 0.3], [0.5, 2.0])
        g = g_matrix(system("cawley"), pt)
        assert g[0, 1] == pytest.approx(-0.98, abs=1e-12)
        assert g[1, 0] == pytest.approx(0.98, abs=1e-12)

    def test_christ_lee_first_row_is_the_constraint_vector(self):
        ct = transform("christ_lee")
        pt = ct.point({"x1": 1.0, "x2": 1.0, "x3": 0.0,
                       "y1": 0.3, "y2": -0.2, "y3": 0.5},
                      {"x1": 0.0, "x2": 1.0, "x3": 1.0})
        g = g_matrix(system("christ_lee"), pt)
        # dH/dy_alpha = (p x x)_alpha; the degenerate block vanishes
        p = np.array([0.0, 1.0, 1.0])
        x = np.array([1.0, 1.0, 0.0])
        assert np.max(np.abs(g[0, 1:] - np.cross(p, x))) < 1e-10
        assert np.max(np.abs(g[1:, 1:])) < 1e-12

    def test_mixed_first_row_value(self):
        ct = transform("mixed")
        pt = ct.point([0.2, 1.0], [0.5])
        g = g_matrix(system("mixed"), pt)
        assert g[0, 1] == pytest.approx(0.375, abs=1e-10)

    def test_particle_g_vanishes(self):
        ct = transform("particle")
        for pt in phase_probes(ct)[:5]:
            assert np.max(np.abs(g_matrix(system("particle"), pt))) < 1e-9

    def test_nondegenerate_g_is_scalar_zero(self):
        ct = transform("oscillator")
        g = g_matrix(system("oscillator"), ct.point([1.0], [0.5]))
        assert g.shape == (1, 1)
        assert g[0, 0] == 0.0

    def test_fully_degenerate_model(self):
        model = parse_model("coord x, y; lagrangian = x*d(y) - x^2/2;")
        mts = map_to_manytime(ClairautTransform(model))
        pt = mts.ct.point([0.7, 0.1])
        g = g_matrix(mts, pt)
        assert mts.times == ("t", "x", "y")
        # first row is dH/dq = (x, 0); the degenerate block is the curl of B
        assert g[0, 1] == pytest.approx(0.7, abs=1e-12)
        assert g[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert g[1, 2] == pytest.approx(1.0, abs=1e-12)


class TestCrossIdentities:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_g_blocks_match_field_strength_and_long_derivative(self, name):
        mts = system(name)
        rep = integrability_report(mts)
        assert rep.n_points == 17
        assert rep.f_defect <= 1e-9
        assert rep.dh_defect <= 1e-9

    @pytest.mark.parametrize("name", ["mixed", "synthetic_coupled", "synthetic_bianchi"])
    def test_finite_difference_oracle(self, name):
        # rebuild G from nothing but the H_mu value functions
        mts = system(name)
        ct = mts.ct
        pt = phase_probes(ct)[1]
        fds = [FiniteDifferenceObservable(h.value, ct, 1e-5)
               for h in mts.hamiltonians]
        gq = [o.d_dq(pt) for o in fds]
        gp = [o.d_dp(pt) for o in fds]
        m = mts.m
        fd = np.zeros((m, m))
        for mu in range(m):
            for nu in range(m):
                if mu == nu:
                    continue
                fd[mu, nu] = (gq[mu][ct.deg_idx[nu - 1]] if nu else 0.0) \
                    - (gq[nu][ct.deg_idx[mu - 1]] if mu else 0.0) \
                    + gq[mu][ct.reg_idx] @ gp[nu] - gq[nu][ct.reg_idx] @ gp[mu]
        assert np.max(np.abs(fd - g_matrix(mts, pt))) < 1e-7


class TestIntegrabilityReport:
    def test_nan_on_the_second_probe_is_nan(self, monkeypatch):
        mts = system("synthetic_gaugeless")
        probes = phase_probes(mts.ct)[:3]
        real = manytime.field_strength
        monkeypatch.setattr(manytime, "field_strength", lambda ct, pt: (
            real(ct, pt) * math.nan if pt is probes[1] else real(ct, pt)))
        rep = integrability_report(mts, probes)
        assert math.isnan(rep.f_defect)
        assert rep.dh_defect <= 1e-9

    def test_particle_is_integrable(self):
        rep = integrability_report(system("particle"))
        assert rep.integrable
        assert rep.max_g <= 1e-9

    def test_cawley_is_not_integrable_off_the_surface(self):
        ct = transform("cawley")
        pt = ct.point([1.0, 1.4, 0.3], [0.5, 2.0])
        rep = integrability_report(system("cawley"), probes=[pt])
        assert not rep.integrable
        assert rep.max_g == pytest.approx(0.98, abs=1e-12)
        assert rep.n_points == 1

    def test_nondegenerate_report_is_trivial(self):
        rep = integrability_report(system("oscillator"))
        assert rep.max_g == 0.0
        assert rep.f_defect == 0.0
        assert rep.dh_defect == 0.0

    def test_empty_probes_rejected(self):
        with pytest.raises(ModelError, match="at least one probe"):
            integrability_report(system("mixed"), probes=[])

    def test_system_is_frozen(self):
        mts = system("mixed")
        assert isinstance(mts, ManyTimeSystem)
        with pytest.raises(AttributeError):
            mts.times = ()
