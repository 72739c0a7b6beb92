"""Two routes, one value: each float core that verify reads gives, bit for
bit, the values of the public function that wraps it in an array, on all
ten bundled models at the seed-42 phase probes; and the float convexity
gate (transform._not_convex) decides as numpy's eigvalsh does at the phase
probes of seeds 42 and 100-129 and on seeded matrices of known spectrum."""

import re
from functools import lru_cache

import numpy as np
import pytest

from clairaut import ClairautTransform, IntegrabilityError, load_bundled
from clairaut import verify
from clairaut.dynamics import (IntegratorConfig, _integrate, _sector_velocities,
                               degenerate_velocities, gauge_input, integrate)
from clairaut.fixtures import BUNDLED
from clairaut.gauge import (FiniteDifferenceObservable, _field_strength, _maxwell_current, classify,
                            field_strength, maxwell_current, phase_probes)
from clairaut.manytime import _g, g_matrix, map_to_manytime
from clairaut.transform import _SHAPES, _not_convex
from conftest import eigvalsh_not_convex


@lru_cache(maxsize=None)
def transform(name):
    return ClairautTransform(load_bundled(name))


@lru_cache(maxsize=None)
def probes(name, seed=42):
    return phase_probes(transform(name), seed=seed)


def same(array, floats, shape):
    """array is an ndarray of shape shape holding floats, bit for bit."""
    assert isinstance(array, np.ndarray) and array.shape == shape
    assert [x.hex() for x in array.ravel().tolist()] == [float(x).hex() for x in floats]


@pytest.mark.parametrize("name", BUNDLED)
class TestEachCoreIsItsArray:
    def test_resolution_slots(self, name):
        ct = transform(name)
        size = {"n": ct.n, "r": ct.r, "d": ct.n - ct.r, "m": ct.n + ct.r}
        for pt in probes(name):
            res = ct.resolve(pt)
            for slot, dims in _SHAPES.items():
                same(getattr(res, slot), res._flat(slot), tuple(size[c] for c in dims))

    def test_field_strength_and_maxwell_current(self, name):
        ct = transform(name)
        nd = ct.n - ct.r
        for pt in probes(name):
            same(field_strength(ct, pt), _field_strength(ct, pt), (nd, nd))
            same(maxwell_current(ct, pt), _maxwell_current(ct, pt), (nd,))

    def test_g_matrix_and_the_slot_gradients(self, name):
        ct = transform(name)
        mts = map_to_manytime(ct)
        for pt in probes(name):
            same(g_matrix(mts, pt), _g(mts, pt), (mts.m, mts.m))
            for h in mts.hamiltonians:  # H_phys, then -B_a
                dq, dp = h._gradient(pt)
                same(h.d_dq(pt), dq, (ct.n,))
                same(h.d_dp(pt), dp, (ct.r,))

    def test_degenerate_velocities(self, name):
        ct = transform(name)
        cls = classify(ct, probes=probes(name))
        for pt in probes(name):
            v, residual = degenerate_velocities(ct, pt, cls=cls)
            got, got_residual = _sector_velocities(ct, pt, None, cls, 0.0, None)
            same(v, got, (ct.n - ct.r,))
            assert residual.hex() == got_residual.hex()

    def test_finite_difference_jacobian(self, name):
        ct = transform(name)

        def h_and_b(pt):
            res = ct.resolve(pt)
            return [res.H, *res._flat("B")]

        fd = FiniteDifferenceObservable(h_and_b, ct, 1e-6)
        for pt in probes(name)[:3]:
            dq, dp = fd._jacobian(pt)
            same(fd.d_dq(pt), [x for row in dq for x in row], (ct.n - ct.r + 1, ct.n))
            same(fd.d_dp(pt), [x for row in dp for x in row], (ct.n - ct.r + 1, ct.r))

    def test_rk4_consistency_column(self, name):
        # verify's preservation run reads the column of the kernel's rows
        # that integrate's trajectory copies into its consistency array
        ct = transform(name)
        cls = classify(ct, probes=probes(name))
        ctx = verify._Context(ct, cls, probes(name), 42)
        gauge = None if ctx.zero_vdeg_ok else gauge_input(
            ct, cls, {c: 1.0 for c in ct.split.degenerate})
        cfg = IntegratorConfig(t1=0.05, dt=5e-3, consistency_tol=1e30)
        start = probes(name)[0]
        try:
            traj = integrate(ct, start, gauge, cfg, cls)
        except IntegrabilityError as exc:
            with pytest.raises(IntegrabilityError, match=f"^{re.escape(str(exc))}$"):
                _integrate(ct, start, gauge, cfg, cls, verify._consistency)
            return
        got = _integrate(ct, start, gauge, cfg, cls, verify._consistency)
        same(traj.consistency, got, (len(traj),))


def test_the_spread_is_numpys_ptp():
    # degenerate_sector_independence's fold: a nan anywhere makes it nan
    rng = np.random.default_rng(3)
    specials = (np.nan, np.inf, -np.inf, 0.0, -0.0)
    for _ in range(500):
        col = rng.normal(size=5)
        for at in rng.choice(5, size=rng.integers(0, 3), replace=False):
            col[at] = specials[rng.integers(len(specials))]
        with np.errstate(invalid="ignore"):
            want = np.ptp(col)
        assert float(verify._spread(col.tolist())).hex() == float(want).hex(), col


@pytest.mark.parametrize("seed", (42, *range(100, 130)))
def test_the_convexity_gate_at_the_probes(seed):
    # W is singular on the eight degenerate models and positive definite on
    # oscillator and exponential: the gate rejects and accepts
    decisions = set()
    for name in BUNDLED:
        ct = transform(name)
        for pt in probes(name, seed):
            w = ct.resolve(pt)._flat("W")
            decisions.add(_not_convex(w, ct.n))
            assert _not_convex(w, ct.n) == eigvalsh_not_convex(w, ct.n), (name, pt._q, pt._p)
    assert decisions == {True, False}


def test_the_convexity_gate_on_known_spectra():
    # Q diag(lam) Q^T, each least eigenvalue far from the threshold 1e-10
    # on either side of it, with noise above the diagonal, which neither
    # reads but for the threshold's largest |entry|
    rng = np.random.default_rng(7)
    seen = []
    for n in (1, 2, 3, 4):
        for least in (-1.0, -1e-3, 0.0, 1e-12, 1e-8, 1e-3, 1.0):
            for _ in range(20):
                q = np.linalg.qr(rng.normal(size=(n, n)))[0]
                lam = np.concatenate([[least], max(least, 0.0) + rng.uniform(1.0, 2.0, n - 1)])
                w = (q * lam) @ q.T
                w = (np.tril(w) + np.triu(rng.normal(size=(n, n)), 1)).ravel().tolist()
                seen.append(_not_convex(w, n))
                assert seen[-1] == eigvalsh_not_convex(w, n) == (least <= 1e-10), (n, least)
    assert True in seen and False in seen
