"""Many-time reformulation of the degenerate sector.

A model with n coordinates and Hessian rank r can be read as a system
with m = n - r + 1 evolution parameters: the physical time t and the
degenerate coordinates, promoted to extra times t^alpha = q^alpha.
Each time carries its own Hamiltonian,

    H_0     = H_phys,
    H_alpha = -B_alpha,

and the commutator of two time translations is measured by the
antisymmetric matrix

    G_mu_nu = dH_mu/dt^nu - dH_nu/dt^mu + {H_mu, H_nu}_phys,

with the bracket taken over the regular pairs.  Evolution in all times
simultaneously is consistent exactly when G vanishes; the degenerate
block of G reproduces the field strength and the first row reproduces
the long derivative of H_phys, which is what integrability_report
checks.
"""

from dataclasses import dataclass

from .dynamics import d_alpha_h
from .errors import ModelError
from .gauge import BObservable, _poisson, field_strength, phase_probes
from .numerics import _max_abs


class _Negated:
    """Observable wrapper flipping the sign of value and gradients."""

    __slots__ = ("_base",)

    def __init__(self, base):
        self._base = base

    def value(self, pt):
        return -self._base.value(pt)

    def d_dq(self, pt):
        return -self._base.d_dq(pt)

    def d_dp(self, pt):
        return -self._base.d_dp(pt)


@dataclass(frozen=True)
class ManyTimeSystem:
    """Bundle of time labels and their Hamiltonian observables.

    times[0] is the physical time label "t"; times[1:] are the names of
    the degenerate coordinates in split order.  hamiltonians aligns with
    times and each entry exposes value / d_dq / d_dp at a phase point.
    """

    ct: object
    times: tuple
    hamiltonians: tuple

    @property
    def m(self):
        return len(self.times)

    def hamiltonian_values(self, pt):
        import numpy as np
        return np.array([h.value(pt) for h in self.hamiltonians])


def map_to_manytime(ct):
    """Build the many-time system for a transform.

    Nondegenerate models come out with m = 1: the single time t with
    H_0 = H_phys and nothing else.
    """
    coords = ct.model.coords
    times = ("t",) + tuple(coords[a] for a in ct.deg_idx)
    hams = (ct.hamiltonian_observable(),)
    hams += tuple(_Negated(BObservable(ct, k)) for k in range(len(ct.deg_idx)))
    return ManyTimeSystem(ct=ct, times=times, hamiltonians=hams)


def g_matrix(mts, pt):
    """Evaluate G_mu_nu at a phase point.  Exactly antisymmetric."""
    import numpy as np
    ct = mts.ct
    deg = ct.deg_idx
    m = mts.m
    gq = [h.d_dq(pt) for h in mts.hamiltonians]
    gp = [h.d_dp(pt) for h in mts.hamiltonians]

    # explicit partials dH_mu/dt^nu: column 0 is the physical time and
    # nothing depends on it explicitly; column 1+b is the degenerate
    # coordinate promoted to a time
    e = np.zeros((m, m))
    for mu in range(m):
        for nu in range(1, m):
            e[mu, nu] = gq[mu][deg[nu - 1]]

    pb = np.zeros((m, m))
    for mu in range(m):
        for nu in range(mu + 1, m):
            pb[mu, nu] = _poisson(ct, gq[mu], gp[mu], gq[nu], gp[nu])
            pb[nu, mu] = -pb[mu, nu]
    return (e - e.T) + pb


@dataclass(frozen=True)
class IntegrabilityReport:
    """Worst-case G magnitudes and cross-identity defects over probes.

    max_g is informational: zero means evolution in all times commutes.
    f_defect and dh_defect compare the degenerate block of G with the
    field strength and the first row with D_alpha H_phys; both are
    structural identities and should sit at rounding level.
    """

    max_g: float
    f_defect: float
    dh_defect: float
    n_points: int

    @property
    def integrable(self):
        return self.max_g <= 1e-9


def integrability_report(mts, probes=None):
    ct = mts.ct
    if probes is None:
        probes = phase_probes(ct)
    if not probes:
        raise ModelError("integrability_report needs at least one probe")
    g_entries, f_defects, dh_defects = [], [], []
    for pt in probes:
        g = g_matrix(mts, pt)
        g_entries.extend(g.flat)
        f_defects.extend((g[1:, 1:] - field_strength(ct, pt)).flat)
        dh_defects.extend((g[0, 1:] - d_alpha_h(ct, ct.resolve(pt))).flat)
    return IntegrabilityReport(max_g=float(_max_abs(g_entries)),
                               f_defect=float(_max_abs(f_defects)),
                               dh_defect=float(_max_abs(dh_defects)), n_points=len(probes))
