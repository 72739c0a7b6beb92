"""Many-time reformulation of the degenerate sector.

A model with n coordinates and Hessian rank r can be read as a system
with m = n - r + 1 evolution parameters: the physical time t and the
degenerate coordinates, promoted to extra times t^alpha = q^alpha.
Each time carries its own Hamiltonian,

    H_0     = H_phys,
    H_alpha = -B_alpha,

each a slot of the Resolution (transform._SlotObservable), B's with sign -1.0,
and the commutator of two time translations is measured by the
antisymmetric matrix

    G_mu_nu = dH_mu/dt^nu - dH_nu/dt^mu + {H_mu, H_nu}_phys,

with the bracket taken over the regular pairs by gauge._poisson, the
package's one canonical bracket.  Evolution in all times simultaneously
is consistent exactly when G vanishes.  G's degenerate block is the
field strength and its first row the long derivative of H_phys, which
integrability_report checks; over all n canonical pairs they are also
the constraint brackets {phi_a, phi_b} and -{phi_a, H_phys}, phi_a = p_a - B_a.G is assembled on floats (_g), which integrability_report reads; g_matrix
is their array.
"""

import operator
from dataclasses import dataclass

from .errors import ModelError
from .gauge import _field_strength, _poisson, phase_probes
from .numerics import _max_abs
from .transform import _SlotObservable


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
    hams = [_SlotObservable(ct, a, -1.0) for a in range(ct.n - ct.r)]  # H_a = -B_a
    return ManyTimeSystem(ct, ("t", *ct.split.degenerate), (ct.hamiltonian_observable(), *hams))


def g_matrix(mts, pt):
    """Evaluate G_mu_nu at a phase point, as an m x m array."""
    import numpy as np
    return np.array(_g(mts, pt)).reshape(mts.m, mts.m)


def _g(mts, pt):
    """G's entries as flat floats, row-major.  Exactly antisymmetric: each
    pair mu < nu is assembled once and (nu, mu) is its negation."""
    ct, deg, m = mts.ct, mts.ct._deg, mts.m
    gq, gp = zip(*(h._gradient(pt) if isinstance(h, _SlotObservable) else (h.d_dq(pt), h.d_dp(pt))
                   for h in mts.hamiltonians))
    g = [0.0] * (m * m)
    for mu in range(m):
        for nu in range(mu + 1, m):
            # e = dH_mu/dt^nu - dH_nu/dt^mu: nothing depends on the physical
            # time t^0 explicitly; t^b (b >= 1) is degenerate coordinate deg[b - 1]
            e = gq[mu][deg[nu - 1]] - (gq[nu][deg[mu - 1]] if mu else 0.0)
            g[mu * m + nu] = e + _poisson(ct, gq[mu], gp[mu], gq[nu], gp[nu])
            g[nu * m + mu] = -g[mu * m + nu]
    return g


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
    """IntegrabilityReport over probes (phase_probes(ct) if None), on G's
    floats (_g), F's (_field_strength) and D_a H's (Resolution._flat)."""
    ct = mts.ct
    if probes is None:
        probes = phase_probes(ct)
    if not probes:
        raise ModelError("integrability_report needs at least one probe")
    m, g_entries, f_defects, dh_defects = mts.m, [], [], []
    for pt in probes:
        g = _g(mts, pt)
        g_entries.extend(g)
        f = _field_strength(ct, pt)
        f_defects.extend(g[(1 + a) * m + 1 + b] - f[a * (m - 1) + b]
                         for a in range(m - 1) for b in range(m - 1))
        dh_defects.extend(map(operator.sub, g[1:m], ct.resolve(pt)._flat("DH")))
    return IntegrabilityReport(max_g=float(_max_abs(g_entries)),
                               f_defect=float(_max_abs(f_defects)),
                               dh_defect=float(_max_abs(dh_defects)), n_points=len(probes))
