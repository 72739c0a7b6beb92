"""Mixed Legendre transform for a split Lagrangian.

Given a model and its velocity split, this module resolves the regular
velocities from their momenta (damped Newton on p_i = dL/dv^i), and evaluates

    B_alpha(q, p)  = dL/dv^alpha at the resolved point,
    H_phys(q, p)   = sum_i p_i V^i + sum_alpha B_alpha v^alpha - L,
    H_mix          = H_phys + sum_alpha (pbar_alpha - B_alpha) v^alpha,

together with their exact gradients.  H_phys and B are independent of the
degenerate velocities; the gradient formulas carry the correction terms that
make them exact at any admissible v^alpha, and reduce to the envelope
identities dH/dp_i = V^i, dH/dq = -dL/dq when all v^alpha vanish.

Every derivative block of L that a resolved point needs (L, L_v, L_q, the
velocity Hessian W = L_vv and L_vq) comes from the model's derivative core,
so a resolution makes a single evaluator call.  Newton keeps two small
evaluators, compiled from the core's expressions, for the regular rows of
L_v and W.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FenchelError, NewtonError
from .expressions import compile_evaluator
from .model import CORE_BLOCKS, split_variables
from .numerics import NewtonConfig, damped_newton, newton_with_restarts


@dataclass(frozen=True)
class PhasePoint:
    """State in mixed variables: all coordinates, regular momenta, and the
    degenerate velocities (free inputs, defaulting to zero), each a read-only
    float64 copy: resolve memoizes by point identity."""

    q: np.ndarray
    p: np.ndarray
    v_deg: np.ndarray

    def __post_init__(self):
        for name in ("q", "p", "v_deg"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


class Resolution:
    """Everything the transform knows at one resolved phase point.

    Velocity resolution and one call of the transform's derivative core run
    eagerly; the derivative block (implicit-function solves) and the field
    strength are assembled from the core's values on first access.
    """

    __slots__ = ("ct", "pt", "args", "V", "B", "L", "H", "_core", "_F",
                 "_W", "_dV_dq", "_dV_dp", "_dB_dq", "_dB_dp", "_dH_dq", "_dH_dp")

    def __init__(self, ct, pt, args, V):
        self.ct = ct
        self.pt = pt
        self.args = args
        self.V = V
        core = self._core = ct._f_core(args)
        self.B = np.array([core[i] for i in ct._b_pos])
        self.L = core[0]
        self.H = float(pt.p @ V + self.B @ pt.v_deg - self.L)
        self._W = None
        self._F = None

    def _derivatives(self):
        if self._W is not None:
            return
        ct = self.ct
        n, r = ct.n, ct.r
        core = np.array(self._core)
        w = core[ct.core_slices["W"]].reshape(n, n)
        lvq = core[ct.core_slices["L_vq"]].reshape(n, n)
        lq = core[ct.core_slices["L_q"]]
        w_rr = w[ct._ix_rr]
        w_dr = w[ct._ix_dr]
        if r:
            solved = np.linalg.solve(w_rr, lvq[ct.reg_idx, :])  # (r, n)
            self._dV_dq = -solved
            self._dV_dp = np.linalg.inv(w_rr)
        else:
            solved = np.zeros((0, n))
            self._dV_dq = np.zeros((0, n))
            self._dV_dp = np.zeros((0, 0))
        self._dB_dq = lvq[ct.deg_idx, :] - w_dr @ solved
        self._dB_dp = w_dr @ self._dV_dp
        self._dH_dq = -lq + self.pt.v_deg @ self._dB_dq
        self._dH_dp = self.V + self.pt.v_deg @ self._dB_dp
        self._W = w

    @property
    def F(self):
        """Field strength F_ab, exactly antisymmetric: each term enters as
        (T - T^t).  Built once and shared, so it is read-only."""
        if self._F is None:
            self._derivatives()
            m = self._dB_dq[:, self.ct.deg_idx].T  # m[a, b] = dB_b / dq^a
            p = self._dB_dq[:, self.ct.reg_idx] @ self._dB_dp.T  # bracket building block
            f = (m - m.T) + (p - p.T)
            f.flags.writeable = False
            self._F = f
        return self._F

    @property
    def W(self):
        self._derivatives()
        return self._W

    @property
    def dV_dq(self):
        self._derivatives()
        return self._dV_dq

    @property
    def dV_dp(self):
        self._derivatives()
        return self._dV_dp

    @property
    def dB_dq(self):
        self._derivatives()
        return self._dB_dq

    @property
    def dB_dp(self):
        self._derivatives()
        return self._dB_dp

    @property
    def dH_dq(self):
        self._derivatives()
        return self._dH_dq

    @property
    def dH_dp(self):
        self._derivatives()
        return self._dH_dp


class ClairautTransform:
    """Compiled mixed-transform evaluators for one model and split.

    The derivative core is the model's: core_exprs, core_slices and _f_core
    are its blocks, their positions in the flat tuple (L, L_v[n], L_q[n],
    W[n*n], L_vq[n*n]) and its compiled evaluator.
    """

    CORE_BLOCKS = CORE_BLOCKS

    def __init__(self, model, split=None, newton=None, probes=None):
        self.model = model
        self.split = split if split is not None else split_variables(model, probes=probes)
        self.newton = newton if newton is not None else NewtonConfig()
        self.n = model.n
        self.r = self.split.r
        coords = model.coords
        self.reg_idx = np.array([coords.index(c) for c in self.split.regular], dtype=int)
        self.deg_idx = np.array([coords.index(c) for c in self.split.degenerate], dtype=int)

        core = model.core
        self.arg_names = core.arg_names
        self.core_exprs = core.exprs
        self.core_slices = core.slices
        self._f_core = core.fn
        self._b_pos = [self.core_slices["L_v"].start + a for a in self.deg_idx]
        self._ix_rr = np.ix_(self.reg_idx, self.reg_idx)
        self._ix_dr = np.ix_(self.deg_idx, self.reg_idx)
        lv, w = core.exprs["L_v"], core.w_rows
        self._f_Lv_reg = compile_evaluator([lv[i] for i in self.reg_idx], self.arg_names)
        self._f_W_rr = compile_evaluator(
            [w[i][j] for i in self.reg_idx for j in self.reg_idx], self.arg_names)
        self._last = None

    # ------------------------------------------------------------ points

    def point(self, q, p=None, v_deg=None):
        """Build a PhasePoint from arrays or name-keyed dicts."""
        coords = self.model.coords
        if isinstance(q, dict):
            q = [q.get(c, 0.0) for c in coords]
        q = np.asarray(q, dtype=float)
        if p is None:
            p = np.zeros(self.r)
        elif isinstance(p, dict):
            p = [p.get(c, 0.0) for c in self.split.regular]
        p = np.asarray(p, dtype=float)
        if v_deg is None:
            v_deg = np.zeros(len(self.deg_idx))
        elif isinstance(v_deg, dict):
            v_deg = [v_deg.get(c, 0.0) for c in self.split.degenerate]
        v_deg = np.asarray(v_deg, dtype=float)
        return PhasePoint(q=q, p=p, v_deg=v_deg)

    # ---------------------------------------------------------- resolution

    def resolve(self, pt, v_init=None):
        """Newton-resolve the regular velocities; returns a Resolution.

        The most recent resolution is memoized by point identity, so helpers
        that interrogate the same PhasePoint object repeatedly (brackets,
        long derivatives) pay for one Newton solve.
        """
        cached = self._last
        if cached is not None and cached[0] is pt and v_init is None:
            return cached[1]
        n = self.n
        args = pt.q.tolist() + [0.0] * n
        for a, val in zip(self.deg_idx, pt.v_deg):
            args[n + a] = float(val)
        if self.r == 0:
            res = Resolution(self, pt, args, np.zeros(0))
            self._last = (pt, res)
            return res
        p = pt.p
        reg = self.reg_idx

        def residual(x):
            for k, i in enumerate(reg):
                args[n + i] = x[k]
            vals = self._f_Lv_reg(args)
            return np.array(vals) - p

        def jacobian(x):
            for k, i in enumerate(reg):
                args[n + i] = x[k]
            return np.array(self._f_W_rr(args)).reshape(self.r, self.r)

        if v_init is not None:
            x0 = np.asarray(v_init, dtype=float)
        else:
            x0 = np.zeros(self.r)
        v = newton_with_restarts(residual, jacobian, x0, self.newton)
        for k, i in enumerate(reg):
            args[n + i] = v[k]
        res = Resolution(self, pt, args, v)
        self._last = (pt, res)
        return res

    # ------------------------------------------------------------- queries

    def resolve_regular_velocities(self, pt):
        """V^i(q, p, v_deg) solving p_i = dL/dv^i to the Newton tolerance."""
        return self.resolve(pt).V

    def b_values(self, pt):
        """Degenerate-sector momenta B_alpha; independent of pt.v_deg."""
        return self.resolve(pt).B

    def h_phys(self, pt):
        """Physical Hamiltonian; independent of pt.v_deg."""
        return self.resolve(pt).H

    def h_mix(self, pt, pbar_deg):
        """Mixed Hamiltonian at conjugate values pbar for the degenerate slots."""
        res = self.resolve(pt)
        pbar_deg = np.asarray(pbar_deg, dtype=float)
        return float(res.H + (pbar_deg - res.B) @ pt.v_deg)

    def grad_h_phys(self, pt):
        """(dH/dq over all coordinates, dH/dp over regular momenta)."""
        res = self.resolve(pt)
        return res.dH_dq.copy(), res.dH_dp.copy()

    def grad_b(self, pt):
        """(dB/dq, dB/dp): rows are degenerate directions in split order."""
        res = self.resolve(pt)
        return res.dB_dq.copy(), res.dB_dp.copy()

    def clairaut_residual(self, q, pbar, v_deg=None, h_value=None):
        """Defect of the conjugate-variable identity H = pbar . grad - L.

        pbar carries one slot per coordinate, in declaration order.  Regular
        slots use the envelope branch (gradient = resolved velocity), the
        degenerate ones the general branch (gradient = the free v^alpha).
        h_value, a callable (q, pbar) -> float, substitutes a candidate
        Hamiltonian for the transform's own, for use as a defect detector.
        """
        q = np.asarray(q, dtype=float)
        pbar = np.asarray(pbar, dtype=float)
        if v_deg is None:
            v_deg = np.zeros(len(self.deg_idx))
        pt = PhasePoint(q=q, p=pbar[self.reg_idx], v_deg=v_deg)
        res = self.resolve(pt)
        grad = np.empty(self.n)
        grad[self.reg_idx] = res.V
        grad[self.deg_idx] = pt.v_deg
        if h_value is None:
            h = res.H + float((pbar[self.deg_idx] - res.B) @ pt.v_deg)
        else:
            h = float(h_value(q, pbar))
        return abs(h - float(pbar @ grad) + res.L)

    def hamiltonian_observable(self):
        """H_phys wrapped with the Observable interface (value, d_dq, d_dp)."""
        return _HamiltonianObservable(self)


class _HamiltonianObservable:
    def __init__(self, ct):
        self.ct = ct

    def value(self, pt):
        return self.ct.h_phys(pt)

    def d_dq(self, pt):
        return self.ct.resolve(pt).dH_dq

    def d_dp(self, pt):
        return self.ct.resolve(pt).dH_dp


# ------------------------------------------------------- numeric conjugate


def fenchel_conjugate(model, q, p, box=2.0, grid=5, newton=None, pd_tol=1e-10):
    """sup_v (p . v - L) by multi-start Newton; test oracle for convex models.

    Requires L strictly convex in the velocities near the maximizer, i.e. the
    velocity Hessian positive definite there; candidate stationary points
    failing that check are discarded.  L, L_v and W come from model.core.
    """
    newton = newton or NewtonConfig()
    n = model.n
    core = model.core
    lv_at, w_at = core.slices["L_v"], core.slices["W"]
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    args = list(q) + [0.0] * n

    def residual(v):
        args[n:] = list(v)
        return np.array(core.fn(args)[lv_at]) - p

    def jacobian(v):
        args[n:] = list(v)
        return np.array(core.fn(args)[w_at]).reshape(n, n)

    axes = [np.linspace(-box, box, grid)] * n
    starts = [np.array(combo) for combo in itertools.product(*axes)]
    best = None
    for start in starts:
        try:
            v = damped_newton(residual, jacobian, start, newton)
            hess = jacobian(v)
            scale = max(1.0, float(np.max(np.abs(hess))))
            if np.min(np.linalg.eigvalsh(hess)) <= pd_tol * scale:
                continue  # not a strict local maximum of p.v - L
            args[n:] = list(v)
            value = float(p @ v - core.fn(args)[0])
        except (NewtonError, DomainError):
            continue
        if best is None or value > best:
            best = value
    if best is None:
        raise FenchelError("no local maximum of p.v - L found in the search box")
    return best
