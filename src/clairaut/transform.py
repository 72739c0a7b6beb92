"""Mixed Legendre transform for a split Lagrangian.

Given a model and its velocity split, this module resolves the regular
velocities from their momenta (Newton on p_i = dL/dv^i), and evaluates

    B_alpha(q, p)  = dL/dv^alpha at the resolved point,
    H_phys(q, p)   = sum_i p_i V^i + sum_alpha B_alpha v^alpha - L,
    H_mix          = H_phys + sum_alpha (pbar_alpha - B_alpha) v^alpha,

together with their exact gradients.  H_phys and B are independent of the
degenerate velocities; the gradient formulas carry the correction terms that
make them exact at any admissible v^alpha, and reduce to the envelope
identities dH/dp_i = V^i, dH/dq = -dL/dq when all v^alpha vanish.

Every derivative block of L that a resolved point needs (L, L_v, L_q, the
velocity Hessian W = L_vv and L_vq) comes from the model's derivative core,
whose regular rows of L_v and W_rr give the resolve's residual and Jacobian
from one call per point.  A resolution keeps the call at the root and builds
each of its arrays on first read.  Every model resolves by full Newton steps
in a generated float kernel (numerics.resolve_kernel), with damped Newton and
restarts from the same start (newton_pair, newton_with_restarts) as the
fallback.  The implicit-function derivative block, F and D_a H come from one
call of a generated float kernel (numerics.block_kernel) that factors W_rr
once.  Every RK4 stage of dynamics.integrate resolves through the same
_resolve_args, then runs the sector solve in one generated kernel with the
same emitted block (numerics.stage_kernel).  clairaut_pde resolves the
envelope and mixed slopes of the Clairaut equation through _resolve_args
too, as the regular velocities of L = f(d(z)).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FenchelError, NewtonError
from .model import CORE_BLOCKS, split_variables
from .numerics import (NewtonConfig, _floats, block_kernel, damped_newton, dot, newton_pair,
                       newton_with_restarts, resolve_kernel)


@dataclass(frozen=True)
class PhasePoint:
    """State in mixed variables: all coordinates, regular momenta, and the
    degenerate velocities (free inputs, defaulting to zero), each a read-only
    float64 copy: resolve memoizes by point identity.  A point displaced from
    another by _replace copies its new fields and shares the other arrays."""

    q: np.ndarray
    p: np.ndarray
    v_deg: np.ndarray

    def __post_init__(self, names=("q", "p", "v_deg")):
        for name in names:
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _replace(self, **fields):
        new = object.__new__(PhasePoint)
        new.__dict__.update(self.__dict__, **fields)
        new.__post_init__(fields)
        return new


# numerics.block_kernel's outputs: name -> (index in its result, shape over n, r, d = n - r).
_KERNEL = {name: (k, dims) for k, (name, dims) in enumerate((
    ("dV_dq", "rn"), ("dV_dp", "rr"), ("dB_dq", "dn"), ("dB_dp", "dr"),
    ("dH_dq", "n"), ("dH_dp", "r"), ("F", "dd"), ("DH", "d")))}
_LAZY = ("V", "B", "H", "W") + tuple(_KERNEL)  # slots built on first read


class Resolution:
    """Everything the transform knows at one resolved phase point.

    Velocity resolution hands over the point, args, the regular velocities
    as floats (_v) and core, the derivative core's values there.  Every
    other slot is built from these on its first read and kept: V, B, H
    (numerics.dot over the pairs (p, V), then (B, v_deg), minus L: the stage
    kernel's sum, so the same float), W, and each of the derivative block,
    F and D_a H (DH) from the flat outputs (_W) of the one block-kernel call
    that _derivatives makes.  F and DH are shared, so read-only.  Threads
    may share a resolution: a race at worst builds a slot twice.
    """

    __slots__ = ("ct", "pt", "args", "L", "_v", "_core", "_W") + _LAZY

    def __init__(self, ct, pt, args, v, core):
        self.ct, self.pt, self.args, self._v, self._core = ct, pt, args, v, core
        self.L, self._W = core[0], None

    def __getattr__(self, name):  # a slot not yet set: build it, then keep it
        if name not in _LAZY:
            raise AttributeError(name)
        ct, core = self.ct, self._core
        if name == "V":
            value = np.array(self._v)
        elif name == "B":
            value = np.array([core[i] for i in ct._b_pos])
        elif name == "H":
            pt = self.pt
            value = dot(pt.p.tolist() + self.B.tolist(), self._v + pt.v_deg.tolist()) - self.L
        elif name == "W":
            value = np.array(core[ct.core_slices["W"]]).reshape(ct.n, ct.n)
        else:
            if self._W is None:
                self._derivatives()
            k, dims = _KERNEL[name]
            size = {"n": ct.n, "r": ct.r, "d": ct.n - ct.r}
            value = np.array(self._W[k]).reshape([size[c] for c in dims])
            if name in ("F", "DH"):
                value.flags.writeable = False
        setattr(self, name, value)
        return value

    def _derivatives(self):  # only from __getattr__, while _W is None
        ct = self.ct
        self._W = block_kernel(ct.n, ct._reg)(self._core, self._v, self.pt.v_deg.tolist())


class ClairautTransform:
    """Compiled mixed-transform evaluators for one model and split.

    The derivative core is the model's: core_exprs, core_slices and _f_core
    are its blocks, their positions in the flat tuple (L, L_v[n], L_q[n],
    W[n*n], L_vq[n*n]) and its compiled evaluator.  Threads may share a
    transform: the resolve memo _last is one (point, resolution) tuple,
    replaced whole and matched by point identity.
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
        self._reg = tuple(self.reg_idx.tolist())  # the generated kernels' layout key

        core = model.core
        self.arg_names = core.arg_names
        self.core_exprs = core.exprs
        self.core_slices = core.slices
        self._f_core = core.fn
        lv, w = core.slices["L_v"].start, core.slices["W"].start
        self._b_pos = [lv + int(a) for a in self.deg_idx]
        self._lv_reg = [lv + i for i in self._reg]  # Newton's residual rows
        self._w_rr = [w + i * self.n + j for i in self._reg for j in self._reg]  # Jacobian
        self._reg_at = [self.n + i for i in self._reg]
        self._deg_at = [self.n + int(a) for a in self.deg_idx]
        self._resolve_kernel = resolve_kernel(self.n, self._reg)
        self._last = None

    # ------------------------------------------------------------ points

    def point(self, q, p=None, v_deg=None):
        """Build a PhasePoint from arrays or name-keyed dicts."""
        if isinstance(q, dict):
            q = [q.get(c, 0.0) for c in self.model.coords]
        if p is None:
            p = np.zeros(self.r)
        elif isinstance(p, dict):
            p = [p.get(c, 0.0) for c in self.split.regular]
        if v_deg is None:
            v_deg = np.zeros(len(self.deg_idx))
        elif isinstance(v_deg, dict):
            v_deg = [v_deg.get(c, 0.0) for c in self.split.degenerate]
        return PhasePoint(q=q, p=p, v_deg=v_deg)

    # ---------------------------------------------------------- resolution

    def resolve(self, pt, v_init=None):
        """Newton-resolve the regular velocities; returns a Resolution.

        Full Newton steps from v_init (or zeros), damped Newton if one fails.
        The most recent resolution is memoized by point identity, so helpers
        that interrogate the same PhasePoint object repeatedly (brackets,
        long derivatives) pay for one Newton solve.
        """
        cached = self._last
        if cached is not None and cached[0] is pt and v_init is None:
            return cached[1]
        x0 = [0.0] * self.r if v_init is None else list(_floats(v_init))
        res = Resolution(self, pt, *self._resolve_args(pt.q.tolist(), pt.p.tolist(),
                                                       pt.v_deg.tolist(), x0))
        self._last = (pt, res)
        return res

    def _args(self, q, v_deg):
        """Evaluator arguments at (q, 0, v_deg): coordinates, then velocities."""
        args = q + [0.0] * self.n
        for at, val in zip(self._deg_at, v_deg):
            args[at] = val
        return args

    def _resolve_args(self, q, p, v_deg, x0):
        """(args, V, core): the evaluator arguments at (q, V, v_deg), with V
        solving p_i = dL/dv^i, and the core there (the last core call).
        Full Newton steps from the float list x0 in the generated resolve
        kernel, damped Newton from the same start where they give up: the
        one place that chooses between them, for resolve, every RK4 stage
        of dynamics.integrate and the slopes of the pde families."""
        return (self._resolve_kernel(self._f_core, self.newton, q, v_deg, x0, p)
                or self._damped_resolve(q, p, v_deg, x0))

    def _damped_resolve(self, q, p, v_deg, x0):
        """_resolve_args by newton_with_restarts from the list x0 alone."""
        args = self._args(q, v_deg)
        residual, jacobian, last = newton_pair(self._f_core, args, self._reg_at,
                                               self._lv_reg, self._w_rr, p)
        newton_with_restarts(residual, jacobian, x0, self.newton)
        return args, last[0], last[1]  # its last call is at its root

    def start_in_domain(self, pt):
        """Whether the derivative core is defined where resolve(pt) starts
        without v_init: the regular velocities 0, the point's v_deg."""
        try:
            self._f_core(self._args(pt.q.tolist(), pt.v_deg.tolist()))
        except DomainError:
            return False
        return True

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
        return res.H + dot(np.asarray(pbar_deg, dtype=float) - res.B, pt.v_deg)

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
        pt = self.point(q, pbar[self.reg_idx], v_deg)
        res = self.resolve(pt)
        grad = np.empty(self.n)
        grad[self.reg_idx] = res.V
        grad[self.deg_idx] = pt.v_deg
        if h_value is None:
            h = self.h_mix(pt, pbar[self.deg_idx])
        else:
            h = float(h_value(q, pbar))
        return abs(h - dot(pbar, grad) + res.L)

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


def fenchel_conjugate(model, q, p, box=2.0, grid=5):
    """sup_v (p . v - L) by multi-start Newton (default NewtonConfig); test
    oracle for convex models.

    Requires L strictly convex in the velocities near the maximizer, i.e. the
    least eigenvalue of the velocity Hessian there above 1e-10 times its
    largest |entry| (or 1); candidate stationary points failing that check
    are discarded.  L, L_v and W come from model.core.
    """
    n = model.n
    core = model.core
    lv, w = core.slices["L_v"], core.slices["W"]
    p = np.asarray(p, dtype=float)
    args = np.asarray(q, dtype=float).tolist() + [0.0] * n
    residual, jacobian, last = newton_pair(core.fn, args, range(n, 2 * n),
                                           range(lv.start, lv.stop), range(w.start, w.stop),
                                           p.tolist())

    axes = [np.linspace(-box, box, grid)] * n
    starts = [np.array(combo) for combo in itertools.product(*axes)]
    best = None
    for start in starts:
        try:
            v = damped_newton(residual, jacobian, start, NewtonConfig())
        except (NewtonError, DomainError):
            continue
        hess = np.reshape(jacobian(last[0]), (n, n))  # at v, from Newton's last call
        scale = max(1.0, float(np.max(np.abs(hess))))
        if np.min(np.linalg.eigvalsh(hess)) <= 1e-10 * scale:
            continue  # not a strict local maximum of p.v - L
        value = dot(p, v) - last[1][0]
        if best is None or value > best:
            best = value
    if best is None:
        raise FenchelError("no local maximum of p.v - L found in the search box")
    return best
