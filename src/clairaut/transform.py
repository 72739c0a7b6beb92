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
from one call per point.  A PhasePoint keeps float tuples and a resolution
the call at the root; the package reads those floats, and both build their
arrays on first read.  resolve keeps its last resolution (_last) and that of
each point a caller hands it in _held (verify's probes, for one run), both
matched by point identity.  Every model resolves by full Newton steps
in a generated float kernel (numerics.resolve_kernel), with damped Newton and
restarts from the same start (newton_pair, newton_with_restarts) as the
fallback.  The implicit-function derivative block, F and D_a H come from one
call of a generated float kernel (numerics.block_kernel) that factors W_rr
once; the second-order jet (numerics.jet_kernel: second derivatives of V,
B and H, dF and the gradient of D_a H) differentiates that block once more,
on the model's third partials, derived the first time a jet is read.
Every RK4 stage of dynamics.integrate calls the kernel _stage keeps per
gauge plan (numerics.fused_stage: those full steps and that block, the
core inline); where its full steps give up, _damped_resolve finds the root
and the same kernel runs the stage there.  clairaut_pde resolves the envelope
and mixed slopes of the Clairaut equation through _resolve_args too, as the
regular velocities of L = f(d(z)).
"""

import itertools
from functools import cached_property
from numbers import Integral

from .errors import ArgumentError, DomainError, FenchelError, NewtonError
from .model import CORE_BLOCKS, _zeros, split_variables
from .numerics import (NewtonConfig, _floats, block_kernel, damped_newton, dot, fused_stage,
                       jet_kernel, newton_pair, newton_with_restarts, resolve_kernel)

def _array(values, dtype=float):
    """A read-only array copy of values."""
    import numpy as np
    value = np.array(values, dtype=dtype)
    value.flags.writeable = False
    return value


class PhasePoint:
    """State in mixed variables: all coordinates, regular momenta, and the
    degenerate velocities (free inputs, defaulting to zero) as tuples of
    floats (_q, _p, _v), which the package reads; q, p and v_deg are their
    read-only float64 copies, built on first read.  Frozen, as resolve
    memoizes by point identity; _replace shares the unchanged tuples."""

    def __init__(self, q, p, v_deg):
        self.__dict__.update(_q=_floats(q), _p=_floats(p), _v=_floats(v_deg))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: a PhasePoint is frozen")

    q = cached_property(lambda self: _array(self._q))
    p = cached_property(lambda self: _array(self._p))
    v_deg = cached_property(lambda self: _array(self._v))

    def _replace(self, q=None, p=None, v_deg=None):
        new = object.__new__(PhasePoint)
        for name, old, values in (("_q", self._q, q), ("_p", self._p, p), ("_v", self._v, v_deg)):
            new.__dict__[name] = old if values is None else _floats(values)
        return new


# each array slot's shape over n, r, d = n - r and m = n + r: V, B and W from
# the core, then numerics.block_kernel's outputs in the order of its result
# (_BLOCK), then numerics.jet_kernel's (_JET)
_SHAPES = {"V": "r", "B": "d", "W": "nn", "dV_dq": "rn", "dV_dp": "rr", "dB_dq": "dn",
           "dB_dp": "dr", "dH_dq": "n", "dH_dp": "r", "F": "dd", "DH": "d",
           "d2V": "rmm", "d2B": "dmm", "d2H": "mm", "dF": "ddm", "dDH": "dm"}
_BLOCK = tuple(_SHAPES)[3:11]
_JET = tuple(_SHAPES)[11:]
_LAZY = ("H",) + tuple(_SHAPES)  # slots built on first read


class Resolution:
    """Everything the transform knows at one resolved phase point.

    Velocity resolution hands over the point, args, the regular velocities
    as floats (_v) and core, the derivative core's values there.  Every
    other slot is built from these on its first read and kept: H
    (numerics.dot over the pairs (p, V), then (B, v_deg), minus L: the stage
    kernel's sum, so the same float), and arrays copying _flat's floats: V,
    B, W, the derivative block, F and D_a H (DH), and the second-order jet
    over z = (q, p): the Hessians d2V, d2B and d2H, dF = dF_ab/dz and dDH,
    the gradient of D_a H.  F and DH are shared, so read-only.  Threads may
    share a resolution: a race at worst builds a slot twice.
    """

    __slots__ = ("ct", "pt", "args", "L", "_v", "_core", "_W", "_J") + _LAZY

    def __init__(self, ct, pt, args, v, core):
        self.ct, self.pt, self.args, self._v, self._core = ct, pt, args, v, core
        self.L, self._W, self._J = core[0], None, None

    def __getattr__(self, name):  # a slot not yet set: build it, then keep it
        if name not in _LAZY:
            raise AttributeError(name)
        if name == "H":
            value = dot([*self.pt._p, *self._flat("B")], [*self._v, *self.pt._v]) - self.L
        else:
            import numpy as np
            n, r = self.ct.n, self.ct.r
            size = {"n": n, "r": r, "d": n - r, "m": n + r}
            value = np.array(self._flat(name)).reshape([size[c] for c in _SHAPES[name]])
            if name in ("F", "DH"):
                value.flags.writeable = False
        setattr(self, name, value)
        return value

    def _flat(self, name):
        """Slot name but H as a flat row-major sequence of floats, no numpy:
        the core's entries, the block kernel's output or the jet kernel's,
        each kernel called on the first read of one of its slots."""
        if name in ("V", "W"):
            return self._v if name == "V" else self._core[self.ct.core_slices["W"]]
        if name == "B":
            return [self._core[i] for i in self.ct._b_pos]
        if self._W is None:
            self._derivatives()
        if name in _JET:
            if self._J is None:
                ct = self.ct
                self._J = ct._jet_kernel(self._core, ct._f_third(self.args), self.pt._v,
                                         *self._W[:6])
            return self._J[_JET.index(name)]
        return self._W[_BLOCK.index(name)]

    def _derivatives(self):  # only from _flat, while _W is None
        self._W = block_kernel(self.ct.n, self.ct._reg)(self._core, self._v, self.pt._v)


class ClairautTransform:
    """Compiled mixed-transform evaluators for one model and split.

    The derivative core is the model's: core_exprs, core_slices and _f_core
    are its blocks, their positions in the flat tuple (L, L_v[n], L_q[n],
    W[n*n], L_vq[n*n]) and its compiled evaluator.  Threads may share a
    transform: resolve's memo is _last, one (point, resolution) tuple
    replaced whole, and _held, a table keyed by id of (point, resolution)
    tuples for the points a caller put in it with resolution None (verify's
    probes, for the length of one run), each filled by that point's first
    successful resolve without v_init and emptied by the caller.  Both match
    by point identity.
    """

    CORE_BLOCKS = CORE_BLOCKS

    def __init__(self, model, split=None, newton=None, probes=None):
        self.model = model
        self.split = split if split is not None else split_variables(model, probes=probes)
        self.newton = newton if newton is not None else NewtonConfig()
        self.n = model.n
        self.r = self.split.r
        coords = model.coords
        self._reg = tuple(coords.index(c) for c in self.split.regular)  # the kernels' layout key
        self._deg = tuple(coords.index(c) for c in self.split.degenerate)

        core = model.core
        self.arg_names = core.arg_names
        self.core_exprs = core.exprs
        self.core_slices = core.slices
        self._f_core = core.fn
        lv, w = core.slices["L_v"].start, core.slices["W"].start
        self._b_pos = [lv + a for a in self._deg]
        self._lv_reg = [lv + i for i in self._reg]  # Newton's residual rows
        self._w_rr = [w + i * self.n + j for i in self._reg for j in self._reg]  # Jacobian
        self._reg_at = [self.n + i for i in self._reg]
        self._deg_at = [self.n + a for a in self._deg]
        self._resolve_kernel = resolve_kernel(self.n, self._reg)
        self._last = None
        self._held = {}
        self._stages = {}  # _stage's kernels

    # _reg and _deg as int arrays, built on first read
    reg_idx = cached_property(lambda self: _array(self._reg, int))
    deg_idx = cached_property(lambda self: _array(self._deg, int))
    # the second-order jet's third partials, derived and compiled on first read
    _f_third = cached_property(lambda self: self.model.core.third[0])

    @cached_property
    def _jet_kernel(self):
        """numerics.jet_kernel for this split, leaving out the entries of the
        core and of the third partials that are exactly 0."""
        core = self.model.core
        flat = [e for block in core.exprs.values() for e in block]
        return jet_kernel(self.n, self._reg, _zeros(flat), core.third[1])

    # ------------------------------------------------------------ points

    def point(self, q, p=None, v_deg=None):
        """Build a PhasePoint from sequences, arrays or name-keyed dicts (0.0 for
        a name a dict leaves out, and for every name where p or v_deg is None);
        a key that names no coordinate of its kind is an ArgumentError."""
        split, parts = self.split, []
        for x, names, kind in ((q, self.model.coords, "coordinate"),
                               ({} if p is None else p, split.regular, "regular coordinate"),
                               ({} if v_deg is None else v_deg, split.degenerate,
                                "degenerate coordinate")):
            if isinstance(x, dict):
                if unknown := [key for key in x if key not in names]:
                    raise ArgumentError(f"unknown {kind} {', '.join(map(repr, unknown))}; "
                                        f"valid names: {', '.join(names) or 'none'}")
                x = [x.get(c, 0.0) for c in names]
            parts.append(x)
        return PhasePoint(*parts)

    # ---------------------------------------------------------- resolution

    def resolve(self, pt, v_init=None):
        """Newton-resolve the regular velocities; returns a Resolution.

        Full Newton steps from v_init (or zeros), damped Newton if one fails.
        The most recent resolution is memoized by point identity, so helpers
        that interrogate the same PhasePoint object repeatedly (brackets,
        long derivatives) pay for one Newton solve; so is that of each point
        in _held.  A call with v_init reads neither.
        """
        table = self._held
        if v_init is None:
            cached = self._last
            if cached is not None and cached[0] is pt:
                return cached[1]
            held = table.get(id(pt))
            if held is not None and held[0] is pt and held[1] is not None:
                return held[1]
        self._check_point(pt)
        if v_init is None:
            x0 = [0.0] * self.r
        elif len(x0 := list(_floats(v_init))) != self.r:
            raise ArgumentError(f"v_init takes {self.r} values on this split, not {len(x0)}")
        res = Resolution(self, pt, *self._resolve_args(pt._q, pt._p, pt._v, x0))
        self._last = (pt, res)
        if v_init is None and id(pt) in table:  # the table keeps pt: no other point has its id
            table[id(pt)] = self._last
        return res

    def _check_point(self, pt):  # an ArgumentError where zip would truncate
        if (got := (len(pt._q), len(pt._p), len(pt._v))) != (self.n, self.r, self.n - self.r):
            raise ArgumentError(f"a point of this split has {self.n}, {self.r} and "
                                f"{self.n - self.r} values in q, p and v_deg, not {got}")

    def _args(self, q, v_deg):
        """Evaluator arguments at (q, 0, v_deg): coordinates, then velocities."""
        args = list(q) + [0.0] * self.n
        for at, val in zip(self._deg_at, v_deg):
            args[at] = val
        return args

    def _resolve_args(self, q, p, v_deg, x0):
        """(args, V, core): the evaluator arguments at (q, V, v_deg), with V
        solving p_i = dL/dv^i, and the core there (the last core call).
        Full Newton steps from the float list x0 in the generated resolve
        kernel, damped Newton from the same start where they give up: the
        one place that chooses between them, for resolve and the slopes of
        the pde families.  An RK4 stage, whose fused full steps give up where
        these do, calls _damped_resolve itself."""
        return (self._resolve_kernel(self._f_core, self.newton, q, v_deg, x0, p)
                or self._damped_resolve(q, p, v_deg, x0))

    def _stage(self, solve, other):
        """numerics.fused_stage's kernel for a gauge plan, built once."""
        if (key := (solve, other, self.newton.max_iter)) not in self._stages:
            self._stages[key] = fused_stage(
                [e for block in self.core_exprs.values() for e in block], self.arg_names,
                self._reg, solve, other, self.newton.max_iter)
        return self._stages[key]

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
            self._f_core(self._args(pt._q, pt._v))
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
        res, pbar_deg = self.resolve(pt), _floats(pbar_deg)
        if len(pbar_deg) != len(pt._v):
            raise ArgumentError(f"h_mix takes {len(pt._v)} degenerate values, not {len(pbar_deg)}")
        return res.H + dot([x - b for x, b in zip(pbar_deg, res._flat("B"))], pt._v)

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
        q, pbar = _floats(q), _floats(pbar)
        if len(pbar) != self.n:
            raise ArgumentError(f"clairaut_residual takes {self.n} pbar values, not {len(pbar)}")
        return self._residual(self.point(q, [pbar[i] for i in self._reg], v_deg), pbar, h_value)

    def _residual(self, pt, pbar, h_value=None):
        """clairaut_residual at pt, whose momenta are pbar's regular slots."""
        res = self.resolve(pt)
        grad = [v for _, v in sorted(zip(self._reg + self._deg, [*res._v, *pt._v]))]
        if h_value is None:
            h = self.h_mix(pt, [pbar[i] for i in self._deg])
        else:
            import numpy as np
            h = float(h_value(np.array(pt._q), np.array(pbar)))
        return abs(h - dot(pbar, grad) + res.L)

    def hamiltonian_observable(self):
        """H_phys wrapped with the Observable interface (value, d_dq, d_dp)."""
        return _SlotObservable(self)

    def _degenerate_index(self, alpha):
        """alpha as an int if it is one in 0..n-r-1, else an ArgumentError."""
        if not (isinstance(alpha, Integral) and 0 <= alpha < self.n - self.r):
            raise ArgumentError(f"a degenerate direction of this split is an integer in "
                                f"0..{self.n - self.r - 1}, not {alpha!r}")
        return int(alpha)


class _SlotObservable:
    """H_phys (alpha None) or B_alpha times sign (1.0 or -1.0, an exact negation),
    read off the Resolution: value a float, d_dq and d_dp its gradient rows."""

    def __init__(self, ct, alpha=None, sign=1.0):
        self.ct, self.sign = ct, sign
        self.alpha = None if alpha is None else ct._degenerate_index(alpha)

    def _signed(self, x):
        return x if self.sign > 0 else -x

    def value(self, pt):
        res = self.ct.resolve(pt)
        return self._signed(res.H if self.alpha is None else res._flat("B")[self.alpha])

    def d_dq(self, pt):
        res = self.ct.resolve(pt)
        return self._signed(res.dH_dq if self.alpha is None else res.dB_dq[self.alpha])

    def d_dp(self, pt):
        res = self.ct.resolve(pt)
        return self._signed(res.dH_dp if self.alpha is None else res.dB_dp[self.alpha])


# ------------------------------------------------------- numeric conjugate


def _not_convex(w):
    """Whether the velocity Hessian w (an array) fails strict convexity: its
    least eigenvalue at most 1e-10 times its largest |entry| (or 1)."""
    import numpy as np
    return np.min(np.linalg.eigvalsh(w)) <= 1e-10 * max(1.0, float(np.max(np.abs(w))))


def fenchel_conjugate(model, q, p, box=2.0, grid=5):
    """sup_v (p . v - L) by multi-start Newton (default NewtonConfig); test
    oracle for convex models.

    Requires L strictly convex in the velocities near the maximizer, i.e. the
    least eigenvalue of the velocity Hessian there above 1e-10 times its
    largest |entry| (or 1); candidate stationary points failing that check
    (_not_convex) are discarded.  L, L_v and W come from model.core.
    """
    import numpy as np
    n = model.n
    core = model.core
    lv, w = core.slices["L_v"], core.slices["W"]
    p, args = _floats(p), list(_floats(q)) + [0.0] * n
    residual, jacobian, last = newton_pair(core.fn, args, range(n, 2 * n),
                                           range(lv.start, lv.stop), range(w.start, w.stop), p)
    best = None
    for start in itertools.product(np.linspace(-box, box, grid).tolist(), repeat=n):
        try:
            v = damped_newton(residual, jacobian, start, NewtonConfig())
        except (NewtonError, DomainError):
            continue
        if _not_convex(np.reshape(jacobian(last[0]), (n, n))):  # at v, from Newton's last call
            continue  # not a strict local maximum of p.v - L
        value = dot(p, v) - last[1][0]
        if best is None or value > best:
            best = value
    if best is None:
        raise FenchelError("no local maximum of p.v - L found in the search box")
    return best
