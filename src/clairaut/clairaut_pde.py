"""Solution families for the scalar equation y = Sum_j x_j dy/dx_j - f(dy/dx).

Differentiating the equation shows that at every x either the Hessian of
y or the factor x_i - df/dz_i must vanish, index by index.  Killing the
first factor everywhere gives the general solution (an affine function
with free slopes c); killing the second everywhere gives the envelope
solution, which needs the Hessian of f to be invertible so the slope
conditions x_i = df/dz_i can be resolved; doing each on a complementary
block of indices gives the s-mixed family.  The velocity Hessian of a
degenerate Lagrangian plays the role of f's Hessian, which is why these
three families track the regular/degenerate split elsewhere in the
package: the slopes resolve as the regular velocities of L = f(d(z)).
"""

import math

from .errors import ArgumentError, DomainError, ModelError, NewtonError, RankDeficiencyError
from .expressions import (Sym, compile_evaluator, free_symbols, parse_expression, simplify,
                          substitute)
from .model import LagrangianModel, VariableSplit, velocity_name
from .numerics import _floats, central_differences, dot, rank_and_pivots
from .transform import ClairautTransform

RESIDUAL_STEP = 1e-6


class ClairautProblem:
    """Problem data: dimension n and the function f over z1..zn.  f compiles
    alone: general solutions need f defined, not its derivatives, which are
    L_v and W of model's core, derived on first use."""

    def __init__(self, n, f):
        self.n = n = int(n)
        if n < 1:
            raise ModelError("a Clairaut problem needs at least one variable")
        self.names = tuple(f"z{j + 1}" for j in range(n))
        expr = parse_expression(f) if isinstance(f, str) else f
        extra = free_symbols(expr) - set(self.names)
        if extra:
            raise ModelError(
                f"f may only use {', '.join(self.names)}; found {', '.join(sorted(extra))}")
        self.f = simplify(expr)
        self._f = compile_evaluator(self.f, self.names)
        vel = {z: Sym(velocity_name(z)) for z in self.names}
        self.model = LagrangianModel(self.names, {}, substitute(self.f, vel))  # L = f(d(z))
        self._transforms = {}  # s -> the transform with z1..zs regular, built on first use

    def f_value(self, z):
        return self._f(self._z(z))

    def _z(self, z):  # z as n floats, else an ArgumentError
        if len(z := _floats(z)) != self.n:
            raise ArgumentError(f"f takes {self.n} values, not {len(z)}")
        return z

    def _core(self, z):  # the model's core at q = 0, v = z
        return self.model.core.fn([0.0] * self.n + list(self._z(z)))

    def f_gradient(self, z):
        import numpy as np
        return np.array(self._core(z)[self.model.core.slices["L_v"]])

    def f_hessian(self, z):
        import numpy as np
        return np.array(self._core(z)[self.model.core.slices["W"]]).reshape(self.n, self.n)

    def hessian_rank(self, z):
        return rank_and_pivots(self.f_hessian(z))[0]


def _vector(values, n, what):
    """values, a flat sequence or 1-D array of n numbers, as n floats; else
    a ModelError."""
    try:
        if getattr(values, "ndim", 1) == 1 and len(out := _floats(values)) == n:
            return out
    except (TypeError, ValueError):
        pass
    raise ModelError(f"expected {n} {what}, got {values!r}")


def general_solution(prob, c):
    """Affine solution with slope vector c; returns an evaluator of x, which
    raises DomainError where the value is not a finite float.  The envelope
    and mixed families evaluate the same formula at their resolved slopes."""
    return _affine(prob, _vector(c, prob.n, "slope constants"), "general")


def _affine(prob, c, family):
    """x -> x . c - f(c), the family's solution at the slopes c; a DomainError
    where f(c) or the value is not a finite float names the family."""
    try:
        fc = prob.f_value(c)
    except DomainError as exc:
        raise DomainError(f"f is not defined at the {family} solution's slopes ({exc})") from None

    def value(x):
        y = dot(_vector(x, prob.n, "point components"), c) - fc
        if not math.isfinite(y):
            raise DomainError(f"the {family} solution overflows at this point (y = {y})")
        return y

    return value


def envelope_solution(prob, x):
    """Resolve every slope condition x_i = df/dz_i and evaluate the result:
    only where f's Hessian has full rank at the solution (and, where Newton
    fails, at its start)."""
    return _resolved(prob, prob.n, (), x, "envelope")


def mixed_solution(prob, s, c_tail, x):
    """Resolve the first s slope conditions, keep constants for the rest.

    The resolvable block must lead: the top-left s-by-s Hessian minor of
    f has to be nonsingular at the solution.  s = 0 reduces to the general
    solution and s = n to the envelope.
    """
    s = int(s)
    if not 0 <= s <= prob.n:
        raise ModelError(f"s must lie in [0, {prob.n}], got {s}")
    return _resolved(prob, s, _vector(c_tail, prob.n - s, "tail constants"), x, "mixed")


def _resolved(prob, s, c_tail, x, family):
    """The family's value at x at the slopes (z_1..z_s, c_tail), x_i = df/dz_i
    for i < s: the transform's regular velocities at momenta x[:s], from z =
    0.  The leading s-by-s block of W is rank-checked at the root, and at
    the start where Newton fails; a NewtonError names the family."""
    n, x, c = prob.n, _vector(x, prob.n, "point components"), list(c_tail)

    def check_block(core):  # the core at some slopes: f's Hessian is its W
        w = core[prob.model.core.slices["W"]]
        if (rank := rank_and_pivots([w[i * n:i * n + s] for i in range(s)])[0]) < s:
            raise RankDeficiencyError(
                f"slope conditions unresolvable: Hessian block rank {rank} < {s}")

    if s:
        ct = prob._transforms.get(s)
        if ct is None:
            split = VariableSplit(s, prob.names[:s], prob.names[s:], tuple(range(n)))
            ct = prob._transforms[s] = ClairautTransform(prob.model, split)
        q, p = [0.0] * n, x[:s]
        try:
            _, head, core = ct._resolve_args(q, p, c, [0.0] * s)
        except NewtonError as exc:
            if ct.start_in_domain(ct.point(q, p, c)):
                check_block(prob._core([0.0] * s + c))
            raise NewtonError(f"the {family} solution's slopes: {exc}", exc.residual) from None
        check_block(core)
        c = head + c
    return _affine(prob, c, family)(x)


def pde_residual(prob, y_fn, x):
    """Defect |y - Sum x_j dy/dx_j + f(dy/dx)| with dy/dx by central
    differences (numerics.central_differences, step RESIDUAL_STEP); y_fn
    takes each point as a list of floats."""
    x = list(_vector(x, prob.n, "point components"))
    grad = central_differences(y_fn, x, RESIDUAL_STEP)
    return abs(y_fn(x) - dot(x, grad) + prob.f_value(grad))
