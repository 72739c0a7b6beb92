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

import numpy as np

from .errors import DomainError, ModelError, NewtonError, RankDeficiencyError
from .expressions import (Sym, compile_evaluator, free_symbols, parse_expression, simplify,
                          substitute)
from .model import LagrangianModel, VariableSplit, velocity_name
from .numerics import central_differences, dot, rank_and_pivots
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
        return self._f(z)

    def _core(self, z):  # the model's core at q = 0, v = z
        return self.model.core.fn([0.0] * self.n + np.asarray(z, dtype=float).tolist())

    def f_gradient(self, z):
        return np.array(self._core(z)[self.model.core.slices["L_v"]])

    def f_hessian(self, z):
        return np.array(self._core(z)[self.model.core.slices["W"]]).reshape(self.n, self.n)

    def hessian_rank(self, z):
        return rank_and_pivots(self.f_hessian(z))[0]


def general_solution(prob, c):
    """Affine solution with slope vector c; returns an evaluator of x, which
    raises DomainError where the value is not a finite float.  The envelope
    and mixed families evaluate the same formula at their resolved slopes."""
    c = np.asarray(c, dtype=float)
    if c.shape != (prob.n,):
        raise ModelError(f"expected {prob.n} slope constants, got {c.shape}")
    return _affine(prob, c, "general")


def _affine(prob, c, family):
    """x -> x . c - f(c), the family's solution at the slopes c; a DomainError
    where f(c) or the value is not a finite float names the family."""
    try:
        fc = prob.f_value(c)
    except DomainError as exc:
        raise DomainError(f"f is not defined at the {family} solution's slopes ({exc})") from None

    def value(x):
        y = dot(np.asarray(x, dtype=float), c) - fc
        if not math.isfinite(y):
            raise DomainError(f"the {family} solution overflows at this point (y = {y})")
        return y

    return value


def envelope_solution(prob, x):
    """Resolve every slope condition x_i = df/dz_i and evaluate the result:
    only where f's Hessian has full rank at the solution (and, where Newton
    fails, at its start)."""
    return _resolved(prob, prob.n, np.empty(0), x, "envelope")


def mixed_solution(prob, s, c_tail, x):
    """Resolve the first s slope conditions, keep constants for the rest.

    The resolvable block must lead: the top-left s-by-s Hessian minor of
    f has to be nonsingular at the solution.  s = 0 reduces to the general
    solution and s = n to the envelope.
    """
    s = int(s)
    if not 0 <= s <= prob.n:
        raise ModelError(f"s must lie in [0, {prob.n}], got {s}")
    c_tail = np.asarray(c_tail, dtype=float)
    if c_tail.shape != (prob.n - s,):
        raise ModelError(f"expected {prob.n - s} tail constants, got {c_tail.shape}")
    return _resolved(prob, s, c_tail, x, "mixed")


def _resolved(prob, s, c_tail, x, family):
    """The family's value at x at the slopes (z_1..z_s, c_tail), x_i = df/dz_i
    for i < s: the transform's regular velocities at momenta x[:s], from z =
    0.  The leading s-by-s block of W is rank-checked at the root, and at
    the start where Newton fails; a NewtonError names the family."""
    n, x, c = prob.n, np.asarray(x, dtype=float), c_tail.tolist()
    if x.shape != (n,):
        raise ModelError(f"expected a point with {n} components, got {x.shape}")

    def check_block(w):  # f's Hessian, n x n
        if (rank := rank_and_pivots(w[:s, :s])[0]) < s:
            raise RankDeficiencyError(
                f"slope conditions unresolvable: Hessian block rank {rank} < {s}")

    if s:
        ct = prob._transforms.get(s)
        if ct is None:
            split = VariableSplit(s, prob.names[:s], prob.names[s:], tuple(range(n)))
            ct = prob._transforms[s] = ClairautTransform(prob.model, split)
        q, p = [0.0] * n, x[:s].tolist()
        try:
            _, head, core = ct._resolve_args(q, p, c, [0.0] * s)
        except NewtonError as exc:
            if ct.start_in_domain(ct.point(q, p, c)):
                check_block(prob.f_hessian([0.0] * s + c))
            raise NewtonError(f"the {family} solution's slopes: {exc}", exc.residual) from None
        check_block(np.reshape(core[ct.core_slices["W"]], (n, n)))
        c = head + c
    return _affine(prob, np.array(c), family)(x)


def pde_residual(prob, y_fn, x):
    """Defect |y - Sum x_j dy/dx_j + f(dy/dx)| with dy/dx by central
    differences (numerics.central_differences, step RESIDUAL_STEP)."""
    x = np.asarray(x, dtype=float)
    grad = central_differences(y_fn, x, RESIDUAL_STEP)
    return abs(y_fn(x) - dot(x, grad) + prob.f_value(grad))
