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
package.
"""

import math

import numpy as np

from .errors import DomainError, ModelError, RankDeficiencyError
from .expressions import _Derivatives, compile_evaluator, free_symbols, parse_expression, simplify
from .numerics import (NewtonConfig, central_differences, dot, newton_pair,
                       newton_with_restarts, rank_and_pivots)

RESIDUAL_STEP = 1e-6


class ClairautProblem:
    """Problem data: dimension n and the function f over z1..zn.  f compiles
    alone: general solutions need f defined, not its derivatives."""

    def __init__(self, n, f):
        n = int(n)
        if n < 1:
            raise ModelError("a Clairaut problem needs at least one variable")
        self.n = n
        self.names = tuple(f"z{j + 1}" for j in range(n))
        expr = parse_expression(f) if isinstance(f, str) else f
        extra = free_symbols(expr) - set(self.names)
        if extra:
            raise ModelError(
                f"f may only use {', '.join(self.names)}; found {', '.join(sorted(extra))}")
        self.f = simplify(expr)
        d = [_Derivatives(z) for z in self.names]  # one memo per symbol
        grad = [dz(self.f) for dz in d]
        hess = [dz(g) for g in grad for dz in d]
        self._f = compile_evaluator(self.f, self.names)
        self._derivs = compile_evaluator(grad + hess, self.names)  # Hessian row-major

    def f_value(self, z):
        return self._f(z)

    def f_gradient(self, z):
        return np.array(self._derivs(z)[:self.n])

    def f_hessian(self, z):
        return np.array(self._derivs(z)[self.n:]).reshape(self.n, self.n)

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
    """Resolve every slope condition x_i = df/dz_i and evaluate the result.

    Only exists when f's Hessian has full rank: the conditions are solved
    for z by Newton iteration and a rank-deficient Hessian at the
    solution (or at the initial guess when Newton cannot even start)
    leaves some condition unresolvable.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.n,):
        raise ModelError(f"expected a point with {prob.n} components, got {x.shape}")
    return _affine(prob, _resolve_slopes(prob, np.arange(prob.n), (), x), "envelope")(x)


def mixed_solution(prob, s, c_tail, x):
    """Resolve the first s slope conditions, keep constants for the rest.

    The resolvable block must lead: the top-left s-by-s Hessian minor of
    f has to be nonsingular along the Newton path.  s = 0 reduces to the
    general solution and s = n to the envelope.
    """
    s = int(s)
    if not 0 <= s <= prob.n:
        raise ModelError(f"s must lie in [0, {prob.n}], got {s}")
    c_tail = np.asarray(c_tail, dtype=float)
    if c_tail.shape != (prob.n - s,):
        raise ModelError(f"expected {prob.n - s} tail constants, got {c_tail.shape}")
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.n,):
        raise ModelError(f"expected a point with {prob.n} components, got {x.shape}")
    head = _resolve_slopes(prob, np.arange(s), c_tail, x) if s else ()
    return _affine(prob, np.concatenate([head, c_tail]), "mixed")(x)


def _resolve_slopes(prob, idx, c_tail, x):
    """Newton solve x_i = df/dz_i over the leading index block idx, tail
    frozen, by newton_with_restarts at the default NewtonConfig; residual
    and Jacobian from one _derivs call per iterate."""
    s, n, rows = len(idx), prob.n, idx.tolist()
    args = [0.0] * s + list(c_tail)
    residual, jacobian, last = newton_pair(
        prob._derivs, args, range(s), rows,
        [n + i * n + j for i in rows for j in rows], x[idx].tolist())

    def check_rank(at):
        rank, _ = rank_and_pivots(np.reshape(jacobian(at), (s, s)))
        if rank < s:
            raise RankDeficiencyError(
                f"slope conditions unresolvable: Hessian block rank {rank} < {s}")

    guess = x[idx] / 2.0
    check_rank(guess)
    head = newton_with_restarts(residual, jacobian, guess, NewtonConfig(),
                                box=1.0 + float(np.max(np.abs(x))))
    check_rank(last[0])  # the root: no new evaluation
    return head


def pde_residual(prob, y_fn, x):
    """Defect |y - Sum x_j dy/dx_j + f(dy/dx)| with dy/dx by central
    differences (numerics.central_differences, step RESIDUAL_STEP)."""
    x = np.asarray(x, dtype=float)
    grad = central_differences(y_fn, x, RESIDUAL_STEP)
    return abs(y_fn(x) - dot(x, grad) + prob.f_value(grad))
