"""Degenerate-sector structure on the physical phase space.

The degenerate momenta B_alpha(q, p) act through two derivations:

    delta_B X   = {B_alpha, X}_phys          (bracket part alone)
    D_alpha X   = dX/dq^alpha + {B_alpha, X}_phys

and their mutual commutators are measured by the field strength

    F_ab = dB_b/dq^a - dB_a/dq^b + {B_a, B_b}_phys.

The rank of F (constant across probe points by assumption, checked) decides
whether the sector equations fix all degenerate velocities (gaugeless), only
a subblock of them (gauge), or none (limit), and which corrected bracket
generates time evolution in each case.

Observables are duck-typed: anything with value(pt), d_dq(pt) -> n-vector in
coordinate declaration order, and d_dp(pt) -> r-vector over the regular
momenta: ExprObservable, an expression; BObservable, B_alpha's slot of the
Resolution (transform._SlotObservable, as is H_phys's hamiltonian_observable);
FiniteDifferenceObservable, a plain callable, for cross-checks against the
exact derivatives.  The identities that differentiate these quantities once
more (Bianchi, the Maxwell current, and verify's commutator, Leibniz and
delta-commutator rows) read exact second derivatives from two sources:
the Resolution's second-order jet (Hessians of B and H, dF, the gradient of
D_a H) and the constant Hessian of verify's quadratics (their _jet), as flat
floats over z = (q, p); _bracket_gradient and _long_gradient carry the
product rule through the bracket.
The brackets read the resolution's rows as floats (Resolution._flat), and
each function returning an array wraps a float core that verify reads:
_field_strength, _maxwell_current and FiniteDifferenceObservable._jacobian.
"""

import itertools
from dataclasses import dataclass

from .errors import ArgumentError, ModelError, RankDeficiencyError, RankVariationError
from .expressions import (Expr, compile_evaluator, differentiate, free_symbols, parse_expression,
                          simplify, substitute)
from .model import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_PROBE_SEED,
    DEFAULT_RANK_TOL,
    default_probes,
    momentum_name,
)
from .numerics import SingularMatrixError, _max_abs, central_differences, dot, probe_ranks, solver
from .transform import PhasePoint, _SlotObservable


class ExprObservable:
    """Scalar function of (q, p) given as an expression, with exact first
    partials.

    Allowed symbols: coordinates, momenta of the regular coordinates
    (p_<coord>), and model parameters (substituted at construction).
    """

    def __init__(self, ct, expr):
        if isinstance(expr, str):
            expr = parse_expression(expr)
        elif not isinstance(expr, Expr):
            raise ArgumentError(f"an observable is an Expr or its text, not {expr!r}")
        expr = simplify(substitute(expr, ct.model.params))
        coords = ct.model.coords
        pnames = [momentum_name(c) for c in ct.split.regular]
        allowed = set(coords) | set(pnames)
        extra = free_symbols(expr) - allowed
        if extra:
            raise ModelError(
                "observable may only use coordinates and regular momenta; "
                "found: " + ", ".join(sorted(extra)))
        names = list(coords) + pnames
        self.ct = ct
        self.expr = expr
        # value, then the q- and p-partials, from one evaluator
        self._fn = compile_evaluator([expr] + [differentiate(expr, c) for c in names], names)
        self._last = None

    def _eval(self, pt):  # the last (point, values), one tuple matched by identity
        last = self._last
        if last is None or last[0] is not pt:
            last = self._last = (pt, self._fn([*pt._q, *pt._p]))
        return last[1]

    def value(self, pt):
        return self._eval(pt)[0]

    def d_dq(self, pt):
        import numpy as np
        return np.array(self._eval(pt)[1:1 + self.ct.n])

    def d_dp(self, pt):
        import numpy as np
        return np.array(self._eval(pt)[1 + self.ct.n:])


class BObservable(_SlotObservable):
    """B_alpha as an observable, with implicit-function analytic gradients."""

    def __init__(self, ct, alpha):
        super().__init__(ct, alpha)


class FiniteDifferenceObservable:
    """Central-difference gradients of a scalar or an array of the phase point.

    For fn(pt) of shape S, d_dq and d_dp have shapes S + (n,) and S + (r,),
    the columns of numerics.central_differences stacked: each displaced
    point is evaluated once, the step scaled by (1 + |varied component|).
    An independent route to a gradient, for cross-checks.
    """

    def __init__(self, fn, ct, step=1e-5):
        if not 0.0 < step < float("inf"):
            raise ArgumentError(f"the difference step must be finite and positive, not {step!r}")
        self.fn = fn
        self.ct = ct
        self.step = step

    def value(self, pt):
        return self.fn(pt)

    def d_dq(self, pt):
        return self._differences(pt, pt._q, lambda x: pt._replace(q=x))

    def d_dp(self, pt):
        return self._differences(pt, pt._p, lambda x: pt._replace(p=x))

    def _differences(self, pt, base, at):
        import numpy as np
        if not base:
            return np.empty(np.shape(self.fn(pt)) + (0,))
        return np.stack(central_differences(lambda x: self.fn(at(x)), base, self.step), axis=-1)

    def _jacobian(self, pt):
        """(d_dq, d_dp) for an fn that returns a list of floats, as lists of
        float rows, row i the partials of entry i: the columns of
        central_differences transposed, each displaced point evaluated once."""
        out = []
        for base, at in ((pt._q, lambda x: pt._replace(q=x)), (pt._p, lambda x: pt._replace(p=x))):
            cols = central_differences(lambda x: self.fn(at(x)), base, self.step)
            out.append([list(row) for row in zip(*cols)] if base else [[] for _ in self.fn(pt)])
        return out


def _poisson(ct, xq, xp, yq, yp):
    """{X, Y}_phys from the gradients of X and Y (float lists or arrays)."""
    return dot([xq[i] for i in ct._reg], yp) - dot([yq[i] for i in ct._reg], xp)


def _long_derivative(ct, res, alpha, xq, xp):
    """D_alpha X at the resolution res, from the gradients of X there."""
    n, r = ct.n, ct.r
    bq, bp = res._flat("dB_dq"), res._flat("dB_dp")
    return float(xq[ct._deg[alpha]]) + _poisson(
        ct, bq[alpha * n:alpha * n + n], bp[alpha * r:alpha * r + r], xq, xp)


def _zpoisson(ct, x, y):
    """{X, Y}_phys from the gradients of X and Y over z = (q, p)."""
    n = ct.n
    return _poisson(ct, x[:n], x[n:], y[:n], y[n:])


def _jets(res):
    """The jets (gradient, Hessian rows) over z = (q, p) of B_a for each
    degenerate direction a, then of H_phys, from the resolution's derivative
    block and second-order jet."""
    ct = res.ct
    n, r, m = ct.n, ct.r, ct.n + ct.r
    bq, bp, b2, h2 = (res._flat(name) for name in ("dB_dq", "dB_dp", "d2B", "d2H"))
    out = [(bq[a * n:a * n + n] + bp[a * r:a * r + r],
            [b2[(a * m + k) * m:(a * m + k + 1) * m] for k in range(m)]) for a in range(n - r)]
    return out + [(res._flat("dH_dq") + res._flat("dH_dp"),
                   [h2[k * m:k * m + m] for k in range(m)])]


def _bracket_gradient(ct, x, y):
    """The gradient of {X, Y}_phys over z from the jets x and y of X and Y:
    row k of a Hessian is the gradient of the k-th partial."""
    return [_zpoisson(ct, xr, y[0]) + _zpoisson(ct, x[0], yr) for xr, yr in zip(x[1], y[1])]


def _long_gradient(ct, b, x, alpha):
    """The gradient of D_alpha X over z from the jets b of B_alpha and x of X."""
    at = ct._deg[alpha]
    return [xr[at] + g for xr, g in zip(x[1], _bracket_gradient(ct, b, x))]


def poisson_phys(ct, x, y, pt):
    """Poisson bracket over the regular pairs (q^i, p_i) only."""
    return _poisson(ct, x.d_dq(pt), x.d_dp(pt), y.d_dq(pt), y.d_dp(pt))


def long_derivative(ct, x, alpha, pt):
    """D_alpha X: the q^alpha-partial plus the B_alpha bracket action."""
    alpha = ct._degenerate_index(alpha)
    return _long_derivative(ct, ct.resolve(pt), alpha, x.d_dq(pt), x.d_dp(pt))


def delta_b(ct, alpha, x, pt):
    """The B_alpha-transformation of X: {B_alpha, X}_phys."""
    return poisson_phys(ct, BObservable(ct, alpha), x, pt)


def field_strength(ct, pt):
    """F_ab, exactly antisymmetric: each term enters as (T - T^t).

    Built once per resolution and shared, so the array is read-only."""
    return ct.resolve(pt).F


def _field_strength(ct, pt):
    """field_strength's entries as flat floats, row-major (Resolution._flat)."""
    return ct.resolve(pt)._flat("F")


def phase_probes(ct, count=DEFAULT_PROBE_COUNT, seed=DEFAULT_PROBE_SEED):
    """Admissible phase points built by pushing velocity probes through the
    forward momentum map; the resolved branch then exists by construction."""
    points = []
    n = ct.n
    for probe in default_probes(ct.model, count=count, seed=seed):
        args = [probe[name] for name in ct.model.core.arg_names]
        lv = ct._f_core(args)[ct.core_slices["L_v"]]
        points.append(PhasePoint(args[:n], [lv[i] for i in ct._reg],
                                 [args[n + a] for a in ct._deg]))
    return points


@dataclass(frozen=True)
class GaugeClassification:
    """Constant-rank structure of the field strength.

    kind is "gaugeless" (F invertible, all degenerate velocities fixed),
    "gauge" (0 < rank < n-r; the subblock directions are fixed, the rest are
    free inputs), or "limit" (F vanishes identically; all free).  subblock
    holds indices into the degenerate coordinate list: all of them in the
    gaugeless case, the pivoted nonsingular minor in the gauge case, empty in
    the limit case.
    """

    kind: str
    r_f: int
    subblock: tuple
    subblock_coords: tuple
    n_deg: int


def classify(ct, probes=None):
    """Rank F at every probe (DEFAULT_RANK_TOL); sort the model into its sector class."""
    n_deg = ct.n - ct.r
    if n_deg == 0:
        return GaugeClassification("gaugeless", 0, (), (), 0)
    if probes is None:
        probes = phase_probes(ct)
    if not probes:
        raise ModelError("classification needs at least one probe point")
    pivots, ranks, block_ranks = probe_ranks(
        (ct.resolve(pt)._flat("F") for pt in probes), None, DEFAULT_RANK_TOL, "field strength")
    if len(set(ranks)) > 1:
        raise RankVariationError(list(enumerate(ranks)), "field strength")
    r_f = ranks[0]
    if r_f % 2:
        raise ModelError(
            f"field strength rank {r_f} is odd; an antisymmetric matrix "
            "cannot have odd rank, so the tolerance is misjudging this model")
    if r_f == 0:
        return GaugeClassification("limit", 0, (), (), n_deg)
    # antisymmetric rank-r_f: any r_f independent columns give a nonsingular
    # principal minor, but verify at every probe rather than trust the lemma
    # (at full rank the block is all of F and holds it)
    for k, block_rank in enumerate(block_ranks):
        if block_rank != r_f:
            raise ModelError(f"field-strength subblock singular at probe {k}")
    deg_names = ct.split.degenerate
    return GaugeClassification("gaugeless" if r_f == n_deg else "gauge", r_f, tuple(pivots),
                               tuple(deg_names[a] for a in pivots), n_deg)


def bracket_new(ct, x, y, pt):
    """Corrected bracket for the gaugeless case (F invertible at pt):

        {X,Y}_phys - sum_ab {X,B_a}_phys Fbar^ab D_b Y,

    the bracket_gauge body over every degenerate direction.
    """
    return _corrected_bracket(
        ct, x, y, pt, range(ct.n - ct.r),
        "field strength is singular here; use bracket_gauge with a classification")


def bracket_gauge(ct, x, y, pt, cls):
    """Corrected bracket restricted to the nonsingular F-subblock; reduces to
    the physical Poisson bracket in the limit case."""
    return _corrected_bracket(ct, x, y, pt, cls.subblock,
                              "classification subblock singular at this point")


def _corrected_bracket(ct, x, y, pt, solved, singular):
    """{X,Y}_phys corrected over the solved degenerate directions."""
    xq, xp, yq, yp = x.d_dq(pt), x.d_dp(pt), y.d_dq(pt), y.d_dp(pt)
    base = _poisson(ct, xq, xp, yq, yp)
    sub = list(solved)
    if not sub:
        return base
    res, n, r = ct.resolve(pt), ct.n, ct.r
    bq, bp = res._flat("dB_dq"), res._flat("dB_dp")
    # {X, B_a} = -{B_a, X}
    a = [-_poisson(ct, bq[al * n:al * n + n], bp[al * r:al * r + r], xq, xp) for al in sub]
    if not any(a):
        return base  # B acts trivially on X, no correction regardless of F
    d = [_long_derivative(ct, res, beta, yq, yp) for beta in sub]
    return base - dot(a, _subblock_solve(res, sub, d, singular))


def _subblock_solve(res, sub, rhs, singular):
    """x with F_sub x = rhs, F_sub the subblock of F at the resolution res
    over the degenerate slots sub, by numerics.solver; a zero pivot raises
    RankDeficiencyError(singular)."""
    f, nd = res._flat("F"), res.ct.n - res.ct.r
    try:
        return solver(len(sub))([f[a * nd + b] for a in sub for b in sub], rhs)
    except SingularMatrixError:
        raise RankDeficiencyError(singular) from None


def _long_derivatives_of_f(ct, pt):
    """(a, b, c) -> D_a F_bc at pt, exact: from the jet's dF."""
    res = ct.resolve(pt)
    n, nd, m = ct.n, ct.n - ct.r, ct.n + ct.r
    df = res._flat("dF")

    def d(a, b, c):
        g = df[(b * nd + c) * m:(b * nd + c + 1) * m]
        return _long_derivative(ct, res, a, g[:n], g[n:])

    return d


def maxwell_current(ct, pt):
    """J_beta = sum_alpha D_alpha F_alphabeta, summed by dot (against ones) in
    order of alpha, skipping F_bb == 0; exact, from the second-order jet's
    dF (Resolution.dF), with no finite differences."""
    import numpy as np
    return np.array(_maxwell_current(ct, pt))


def _maxwell_current(ct, pt):
    """maxwell_current as a list of floats."""
    n_deg = ct.n - ct.r
    d = _long_derivatives_of_f(ct, pt)
    return [dot([d(a, a, b) for a in range(n_deg) if a != b], [1.0] * (n_deg - 1))
            for b in range(n_deg)]


def bianchi_residual(ct, pt):
    """Max cyclic defect D_a F_bc + D_c F_ab + D_b F_ca over index triples,
    exact: D_a F_bc from the second-order jet's dF, with no finite
    differences; zero by convention when the degenerate sector has fewer
    than 3 directions."""
    n_deg = ct.n - ct.r
    if n_deg < 3:
        return 0.0
    d = _long_derivatives_of_f(ct, pt)
    return _max_abs(d(a, b, c) + d(c, a, b) + d(b, c, a)
                    for a, b, c in itertools.combinations(range(n_deg), 3))
