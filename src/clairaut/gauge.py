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
momenta.  A finite-difference wrapper lifts plain callables into the same
interface so identities can be nested without symbolic third derivatives.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, RankDeficiencyError, RankVariationError
from .expressions import (
    compile_evaluator,
    differentiate,
    free_symbols,
    parse_expression,
    simplify,
    substitute,
)
from .model import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_PROBE_SEED,
    DEFAULT_RANK_TOL,
    default_probes,
    momentum_name,
    velocity_name,
)
from .numerics import rank_and_pivots
from .transform import PhasePoint

FD_STEP = 1e-5


class ExprObservable:
    """Scalar function of (q, p) given as an expression, with exact partials.

    Allowed symbols: coordinates, momenta of the regular coordinates
    (p_<coord>), and model parameters (substituted at construction).
    """

    def __init__(self, ct, expr):
        if isinstance(expr, str):
            expr = parse_expression(expr)
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
        self._value = compile_evaluator(expr, names)
        self._dq = compile_evaluator([differentiate(expr, c) for c in coords], names)
        self._dp = compile_evaluator([differentiate(expr, c) for c in pnames], names)

    def _args(self, pt):
        return list(pt.q) + list(pt.p)

    def value(self, pt):
        return self._value(self._args(pt))

    def d_dq(self, pt):
        return np.array(self._dq(self._args(pt)))

    def d_dp(self, pt):
        return np.array(self._dp(self._args(pt)))


class BObservable:
    """B_alpha as an observable, with implicit-function analytic gradients."""

    def __init__(self, ct, alpha):
        self.ct = ct
        self.alpha = alpha

    def value(self, pt):
        return float(self.ct.resolve(pt).B[self.alpha])

    def d_dq(self, pt):
        return self.ct.resolve(pt).dB_dq[self.alpha]

    def d_dp(self, pt):
        return self.ct.resolve(pt).dB_dp[self.alpha]


class FiniteDifferenceObservable:
    """Central-difference gradients for an arbitrary scalar of the phase point.

    Step is scaled by (1 + |varied component|).  Used to take outer
    derivatives of quantities that are themselves assembled numerically,
    where analytic derivatives would need third partials of L.
    """

    def __init__(self, fn, ct, step=FD_STEP):
        self.fn = fn
        self.ct = ct
        self.step = step

    def value(self, pt):
        return self.fn(pt)

    def d_dq(self, pt):
        out = np.empty(self.ct.n)
        for a in range(self.ct.n):
            h = self.step * (1 + abs(pt.q[a]))
            qp, qm = pt.q.copy(), pt.q.copy()
            qp[a] += h
            qm[a] -= h
            out[a] = (self.fn(PhasePoint(qp, pt.p, pt.v_deg))
                      - self.fn(PhasePoint(qm, pt.p, pt.v_deg))) / (2 * h)
        return out

    def d_dp(self, pt):
        out = np.empty(self.ct.r)
        for i in range(self.ct.r):
            h = self.step * (1 + abs(pt.p[i]))
            pp, pm = pt.p.copy(), pt.p.copy()
            pp[i] += h
            pm[i] -= h
            out[i] = (self.fn(PhasePoint(pt.q, pp, pt.v_deg))
                      - self.fn(PhasePoint(pt.q, pm, pt.v_deg))) / (2 * h)
        return out


def poisson_phys(ct, x, y, pt):
    """Poisson bracket over the regular pairs (q^i, p_i) only."""
    xq, xp = x.d_dq(pt), x.d_dp(pt)
    yq, yp = y.d_dq(pt), y.d_dp(pt)
    reg = ct.reg_idx
    return float(xq[reg] @ yp - yq[reg] @ xp)


def long_derivative(ct, x, alpha, pt):
    """D_alpha X: the q^alpha-partial plus the B_alpha bracket action."""
    res = ct.resolve(pt)
    xq, xp = x.d_dq(pt), x.d_dp(pt)
    bq, bp = res.dB_dq[alpha], res.dB_dp[alpha]
    return float(xq[ct.deg_idx[alpha]] + bq[ct.reg_idx] @ xp - xq[ct.reg_idx] @ bp)


def delta_b(ct, alpha, x, pt):
    """The B_alpha-transformation of X: {B_alpha, X}_phys."""
    res = ct.resolve(pt)
    xq, xp = x.d_dq(pt), x.d_dp(pt)
    return float(res.dB_dq[alpha][ct.reg_idx] @ xp
                 - xq[ct.reg_idx] @ res.dB_dp[alpha])


def field_strength(ct, pt):
    """F_ab, exactly antisymmetric: each term enters as (T - T^t).

    Built once per resolution and shared, so the array is read-only."""
    return ct.resolve(pt).F


def phase_probes(ct, count=DEFAULT_PROBE_COUNT, seed=DEFAULT_PROBE_SEED):
    """Admissible phase points built by pushing velocity probes through the
    forward momentum map; the resolved branch then exists by construction."""
    points = []
    n = ct.n
    for probe in default_probes(ct.model, count=count, seed=seed):
        args = [probe[c] for c in ct.model.coords]
        args += [probe[velocity_name(c)] for c in ct.model.coords]
        lv = ct._f_core(args)[ct.core_slices["L_v"]]
        q = np.array(args[:n])
        p = np.array([lv[i] for i in ct.reg_idx])
        v_deg = np.array([args[n + a] for a in ct.deg_idx])
        points.append(PhasePoint(q, p, v_deg))
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


def classify(ct, probes=None, tol=DEFAULT_RANK_TOL):
    """Rank F at every probe and sort the model into its sector class."""
    n_deg = ct.n - ct.r
    if n_deg == 0:
        return GaugeClassification("gaugeless", 0, (), (), 0)
    if probes is None:
        probes = phase_probes(ct)
    if not probes:
        raise ModelError("classification needs at least one probe point")
    mats = [field_strength(ct, pt) for pt in probes]
    ranks = []
    pivots0 = None
    for k, f in enumerate(mats):
        rank, pivots = rank_and_pivots(f, rel_tol=tol)
        ranks.append((k, rank))
        if pivots0 is None:
            pivots0 = pivots
    if len({rank for _, rank in ranks}) > 1:
        raise RankVariationError(ranks)
    r_f = ranks[0][1]
    if r_f % 2:
        raise ModelError(
            f"field strength rank {r_f} is odd; an antisymmetric matrix "
            "cannot have odd rank, so the tolerance is misjudging this model")
    deg_names = ct.split.degenerate
    if r_f == n_deg:
        subblock = tuple(range(n_deg))
        return GaugeClassification("gaugeless", r_f, subblock,
                                   tuple(deg_names), n_deg)
    if r_f == 0:
        return GaugeClassification("limit", 0, (), (), n_deg)
    subblock = tuple(sorted(pivots0))
    # antisymmetric rank-r_f: any r_f independent columns give a nonsingular
    # principal minor, but verify at every probe rather than trust the lemma
    for k, f in enumerate(mats):
        sub = f[np.ix_(subblock, subblock)]
        if rank_and_pivots(sub, rel_tol=tol)[0] != r_f:
            raise ModelError(f"field-strength subblock singular at probe {k}")
    return GaugeClassification("gauge", r_f, subblock,
                               tuple(deg_names[a] for a in subblock), n_deg)


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
    base = poisson_phys(ct, x, y, pt)
    sub = list(solved)
    if not sub:
        return base
    f = field_strength(ct, pt)[np.ix_(sub, sub)]
    # {X, B_a} = -{B_a, X}
    a = np.array([-delta_b(ct, alpha, x, pt) for alpha in sub])
    if not a.any():
        return base  # B acts trivially on X, no correction regardless of F
    d = np.array([long_derivative(ct, y, beta, pt) for beta in sub])
    try:
        correction = a @ np.linalg.solve(f, d)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(singular) from None
    return base - float(correction)


def maxwell_current(ct, pt, fd_step=FD_STEP):
    """J_beta = sum_alpha D_alpha F_alphabeta, outer derivatives by central
    differences of the assembled field strength."""
    n_deg = ct.n - ct.r
    out = np.zeros(n_deg)
    for b in range(n_deg):
        total = 0.0
        for a in range(n_deg):
            if a == b:
                continue  # F_aa == 0 identically
            obs = FiniteDifferenceObservable(
                lambda q, _a=a, _b=b: float(field_strength(ct, q)[_a, _b]),
                ct, step=fd_step)
            total += long_derivative(ct, obs, a, pt)
        out[b] = total
    return out


def bianchi_residual(ct, pt, fd_step=1e-4):
    """Max cyclic defect D_a F_bc + D_c F_ab + D_b F_ca over index triples;
    zero by convention when the degenerate sector has fewer than 3 directions."""
    n_deg = ct.n - ct.r
    if n_deg < 3:
        return 0.0

    def entry(a, b):
        return FiniteDifferenceObservable(
            lambda q, _a=a, _b=b: float(field_strength(ct, q)[_a, _b]),
            ct, step=fd_step)

    worst = 0.0
    for a in range(n_deg):
        for b in range(a + 1, n_deg):
            for c in range(b + 1, n_deg):
                total = (long_derivative(ct, entry(b, c), a, pt)
                         + long_derivative(ct, entry(a, b), c, pt)
                         + long_derivative(ct, entry(c, a), b, pt))
                worst = max(worst, abs(total))
    return worst
