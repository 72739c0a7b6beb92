"""Property-check suites producing a deterministic, JSON-ready report.

run_verification exercises every structural identity the package promises
on one model: conjugate-equation residuals, gradient cross-checks, the
sector identities (field strength, long derivatives, extra-time
commutators, constraint brackets), the identities that differentiate them
once more (commutator, Leibniz, delta-commutator, Bianchi), exact on the
resolution's second-order jet, current conservation, one central-difference
level over that jet, and the class-specific reductions.  Each check
function returns or yields its raw defects, one per probe (or per probe
and entry), and run_verification folds
them into the row's residual, the largest |defect| (numerics._max_abs): a
nan defect makes the residual nan, and a nan residual fails its tolerance.
Checks with a null tolerance are recorded measurements:
quantities the theory predicts to be nonzero in general (bracket
antisymmetry defect, dependent-row defects, the raw consistency
functions); they are informational and never fail the run.

Everything is seeded, so two runs with the same model, seed, and probe
count produce byte-identical reports.
"""

import functools
import json
import math
import operator
from numbers import Integral

from .dynamics import (
    IntegratorConfig,
    degenerate_velocities,
    gauge_input,
    integrate,
)
from .errors import ArgumentError, ClairautError
from .gauge import (
    FiniteDifferenceObservable,
    _bracket_gradient,
    _jets,
    _long_derivative,
    _long_gradient,
    _zpoisson,
    bracket_gauge,
    bracket_new,
    classify,
    field_strength,
    long_derivative,
    maxwell_current,
    bianchi_residual,
    phase_probes,
    poisson_phys,
)
from .manytime import integrability_report, map_to_manytime
from .model import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_PROBE_SEED,
    check_rank_constancy,
    default_probes,
)
from .numerics import Rng, _max_abs, central_differences, dot, second_differences
from .transform import ClairautTransform, _not_convex, fenchel_conjugate


class _Context:
    def __init__(self, ct, cls, probes, seed):
        self.ct = ct
        self.cls = cls
        self.probes = probes
        self.seed = seed

    def rng(self, salt):
        return Rng(self.seed * 1000 + salt)

    # the report feeds four rows; one that raises is recomputed and raises again
    @functools.cached_property
    def integrability(self):
        return integrability_report(map_to_manytime(self.ct), self.probes)

    @functools.cached_property
    def zero_vdeg_ok(self):
        """Whether the first probe resolves with its degenerate velocities
        zeroed (True when there are none)."""
        ct = self.ct
        if ct.n == ct.r:
            return True
        try:
            ct.resolve(self.probes[0]._replace(v_deg=[0.0] * (ct.n - ct.r)))
        except ClairautError:
            return False
        return True

    @functools.cached_property
    def sector_defects(self):
        """F v - D H at the first five probes, v from the sector solve: the
        solved rows' entries, then the other rows'."""
        ct, defects = self.ct, ([], [])
        for pt in self.probes[:5]:
            res = ct.resolve(pt)
            v = degenerate_velocities(ct, pt, cls=self.cls, res=res)[0].tolist()
            f, nd = res._flat("F"), len(v)
            for a, dh in enumerate(res._flat("DH")):
                defects[a not in self.cls.subblock].append(dot(f[a * nd:a * nd + nd], v) - dh)
        return defects


def _random_observables(ctx, salt, count):
    """Seeded quadratic observables over coordinates and regular momenta:
    three products and a linear term, each coefficient rounded to six
    decimals."""
    ct = ctx.ct
    rng = ctx.rng(salt)
    m = ct.n + ct.r
    out = []
    for _ in range(count):
        terms = []
        for _ in range(3):
            coeff = float(f"{rng.uniform(-1.5, 1.5):.6f}")
            terms.append((coeff, rng.integers(m), rng.integers(m)))
        terms.append((float(f"{rng.uniform(-1.0, 1.0):.6f}"), rng.integers(m)))
        out.append(_Quadratic(ct, terms))
    return out


def _merge(pairs):
    """(key, coefficient) pairs with like keys added, as simplify collects
    like terms: keys in first-seen order, each sum taken in turn, a key
    whose sum is exactly 0 dropped."""
    groups = {}
    for key, c in pairs:
        groups[key] = groups[key] + c if key in groups else c
    return [(key, c) for key, c in groups.items() if c]


class _Quadratic:
    """sum c z_i z_j + sum c z_i over z = (q, p), in closed form: terms holds
    (c, i, j) for each product and (c, i) for each linear term.

    Bit-equal to the ExprObservable of the terms' text, each coefficient
    written with six decimals and the names of z for i and j (where no
    coordinate or parameter is named like a momentum, p_<coord>), by taking
    its pipeline's steps.  Simplify drops a zero term, then merges like
    terms by ordered pair or single index (_merge); the evaluator computes
    a product as (c*z_i)*z_j and a sum left to right from its first term,
    0.0 for none.  The k-th partial holds c z_j for each term c z_k z_j or
    c z_j z_k and (c + c) z_k for c z_k^2, merged by index, then the sum of
    the linear terms' constants, added last where it is not 0 or nothing
    else is left.  The Hessian is constant: row k holds the coefficients of
    the k-th partial, read from its upper triangle."""

    def __init__(self, ct, terms):
        self._n, m = ct.n, ct.n + ct.r
        self._terms = [(c, at) for at, c in _merge((tuple(at), c) for c, *at in terms if c)]
        self._partials = []
        for k in range(m):
            pairs, const = [], 0.0
            for c, at in self._terms:
                if at == (k,):
                    const += c
                elif at == (k, k):
                    pairs.append((k, c + c))
                elif k in at:
                    pairs.append((at[1] if at[0] == k else at[0], c))
            merged = [(c, j) for j, c in _merge(pairs)]
            self._partials.append((merged, [const] if const or not merged else []))
        self._rows = [[0.0] * m for _ in range(m)]
        for k, (merged, _) in enumerate(self._partials):
            for c, j in merged:
                if j >= k:
                    self._rows[k][j] = self._rows[j][k] = c

    def value(self, pt):
        z = (*pt._q, *pt._p)
        return functools.reduce(operator.add, [math.prod([c, *(z[i] for i in at)])
                                               for c, at in self._terms] or [0.0])

    def _gradient(self, pt):
        z = (*pt._q, *pt._p)
        return [functools.reduce(operator.add, [c * z[j] for c, j in merged] + const)
                for merged, const in self._partials]

    def d_dq(self, pt):
        return self._gradient(pt)[:self._n]

    def d_dp(self, pt):
        return self._gradient(pt)[self._n:]

    def _jet(self, pt):
        """(gradient, Hessian rows) over z = (q, p), as floats; the rows are
        shared."""
        return self._gradient(pt), self._rows


# ------------------------------------------------------------ check bodies


def _rank_constancy(ctx):  # the run's own probe draws, not the split's
    probes = default_probes(ctx.ct.model, count=len(ctx.probes), seed=ctx.seed)
    yield 0.0 if check_rank_constancy(ctx.ct.model, ctx.ct.split, probes).passed else 1.0


def _envelope_gradients(ctx):
    # dH/dp_i == V^i holds once the degenerate velocities are zeroed
    ct = ctx.ct
    for pt in ctx.probes:
        try:
            res = ct.resolve(pt if ct.n == ct.r else pt._replace(v_deg=[0.0] * (ct.n - ct.r)))
        except ClairautError:
            continue
        yield from map(operator.sub, res._flat("dH_dp"), res._v)


def _gradient_fd(ctx):
    import numpy as np
    # one Jacobian of the vector (H, B_1, ..., B_k) per probe
    ct = ctx.ct
    fd = FiniteDifferenceObservable(
        lambda pt: np.concatenate([[ct.h_phys(pt)], ct.b_values(pt)]), ct, 1e-6)
    for pt in ctx.probes[:3]:
        res = ct.resolve(pt)
        for got, ref in ((np.vstack([res.dH_dq, res.dB_dq]), fd.d_dq(pt)),
                         (np.vstack([res.dH_dp, res.dB_dp]), fd.d_dp(pt))):
            yield from ((got - ref) / (1 + np.abs(ref))).flat


def _conjugate_residual(ctx):
    ct = ctx.ct
    rng = ctx.rng(3)
    for pt in ctx.probes:
        res = ct.resolve(pt)
        free = [b + u for b, u in zip(res._flat("B"), rng.uniform(-1.0, 1.0, size=ct.n - ct.r))]
        pbar = [v for _, v in sorted(zip(ct._reg + ct._deg, [*pt._p, *free]))]
        yield ct._residual(pt, pbar)  # at the probe, resolved above


def _pair_check(salt, count, defect):
    """A check: defect(ctx, x, y, pt) at the first count probes, for two
    seeded random observables x and y."""
    def check(ctx):
        x, y = _random_observables(ctx, salt, 2)
        return (defect(ctx, x, y, pt) for pt in ctx.probes[:count])
    return check


_poisson_antisymmetry = _pair_check(5, 5, lambda ctx, x, y, pt: (
    poisson_phys(ctx.ct, x, y, pt) + poisson_phys(ctx.ct, y, x, pt)))
_bracket_defect_antisymmetry = _pair_check(13, 2, lambda ctx, x, y, pt: (
    bracket_new(ctx.ct, x, y, pt) + bracket_new(ctx.ct, y, x, pt)))
_gauge_bracket_reduction = _pair_check(19, 3, lambda ctx, x, y, pt: (
    bracket_gauge(ctx.ct, x, y, pt, ctx.cls) - poisson_phys(ctx.ct, x, y, pt)))
_new_bracket_reduction = _pair_check(23, 3, lambda ctx, x, y, pt: (
    bracket_new(ctx.ct, x, y, pt) - poisson_phys(ctx.ct, x, y, pt)))


def _degenerate_independence(ctx):
    import numpy as np
    # the spread of H and of each B over five scalings of v_deg
    ct = ctx.ct
    rng = ctx.rng(7)
    for pt in ctx.probes[:5]:
        rows = []
        for _ in range(5):
            scale = rng.uniform(0.7, 1.7, size=ct.n - ct.r)
            vpt = pt._replace(v_deg=pt.v_deg * scale)
            rows.append([ct.h_phys(vpt), *ct.b_values(vpt)])
        yield from np.ptp(rows, axis=0)


def _field_antisymmetry(ctx):
    for pt in ctx.probes:
        f = field_strength(ctx.ct, pt)
        yield from (f + f.T).flat


def _extra_time_f(ctx):
    yield ctx.integrability.f_defect


def _extra_time_dh(ctx):
    yield ctx.integrability.dh_defect


def _commutator(ctx):
    # [D_a, D_b] X = {F_ab, X}, exactly: the gradient of each D_b X from the
    # jets of X and B_b, dF from the resolution's jet
    ct = ctx.ct
    n, n_deg, m = ct.n, ct.n - ct.r, ct.n + ct.r
    x = _random_observables(ctx, 11, 1)[0]
    pairs = [(a, b) for a in range(n_deg) for b in range(a + 1, n_deg)][:3]
    for pt in ctx.probes[:2]:
        res = ct.resolve(pt)
        jets, xj, df = _jets(res), x._jet(pt), res._flat("dF")
        d_x = [_long_gradient(ct, jets[a], xj, a) for a in range(n_deg)]
        for a, b in pairs:
            lhs = (_long_derivative(ct, res, a, d_x[b][:n], d_x[b][n:])
                   - _long_derivative(ct, res, b, d_x[a][:n], d_x[a][n:]))
            yield lhs - _zpoisson(ct, df[(a * n_deg + b) * m:(a * n_deg + b + 1) * m], xj[0])


def _leibniz(ctx):
    # D_a {B_0, B_1} = {D_a B_0, B_1} + {B_0, D_a B_1}, exactly on the jets of B
    ct = ctx.ct
    n = ct.n
    for pt in ctx.probes[:2]:
        res = ct.resolve(pt)
        b = _jets(res)
        pair = _bracket_gradient(ct, b[0], b[1])
        for a in range(min(ct.n - ct.r, 3)):
            rhs = (_zpoisson(ct, _long_gradient(ct, b[a], b[0], a), b[1][0])
                   + _zpoisson(ct, b[0][0], _long_gradient(ct, b[a], b[1], a)))
            yield _long_derivative(ct, res, a, pair[:n], pair[n:]) - rhs


def _delta_commutator(ctx):
    # delta_0 {B_1, B_c} - delta_1 {B_0, B_c} = {{B_0, B_1}, B_c}, exactly on the jets of B
    ct = ctx.ct
    for pt in ctx.probes[:2]:
        b = _jets(ct.resolve(pt))
        w = _bracket_gradient(ct, b[0], b[1])
        for c in range(min(ct.n - ct.r, 2)):
            lhs = (_zpoisson(ct, b[0][0], _bracket_gradient(ct, b[1], b[c]))
                   - _zpoisson(ct, b[1][0], _bracket_gradient(ct, b[0], b[c])))
            yield lhs - _zpoisson(ct, w, b[c][0])


def _current_conservation(ctx):
    # sum_a D_a J_a: J is exact on the jet, but its gradient would need the
    # fourth partials of L, so it is one level of central differences of J
    ct = ctx.ct
    n, pt = ct.n, ctx.probes[0]
    cols = central_differences(lambda z: maxwell_current(ct, pt._replace(q=z[:n], p=z[n:])),
                               [*pt._q, *pt._p], 1e-5)
    res = ct.resolve(pt)
    total = 0.0
    for a in range(ct.n - ct.r):
        grad = [float(col[a]) for col in cols]
        total += _long_derivative(ct, res, a, grad[:n], grad[n:])
    yield total


def _bianchi(ctx):
    yield bianchi_residual(ctx.ct, ctx.probes[0])


def _fenchel(ctx):
    # the conjugate is a supremum only where L is convex in the velocities,
    # so concave-branch probes are out of scope for this identity
    ct = ctx.ct
    for pt in ctx.probes[:5]:
        res = ct.resolve(pt)
        if _not_convex(res.W):
            continue
        box = 2.0 + 2.0 * _max_abs(pt._p)
        yield res.H - fenchel_conjugate(ct.model, pt._q, pt._p, box=box, grid=9)


def _consistency_functions(ctx):
    return (dh for pt in ctx.probes for dh in ctx.ct.resolve(pt)._flat("DH"))


def _bracket_jacobiator(ctx):
    ct = ctx.ct
    x, y, z = _random_observables(ctx, 17, 3)
    pt = ctx.probes[0]

    def nested(u, v):
        return FiniteDifferenceObservable(
            lambda q: bracket_new(ct, u, v, q), ct, 1e-5)

    yield (bracket_new(ct, nested(x, y), z, pt)
           + bracket_new(ct, nested(z, x), y, pt)
           + bracket_new(ct, nested(y, z), x, pt))


def _b_vanishes(ctx):
    return all(_max_abs(ctx.ct.b_values(pt)) <= 1e-12 for pt in ctx.probes[:3])


def _limit_partials(ctx):
    ct = ctx.ct
    x, = _random_observables(ctx, 29, 1)
    for pt in ctx.probes[:3]:
        xq = x.d_dq(pt)
        for a in range(ct.n - ct.r):
            yield long_derivative(ct, x, a, pt) - float(xq[ct.deg_idx[a]])


# ----------------------------------------- invariant-surface trajectory check


def _level_two(ct, pt):
    """{D_a H, H_phys} for each degenerate direction a: the consistency
    tower's second level, the time derivative of D_a H along the
    frozen-gauge flow, exact on the second-order jet."""
    res = ct.resolve(pt)
    m, h = ct.n + ct.r, _jets(res)[-1][0]
    ddh = res._flat("dDH")
    return [_zpoisson(ct, ddh[a * m:a * m + m], h) for a in range(ct.n - ct.r)]


def _level_three(ct, pt):
    """The tower's third level {{D_a H, H_phys}, H_phys} at pt and its
    Jacobian rows over z = (q, p): the gradient and the Hessian of the
    exact second level by one central stencil over its values
    (numerics.second_differences, step 1e-4, as the Hessian's rounding
    grows like eps / step^2), since they would need the fourth and fifth
    partials of L, then the bracket with H_phys's exact jet."""
    n = ct.n
    grad, hess = second_differences(lambda z: _level_two(ct, pt._replace(q=z[:n], p=z[n:])),
                                    [*pt._q, *pt._p], 1e-4)
    h = _jets(ct.resolve(pt))[-1]
    jets = [([g[a] for g in grad], [[e[a] for e in row] for row in hess])
            for a in range(ct.n - ct.r)]
    return [_zpoisson(ct, j[0], h[0]) for j in jets], [_bracket_gradient(ct, j, h) for j in jets]


def _consistency_tower(ct, pt, levels, step):
    """The Jacobian over z = (q, p) of the tower's first two levels at pt:
    D_a H's rows exact, from the jet (dDH); with levels 2 or more,
    _level_two's rows by one level of central differences (step) of its
    exact values, since they would need the fourth partials of L."""
    res, n, m = ct.resolve(pt), ct.n, ct.n + ct.r
    ddh = res._flat("dDH")
    rows = [ddh[a * m:a * m + m] for a in range(ct.n - ct.r)]
    if levels >= 2:
        cols = central_differences(lambda z: _level_two(ct, pt._replace(q=z[:n], p=z[n:])),
                                   [*pt._q, *pt._p], step)
        rows += map(list, zip(*cols))
    return rows


def _min_norm_step(jac, rhs):
    """The minimal-norm x with jac x = rhs, jac's rows lists of floats of
    full row rank: the rows orthonormalised by modified Gram-Schmidt on dot
    (jac^T = Q R), then R^T z = rhs by forward substitution and x = Q z.  A
    row that falls to zero is dependent on the earlier ones and is dropped."""
    basis, z = [], []
    for row, b in zip(jac, rhs):
        r = []
        for u in basis:
            r.append(dot(u, row))
            row = [x - r[-1] * y for x, y in zip(row, u)]
        norm = math.sqrt(dot(row, row))
        if norm:
            basis.append([x / norm for x in row])
            z.append((b - dot(r, z)) / norm)
    return [dot(col, z) for col in zip(*basis)] if basis else [0.0] * len(jac[0])


def _project_to_surface(ct, pt, levels, iters=18, step=1e-6):
    """Gauss-Newton projection of (q, p) onto the zero set of the first
    levels (1 to 3) of the consistency tower (_consistency_tower,
    _level_three); minimal-norm steps, best effort."""
    n = ct.n
    u = [*pt._q, *pt._p]
    for _ in range(iters):
        cur = pt._replace(q=u[:n], p=u[n:])
        top = _level_three(ct, cur) if levels == 3 else ([], [])
        f0 = (list(ct.resolve(cur)._flat("DH")) + (_level_two(ct, cur) if levels >= 2 else [])
              + top[0])
        if _max_abs(f0) < 1e-12:
            break
        delta = _min_norm_step(_consistency_tower(ct, cur, levels, step) + top[1],
                               [-f for f in f0])
        scale = 1.0 / max(math.sqrt(dot(delta, delta)), 1.0)  # at most 1 long
        u = [x + d * scale for x, d in zip(u, delta)]
    return pt._replace(q=u[:n], p=u[n:])


PRESERVATION_TOL = 1e-5


def _constraint_preservation(ctx):
    """Start on the invariant set and watch the consistency stream.

    The projection depth escalates until a short trial run stays flat:
    models whose consistency functions close under one bracket need depth
    1, a genuinely higher-stage model depth 2 (cawley) or 3.  The drift
    grows like t^2, so the trial's bound is a tenth of the tolerance scaled
    by the squared ratio of the run lengths.
    """
    trial_t1, run_t1 = 0.05, 0.5
    ct, cls = ctx.ct, ctx.cls
    pt0 = ctx.probes[0]
    # where zero degenerate velocities are inadmissible, prescribe them as 1
    gauge = None if ctx.zero_vdeg_ok else gauge_input(
        ct, cls, {name: 1.0 for name in ct.split.degenerate})
    cand = pt0
    for levels in (1, 2, 3):
        cand = _project_to_surface(ct, pt0, levels)
        trial = integrate(ct, cand, gauge,
                          IntegratorConfig(t1=trial_t1, dt=5e-3,
                                           consistency_tol=1e30), cls)
        if _max_abs(trial.consistency) <= 0.1 * PRESERVATION_TOL * (trial_t1 / run_t1) ** 2:
            break
    traj = integrate(ct, cand, gauge,
                     IntegratorConfig(t1=run_t1, dt=1e-3,
                                      consistency_tol=1e30), cls)
    return traj.consistency


# --------------------------------------------------------------- the suite


def _check_table(ctx):
    cls = ctx.cls
    n_deg = cls.n_deg if ctx.ct.n - ctx.ct.r else 0
    r = ctx.ct.r
    rows = [
        ("hessian_rank_constant", 0.5, _rank_constancy, True),
        ("envelope_gradient_matches_velocities", 1e-12, _envelope_gradients,
         r > 0 and ctx.zero_vdeg_ok),
        ("gradient_finite_difference_agreement", 1e-5, _gradient_fd, True),
        ("conjugate_equation_residual", 1e-8, _conjugate_residual, True),
        ("poisson_bracket_antisymmetry", 1e-10, _poisson_antisymmetry, r > 0),
        ("degenerate_sector_independence", 1e-9, _degenerate_independence, n_deg > 0),
        ("field_strength_antisymmetry", 1e-15, _field_antisymmetry, n_deg > 0),
        ("extra_time_block_matches_field_strength", 1e-9, _extra_time_f, True),
        ("extra_time_row_matches_long_derivative", 1e-9, _extra_time_dh, True),
        # the constraint brackets are G's degenerate block and minus its first
        # row (dynamics._constraint_brackets): the extra-time defects, sigma = -1
        ("constraint_bracket_matches_field_strength", 1e-9, _extra_time_f, n_deg > 0),
        ("constraint_hamiltonian_bracket_sign", 1e-9, _extra_time_dh, n_deg > 0),
        ("long_derivative_commutator", 1e-9, _commutator, n_deg >= 2),
        ("leibniz_rule", 1e-9, _leibniz, n_deg >= 2),
        ("delta_transformation_commutator", 1e-9, _delta_commutator, n_deg >= 2),
        ("current_conservation", 1e-6, _current_conservation, n_deg >= 2),
        ("bianchi_identity", 1e-9, _bianchi, n_deg >= 3),
        ("fenchel_reduction", 1e-7, _fenchel, n_deg == 0),
    ]
    if n_deg > 0 and cls.kind == "gaugeless":
        rows += [
            ("sector_solve_consistency", 1e-10, lambda ctx: ctx.sector_defects[0], True),
            ("corrected_bracket_antisymmetry_defect", None,
             _bracket_defect_antisymmetry, True),
            ("corrected_bracket_jacobiator", None, _bracket_jacobiator, True),
        ]
    if cls.kind == "gauge":
        rows += [
            ("solved_sector_consistency", 1e-10, lambda ctx: ctx.sector_defects[0], True),
            ("dependent_row_defect", None, lambda ctx: ctx.sector_defects[1], True),
        ]
    if cls.kind == "limit":
        rows += [
            ("gauge_bracket_reduction", 1e-12, _gauge_bracket_reduction, True),
            ("consistency_functions", None, _consistency_functions, True),
            ("constraint_preservation", PRESERVATION_TOL, _constraint_preservation, True),
        ]
        if _b_vanishes(ctx):
            rows += [
                ("corrected_bracket_reduction", 1e-12, _new_bracket_reduction, True),
                ("limit_partial_derivative_identity", 1e-12, _limit_partials, True),
            ]
    return rows


def run_verification(model, seed=DEFAULT_PROBE_SEED, probe_count=DEFAULT_PROBE_COUNT):
    """Execute the applicable checks and return the report as plain data."""
    for name, value, low in (("seed", seed, 0), ("probe_count", probe_count, 1)):
        if not (isinstance(value, Integral) and value >= low):
            raise ArgumentError(f"{name} must be an integer of at least {low}, not {value!r}")
    ct = ClairautTransform(model)
    probes = phase_probes(ct, count=probe_count, seed=seed)
    ct._held = {id(pt): (pt, None) for pt in probes}  # each probe resolved once for the run
    try:
        cls = classify(ct, probes=probes)
        ctx = _Context(ct, cls, probes, seed)
        checks = []
        for name, tol, fn, applicable in _check_table(ctx):
            if not applicable:
                continue
            try:
                residual = float(_max_abs(fn(ctx)))
                checks.append({
                    "name": name,
                    "residual": residual,
                    "tol": tol,
                    "passed": True if tol is None else bool(residual <= tol),
                })
            except ClairautError as exc:
                checks.append({
                    "name": name,
                    "residual": None,
                    "tol": tol,
                    "passed": tol is None,
                    "error": f"{type(exc).__name__}: {exc}",
                })
    finally:
        ct._held = {}
    return {
        "model": ct.model.name,
        "seed": int(seed),
        "probe_count": int(probe_count),
        "split": {
            "regular": list(ct.split.regular),
            "degenerate": list(ct.split.degenerate),
        },
        "classification": {"kind": cls.kind, "rank_F": int(cls.r_f)},
        "checks": checks,
        "all_pass": all(c["passed"] for c in checks),
    }


def render_report(report):
    """Canonical JSON text: sorted keys, two-space indent, newline at end."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
