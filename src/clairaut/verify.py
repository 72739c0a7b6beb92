"""Property-check suites producing a deterministic, JSON-ready report.

run_verification exercises every structural identity the package promises
on one model: conjugate-equation residuals, gradient cross-checks, the
sector identities (field strength, long derivatives, extra-time
commutators, constraint brackets), the finite-difference identities
(commutator, Leibniz, Bianchi, current conservation), and the
class-specific reductions.  Each check function returns or yields its raw
defects, one per probe (or per probe and entry), and run_verification folds
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

from .dynamics import (
    IntegratorConfig,
    d_alpha_h,
    degenerate_velocities,
    dirac_report,
    gauge_input,
    integrate,
)
from .errors import ClairautError
from .gauge import (
    BObservable,
    ExprObservable,
    FiniteDifferenceObservable,
    _long_derivative,
    _poisson,
    bracket_gauge,
    bracket_new,
    classify,
    delta_b,
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
    momentum_name,
)
from .numerics import Rng, _max_abs, dot
from .transform import ClairautTransform, _not_convex, fenchel_conjugate


class _Context:
    def __init__(self, ct, cls, probes, seed):
        self.ct = ct
        self.cls = cls
        self.probes = probes
        self.seed = seed

    def rng(self, salt):
        return Rng(self.seed * 1000 + salt)

    # each report feeds two rows; one that raises is recomputed and raises again
    @functools.cached_property
    def integrability(self):
        return integrability_report(map_to_manytime(self.ct), self.probes)

    @functools.cached_property
    def dirac(self):
        return [dirac_report(self.ct, pt) for pt in self.probes]

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
            v = degenerate_velocities(ct, pt, cls=self.cls)[0].tolist()
            res = ct.resolve(pt)
            for a, (row, dh) in enumerate(zip(res.F.tolist(), res._flat("DH"))):
                defects[a not in self.cls.subblock].append(dot(row, v) - dh)
        return defects


def _random_observables(ctx, salt, count):
    """Seeded quadratic observables over coordinates and regular momenta."""
    ct = ctx.ct
    rng = ctx.rng(salt)
    syms = list(ct.model.coords) + [momentum_name(c) for c in ct.split.regular]
    out = []
    for _ in range(count):
        terms = []
        for _ in range(3):
            coeff = rng.uniform(-1.5, 1.5)
            s1 = syms[rng.integers(len(syms))]
            s2 = syms[rng.integers(len(syms))]
            terms.append(f"{coeff:.6f}*{s1}*{s2}")
        terms.append(f"{rng.uniform(-1.0, 1.0):.6f}*{syms[rng.integers(len(syms))]}")
        out.append(ExprObservable(ct, " + ".join(terms)))
    return out


# ------------------------------------------------------------ check bodies


def _rank_constancy(ctx):  # the run's own probe draws, not the split's
    probes = default_probes(ctx.ct.model, count=len(ctx.probes), seed=ctx.seed)
    yield 0.0 if check_rank_constancy(ctx.ct.model, ctx.ct.split, probes).passed else 1.0


def _envelope_gradients(ctx):
    # dH/dp_i == V^i holds once the degenerate velocities are zeroed
    ct = ctx.ct
    for pt in ctx.probes:
        try:
            res = ct.resolve(pt._replace(v_deg=[0.0] * (ct.n - ct.r)))
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
        yield ct.clairaut_residual(pt._q, pbar, v_deg=pt._v)


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


def _dirac_fab(ctx):
    return (d.fab_residual for d in ctx.dirac)


def _dirac_dhf(ctx):
    return (d.dhf_residual for d in ctx.dirac)


def _commutator(ctx):
    import numpy as np
    # [D_a, D_b] X = {F_ab, X}: per probe, one Jacobian of the vector D X
    # and one of F serve every pair
    ct = ctx.ct
    n_deg = ct.n - ct.r
    x = _random_observables(ctx, 11, 1)[0]
    pairs = [(a, b) for a in range(n_deg) for b in range(a + 1, n_deg)][:3]
    d_x = FiniteDifferenceObservable(
        lambda pt: np.array([long_derivative(ct, x, a, pt) for a in range(n_deg)]),
        ct, 1e-5)
    f = FiniteDifferenceObservable(lambda pt: field_strength(ct, pt), ct, 1e-5)
    for pt in ctx.probes[:2]:
        dxq, dxp = d_x.d_dq(pt), d_x.d_dp(pt)
        fq, fp = f.d_dq(pt), f.d_dp(pt)
        res = ct.resolve(pt)
        xq, xp = x.d_dq(pt), x.d_dp(pt)
        for a, b in pairs:
            lhs = (_long_derivative(ct, res, a, dxq[b], dxp[b])
                   - _long_derivative(ct, res, b, dxq[a], dxp[a]))
            yield lhs - _poisson(ct, fq[a, b], fp[a, b], xq, xp)


def _leibniz(ctx):
    import numpy as np
    # D_a {B_0, B_1} = {D_a B_0, B_1} + {B_0, D_a B_1}; one D_a B_b Jacobian per probe
    ct = ctx.ct
    dirs = range(min(ct.n - ct.r, 3))
    b0, b1 = BObservable(ct, 0), BObservable(ct, 1)
    pair = FiniteDifferenceObservable(lambda pt: poisson_phys(ct, b0, b1, pt), ct, 1e-5)
    d_b = FiniteDifferenceObservable(lambda pt: np.array(
        [[long_derivative(ct, b, a, pt) for b in (b0, b1)] for a in dirs]), ct, 1e-5)
    for pt in ctx.probes[:2]:
        res = ct.resolve(pt)
        pq, pp = pair.d_dq(pt), pair.d_dp(pt)
        dq, dp = d_b.d_dq(pt), d_b.d_dp(pt)
        bq, bp = res.dB_dq, res.dB_dp
        for a in dirs:
            rhs = (_poisson(ct, dq[a, 0], dp[a, 0], bq[1], bp[1])
                   + _poisson(ct, bq[0], bp[0], dq[a, 1], dp[a, 1]))
            yield _long_derivative(ct, res, a, pq, pp) - rhs


def _delta_commutator(ctx):
    import numpy as np
    # delta_0 {B_1, B_c} - delta_1 {B_0, B_c} = {{B_0, B_1}, B_c}; one Jacobian per probe
    ct = ctx.ct
    cs = range(min(ct.n - ct.r, 2))
    b = [BObservable(ct, k) for k in range(2)]
    inner = FiniteDifferenceObservable(lambda pt: np.array(
        [[delta_b(ct, x, b[c], pt) for c in cs] for x in (0, 1)]), ct, 1e-5)
    w = FiniteDifferenceObservable(lambda pt: poisson_phys(ct, b[0], b[1], pt), ct, 1e-5)
    for pt in ctx.probes[:2]:
        res = ct.resolve(pt)
        iq, ip = inner.d_dq(pt), inner.d_dp(pt)
        wq, wp = w.d_dq(pt), w.d_dp(pt)
        bq, bp = res.dB_dq, res.dB_dp
        for c in cs:
            lhs = (_poisson(ct, bq[0], bp[0], iq[1, c], ip[1, c])
                   - _poisson(ct, bq[1], bp[1], iq[0, c], ip[0, c]))
            yield lhs - _poisson(ct, wq, wp, bq[c], bp[c])


def _current_conservation(ctx):
    # sum_a D_a J_a from one Jacobian of the whole current vector
    ct = ctx.ct
    pt = ctx.probes[0]
    j = FiniteDifferenceObservable(lambda s: maxwell_current(ct, s), ct, 1e-4)
    jq, jp = j.d_dq(pt), j.d_dp(pt)
    res = ct.resolve(pt)
    total = 0.0
    for a in range(ct.n - ct.r):
        total += _long_derivative(ct, res, a, jq[a], jp[a])
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


def _sector_solved(ctx):
    return ctx.sector_defects[0]


def _sector_dependent(ctx):
    return ctx.sector_defects[1]


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


def _consistency_tower(ct, levels):
    """The consistency functions D_a H and their repeated brackets with
    H_phys: successive time derivatives along the frozen-gauge flow."""
    import numpy as np
    h_obs = ct.hamiltonian_observable()
    n_deg = ct.n - ct.r

    def base(point):
        return d_alpha_h(ct, ct.resolve(point))

    funcs = [base]
    for _ in range(levels - 1):
        prev = funcs[-1]

        # one Jacobian of the whole previous level per point
        def lifted(point, _fd=FiniteDifferenceObservable(prev, ct, 1e-5)):
            pq, pp = _fd.d_dq(point), _fd.d_dp(point)
            hq, hp = h_obs.d_dq(point), h_obs.d_dp(point)
            return np.array([_poisson(ct, pq[a], pp[a], hq, hp)
                             for a in range(n_deg)])

        funcs.append(lifted)

    def stacked(point):
        return np.concatenate([f(point) for f in funcs])

    return stacked


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
    """Gauss-Newton projection of (q, p) onto the zero set of the
    consistency tower; minimal-norm steps, best effort."""
    import numpy as np
    n = ct.n
    tower = FiniteDifferenceObservable(_consistency_tower(ct, levels), ct, step)
    u = np.concatenate([pt.q, pt.p])
    for _ in range(iters):
        cur = pt._replace(q=u[:n], p=u[n:])
        f0 = tower.value(cur)
        if float(np.max(np.abs(f0))) < 1e-12:
            break
        jac = np.hstack([tower.d_dq(cur), tower.d_dp(cur)])
        delta = _min_norm_step(jac.tolist(), (-f0).tolist())
        u = u + np.multiply(delta, 1.0 / max(math.sqrt(dot(delta, delta)), 1.0))  # at most 1 long
    return pt._replace(q=u[:n], p=u[n:])


PRESERVATION_TOL = 1e-5


def _constraint_preservation(ctx):
    """Start on the invariant set and watch the consistency stream.

    The projection depth escalates until a short trial run stays flat:
    models whose consistency functions close under one bracket need depth
    1, a genuinely higher-stage model needs the tower.  The drift grows like
    t^2, so the trial's bound is a tenth of the tolerance scaled by the
    squared ratio of the run lengths.
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
        ("constraint_bracket_matches_field_strength", 1e-9, _dirac_fab, n_deg > 0),
        ("constraint_hamiltonian_bracket_sign", 1e-9, _dirac_dhf, n_deg > 0),
        ("long_derivative_commutator", 1e-4, _commutator, n_deg >= 2),
        ("leibniz_rule", 1e-4, _leibniz, n_deg >= 2),
        ("delta_transformation_commutator", 1e-4, _delta_commutator, n_deg >= 2),
        ("current_conservation", 1e-3, _current_conservation, n_deg >= 2),
        ("bianchi_identity", 1e-4, _bianchi, n_deg >= 3),
        ("fenchel_reduction", 1e-7, _fenchel, n_deg == 0),
    ]
    if n_deg > 0 and cls.kind == "gaugeless":
        rows += [
            ("sector_solve_consistency", 1e-10, _sector_solved, True),
            ("corrected_bracket_antisymmetry_defect", None,
             _bracket_defect_antisymmetry, True),
            ("corrected_bracket_jacobiator", None, _bracket_jacobiator, True),
        ]
    if cls.kind == "gauge":
        rows += [
            ("solved_sector_consistency", 1e-10, _sector_solved, True),
            ("dependent_row_defect", None, _sector_dependent, True),
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
    ct = ClairautTransform(model)
    probes = phase_probes(ct, count=probe_count, seed=seed)
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
