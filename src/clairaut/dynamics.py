"""Time evolution of the mixed system and its verification instruments.

The evolution equations integrated here are

    dq^i/dt = dH/dp_i - sum_b (dB_b/dp_i) v^b
    dp_i/dt = -dH/dq^i + sum_b (dB_b/dq^i) v^b
    dq^a/dt = v^a

with the degenerate velocities v^a at every stage either solved from the
linear sector system F v = D H (all of them in the gaugeless case, the
classification subblock in the gauge case) or supplied as functions of t.
The infinity norm of F v - D H over all degenerate rows is the consistency
residual: nonzero values on the unsolved rows flag initial data off the
model's invariant surface.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeInputError, IntegrabilityError, NewtonError, RankDeficiencyError
from .expressions import compile_evaluator, free_symbols, parse_expression
from .gauge import bracket_gauge, classify, field_strength
from .numerics import pfaffian
from .transform import PhasePoint

# Sign relating the extended-bracket action of the constraints p_a - B_a to
# the sector derivative D_a H.  calibrate_sigma recovers it numerically; it
# is the same for every model and every direction.
SIGMA = -1.0


def d_alpha_h(ct, res):
    """D_a H_phys for all degenerate directions, from analytic gradients."""
    reg = ct.reg_idx
    return (res.dH_dq[ct.deg_idx]
            + res.dB_dq[:, reg] @ res.dH_dp
            - res.dB_dp @ res.dH_dq[reg])


# --------------------------------------------------------------- gauge input


@dataclass(frozen=True)
class GaugeInput:
    """Per degenerate coordinate: solve it from the sector system, pin it to
    zero, or prescribe it as a function of t."""

    modes: tuple      # "solve" | "zero" | "prescribed", per degenerate coord
    values: tuple     # compiled t -> value for prescribed slots, else None

    def velocity(self, alpha, t):
        mode = self.modes[alpha]
        if mode == "zero":
            return 0.0
        if mode == "prescribed":
            return float(self.values[alpha]([t]))
        raise ValueError("slot is solved, not prescribed")


def gauge_input(ct, cls, spec=None):
    """Build and validate a GaugeInput against the classification.

    spec maps degenerate coordinate names to "solve", "zero", a number, or
    an expression in t.  Omitted names default to the classification's
    requirement: solved where the sector system fixes them, zero elsewhere.
    """
    deg = ct.split.degenerate
    solve_set = set(cls.subblock)
    spec = dict(spec or {})
    unknown = set(spec) - set(deg)
    if unknown:
        raise GaugeInputError(
            "not degenerate coordinates: " + ", ".join(sorted(unknown)))
    modes, values = [], []
    for a, name in enumerate(deg):
        if name not in spec:
            if a in solve_set:
                modes.append("solve")
                values.append(None)
            else:
                modes.append("zero")
                values.append(None)
            continue
        entry = spec[name]
        if isinstance(entry, str) and entry.strip() == "solve":
            modes.append("solve")
            values.append(None)
            continue
        if isinstance(entry, str) and entry.strip() == "zero":
            modes.append("zero")
            values.append(None)
            continue
        if isinstance(entry, (int, float)):
            entry = str(float(entry))
        expr = parse_expression(entry) if isinstance(entry, str) else entry
        extra = free_symbols(expr) - {"t"}
        if extra:
            raise GaugeInputError(
                f"prescribed velocity for {name} may only depend on t; "
                "found: " + ", ".join(sorted(extra)))
        modes.append("prescribed")
        values.append(compile_evaluator(expr, ["t"]))
    gi = GaugeInput(tuple(modes), tuple(values))
    check_gauge_input(ct, gi, cls)
    return gi


def check_gauge_input(ct, gauge, cls):
    """The solved set must be exactly what the classification dictates."""
    deg = ct.split.degenerate
    solved = {a for a, m in enumerate(gauge.modes) if m == "solve"}
    required = set(cls.subblock) if cls.kind != "limit" else set()
    if solved != required:
        want = ", ".join(deg[a] for a in sorted(required)) or "(none)"
        got = ", ".join(deg[a] for a in sorted(solved)) or "(none)"
        raise GaugeInputError(
            f"{cls.kind} classification requires solving exactly {{{want}}} "
            f"from the sector system, but the gauge input solves {{{got}}}")


# ---------------------------------------------------------- sector velocities


def degenerate_velocities(ct, pt, gauge=None, cls=None, t=0.0, res=None):
    """Velocities of the degenerate sector at one point, plus the residual
    ||F v - D H||_inf over all rows (solved and unsolved alike)."""
    if cls is None:
        cls = classify(ct)
    if gauge is None:
        gauge = gauge_input(ct, cls)
    else:
        check_gauge_input(ct, gauge, cls)
    if res is None:
        res = ct.resolve(pt)
    n_deg = ct.n - ct.r
    if n_deg == 0:
        return np.zeros(0), 0.0
    f = field_strength(ct, pt)
    dh = d_alpha_h(ct, res)
    v = np.zeros(n_deg)
    solve_idx = [a for a, m in enumerate(gauge.modes) if m == "solve"]
    for a, mode in enumerate(gauge.modes):
        if mode != "solve":
            v[a] = gauge.velocity(a, t)
    if solve_idx:
        other = [a for a in range(n_deg) if a not in solve_idx]
        sub = f[np.ix_(solve_idx, solve_idx)]
        rhs = dh[solve_idx]
        if other:
            rhs = rhs - f[np.ix_(solve_idx, other)] @ v[other]
        try:
            v[solve_idx] = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(
                "sector subblock singular at this point; the constant-rank "
                "classification does not hold here") from None
    residual = float(np.max(np.abs(f @ v - dh))) if n_deg else 0.0
    return v, residual


# -------------------------------------------------------------- integration


@dataclass(frozen=True)
class IntegratorConfig:
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    consistency_tol: float = 1e-6

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.t0, self.t1, self.dt)):
            raise ValueError("t0, t1 and dt must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if (self.t1 - self.t0) / self.dt > 1e8:
            raise ValueError("more than 1e8 steps requested")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if int(round((self.t1 - self.t0) / self.dt)) < 1:
            raise ValueError("time span shorter than one step")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution with per-sample diagnostics."""

    t: np.ndarray
    q: np.ndarray
    p: np.ndarray
    v_deg: np.ndarray
    h_phys: np.ndarray
    consistency: np.ndarray
    coords: tuple
    regular: tuple
    degenerate: tuple
    flagged: bool = False

    def __len__(self):
        return len(self.t)

    @property
    def dt(self):
        return float(self.t[1] - self.t[0]) if len(self.t) > 1 else 0.0

    def point(self, k):
        return PhasePoint(self.q[k].copy(), self.p[k].copy(), self.v_deg[k].copy())


def integrate(ct, initial, gauge=None, cfg=None, cls=None):
    """Fixed-step RK4 over the mixed equations of motion.

    A consistency residual above cfg.consistency_tol at t0 only flags the
    trajectory (initial data deliberately off the invariant surface is
    allowed); a residual that starts small and then drifts above the
    tolerance aborts with the truncated trajectory attached, as does a
    Newton failure mid-run.  So does a step across a singular point of the
    solved F subblock, seen as a sign change of its Pfaffian between the
    starts of two steps: the determinant, Pf^2, cannot see it.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    cls = cls if cls is not None else classify(ct)
    if gauge is None:
        gauge = gauge_input(ct, cls)
    else:
        check_gauge_input(ct, gauge, cls)
    steps = int(round((cfg.t1 - cfg.t0) / cfg.dt))
    n, r = ct.n, ct.r
    n_deg = n - r
    m = steps + 1
    out_t = cfg.t0 + cfg.dt * np.arange(m)
    out_q = np.empty((m, n))
    out_p = np.empty((m, r))
    out_v = np.empty((m, n_deg))
    out_h = np.empty(m)
    out_c = np.empty(m)

    q = np.asarray(initial.q, dtype=float).copy()
    p = np.asarray(initial.p, dtype=float).copy()
    warm_v = [np.asarray(initial.v_deg, dtype=float).copy()]
    warm_reg = [None]

    def stage(t, q, p):
        # H, B and their gradients ignore the degenerate velocities, but the
        # Lagrangian evaluations inside Newton may need an admissible value;
        # seed the point with prescribed values and the last solved ones
        v_ref = warm_v[0].copy()
        for a, mode in enumerate(gauge.modes):
            if mode != "solve":
                v_ref[a] = gauge.velocity(a, t)
        pt = PhasePoint(q.copy(), p.copy(), v_ref)
        res = ct.resolve(pt, v_init=warm_reg[0])
        warm_reg[0] = res.V
        v, resid = degenerate_velocities(ct, pt, gauge, cls, t=t, res=res)
        warm_v[0] = v
        dq = np.empty(n)
        dq[ct.reg_idx] = res.dH_dp - v @ res.dB_dp
        dq[ct.deg_idx] = v
        dp = -res.dH_dq[ct.reg_idx] + v @ res.dB_dq[:, ct.reg_idx]
        return dq, dp, v, resid, res

    def build(count, flagged):
        return Trajectory(out_t[:count].copy(), out_q[:count].copy(),
                          out_p[:count].copy(), out_v[:count].copy(),
                          out_h[:count].copy(), out_c[:count].copy(),
                          ct.model.coords, ct.split.regular,
                          ct.split.degenerate, flagged)

    solve_idx = [a for a, mode in enumerate(gauge.modes) if mode == "solve"]
    sub_ix = np.ix_(solve_idx, solve_idx) if solve_idx else None
    pf_sign = None
    flagged = False
    half = cfg.dt / 2
    for k in range(steps + 1):
        t = float(out_t[k])
        try:
            dq1, dp1, v1, c1, res1 = stage(t, q, p)
        except NewtonError as exc:
            raise IntegrabilityError(
                f"velocity resolution failed at t={t:.6g}: {exc}",
                trajectory=build(k, flagged)) from exc
        if sub_ix is not None:
            # res1.F is the matrix the sector solve of this stage used
            sign = np.sign(pfaffian(res1.F[sub_ix]))
            if pf_sign is not None and sign != pf_sign:
                raise IntegrabilityError(
                    "Pfaffian of the solved F subblock changed sign between "
                    f"t={float(out_t[k - 1]):.6g} and t={t:.6g}: the sector "
                    "system went singular inside that step",
                    trajectory=build(k, flagged))
            pf_sign = sign
        out_q[k], out_p[k] = q, p
        out_v[k], out_c[k], out_h[k] = v1, c1, res1.H
        if c1 > cfg.consistency_tol:
            if k == 0:
                flagged = True
            elif not flagged:
                raise IntegrabilityError(
                    f"consistency residual {c1:.3e} exceeded "
                    f"{cfg.consistency_tol:.3e} at t={t:.6g}",
                    trajectory=build(k + 1, flagged))
        if k == steps:
            break
        try:
            dq2, dp2, *_ = stage(t + half, q + half * dq1, p + half * dp1)
            dq3, dp3, *_ = stage(t + half, q + half * dq2, p + half * dp2)
            dq4, dp4, *_ = stage(t + cfg.dt, q + cfg.dt * dq3, p + cfg.dt * dp3)
        except NewtonError as exc:
            raise IntegrabilityError(
                f"velocity resolution failed inside step at t={t:.6g}: {exc}",
                trajectory=build(k + 1, flagged)) from exc
        q = q + (cfg.dt / 6) * (dq1 + 2 * dq2 + 2 * dq3 + dq4)
        p = p + (cfg.dt / 6) * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
    return build(m, flagged)


# ------------------------------------------------------------- verification


def el_residual(model, traj):
    """Per-sample defect of d/dt(dL/dv^A) = dL/dq^A along the trajectory.

    Velocities come from central differences of the stored coordinates.  On
    the regular rows d/dt(dL/dv^i) differentiates the stored momenta, and
    the defining relation p_i = dL/dv^i is checked alongside, so corrupted
    momenta show up whether or not their time derivative changes.  The
    degenerate rows difference dL/dv^a.  L_v and L_q come from one call of
    the model's derivative core per sample.  The first two and last two
    samples are NaN (stencil width).
    """
    m = len(traj.t)
    out = np.full(m, np.nan)
    if m < 5:
        return out
    dt = traj.dt
    coords = traj.coords
    n = len(coords)
    reg_pos = [coords.index(c) for c in traj.regular]
    deg_pos = [coords.index(c) for c in traj.degenerate]
    core = model.core
    lv_at, lq_at = core.slices["L_v"], core.slices["L_q"]

    v_fd = np.full((m, n), np.nan)
    v_fd[1:-1] = (traj.q[2:] - traj.q[:-2]) / (2 * dt)
    lv = np.full((m, n), np.nan)
    lq = np.full((m, n), np.nan)
    for k in range(1, m - 1):
        vals = core.fn(list(traj.q[k]) + list(v_fd[k]))
        lv[k] = vals[lv_at]
        lq[k] = vals[lq_at]
    for k in range(2, m - 2):
        worst = 0.0
        for i, pos in enumerate(reg_pos):
            lhs = (traj.p[k + 1, i] - traj.p[k - 1, i]) / (2 * dt)
            worst = max(worst, abs(lhs - lq[k, pos]))
            worst = max(worst, abs(traj.p[k, i] - lv[k, pos]))
        for pos in deg_pos:
            lhs = (lv[k + 1, pos] - lv[k - 1, pos]) / (2 * dt)
            worst = max(worst, abs(lhs - lq[k, pos]))
        out[k] = worst
    return out


def evolve_observable(ct, x, traj, cls):
    """Per-sample |dX/dt - {X, H_phys}_bracket| with the bracket picked by
    the classification; NaN at the stencil edges."""
    m = len(traj.t)
    out = np.full(m, np.nan)
    if m < 3:
        return out
    dt = traj.dt
    values = np.array([x.value(traj.point(k)) for k in range(m)])
    for k in range(1, m - 1):
        pt = traj.point(k)
        rhs = bracket_gauge(ct, x, ct.hamiltonian_observable(), pt, cls)
        out[k] = abs((values[k + 1] - values[k - 1]) / (2 * dt) - rhs)
    return out


# ------------------------------------------------- constraint correspondence


@dataclass(frozen=True)
class DiracReport:
    """Cross-check of the sector identities against the extended phase space
    where every coordinate gets a conjugate momentum."""

    phi: np.ndarray            # constraint values p_a - B_a
    h_t: float                 # H_phys + v . phi
    sigma: float
    fab_residual: float        # max |{phi_a, phi_b}_full - F_ab|
    dhf_residual: float        # max |{phi_a, H}_full - sigma D_a H|
    second_stage: np.ndarray   # {phi_a, H_T}_full given the point's v_deg


def _full_bracket(ct, xq, xp_reg, xp_deg, yq, yp_reg, yp_deg):
    """Canonical bracket over all n pairs; momenta indexed like coords."""
    return (float(xq[ct.reg_idx] @ yp_reg - yq[ct.reg_idx] @ xp_reg)
            + float(xq[ct.deg_idx] @ yp_deg - yq[ct.deg_idx] @ xp_deg))


def _constraint_brackets(ct, res):
    """Raw {phi_a, phi_b}_full matrix and {phi_a, H_phys}_full vector."""
    n_deg = ct.n - ct.r
    eye = np.eye(n_deg)
    fab = np.empty((n_deg, n_deg))
    dhf = np.empty(n_deg)
    zeros = np.zeros(n_deg)
    for a in range(n_deg):
        xq, xp_reg, xp_deg = -res.dB_dq[a], -res.dB_dp[a], eye[a]
        dhf[a] = _full_bracket(ct, xq, xp_reg, xp_deg,
                               res.dH_dq, res.dH_dp, zeros)
        for b in range(n_deg):
            yq, yp_reg, yp_deg = -res.dB_dq[b], -res.dB_dp[b], eye[b]
            fab[a, b] = _full_bracket(ct, xq, xp_reg, xp_deg, yq, yp_reg, yp_deg)
    return fab, dhf


def dirac_report(ct, pt, p_deg=None):
    """Evaluate the constraints and their extended-bracket identities at pt.

    p_deg supplies candidate momenta for the degenerate coordinates; the
    default takes them on the constraint surface (p_deg = B), making every
    phi vanish.  The point's own v_deg enters the second-stage values.
    """
    res = ct.resolve(pt)
    n_deg = ct.n - ct.r
    if p_deg is None:
        p_deg = res.B.copy()
    p_deg = np.asarray(p_deg, dtype=float)
    phi = p_deg - res.B
    v = pt.v_deg
    h_t = float(res.H + v @ phi)
    f = field_strength(ct, pt)
    dh = d_alpha_h(ct, res)
    fab, dhf = _constraint_brackets(ct, res)
    fab_residual = float(np.max(np.abs(fab - f))) if n_deg else 0.0
    dhf_residual = float(np.max(np.abs(dhf - SIGMA * dh))) if n_deg else 0.0
    second_stage = dhf + fab @ v
    return DiracReport(phi, h_t, SIGMA, fab_residual, dhf_residual, second_stage)


def calibrate_sigma(ct, points, tol=1e-6, floor=1e-8):
    """Recover the global sign as {phi_a, H}_full / D_a H, sampled wherever
    the denominator is meaningful.

    Returns None when every denominator is below floor (nothing to calibrate,
    e.g. a vanishing Hamiltonian); raises if the ratio is not the same value
    of magnitude one everywhere.
    """
    signs = set()
    for pt in points:
        res = ct.resolve(pt)
        dh = d_alpha_h(ct, res)
        _, dhf = _constraint_brackets(ct, res)
        for a in range(ct.n - ct.r):
            if abs(dh[a]) <= floor:
                continue
            ratio = dhf[a] / dh[a]
            if not math.isfinite(ratio) or abs(abs(ratio) - 1.0) > tol:
                raise IntegrabilityError(
                    f"sign ratio {ratio!r} is not a unit constant; the "
                    "sector identity does not hold at this point")
            signs.add(1.0 if ratio > 0 else -1.0)
    if not signs:
        return None
    if len(signs) > 1:
        raise IntegrabilityError(
            "the constraint-bracket sign flips between points/directions: "
            f"{sorted(signs)}")
    return signs.pop()
