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

An RK4 stage of integrate is one call of the generated stage kernel for the
gauge's plan (numerics.stage_kernel), on Python floats: full Newton steps for
the regular velocities from the last stage's, then the sector solve on the
core values at the root.  Where the steps give up, the stage resolves by
damped Newton (ClairautTransform._damped_resolve) and enters the kernel again
at that root, where it takes no step.  degenerate_velocities enters it at a
Resolution's root the same way, so both give the same floats.  The stage
builds no PhasePoint or Resolution and evaluates each prescribed velocity
once.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, GaugeInputError, IntegrabilityError, NewtonError
from .expressions import compile_evaluator, free_symbols, parse_expression
from .gauge import bracket_gauge, classify, field_strength
from .numerics import pfaffian, stage_kernel
from .transform import PhasePoint

# Sign relating the extended-bracket action of the constraints p_a - B_a to
# the sector derivative D_a H.  calibrate_sigma recovers it numerically; it
# is the same for every model and every direction.
SIGMA = -1.0


def d_alpha_h(ct, res):
    """D_a H_phys = dH/dq^a + sum_i (dB_a/dq^i dH/dp_i - dB_a/dp_i dH/dq^i)
    for all degenerate directions, from analytic gradients: the Resolution's
    read-only DH slot."""
    return res.DH


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
        raise GaugeInputError(f"degenerate slot {alpha} is solved, not prescribed")

    @cached_property
    def _plan(self):
        """The solved slots and the other ones, as tuples: the stage kernel's
        layout."""
        return (tuple(a for a, m in enumerate(self.modes) if m == "solve"),
                tuple(a for a, m in enumerate(self.modes) if m != "solve"))


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
        entry = spec.get(name, "solve" if a in solve_set else "zero")
        if isinstance(entry, str) and entry.strip() in ("solve", "zero"):
            modes.append(entry.strip())
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
    solve, other = gauge._plan
    # entered at the resolution's root, the kernel takes no Newton step
    _, _, v, residual, *_ = stage_kernel(ct.n, ct._reg, solve, other)(
        lambda args: res._core, ct.newton, pt.q.tolist(), pt.v_deg.tolist(), res.V.tolist(),
        pt.p.tolist(), [gauge.velocity(a, t) for a in other])
    return np.array(v), residual


# -------------------------------------------------------------- integration


@dataclass(frozen=True)
class IntegratorConfig:
    t0: float = 0.0
    t1: float = 1.0
    dt: float = 1e-3
    consistency_tol: float = 1e-6

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.t0, self.t1, self.dt)):
            raise ArgumentError("t0, t1 and dt must be finite")
        if self.dt <= 0:
            raise ArgumentError("dt must be positive")
        if (self.t1 - self.t0) / self.dt > 1e8:
            raise ArgumentError("more than 1e8 steps requested")
        if self.t1 <= self.t0:
            raise ArgumentError("t1 must exceed t0")
        if int(round((self.t1 - self.t0) / self.dt)) < 1:
            raise ArgumentError("time span shorter than one step")


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
        return PhasePoint(self.q[k], self.p[k], self.v_deg[k])


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
    solve, other = gauge._plan
    kernel = stage_kernel(ct.n, ct._reg, solve, other)
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

    q = np.asarray(initial.q, dtype=float).tolist()
    p = np.asarray(initial.p, dtype=float).tolist()
    warm = [np.asarray(initial.v_deg, dtype=float).tolist(), [0.0] * r]  # last v, last V
    velocity, f_core, newton = gauge.velocity, ct._f_core, ct.newton

    def stage(t, q, p):
        # H, B and their gradients ignore the degenerate velocities, but the
        # Lagrangian evaluations inside Newton may need an admissible value;
        # seed the point with prescribed values and the last solved ones
        vo = [velocity(a, t) for a in other]
        vd = list(warm[0])
        for a, val in zip(other, vo):
            vd[a] = val
        out = kernel(f_core, newton, q, vd, warm[1], p, vo)
        if out is None:  # enter again at damped Newton's root: no full step
            root = ct._damped_resolve(q, p, vd, warm[1])[1]
            out = kernel(f_core, newton, q, vd, root, p, vo)
        warm[0], warm[1] = out[2], out[6]
        return out  # dq, dp, v, residual, H, F's solved subblock, V

    def build(count, flagged):
        return Trajectory(out_t[:count].copy(), out_q[:count].copy(),
                          out_p[:count].copy(), out_v[:count].copy(),
                          out_h[:count].copy(), out_c[:count].copy(),
                          ct.model.coords, ct.split.regular,
                          ct.split.degenerate, flagged)

    def shift(x, h, dx):
        return [a + h * b for a, b in zip(x, dx)]

    pf_sign = None
    flagged = False
    half, sixth = cfg.dt / 2, cfg.dt / 6
    for k in range(steps + 1):
        t = float(out_t[k])
        try:
            dq1, dp1, v1, c1, h1, f1, _ = stage(t, q, p)
        except NewtonError as exc:
            raise IntegrabilityError(
                f"velocity resolution failed at t={t:.6g}: {exc}",
                trajectory=build(k, flagged)) from exc
        if solve:
            # f1 is the matrix the sector solve of this stage used
            sign = np.sign(pfaffian(np.reshape(f1, (len(solve), -1))))
            if pf_sign is not None and sign != pf_sign:
                raise IntegrabilityError(
                    "Pfaffian of the solved F subblock changed sign between "
                    f"t={float(out_t[k - 1]):.6g} and t={t:.6g}: the sector "
                    "system went singular inside that step",
                    trajectory=build(k, flagged))
            pf_sign = sign
        out_q[k], out_p[k] = q, p
        out_v[k], out_c[k], out_h[k] = v1, c1, h1
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
            dq2, dp2, *_ = stage(t + half, shift(q, half, dq1), shift(p, half, dp1))
            dq3, dp3, *_ = stage(t + half, shift(q, half, dq2), shift(p, half, dp2))
            dq4, dp4, *_ = stage(t + cfg.dt, shift(q, cfg.dt, dq3), shift(p, cfg.dt, dp3))
        except NewtonError as exc:
            raise IntegrabilityError(
                f"velocity resolution failed inside step at t={t:.6g}: {exc}",
                trajectory=build(k + 1, flagged)) from exc
        q = [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(q, dq1, dq2, dq3, dq4)]
        p = [x + sixth * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(p, dp1, dp2, dp3, dp4)]
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
    dt2 = 2 * traj.dt
    coords = traj.coords
    reg = [coords.index(c) for c in traj.regular]
    deg = [coords.index(c) for c in traj.degenerate]
    core, n = model.core, len(coords)
    qv = np.hstack([traj.q[1:-1], (traj.q[2:] - traj.q[:-2]) / dt2])
    at = slice(core.slices["L_v"].start, core.slices["L_q"].stop)  # L_v, then L_q
    vals = np.empty((m - 2, 2 * n))
    for k in range(m - 2):
        vals[k] = core.fn(qv[k].tolist())[at]
    lv, lq = vals[:, :n], vals[1:-1, n:]  # rows: samples 1 .. m-2 and 2 .. m-3
    p = traj.p
    terms = np.hstack([np.abs((p[3:-1] - p[1:-3]) / dt2 - lq[:, reg]),
                       np.abs(p[2:-2] - lv[1:-1, reg]),
                       np.abs((lv[2:, deg] - lv[:-2, deg]) / dt2 - lq[:, deg])])
    out[2:-2] = np.fmax.reduce(terms, axis=1, initial=0.0)  # a nan term is skipped
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
