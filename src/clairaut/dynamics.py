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

integrate is one call of the generated RK4 loop for the gauge's plan
(numerics.rk4_kernel), on Python floats, which writes the trajectory's rows
into an array of doubles; _integrate maps its exit status to the rows'
build (integrate's Trajectory, verify's floats) or to an IntegrabilityError
carrying the build of the rows written.  Each stage is one
call of the transform's fused stage (ClairautTransform._stage: full Newton
steps from the last stage's velocities, then the sector solve, the core
inline) or, where those steps give up, two: a second at tol inf from the
root of ClairautTransform._damped_resolve, which the loop calls itself (the
fused steps give up exactly where resolve_kernel's would, so damped Newton
decides).  The stage takes and returns flat floats, and no stage builds a
PhasePoint or Resolution; a zero gauge velocity is the literal 0.0 in the
loop, and each prescribed one a call of its compiled evaluator once per
distinct time of a step.
degenerate_velocities solves the sector system on a Resolution's F and D_a H
in the stage's order (_sector_velocities): the same floats.
"""

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from .errors import ArgumentError, DomainError, GaugeInputError, IntegrabilityError, NewtonError
from .expressions import compile_evaluator, free_symbols, parse_expression
from .gauge import _subblock_solve, bracket_gauge, classify, field_strength
from .manytime import g_matrix, map_to_manytime
from .numerics import SECTOR_SINGULAR, _floats, _max_abs, dot, rk4_kernel
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
        """Slot alpha's velocity at t (the RK4 loop reads values itself)."""
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


def _gauge_for(ct, gauge, cls):
    """The gauge input a run uses: gauge, checked against the classification
    cls (classify(ct) if None), or else that classification's default."""
    if cls is None:
        cls = classify(ct)
    if gauge is None:
        return gauge_input(ct, cls)
    check_gauge_input(ct, gauge, cls)
    return gauge


# ---------------------------------------------------------- sector velocities


def degenerate_velocities(ct, pt, gauge=None, cls=None, t=0.0, res=None):
    """Velocities of the degenerate sector at one point, plus the residual
    ||F v - D H||_inf over all rows (solved and unsolved alike), on the
    resolution res (ct.resolve(pt) if None): the RK4 stage's floats."""
    import numpy as np
    v, residual = _sector_velocities(ct, pt, gauge, cls, t, res)
    return np.array(v), residual


def _sector_velocities(ct, pt, gauge, cls, t, res):
    """degenerate_velocities with the velocities as a list of floats."""
    gauge = _gauge_for(ct, gauge, cls)
    if res is None:
        res = ct.resolve(pt)
    solve, other = gauge._plan
    f, dh, nd = res._flat("F"), res._flat("DH"), ct.n - ct.r
    v = [gauge.velocity(a, t) if a in other else 0.0 for a in range(nd)]
    rhs = [dh[s] - dot([f[s * nd + o] for o in other], [v[o] for o in other]) for s in solve]
    for s, x in zip(solve, _subblock_solve(res, solve, rhs, SECTOR_SINGULAR)):
        v[s] = x
    return v, _max_abs(dot(f[k * nd:k * nd + nd], v) - dh[k] for k in range(nd))


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
        if self._steps < 1:
            raise ArgumentError("time span shorter than one step")

    _steps = property(lambda self: int(round((self.t1 - self.t0) / self.dt)))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution with per-sample diagnostics."""

    t: "np.ndarray"
    q: "np.ndarray"
    p: "np.ndarray"
    v_deg: "np.ndarray"
    h_phys: "np.ndarray"
    consistency: "np.ndarray"
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

    @property
    def columns(self):
        """The names of a row's values: the CSV header up to el_residual."""
        return _columns(self.coords, self.regular, self.degenerate)


def _columns(coords, regular, degenerate):
    return (["t"] + [f"q:{c}" for c in coords] + [f"p:{c}" for c in regular]
            + [f"v:{c}" for c in degenerate] + ["H_phys", "consistency_residual"])


def integrate(ct, initial, gauge=None, cfg=None, cls=None):
    """Fixed-step RK4 over the mixed equations of motion.

    A consistency residual above cfg.consistency_tol at t0 only flags the
    trajectory (initial data deliberately off the invariant surface is
    allowed); a residual that starts small and then drifts above the
    tolerance aborts with the truncated trajectory attached, as does a
    Newton failure mid-run.  So does a step across a singular point of the
    solved F subblock, seen as a sign change of its Pfaffian between the
    starts of two steps (the determinant, Pf^2, cannot see it), and one
    across a singular point of W_rr, seen as a sign change of det W_rr (a
    zero of even order keeps the sign, and passes).  A row with
    a non-finite value, or a prescribed velocity undefined at a stage's
    time, aborts with the rows written before it.
    """
    cfg = cfg if cfg is not None else IntegratorConfig()
    return _integrate(ct, initial, gauge, cfg, cls, _trajectory)


def _trajectory(ct, rows, count, cfg):
    """The Trajectory of the first count rows of rows, an array of doubles."""
    import numpy as np
    n, width = ct.n, 2 * ct.n + 3
    table = np.frombuffer(rows, count=count * width).reshape(count, width)
    cols = np.cumsum([1, n, ct.r, n - ct.r, 1])
    t, q, p, v, h, c = (col.copy() for col in np.split(table, cols, axis=1))
    return Trajectory(t[:, 0], q, p, v, h[:, 0], c[:, 0], ct.model.coords,
                      ct.split.regular, ct.split.degenerate,
                      bool(count and c[0, 0] > cfg.consistency_tol))


def _integrate(ct, initial, gauge, cfg, cls, build):
    """integrate's run: build(ct, rows, count, cfg) of the kernel's array of
    doubles rows, count whole rows (t, q, p, v_deg, H, consistency), and
    each IntegrabilityError carries build's result for the rows before the
    one at fault."""
    ct._check_point(initial)
    gauge = _gauge_for(ct, gauge, cls)
    solve, other = gauge._plan
    n, width = ct.n, 2 * ct.n + 3
    rows = array("d")
    try:
        zeros = tuple(a for a in other if gauge.modes[a] == "zero")
        status = rk4_kernel(n, ct._reg, solve, other, zeros)(
            ct._stage(solve, other), ct.newton.tol, ct._damped_resolve, gauge.values,
            initial._q, initial._p, initial._v, cfg.t0, cfg.dt,
            cfg._steps, cfg.consistency_tol, rows)
    except (NewtonError, DomainError) as exc:
        count, cut = divmod(len(rows), width)  # cut: stage 1 of the step raised
        t = rows[-1 if cut else -width]
        if isinstance(exc, DomainError):  # raised by a prescribed velocity: find it
            for time, a in itertools.product((t, t + cfg.dt / 2, t + cfg.dt), other):
                try:
                    gauge.velocity(a, time)
                except DomainError as err:
                    raise IntegrabilityError(
                        f"prescribed velocity d({ct.split.degenerate[a]}) is not defined at "
                        f"t={time:.6g}: {err}", trajectory=build(ct, rows, count, cfg)) from exc
            raise
        where, text = "" if cut else "inside step ", str(exc)
        if cut and not count and other:  # the first stage: blame the gauge's velocities
            v = [gauge.velocity(a, cfg.t0) if a in other else w for a, w in enumerate(initial._v)]
            if not ct.start_in_domain(initial._replace(v_deg=v)):
                text += "; the start lies outside the Lagrangian's domain at the gauge's " + \
                    ", ".join(f"d({ct.split.degenerate[a]}) = {v[a]:.6g}" for a in other)
        raise IntegrabilityError(
            f"velocity resolution failed {where}at t={t:.6g}: {text}",
            trajectory=build(ct, rows, count, cfg)) from exc
    count = len(rows) // width
    if status == 1:
        raise IntegrabilityError(
            f"consistency residual {rows[-1]:.3e} exceeded "
            f"{cfg.consistency_tol:.3e} at t={rows[-width]:.6g}",
            trajectory=build(ct, rows, count, cfg))
    if status in (2, 4):
        block, system = (("Pfaffian of the solved F subblock", "sector system") if status == 2
                         else ("regular velocity Hessian block W_rr's determinant",
                               "velocity resolution"))
        raise IntegrabilityError(
            f"{block} changed sign between t={rows[-1 - width]:.6g} and t={rows[-1]:.6g}: "
            f"the {system} went singular inside that step", trajectory=build(ct, rows, count, cfg))
    if status == 3:  # the last row holds a value that is not finite: the first, row-major
        at = next(i for i, x in enumerate(rows) if not math.isfinite(x))
        k, col = divmod(at, width)
        name = _columns(ct.model.coords, ct.split.regular, ct.split.degenerate)[col]
        raise IntegrabilityError(f"non-finite {name} = {rows[at]} at t={rows[k * width]:.6g}",
                                 trajectory=build(ct, rows, k, cfg))
    return build(ct, rows, count, cfg)


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
    import numpy as np
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
    import numpy as np
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

    phi: "np.ndarray"          # constraint values p_a - B_a
    h_t: float                 # H_phys + v . phi
    sigma: float
    fab_residual: float        # max |{phi_a, phi_b}_full - F_ab|
    dhf_residual: float        # max |{phi_a, H}_full - sigma D_a H|
    second_stage: "np.ndarray" # {phi_a, H_T}_full given the point's v_deg


def _constraint_brackets(ct, pt):
    """{phi_a, phi_b}_full matrix and {phi_a, H_phys}_full vector over all n
    canonical pairs: the degenerate block of the many-time form G and minus
    its first row (manytime), so G's bracket, gauge._poisson, is the only one."""
    g = g_matrix(map_to_manytime(ct), pt)
    return g[1:, 1:], -g[0, 1:]


def dirac_report(ct, pt, p_deg=None):
    """Evaluate the constraints and their extended-bracket identities at pt.

    p_deg supplies candidate momenta for the degenerate coordinates; the
    default takes them on the constraint surface (p_deg = B), making every
    phi vanish; a p_deg of another length than v_deg is an ArgumentError.
    The point's own v_deg enters the second-stage values.
    """
    import numpy as np
    res = ct.resolve(pt)
    p_deg = res._flat("B") if p_deg is None else _floats(p_deg)
    if len(p_deg) != len(pt._v):
        raise ArgumentError(f"dirac_report takes {len(pt._v)} degenerate values, "
                            f"not {len(p_deg)}")
    p_deg = np.array(p_deg)
    fab, dhf = _constraint_brackets(ct, pt)
    return DiracReport(p_deg - res.B, ct.h_mix(pt, p_deg), SIGMA,
                       float(_max_abs((fab - field_strength(ct, pt)).flat)),
                       float(_max_abs((dhf - SIGMA * d_alpha_h(ct, res)).flat)),
                       dhf + np.array([dot(row, pt.v_deg) for row in fab.tolist()]))


def calibrate_sigma(ct, points, tol=1e-6, floor=1e-8):
    """Recover the global sign as {phi_a, H}_full / D_a H, sampled wherever
    the denominator is meaningful.

    Returns None when every denominator is below floor (nothing to calibrate,
    e.g. a vanishing Hamiltonian); raises if the ratio is not the same value
    of magnitude one everywhere.
    """
    signs = set()
    for pt in points:
        dh = d_alpha_h(ct, ct.resolve(pt))
        _, dhf = _constraint_brackets(ct, pt)
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
