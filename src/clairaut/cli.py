"""Command-line front end.

Subcommands: analyze (split and classification as JSON), transform
(Hamiltonian, sector functions, and residuals at a point), simulate
(trajectory CSV plus an optional SVG plot), verify (property-suite JSON),
and pde (Clairaut equation solution families).

Exit codes: 0 success, 1 a verification or tolerance failure, otherwise
the exit_code of the error raised (errors.py: 2 usage or parse error, 3
numeric failure); an OSError exits 2.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .clairaut_pde import (
    ClairautProblem,
    envelope_solution,
    general_solution,
    mixed_solution,
    pde_residual,
)
from .dynamics import IntegratorConfig, el_residual, gauge_input, integrate
from .errors import ArgumentError, ClairautError, DomainError, NewtonError
from .fixtures import BUNDLED, load_bundled
from .gauge import classify, phase_probes
from .model import (
    DEFAULT_PROBE_COUNT,
    DEFAULT_PROBE_SEED,
    DEFAULT_RANK_TOL,
    load_model,
    momentum_name,
    velocity_name,
)
from .transform import ClairautTransform
from .verify import render_report, run_verification


# each probe may take up to 400 draws, each running the domain guards
MAX_PROBES = 10_000


# ------------------------------------------------------------ flag parsing


def _parse_bindings(text, what):
    """Comma-separated name=value pairs, values kept as strings; a name
    bound twice is an ArgumentError."""
    out = {}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not name or not value:
            raise ArgumentError(f"bad {what} entry {part!r}: expected name=value")
        if name in out:
            raise ArgumentError(f"{what} binds {name!r} more than once")
        out[name] = value
    return out


def _parse_float(text, what):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ArgumentError(f"{what} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ArgumentError(f"{what} must be finite, got {text!r}")
    return value


def _check_numeric_flags(args):
    """--dt, --t1, --tol finite and positive; --probes in 1..MAX_PROBES; --seed >= 0."""
    for flag in ("dt", "t1", "tol"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ArgumentError(f"--{flag} must be finite and positive, got {value}")
    for flag, low, high in (("probes", 1, MAX_PROBES), ("seed", 0, math.inf)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise ArgumentError(f"--{flag} must be at least {low}, got {value}")
        if value is not None and value > high:
            raise ArgumentError(f"--{flag} must be at most {high}, got {value}")


def _load(spec):
    path = str(spec)
    if os.path.exists(path):
        return load_model(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem in BUNDLED and path in (stem, stem + ".lag"):
        return load_bundled(stem)
    raise ArgumentError(f"model file not found: {path}")


def _apply_params(model, text):
    overrides = _parse_bindings(text, "--param")
    if not overrides:
        return model
    params = dict(model.params)
    for name, value in overrides.items():
        if name not in params:
            have = ", ".join(params) or "none"
            raise ArgumentError(f"unknown parameter {name!r}; model has: {have}")
        params[name] = _parse_float(value, f"param {name}")
    return dataclasses.replace(model, params=params)


def _bind_point(ct, text, what, require_all=False):
    """Build a phase point from coordinate, p_<coord>, and d(<coord>) bindings."""
    coords = ct.model.coords
    regular = set(ct.split.regular)
    degenerate = set(ct.split.degenerate)
    q, p, v = {}, {}, {}
    for name, value in _parse_bindings(text, what).items():
        x = _parse_float(value, name)
        if name in coords:
            q[name] = x
        elif name.startswith("p_") and name[2:] in regular:
            p[name[2:]] = x
        elif name.startswith("d(") and name.endswith(")") and name[2:-1] in degenerate:
            v[name[2:-1]] = x
        else:
            valid = (list(coords)
                     + [momentum_name(c) for c in ct.split.regular]
                     + [velocity_name(c) for c in ct.split.degenerate])
            raise ArgumentError(
                f"unknown binding {name!r} in {what}; valid names: "
                + ", ".join(valid))
    if require_all:
        missing = [c for c in coords if c not in q]
        missing += [momentum_name(c) for c in ct.split.regular if c not in p]
        if missing:
            raise ArgumentError(f"{what} must bind every coordinate and regular "
                                "momentum; missing: " + ", ".join(missing))
    return ct.point(q, p, v), bool(v)


def _write_output(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ------------------------------------------------------------- subcommands


def cmd_analyze(args):
    model = _apply_params(_load(args.model), args.param)
    ct = ClairautTransform(model)
    probes = phase_probes(ct, count=args.probes, seed=args.seed)
    cls = classify(ct, probes=probes)
    report = {
        "model": model.name,
        "coords": list(model.coords),
        "params": {k: float(v) for k, v in model.params.items()},
        "hessian_rank": int(ct.r),
        "regular": list(ct.split.regular),
        "degenerate": list(ct.split.degenerate),
        "permutation": [int(k) for k in ct.split.permutation],
        "classification": {"kind": cls.kind, "rank_F": int(cls.r_f)},
        "probes": {"count": int(args.probes), "seed": int(args.seed)},
        "tolerances": {"rank": DEFAULT_RANK_TOL},
    }
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_transform(args):
    model = _apply_params(_load(args.model), args.param)
    ct = ClairautTransform(model)
    pt, bound_v = _bind_point(ct, args.at, "--at", require_all=True)
    # the default v_deg = 0 can sit outside the Lagrangian's domain; any
    # admissible value gives the same H and B, so fall back to v_deg = 1
    free_v = not bound_v and ct.n > ct.r
    ones = pt._replace(v_deg=[1.0] * (ct.n - ct.r)) if free_v else None
    if free_v and not ct.start_in_domain(pt) and ct.start_in_domain(ones):
        pt = ones  # rather than Newton restarts at v_deg = 0
    try:
        res = ct.resolve(pt)
    except (NewtonError, DomainError):
        if not free_v or pt is ones:
            raise
        pt = ones
        res = ct.resolve(pt)
    deg, nd = ct.split.degenerate, ct.n - ct.r
    b, f = res._flat("B"), res._flat("F")
    values = [("H_phys", res.H)] + [(f"B_{name}", b[a]) for a, name in enumerate(deg)]
    values += [(f"F[{deg[a]},{deg[c]}]", f[a * nd + c])
               for a in range(nd) for c in range(a + 1, nd)]
    values += [(f"D_{name} H_phys", dh) for name, dh in zip(deg, res._flat("DH"))]
    pbar = [v for _, v in sorted(zip(ct._reg + ct._deg, [*pt._p, *b]))]
    residual = ct._residual(pt, pbar)  # at the point resolved above
    for label, value in values + [("clairaut_residual", residual)]:
        if not math.isfinite(value):
            raise DomainError(f"the transform overflows at this point ({label} = {value})")
    lines = [f"{label} = {value:.17g}" for label, value in values]
    lines.append(f"clairaut_residual = {residual:.6g}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _svg_plot(traj, path):
    """Polylines of each coordinate against t; purely cosmetic."""
    import numpy as np
    width, height, margin = 640, 360, 40
    t = traj.t
    cols = [(name, traj.q[:, k]) for k, name in enumerate(traj.coords)]
    lo = min(float(np.min(y)) for _, y in cols)
    hi = max(float(np.max(y)) for _, y in cols)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    t0, t1 = float(t[0]), float(t[-1])
    span = t1 - t0 if t1 > t0 else 1.0

    def sx(x):
        return margin + (x - t0) / span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - lo) / (hi - lo) * (height - 2 * margin)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    step = max(1, len(t) // 2000)
    for k, (name, y) in enumerate(cols):
        pts = " ".join(f"{sx(t[i]):.2f},{sy(y[i]):.2f}"
                       for i in range(0, len(t), step))
        color = palette[k % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{sy(y[-1]):.2f}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_simulate(args):
    import numpy as np
    model = _apply_params(_load(args.model), args.param)
    halt_tol = args.tol if args.tol is not None else 1e-6
    cfg = IntegratorConfig(t1=args.t1, dt=args.dt, consistency_tol=halt_tol)
    samples = cfg._steps + 1
    if args.tol is not None and samples < 5:
        raise ArgumentError("--tol needs at least 5 samples for the Euler-Lagrange "
                            f"residual's stencil; --t1 {args.t1} at --dt {args.dt} "
                            f"gives {samples}")
    ct = ClairautTransform(model)
    cls = classify(ct)
    pt, _ = _bind_point(ct, args.init, "--init")
    spec = _parse_bindings(args.gauge, "--gauge")
    gauge = gauge_input(ct, cls, spec) if spec else None
    traj = integrate(ct, pt, gauge, cfg, cls)

    el = el_residual(model, traj)
    header = traj.columns + ["el_residual"]
    table = np.column_stack([traj.t, traj.q, traj.p, traj.v_deg, traj.h_phys,
                             traj.consistency, el])
    fmt = ",".join(["%.17g"] * len(header))  # one row's tolist() at a time: less peak memory
    rows = [",".join(header)] + [fmt % tuple(row.tolist()) for row in table]
    _write_output("\n".join(rows) + "\n", args.out)
    if args.plot:
        _svg_plot(traj, args.plot)

    max_el = float(np.nanmax(el)) if np.any(np.isfinite(el)) else float("nan")
    max_c = float(np.max(traj.consistency)) if len(traj.consistency) else 0.0
    flag = "  (flagged at t0)" if traj.flagged else ""
    print(f"max_el_residual = {max_el:.6g}  "
          f"max_consistency_residual = {max_c:.6g}{flag}", file=sys.stderr)
    if args.tol is not None and (max_el > args.tol or max_c > args.tol):
        return 1
    return 0


def cmd_verify(args):
    model = _apply_params(_load(args.model), args.param)
    report = run_verification(model, seed=args.seed, probe_count=args.probes)
    _write_output(render_report(report), args.out)
    return 0 if report["all_pass"] else 1


def cmd_pde(args):
    at = _parse_bindings(args.at, "--at")
    n = len(at)
    if n == 0:
        raise ArgumentError("--at must bind x1..xn")
    want = [f"x{j}" for j in range(1, n + 1)]
    if set(at) != set(want):
        raise ArgumentError("--at must bind exactly x1..x%d, got: %s"
                            % (n, ", ".join(sorted(at))))
    x = [_parse_float(at[name], name) for name in want]
    prob = ClairautProblem(n, args.f)
    constants = _parse_bindings(args.c, "--c")

    def pull_constants(indices):
        vals = []
        for j in indices:
            key = f"c{j}"
            if key not in constants:
                raise ArgumentError(f"--c must provide {key} for this mode")
            vals.append(_parse_float(constants[key], key))
        extra = set(constants) - {f"c{j}" for j in indices}
        if extra:
            raise ArgumentError("unused --c entries: " + ", ".join(sorted(extra)))
        return vals

    if args.mode == "general":
        c = pull_constants(range(1, n + 1))
        y_fn = general_solution(prob, c)
    elif args.mode == "envelope":
        pull_constants(())
        def y_fn(xx):
            return envelope_solution(prob, xx)
    else:
        if args.s is None:
            raise ArgumentError("--s is required for mixed mode")
        if not 0 <= args.s <= n:
            raise ArgumentError(f"--s must lie in 0..{n}, got {args.s}")
        c_tail = pull_constants(range(args.s + 1, n + 1))
        def y_fn(xx):
            return mixed_solution(prob, args.s, c_tail, xx)
    y = y_fn(x)
    residual = pde_residual(prob, y_fn, x)
    _write_output(f"y = {y:.17g}\nresidual = {residual:.6g}\n", args.out)
    return 0


# ------------------------------------------------------------------- wiring


@functools.cache  # built on the first main call, reused by later ones
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="clairaut",
        description="Hamilton the Lagrangians a Legendre transform cannot: "
                    "split, transform, classify, integrate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("model", help="path to a .lag model file "
                                     "(bundled fixture names also work)")
        p.add_argument("--param", default="",
                       help='parameter overrides, e.g. "k=2,m=0.5"')
        p.add_argument("--out", default=None, help=out_help)

    p = sub.add_parser("analyze",
                       help="variable split, ranks, and classification (JSON)")
    common(p, "write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED)
    p.add_argument("--probes", type=int, default=DEFAULT_PROBE_COUNT)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform",
                       help="H_phys, B, F, D_a H, and the conjugate-equation "
                            "residual at a point")
    common(p, "write the text report here instead of stdout")
    p.add_argument("--at", required=True,
                   help='point bindings "x=1,p_x=2[,d(z)=1]"; every coordinate '
                        "and regular momentum is required")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("simulate", help="integrate and emit a trajectory CSV")
    common(p, "write the CSV here instead of stdout")
    p.add_argument("--init", default="",
                   help='initial bindings "x=1,p_x=0,d(z)=2"; omitted names '
                        "start at 0")
    p.add_argument("--gauge", default="",
                   help='prescribed degenerate velocities "z=1,w=sin(t)"')
    p.add_argument("--t1", type=float, default=1.0, help="end time")
    p.add_argument("--dt", type=float, default=1e-3, help="step size")
    p.add_argument("--tol", type=float, default=None,
                   help="exit 1 if the max EL or consistency residual "
                        "exceeds this")
    p.add_argument("--plot", default=None, help="also write an SVG line plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify",
                       help="run the property suites; exit 0 iff all pass")
    common(p, "write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED)
    p.add_argument("--probes", type=int, default=DEFAULT_PROBE_COUNT)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pde",
                       help="solution families of y = sum x_j y'_j - f(y')")
    p.add_argument("--f", required=True, help="expression in z1..zn")
    p.add_argument("--mode", required=True,
                   choices=("general", "envelope", "mixed"))
    p.add_argument("--s", type=int, default=None,
                   help="number of leading envelope slots (mixed mode)")
    p.add_argument("--c", default="",
                   help='integration constants, e.g. "c1=2,c3=1"')
    p.add_argument("--at", required=True, help='evaluation point "x1=2,x2=3"')
    p.add_argument("--out", default=None,
                   help="write the result here instead of stdout")
    p.set_defaults(func=cmd_pde)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_numeric_flags(args)
        return args.func(args)
    except ClairautError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
