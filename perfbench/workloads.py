"""The benchmark's three workloads: their inputs, operations and oracles.

Each workload hands out rounds.  A round is a list of ``Op``: a call into
``clairaut`` as its users make it (``run``, timed) and an oracle that judges
the output (``check``, not timed).  Oracles never compare against output
the program produced earlier; they use closed forms derived from the model
files, a hand-written table of splits and classes, and the JSON schema
shipped with the package.

Inputs come from ``--seed`` only.  Rounds of ``trajectory`` and
``verify_suite`` repeat the same operations; every round of ``commands``
draws fresh coefficients from (seed, round index), so no two commands of a
run compile the same Lagrangian.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from clairaut import cli, fixtures, verify

# Hand-written from the model files: regular and degenerate coordinates,
# velocity-Hessian rank, and the class of the field strength with its rank.
TABLE = {
    "oscillator": (("x",), (), "gaugeless", 0),
    "exponential": (("x",), (), "gaugeless", 0),
    "mixed": (("x",), ("y",), "limit", 0),
    "cawley": (("x", "y"), ("z",), "limit", 0),
    "particle": (("x", "y", "z"), ("x0",), "limit", 0),
    "christ_lee": (("x1", "x2", "x3"), ("y1", "y2", "y3"), "limit", 0),
    "synthetic_gaugeless": (("x",), ("a", "b"), "gaugeless", 2),
    "synthetic_coupled": (("x",), ("a", "b"), "gaugeless", 2),
    "synthetic_bianchi": (("x",), ("a", "b", "c"), "gauge", 2),
    "synthetic_gauge": (("x",), ("a", "b", "u", "w"), "gauge", 2),
}
MODELS = tuple(TABLE)

VERIFY_SEED = 42          # the CLI's default probe seed
TOL = 1e-9                # relative tolerance of the closed-form oracles


@dataclass
class Op:
    """One timed call and the oracle for its output.

    ``check`` returns None when the output is right, else a message.
    ``work`` counts units of work done (RK4 steps, verify checks, commands).
    A ``known_fault`` op is counted in attempted and failed only: its check
    tells whether the fault still shows, and it stays out of every metric.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    work: Callable[[object], int] = lambda out: 1
    known_fault: bool = False
    argv: Optional[list] = None     # the command line of a CLI operation


class CliResult:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(label, argv, check, **kwargs):
    return Op(label, lambda: run_cli(argv), check, argv=argv, **kwargs)


def close(got, want, tol=TOL):
    return abs(got - want) <= tol * (1.0 + abs(want))


def fmt(x):
    return repr(float(x))


def rounded(x):
    """A coefficient as the model file or flag will spell it."""
    return float(f"{x:.6f}")


def exit_error(res):
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[-300:]}"
    return None


# ================================================================ trajectory


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    cols = {name: [float(r[k]) for r in rows[1:]] for k, name in enumerate(header)}
    return cols


def check_particle(cols, p):
    """x0 = t + 0.1 (1 - cos t), x_i = p_i x0 / E with E = sqrt(m^2 + |p|^2),
    p constant and H_phys = 0, for the gauge x0' = 1 + 0.1 sin t, m = 5."""
    energy = math.sqrt(25.0 + sum(v * v for v in p.values()))
    for k, t in enumerate(cols["t"]):
        x0 = t + 0.1 * (1.0 - math.cos(t))
        if not close(cols["q:x0"][k], x0):
            return f"particle x0 at t={t}: {cols['q:x0'][k]!r} != {x0!r}"
        for c, pc in p.items():
            want = pc * x0 / energy
            if not close(cols[f"q:{c}"][k], want):
                return f"particle {c} at t={t}: {cols[f'q:{c}'][k]!r} != {want!r}"
            if not close(cols[f"p:{c}"][k], pc):
                return f"particle p_{c} at t={t} moved: {cols[f'p:{c}'][k]!r}"
        if abs(cols["H_phys"][k]) > TOL:
            return f"particle H_phys at t={t}: {cols['H_phys'][k]!r} != 0"
    return None


def check_christ_lee(cols):
    """A start with p parallel to x keeps p x x = 0; H_phys is conserved."""
    h0 = cols["H_phys"][0]
    for k, t in enumerate(cols["t"]):
        x = [cols[f"q:x{i}"][k] for i in (1, 2, 3)]
        p = [cols[f"p:x{i}"][k] for i in (1, 2, 3)]
        cross = (p[1] * x[2] - p[2] * x[1], p[2] * x[0] - p[0] * x[2],
                 p[0] * x[1] - p[1] * x[0])
        if max(abs(c) for c in cross) > TOL:
            return f"christ_lee p x x at t={t}: {cross}"
        if not close(cols["H_phys"][k], h0):
            return f"christ_lee H_phys at t={t}: {cols['H_phys'][k]!r} != {h0!r}"
    return None


def check_gaugeless(cols, x0, p0, b0):
    """H = p^2/2 + x^2/2 with B_b = a x: x = x0 cos t + p0 sin t, b constant."""
    for k, t in enumerate(cols["t"]):
        want = x0 * math.cos(t) + p0 * math.sin(t)
        if not close(cols["q:x"][k], want):
            return f"gaugeless x at t={t}: {cols['q:x'][k]!r} != {want!r}"
        want = p0 * math.cos(t) - x0 * math.sin(t)
        if not close(cols["p:x"][k], want):
            return f"gaugeless p_x at t={t}: {cols['p:x'][k]!r} != {want!r}"
        if not close(cols["q:b"][k], b0):
            return f"gaugeless b at t={t}: {cols['q:b'][k]!r} != {b0!r}"
    return None


def max_el_residual(err_text):
    for line in err_text.splitlines():
        if line.startswith("max_el_residual = "):
            return float(line.split()[2])
    return None


class Trajectory:
    """simulate commands: the README particle run, christ_lee from a
    constraint-satisfying start, synthetic_gaugeless, and the known fault."""

    def __init__(self, seed, workdir, tiny=False):
        rng = random.Random(seed)
        self.workdir = workdir
        self.particle_t1 = "0.05" if tiny else "10"
        self.christ_t1 = "0.05" if tiny else "3"
        self.gaugeless_t1 = "0.05" if tiny else "2"
        # christ_lee: p = lam x makes p x x vanish at the start
        x = [rng.uniform(0.5, 1.2) * rng.choice((-1, 1)) for _ in range(3)]
        y = [rng.uniform(-0.6, 0.6) for _ in range(3)]
        lam = rng.uniform(0.3, 0.9) * rng.choice((-1, 1))
        self.christ_init = ",".join(
            [f"x{i + 1}={fmt(v)}" for i, v in enumerate(x)]
            + [f"y{i + 1}={fmt(v)}" for i, v in enumerate(y)]
            + [f"p_x{i + 1}={fmt(lam * v)}" for i, v in enumerate(x)])
        # synthetic_gaugeless: F = x stays away from 0 while
        # t < pi/2 + atan(p0/x0), which exceeds 2.35 on these ranges
        self.x0, self.p0 = rng.uniform(0.25, 0.35), rng.uniform(0.35, 0.45)
        self.a0, self.b0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)

    def round(self, index):
        path = os.path.join(self.workdir, "trajectory.csv")
        p = {"x": 0.4, "y": 0.1, "z": 0.2}

        def simulate(label, argv, oracle, **kwargs):
            return cli_op(label, ["simulate", *argv, "--out", path], oracle,
                          work=steps, **kwargs)

        def csv_check(oracle):
            def check(res):
                return exit_error(res) or oracle(read_csv(path))
            return check

        def steps(res):
            with open(path, encoding="utf-8") as fh:
                return sum(1 for _ in fh) - 2

        gaugeless_init = (f"x={fmt(self.x0)},a={fmt(self.a0)},b={fmt(self.b0)},"
                          f"p_x={fmt(self.p0)}")
        return [
            simulate("simulate particle",
                     ["particle", "--gauge", "x0=1+0.1*sin(t)",
                      "--init", "p_x=0.4,p_y=0.1,p_z=0.2",
                      "--t1", self.particle_t1, "--dt", "1e-3"],
                     csv_check(lambda cols: check_particle(cols, p))),
            simulate("simulate christ_lee",
                     ["christ_lee", "--init", self.christ_init, "--t1", self.christ_t1],
                     csv_check(check_christ_lee)),
            simulate("simulate synthetic_gaugeless",
                     ["synthetic_gaugeless", "--init", gaugeless_init,
                      "--t1", self.gaugeless_t1],
                     csv_check(lambda cols: check_gaugeless(cols, self.x0, self.p0,
                                                            self.b0))),
            simulate("simulate synthetic_coupled",
                     ["synthetic_coupled", "--init", "x=0.4,a=0.2,b=0.1,p_x=0.3",
                      "--t1", "1"],
                     check_coupled, known_fault=True),
        ]


def check_coupled(res):
    """F_ab = x - a nearly vanishes on this path: a typed error (exit 3) or
    a trajectory that satisfies the Euler-Lagrange equations passes."""
    if res.code == 3:
        return None
    if res.code != 0:
        return f"exit {res.code}"
    worst = max_el_residual(res.err)
    if worst is None or not worst <= 1e-5:
        return f"exit 0 with max_el_residual = {worst}"
    return None


# ============================================================== verify_suite


JSON_TYPES = {
    "object": lambda doc: isinstance(doc, dict),
    "array": lambda doc: isinstance(doc, list),
    "string": lambda doc: isinstance(doc, str),
    "boolean": lambda doc: isinstance(doc, bool),
    "null": lambda doc: doc is None,
    "integer": lambda doc: isinstance(doc, int) and not isinstance(doc, bool),
    "number": lambda doc: isinstance(doc, (int, float)) and not isinstance(doc, bool),
}


def validate(doc, schema, where="$"):
    """The subset of JSON Schema that the package's report schemas use."""
    kinds = schema.get("type")
    if kinds is not None:
        kinds = kinds if isinstance(kinds, list) else [kinds]
        if not any(JSON_TYPES[kind](doc) for kind in kinds):
            return f"{where}: {doc!r} is not {kinds}"
    if "enum" in schema and doc not in schema["enum"]:
        return f"{where}: {doc!r} not in {schema['enum']}"
    if "minimum" in schema and doc < schema["minimum"]:
        return f"{where}: {doc!r} < {schema['minimum']}"
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                return f"{where}: missing {key!r}"
        props = schema.get("properties", {})
        for key, value in doc.items():
            if key in props:
                err = validate(value, props[key], f"{where}.{key}")
                if err:
                    return err
            elif schema.get("additionalProperties", True) is False:
                return f"{where}: unexpected {key!r}"
    if isinstance(doc, list) and "items" in schema:
        for k, item in enumerate(doc):
            err = validate(item, schema["items"], f"{where}[{k}]")
            if err:
                return err
    return None


def load_schema(name):
    path = os.path.join(os.path.dirname(verify.__file__), "schemas", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_verify_report(name, text, schema):
    doc = json.loads(text)
    err = validate(doc, schema)
    if err:
        return f"verify {name}: schema: {err}"
    regular, degenerate, kind, rank_f = TABLE[name]
    if doc["split"] != {"regular": list(regular), "degenerate": list(degenerate)}:
        return f"verify {name}: split {doc['split']}"
    if doc["classification"] != {"kind": kind, "rank_F": rank_f}:
        return f"verify {name}: classification {doc['classification']}"
    if not doc["all_pass"]:
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        return f"verify {name}: failed checks {failed}"
    return None


class VerifySuite:
    """run_verification + render_report on every bundled model.

    The probe seed stays at the CLI default: at some other seeds a check
    fails (see the README), and an operation that fails on some seeds only
    would make the failed share depend on the seed.  --seed does not change
    this workload's inputs.
    """

    def __init__(self, seed, workdir, tiny=False):
        self.models = ("oscillator", "mixed", "synthetic_gaugeless") if tiny else MODELS
        self.schema = load_schema("verify.schema.json")

    def round(self, index):
        return [Op(f"verify {name}", verify_op(name), self.checker(name),
                   lambda text: len(json.loads(text)["checks"]))
                for name in self.models]

    def checker(self, name):
        def check(text):
            err = check_verify_report(name, text, self.schema)
            if err is None and name == "oscillator" and text != verify_op(name)():
                err = "verify oscillator: rerun renders different bytes"
            return err
        return check


def verify_op(name):
    def run():
        report = verify.run_verification(fixtures.load_bundled(name), seed=VERIFY_SEED)
        return verify.render_report(report)
    return run


# ================================================================== commands

# Model-file variants for the models without parameters.  Each coefficient
# is drawn per command; H_phys, B and F below are derived from these forms.
VARIANTS = {
    "cawley": ("coord x, y, z;\nlagrangian = {a}*d(x)*d(y) + {c}*z*y^2/2;\n", "ac"),
    "christ_lee": (
        "coord x1, x2, x3, y1, y2, y3;\n"
        "lagrangian = ((d(x1) - {g}*(x2*y3 - x3*y2))^2"
        " + (d(x2) - {g}*(x3*y1 - x1*y3))^2"
        " + (d(x3) - {g}*(x1*y2 - x2*y1))^2)/2"
        " - {k}*(x1^2 + x2^2 + x3^2)/2;\n", "gk"),
    "synthetic_gaugeless": (
        "coord x, a, b;\nlagrangian = d(x)^2/2 + {g}*a*x*d(b) - {k}*x^2/2;\n", "gk"),
    "synthetic_coupled": (
        "coord x, a, b;\n"
        "lagrangian = (d(x) + d(a))^2/2 + {g}*a*x*d(b) - {k}*x^2/2;\n", "gk"),
    "synthetic_bianchi": (
        "coord x, a, b, c;\n"
        "lagrangian = (d(x) + d(a))^2/2 + {g}*a*x*d(b) + {h}*b*x*d(c)"
        " - {k}*x^2/2;\n", "ghk"),
    "synthetic_gauge": (
        "coord x, a, b, u, w;\n"
        "lagrangian = (d(x) + d(a))^2/2 + {g}*a*x*d(b) - {k}*x^2/2;\n", "gk"),
}
PARAMS = {"oscillator": "mk", "exponential": "k", "mixed": "mk", "particle": "m"}


def expected_transform(name, c, q, p):
    """Closed-form H_phys, B_a and F[a,b] for the bundled forms above."""
    deg = TABLE[name][1]
    f = {}
    if name == "oscillator":
        h, b = p["x"] ** 2 / (2 * c["m"]) + c["k"] * q["x"] ** 2 / 2, {}
    elif name == "exponential":
        # p = k x exp(k v)  =>  H = p v - p/k
        v = math.log(p["x"] / (c["k"] * q["x"])) / c["k"]
        h, b = p["x"] * v - p["x"] / c["k"], {}
    elif name == "mixed":
        h, b = p["x"] ** 2 / (2 * c["m"] * q["y"]), {"y": c["k"] * q["x"]}
    elif name == "particle":
        # homogeneous of degree one in the velocities; evaluated at d(x0) = 1
        pp = sum(p[k] ** 2 for k in ("x", "y", "z"))
        h, b = 0.0, {"x0": -math.sqrt(c["m"] ** 2 + pp)}
    elif name == "cawley":
        h = p["x"] * p["y"] / c["a"] - c["c"] * q["z"] * q["y"] ** 2 / 2
        b = {"z": 0.0}
    elif name == "christ_lee":
        x = [q["x1"], q["x2"], q["x3"]]
        y = [q["y1"], q["y2"], q["y3"]]
        pv = [p["x1"], p["x2"], p["x3"]]
        cross = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
                 x[0] * y[1] - x[1] * y[0])
        h = (sum(v * v for v in pv) / 2 + c["g"] * sum(a * b for a, b in zip(pv, cross))
             + c["k"] * sum(v * v for v in x) / 2)
        b = {"y1": 0.0, "y2": 0.0, "y3": 0.0}
    else:
        x, a, px = q["x"], q["a"], p["x"]
        h = px ** 2 / 2 + c["k"] * x ** 2 / 2
        if name == "synthetic_gaugeless":
            b = {"a": 0.0, "b": c["g"] * a * x}
            f[("a", "b")] = c["g"] * x
        else:
            # B_a = p_x; {B_a, g a x} = -g a adds to dB_b/da = g x
            b = {"a": px, "b": c["g"] * a * x}
            f[("a", "b")] = c["g"] * (x - a)
            if name == "synthetic_bianchi":
                b["c"] = c["h"] * q["b"] * x
                f[("a", "c")] = -c["h"] * q["b"]
                f[("b", "c")] = c["h"] * x
            if name == "synthetic_gauge":
                b.update(u=0.0, w=0.0)
    for i, first in enumerate(deg):
        for second in deg[i + 1:]:
            f.setdefault((first, second), 0.0)
    return h, b, f


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition(" = ")
        out[name] = float(value)
    return out


def check_transform(name, res, want):
    err = exit_error(res)
    if err:
        return f"transform {name}: {err}"
    got = parse_kv(res.out)
    h, b, f = want
    if not close(got.get("H_phys", math.nan), h):
        return f"transform {name}: H_phys {got.get('H_phys')!r} != {h!r}"
    for coord, value in b.items():
        if not close(got.get(f"B_{coord}", math.nan), value):
            return f"transform {name}: B_{coord} {got.get(f'B_{coord}')!r} != {value!r}"
    for (first, second), value in f.items():
        key = f"F[{first},{second}]"
        if not close(got.get(key, math.nan), value):
            return f"transform {name}: {key} {got.get(key)!r} != {value!r}"
    return None


def check_analyze(name, res):
    err = exit_error(res)
    if err:
        return f"analyze {name}: {err}"
    doc = json.loads(res.out)
    regular, degenerate, kind, rank_f = TABLE[name]
    got = (tuple(doc["regular"]), tuple(doc["degenerate"]), doc["hessian_rank"],
           doc["classification"]["kind"], doc["classification"]["rank_F"])
    want = (regular, degenerate, len(regular), kind, rank_f)
    if got != want:
        return f"analyze {name}: {got} != {want}"
    return None


def pde_expected(a, b, x, mode, s, c):
    """f = sum a_i z_i^2 + b_i z_i: slope z_i = (x_i - b_i)/(2 a_i) on the
    envelope slots, the constant c_i on the general ones."""
    total = 0.0
    for i in range(len(a)):
        if mode == "envelope" or (mode == "mixed" and i < s):
            total += (x[i] - b[i]) ** 2 / (4 * a[i])
        else:
            total += x[i] * c[i] - a[i] * c[i] ** 2 - b[i] * c[i]
    return total


def check_pde(res, want):
    err = exit_error(res)
    if err:
        return f"pde: {err}"
    got = parse_kv(res.out)["y"]
    if not close(got, want):
        return f"pde: y {got!r} != {want!r}"
    return None


class Commands:
    """analyze and transform on every model (fresh parameters or a fresh
    coefficient variant per command), and pde on diagonal quadratics."""

    PER_MODEL = 4        # analyze and transform commands per model per round
    PDE = 24             # pde commands per round

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.workdir = workdir
        self.per_model = 1 if tiny else self.PER_MODEL
        self.pde = 3 if tiny else self.PDE

    def round(self, index):
        rng = random.Random(self.seed * 1_000_003 + index)
        ops = []
        for name in MODELS:
            for k in range(self.per_model):
                for kind in ("analyze", "transform"):
                    spec, flags, coeffs = self.model_variant(rng, name, index, k, kind)
                    if kind == "analyze":
                        argv = ["analyze", spec, *flags, "--seed",
                                str(rng.randrange(1, 10 ** 6))]
                        ops.append(cli_op(f"analyze {name}", argv,
                                          lambda res, n=name: check_analyze(n, res)))
                    else:
                        q, p = self.point(rng, name)
                        at = ",".join([f"{c}={fmt(v)}" for c, v in q.items()]
                                      + [f"p_{c}={fmt(v)}" for c, v in p.items()])
                        want = expected_transform(name, coeffs, q, p)
                        ops.append(cli_op(f"transform {name}",
                                          ["transform", spec, *flags, "--at", at],
                                          lambda res, n=name, w=want: check_transform(n, res, w)))
        for k in range(self.pde):
            ops.append(self.pde_op(rng, k))
        return ops

    def model_variant(self, rng, name, index, k, kind):
        if name in PARAMS:
            coeffs = {c: rounded(rng.uniform(0.5, 2.5)) for c in PARAMS[name]}
            flags = ["--param", ",".join(f"{c}={v:.6f}" for c, v in coeffs.items())]
            return name, flags, coeffs
        template, letters = VARIANTS[name]
        coeffs = {c: rounded(rng.uniform(0.5, 2.5)) for c in letters}
        path = os.path.join(self.workdir, f"{name}-r{index}-{k}-{kind}.lag")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(template.format(**{c: f"{v:.6f}" for c, v in coeffs.items()}))
        return path, [], coeffs

    @staticmethod
    def point(rng, name):
        regular, degenerate = TABLE[name][:2]
        q = {c: rng.uniform(-1.0, 1.0) for c in regular + degenerate}
        p = {c: rng.uniform(-1.0, 1.0) for c in regular}
        if name == "exponential":
            q["x"], p["x"] = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        if name == "mixed":
            q["y"] = rng.uniform(0.5, 1.5)
        return q, p

    def pde_op(self, rng, k):
        n = 2 + k % 2
        mode = ("general", "envelope", "mixed")[(k // 2) % 3]
        a = [rounded(rng.uniform(0.5, 2.0)) for _ in range(n)]
        b = [rounded(rng.uniform(-1.0, 1.0)) for _ in range(n)]
        x = [rounded(rng.uniform(-2.0, 2.0)) for _ in range(n)]
        c = [rounded(rng.uniform(-1.5, 1.5)) for _ in range(n)]
        s = rng.randrange(1, n) if mode == "mixed" else 0
        f = "+".join(f"{a[i]:.6f}*z{i + 1}^2{b[i]:+.6f}*z{i + 1}" for i in range(n))
        argv = ["pde", "--f", f, "--mode", mode,
                "--at", ",".join(f"x{i + 1}={x[i]:.6f}" for i in range(n))]
        if mode == "mixed":
            argv += ["--s", str(s)]
        slots = range(n) if mode == "general" else range(s, n) if mode == "mixed" else ()
        if mode != "envelope":
            argv += ["--c", ",".join(f"c{i + 1}={c[i]:.6f}" for i in slots)]
        want = pde_expected(a, b, x, mode, s, c)
        return cli_op(f"pde {mode}", argv, lambda res: check_pde(res, want))


WORKLOADS = {
    "trajectory": Trajectory,
    "verify_suite": VerifySuite,
    "commands": Commands,
}
