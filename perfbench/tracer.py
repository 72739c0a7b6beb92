"""Spans around the public calls into each module of ``clairaut``.

The tracer patches the package from the outside: every public function
named in ``FUNCTIONS`` is replaced, in every ``clairaut`` module that binds
it, by a wrapper that records a span (name, start, end, parent).  A few
methods and the callables returned by ``compile_evaluator`` are wrapped the
same way.  Nothing under ``src/`` changes, and ``uninstall`` restores every
original binding, so untraced rounds run the unmodified program.

A call whose innermost open span has the same name records no span of its
own (recursion, or a bracket helper calling another), so span counts are
counts of outermost calls.  Self time is a span's duration minus the
durations of its direct children.

Spans live in flat ``array`` columns and are written to one file when the
run ends: a JSON header line, then the int32 ``name`` and ``parent``
columns and the float64 ``start`` and ``end`` columns, in that order.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, span name).  Span names are the layers the per-layer
# metrics are reported for.
FUNCTIONS = (
    ("expressions", "parse_expression", "expressions.parse"),
    ("model", "parse_model", "expressions.parse"),
    ("expressions", "differentiate", "expressions.differentiate"),
    ("expressions", "simplify", "expressions.simplify"),
    ("expressions", "evaluate", "expressions.interp"),
    ("model", "split_variables", "model.split"),
    ("model", "default_probes", "model.probes"),
    ("model", "check_rank_constancy", "model.rank_check"),
    ("numerics", "newton_with_restarts", "numerics.newton"),
    ("numerics", "rank_and_pivots", "numerics.rank"),
    ("transform", "fenchel_conjugate", "transform.fenchel"),
    ("gauge", "field_strength", "gauge.field_strength"),
    ("gauge", "maxwell_current", "gauge.maxwell_current"),
    ("gauge", "bianchi_residual", "gauge.bianchi"),
    ("gauge", "poisson_phys", "gauge.bracket"),
    ("gauge", "bracket_new", "gauge.bracket"),
    ("gauge", "bracket_gauge", "gauge.bracket"),
    ("gauge", "long_derivative", "gauge.bracket"),
    ("gauge", "delta_b", "gauge.bracket"),
    ("gauge", "classify", "gauge.classify"),
    ("gauge", "phase_probes", "gauge.phase_probes"),
    ("dynamics", "el_residual", "dynamics.el_residual"),
    ("dynamics", "dirac_report", "dynamics.dirac"),
    ("dynamics", "calibrate_sigma", "dynamics.dirac"),
    ("manytime", "integrability_report", "manytime.integrability"),
    ("manytime", "g_matrix", "manytime.integrability"),
    ("clairaut_pde", "general_solution", "clairaut_pde.solve"),
    ("clairaut_pde", "envelope_solution", "clairaut_pde.solve"),
    ("clairaut_pde", "mixed_solution", "clairaut_pde.solve"),
    ("clairaut_pde", "pde_residual", "clairaut_pde.solve"),
    ("cli", "main", "cli"),
)

# Layer metrics reported from the spans: metric -> (span name, what).
# "self" is summed self time, "total" summed duration, "count" span count.
SPAN_METRICS = {
    "expressions.eval_calls": ("expressions.eval", "count"),
    "expressions.eval_s": ("expressions.eval", "self"),
    "expressions.parse_s": ("expressions.parse", "self"),
    "expressions.differentiate_s": ("expressions.differentiate", "self"),
    "expressions.simplify_s": ("expressions.simplify", "self"),
    "expressions.compile_calls": ("expressions.compile", "count"),
    "expressions.compile_s": ("expressions.compile", "self"),
    "expressions.interp_evals": ("expressions.interp", "count"),
    "expressions.interp_eval_s": ("expressions.interp", "self"),
    "model.split_s": ("model.split", "self"),
    "model.probes_s": ("model.probes", "self"),
    "model.rank_check_s": ("model.rank_check", "self"),
    "numerics.newton_solves": ("numerics.newton", "count"),
    "numerics.newton_s": ("numerics.newton", "self"),
    "numerics.rank_calls": ("numerics.rank", "count"),
    "numerics.rank_s": ("numerics.rank", "self"),
    "transform.build_s": ("transform.build", "self"),
    "transform.resolves": ("transform.resolve", "count"),
    "transform.resolve_s": ("transform.resolve", "self"),
    "transform.deriv_blocks": ("transform.deriv", "count"),
    "transform.deriv_s": ("transform.deriv", "self"),
    "transform.fenchel_s": ("transform.fenchel", "self"),
    "gauge.field_strength_calls": ("gauge.field_strength", "count"),
    "gauge.field_strength_s": ("gauge.field_strength", "self"),
    "gauge.maxwell_current_s": ("gauge.maxwell_current", "self"),
    "gauge.bianchi_s": ("gauge.bianchi", "self"),
    "gauge.bracket_s": ("gauge.bracket", "self"),
    "gauge.classify_s": ("gauge.classify", "self"),
    "gauge.phase_probes_s": ("gauge.phase_probes", "self"),
    "dynamics.integrate_s": ("dynamics.integrate", "self"),
    "dynamics.sector_s": ("dynamics.sector", "self"),
    "dynamics.el_residual_s": ("dynamics.el_residual", "self"),
    "dynamics.dirac_s": ("dynamics.dirac", "self"),
    "manytime.integrability_s": ("manytime.integrability", "self"),
    "clairaut_pde.solve_s": ("clairaut_pde.solve", "self"),
    "cli.self_s": ("cli", "self"),
}

# Layer metrics counted by the wrappers themselves, not by spans.
COUNTERS = (
    "numerics.newton_iters",     # Jacobian evaluations inside damped_newton
    "numerics.newton_restarts",  # damped_newton runs beyond the first of a solve
    "transform.resolve_hits",    # resolve calls answered by the point memo
    "gauge.fd_evals",            # evaluations made through FiniteDifferenceObservable
    "dynamics.rk4_steps",        # steps of the trajectories integrate returned
    "dynamics.stages",           # degenerate_velocities calls made by integrate
    "dynamics.sector_solves",    # degenerate_velocities calls that solve F v = D H
)


def model_metric(name):
    """Per-model verify metric: the inclusive time of run_verification."""
    return f"verify.model.{name}_s"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    # ----------------------------------------------------------- wrappers

    def wrap(self, fn, span):
        """fn, recording one span per outermost call."""
        nid = self.intern(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, original, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self, package):
        """Wrap the public calls of every loaded module of package."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        sub = {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items()
               if n.startswith(prefix + ".")}
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sub[mod_name], fn_name)
            self._patch_everywhere(modules, original, self.wrap(original, span))

        counts = self.counts
        numerics = sub["numerics"]
        damped = numerics.damped_newton
        damped_span = self.wrap(damped, "numerics.newton")

        def damped_newton(residual, jacobian, *args, **kwargs):
            def counted(x):
                counts["numerics.newton_iters"] += 1
                return jacobian(x)
            counts["numerics.newton_attempts"] += 1
            return damped_span(residual, counted, *args, **kwargs)

        self._patch_everywhere(modules, damped, damped_newton)

        compile_evaluator = sub["expressions"].compile_evaluator
        compile_span = self.wrap(compile_evaluator, "expressions.compile")
        wrap = self.wrap

        def compiled(exprs, names):
            return wrap(compile_span(exprs, names), "expressions.eval")

        self._patch_everywhere(modules, compile_evaluator, compiled)

        dynamics = sub["dynamics"]
        integrate = dynamics.integrate
        integrate_span = self.wrap(integrate, "dynamics.integrate")
        integrability_error = sub["errors"].IntegrabilityError

        def integrate_counted(*args, **kwargs):
            try:
                traj = integrate_span(*args, **kwargs)
            except integrability_error as exc:
                if exc.trajectory is not None:
                    counts["dynamics.rk4_steps"] += max(len(exc.trajectory.t) - 1, 0)
                raise
            counts["dynamics.rk4_steps"] += len(traj.t) - 1
            return traj

        self._patch_everywhere(modules, integrate, integrate_counted)

        sector = dynamics.degenerate_velocities
        sector_span = self.wrap(sector, "dynamics.sector")
        integrate_id = self.intern("dynamics.integrate")
        stack, names = self.stack, self.name

        def degenerate_velocities(ct, pt, gauge=None, cls=None, t=0.0, res=None):
            if stack and names[stack[-1]] == integrate_id:
                counts["dynamics.stages"] += 1
            if gauge is not None:
                solves = "solve" in gauge.modes
            else:
                solves = cls is not None and bool(cls.subblock)
            if solves and ct.n > ct.r:
                counts["dynamics.sector_solves"] += 1
            return sector_span(ct, pt, gauge, cls, t, res)

        self._patch_everywhere(modules, sector, degenerate_velocities)

        verify = sub["verify"]
        run_verification = verify.run_verification

        def run_verification_traced(model, *args, **kwargs):
            span = self.wrap(run_verification, "verify.model." + model.name)
            return span(model, *args, **kwargs)

        self._patch_everywhere(modules, run_verification, run_verification_traced)

        self._install_methods(sub)

    def _install_methods(self, sub):
        counts = self.counts
        transform = sub["transform"]
        ct_cls = transform.ClairautTransform
        self._patch(ct_cls, "__init__",
                    self.wrap(ct_cls.__init__, "transform.build"))

        resolve_span = self.wrap(ct_cls.resolve, "transform.resolve")

        def resolve(ct, pt, v_init=None):
            last = ct._last
            if last is not None and last[0] is pt and v_init is None:
                counts["transform.resolve_hits"] += 1
            return resolve_span(ct, pt, v_init)

        self._patch(ct_cls, "resolve", resolve)

        res_cls = transform.Resolution
        derivatives = res_cls._derivatives
        deriv_span = self.wrap(derivatives, "transform.deriv")

        def _derivatives(res):
            if res._W is not None:
                return derivatives(res)
            return deriv_span(res)

        self._patch(res_cls, "_derivatives", _derivatives)

        fd_cls = sub["gauge"].FiniteDifferenceObservable
        fd_init = fd_cls.__init__

        def fd_observable_init(obs, fn, *args, **kwargs):
            def counted(pt):
                counts["gauge.fd_evals"] += 1
                return fn(pt)
            fd_init(obs, counted, *args, **kwargs)

        self._patch(fd_cls, "__init__", fd_observable_init)

        problem = sub["clairaut_pde"].ClairautProblem
        self._patch(problem, "__init__",
                    self.wrap(problem.__init__, "clairaut_pde.solve"))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- results

    def layer_metrics(self, model_names):
        """Every per-layer metric over all spans and counters recorded."""
        n = len(self.start)
        ids = self._ids
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        width = len(self.span_names)
        count = [0] * width
        total = [0.0] * width
        own = [0.0] * width
        name = self.name
        for i in range(n):
            k = name[i]
            count[k] += 1
            total[k] += dur[i]
            own[k] += dur[i] - child[i]
        pick = {"count": count, "total": total, "self": own}

        def of(span, what):
            k = ids.get(span)
            return pick[what][k] if k is not None else (0 if what == "count" else 0.0)

        out = {metric: of(span, what) for metric, (span, what) in SPAN_METRICS.items()}
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        # every solve starts with one damped_newton run; the rest are restarts
        out["numerics.newton_restarts"] = (self.counts["numerics.newton_attempts"]
                                           - out["numerics.newton_solves"])
        for model in model_names:
            out[model_metric(model)] = of("verify.model." + model, "total")
        return out

    def write(self, path):
        """Header line with the span names, then the four columns."""
        header = {"names": self.span_names, "spans": len(self.start),
                  "columns": ["name:int32", "parent:int32",
                              "start:float64", "end:float64"],
                  "clock": "time.perf_counter seconds"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
