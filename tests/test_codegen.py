"""Compiled evaluators: common-subexpression elimination and the derivative
core of the mixed transform."""

import math
import re

import pytest

from clairaut import (
    BUNDLED,
    ClairautTransform,
    Prod,
    Sum,
    compile_evaluator,
    default_probes,
    evaluate,
    load_bundled,
    parse_expression,
    phase_probes,
    substitute,
)
from clairaut import numerics
from clairaut import transform as transform_module

PROBES = 6
PROBE_SEED = 7


@pytest.fixture(scope="module", params=BUNDLED)
def transform(request):
    return ClairautTransform(load_bundled(request.param))


def probe_args(ct):
    """Full (coordinate, velocity) argument lists at resolved probe points."""
    return [ct.resolve(pt).args for pt in phase_probes(ct, count=PROBES, seed=PROBE_SEED)]


class TestCommonSubexpressions:
    def test_shared_subtree_computed_once(self):
        # the three sin(x) occurrences are one interned node
        fn = compile_evaluator(parse_expression("sin(x)*sin(x)+sin(x)"), ["x"])
        assert fn.source.count("sin(") == 1
        s = math.sin(0.3)
        assert fn([0.3]) == s * s + s

    def test_subtrees_shared_across_the_sequence(self):
        exprs = [parse_expression(t) for t in ("exp(x*y) + 1", "exp(x*y)*y", "x*y")]
        fn = compile_evaluator(exprs, ["x", "y"])
        assert fn.source.count("exp(") == 1
        assert fn.source.count("*") == 2  # x*y once, then the product with y
        got = fn([0.4, 1.5])
        assert got == tuple(compile_evaluator(e, ["x", "y"])([0.4, 1.5]) for e in exprs)

    def test_one_assignment_per_line(self):
        fn = compile_evaluator(parse_expression("sqrt(x^2 + y^2) / (x^2 + 1)"), ["x", "y"])
        body = [line for line in fn.source.splitlines() if re.match(r"\s+t\d+ = ", line)]
        assert body and all(line.count("=") == 1 for line in body)
        assert len(body) == len(set(line.split("=", 1)[1] for line in body))

    def test_leaf_and_empty_results(self):
        exprs = [parse_expression("x"), parse_expression("2"), Sum(()), Prod(())]
        assert compile_evaluator(exprs, ["x"])([3.0]) == (3.0, 2.0, 0.0, 1.0)
        assert [evaluate(e, {"x": 3.0}) for e in exprs] == [3.0, 2.0, 0.0, 1.0]


class TestNonFiniteConstants:
    # a number literal must be finite, so the inf constant k is put into the
    # unsimplified tree by substitution and the compiled code does the inf
    # arithmetic itself (inf*0 included)
    @pytest.mark.parametrize("text, x", [
        ("x*k", 2.0),
        ("x*k", 0.0),
        ("x - k", 1.0),
        ("-k + k*0", 1.0),
        ("exp(-k*x)", 1.0),
    ])
    def test_compiled_matches_interpreted(self, text, x):
        expr = substitute(parse_expression(text), {"k": math.inf})
        got = compile_evaluator(expr, ["x"])([x])
        want = evaluate(expr, {"x": x})
        assert got == want or (math.isnan(got) and math.isnan(want))


class TestDerivativeCore:
    def test_blocks_cover_the_core(self, transform):
        ct = transform
        n = ct.n
        sizes = {"L": 1, "L_v": n, "L_q": n, "W": n * n, "L_vq": n * n}
        assert tuple(ct.core_exprs) == ct.CORE_BLOCKS
        for name, exprs in ct.core_exprs.items():
            assert len(exprs) == sizes[name]
            sl = ct.core_slices[name]
            assert sl.stop - sl.start == sizes[name]
        assert len(ct._f_core(probe_args(ct)[0])) == 1 + 2 * n + 2 * n * n

    def test_slices_bit_equal_to_blocks_alone(self, transform):
        ct = transform
        alone = {name: compile_evaluator(exprs, ct.arg_names)
                 for name, exprs in ct.core_exprs.items()}
        for args in probe_args(ct):
            core = ct._f_core(args)
            for name, fn in alone.items():
                assert core[ct.core_slices[name]] == fn(args), name

    def test_core_matches_interpreter(self, transform):
        ct = transform
        exprs = [e for block in ct.core_exprs.values() for e in block]
        for args in probe_args(ct):
            bindings = dict(zip(ct.arg_names, args))
            core = ct._f_core(args)
            for got, expr in zip(core, exprs):
                want = evaluate(expr, bindings)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), str(expr)

    def test_core_bit_equal_to_interpreter_at_default_probes(self, transform):
        # both evaluators add a sum's terms left to right, from the first
        model = transform.model
        core = model.core
        exprs = [e for block in core.exprs.values() for e in block]
        for bindings in default_probes(model):
            got = core.fn([bindings[name] for name in core.arg_names])
            assert [v.hex() for v in got] == [evaluate(e, bindings).hex() for e in exprs]

    def test_one_core_call_per_resolve(self, transform, monkeypatch):
        # the resolve evaluates the core at its start and once per full
        # Newton step, as many as damped Newton's iterations from there;
        # where it falls back, damped Newton adds one call per residual and
        # none per Jacobian.  The values of the last call, at the root, go
        # to the Resolution: no call after it, none for the derivative block
        ct = transform
        points = phase_probes(ct, count=3, seed=PROBE_SEED)
        calls, fallback, residuals = [], [], []
        core = ct._f_core
        monkeypatch.setattr(ct, "_f_core", lambda args: calls.append(1) or core(args))
        real_newton = transform_module.newton_with_restarts

        def counted_newton(residual, jacobian, x0, cfg):
            fallback.append(len(calls))  # the resolve kernel's calls

            def jac(x):
                before = len(calls)
                out = jacobian(x)
                assert len(calls) == before
                return out

            return real_newton(lambda x: residuals.append(1) or residual(x), jac, x0, cfg)

        monkeypatch.setattr(transform_module, "newton_with_restarts", counted_newton)
        for pt in points:
            calls.clear()
            fallback.clear()
            residuals.clear()
            res = ct.resolve(pt)
            want = len(calls)
            if fallback:
                assert fallback[0] >= 1 and want == fallback[0] + len(residuals)
            else:
                jacobians = []
                residual, jacobian, _ = numerics.newton_pair(
                    core, ct._args(pt.q.tolist(), pt.v_deg.tolist()), ct._reg_at, ct._lv_reg,
                    ct._w_rr, pt.p.tolist())
                numerics.damped_newton(residual, lambda x: jacobians.append(1) or jacobian(x),
                                       [0.0] * ct.r, ct.newton)
                assert want == 1 + len(jacobians)
            _ = res.dH_dq, res.dB_dp, res.W, res.F
            assert len(calls) == want
            assert res._core == core(res.args)
