"""The package's own float arithmetic: numerics.dot against the sums the
kernels emit, verify's minimal-norm step against LAPACK's least squares, the
generated elimination against LAPACK, the float RK4 stage against Resolution
and degenerate_velocities, and their typed failures.

dot, the kernels and the minimal-norm step round on their own, the same way
on every machine; numpy rounds as its BLAS does.  So every comparison with
numpy here has a bound scaled to the rounding, never bit equality.
Resolution and the RK4 stage share one emitted formula (numerics._block) and
one sum for H, and degenerate_velocities solves the stage's sector system on
the Resolution's F and D_a H in the stage's order, so where they report the
same quantity they agree bit for bit.
"""

import array
import itertools
import math
import os
import re
import runpy

import numpy as np
import pytest

from clairaut import (
    ClairautTransform,
    DomainError,
    IntegrabilityError,
    IntegratorConfig,
    NewtonConfig,
    NewtonError,
    PhasePoint,
    RankDeficiencyError,
    damped_newton,
    degenerate_velocities,
    gauge_input,
    integrate,
    load_bundled,
    parse_model,
)
from clairaut import cli, expressions, gauge, numerics, verify
from clairaut import dynamics as dynamics_module
from clairaut import transform as transform_module
from clairaut.errors import ArgumentError
from clairaut.gauge import ExprObservable, classify, phase_probes
from clairaut.fixtures import BUNDLED
from clairaut.numerics import dot, solver
from conftest import pfaffian

EPS = np.finfo(float).eps
KERNEL_DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "scripts", "kernel_digests.py")


def ulps(x, y):
    """Largest distance in units in the last place between two float arrays."""
    a, b = np.asarray(x, dtype=float).view(np.int64), np.asarray(y, dtype=float).view(np.int64)
    a = np.where(a < 0, np.int64(-2**63) - a, a)
    b = np.where(b < 0, np.int64(-2**63) - b, b)
    return int(np.max(np.abs(a - b), initial=0))


def rel_error(got, want):
    """max |got - want| over max(1, |want|), entry by entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


class TestDot:
    def test_adds_left_to_right_uncompensated(self):
        terms = [1e16, 1.0, -1e16]
        assert math.fsum(terms) == 1.0  # what a compensated sum gives
        assert dot(terms, [1.0, 1.0, 1.0]) == 0.0

    def test_empty_operands_give_zero(self):
        assert dot([], []) == 0.0 and dot(np.empty(0), np.empty(0)) == 0.0

    def test_unequal_lengths_are_an_argument_error(self):
        # zip would stop at the shorter operand: 1 * 3 = 3.0
        with pytest.raises(ArgumentError, match="lengths 2 and 1") as exc:
            dot([1.0, 2.0], [3.0])
        assert exc.value.exit_code == 2

    def test_bit_equal_to_the_emitted_sum(self):
        # from the first product, not from 0.0, so a zero sum keeps its sign
        emitted = eval(numerics._dot(expressions._Code(), [("-0.0", "1.0")] * 2)[0])
        assert dot([-0.0, -0.0], [1.0, 1.0]).hex() == emitted.hex() == (-0.0).hex()
        rng = np.random.default_rng(7)
        for m in range(1, 10):
            pairs = [(f"a[{k}]", f"b[{k}]") for k in range(m)]
            source = numerics._dot(expressions._Code(), pairs)[0]
            for _ in range(50):
                a = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m)
                b = rng.standard_normal(m)
                want = eval(source, {"a": a.tolist(), "b": b.tolist()})
                assert dot(a, b).hex() == want.hex() == dot(a.tolist(), b).hex()


class TestMinNormStep:
    def test_matches_lstsq_on_full_row_rank_systems(self):
        # lstsq is only the oracle: both give the minimal-norm solution
        rng = np.random.default_rng(11)
        for rows in (1, 2, 3):
            for cols in range(3, 10):
                for _ in range(20):
                    jac, rhs = rng.standard_normal((rows, cols)), rng.standard_normal(rows)
                    want = np.linalg.lstsq(jac, rhs, rcond=None)[0]
                    got = verify._min_norm_step(jac.tolist(), rhs.tolist())
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_row_that_falls_to_zero_is_dropped(self):
        # as lstsq drops it; for L = x every row of the tower's Jacobian is zero
        assert verify._min_norm_step([[0.0, 0.0]], [1.0]) == [0.0, 0.0]
        step = verify._min_norm_step([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [2.0, 4.0])
        assert step == [2.0, 0.0, 0.0]

    def test_nearly_dependent_rows_where_the_normal_equations_fail(self, monkeypatch):
        # christ_lee at seed 127: the fourth projection step's Jacobian has
        # singular values 1.60, 1.60 and 3.6e-9, so J J^T is singular to
        # working precision and the elimination raises on it
        seen, step = [], verify._min_norm_step
        monkeypatch.setattr(verify, "_min_norm_step",
                            lambda jac, rhs: seen.append((jac, rhs)) or step(jac, rhs))
        ct = ClairautTransform(load_bundled("christ_lee"))
        verify._project_to_surface(verify._Context(ct, None, [], 127),
                                   phase_probes(ct, seed=127)[0], 1)
        jac, rhs = np.array(seen[3][0]), np.array(seen[3][1])
        with pytest.raises(numerics.SingularMatrixError, match="Singular matrix"):
            solver(3)((jac @ jac.T).ravel().tolist(), rhs.tolist())
        x = step(jac.tolist(), rhs.tolist())
        assert all(map(math.isfinite, x))
        assert np.max(np.abs(jac @ x - rhs)) <= 1e-6 * np.max(np.abs(rhs))


class TestDifferenceStencils:
    """numerics.central_differences on a list-valued function, and the
    second-order stencil verify's third tower level reads."""

    @staticmethod
    def cubic(x):
        return [x[0] ** 2 * x[1], x[0] * x[1] + x[1] ** 3 - 2.0 * x[0]]

    def test_a_list_is_differenced_entry_by_entry(self):
        x = [0.3, -1.2]
        cols = numerics.central_differences(self.cubic, x, 1e-5)
        for i in range(2):
            scalar = numerics.central_differences(lambda y: self.cubic(y)[i], x, 1e-5)
            assert [col[i] for col in cols] == scalar

    def test_second_differences_of_a_cubic(self):
        # the Hessian stencils are exact on cubics up to rounding; the
        # gradient's error is h^2 times a sixth of the third derivative
        x0, x1 = x = [0.3, -1.2]
        grad, hess = numerics.second_differences(self.cubic, x, 1e-4)
        want_grad = [[2 * x0 * x1, x1 - 2.0], [x0 ** 2, x0 + 3 * x1 ** 2]]
        want_hess = [[[2 * x1, 0.0], [2 * x0, 1.0]], [[2 * x0, 1.0], [0.0, 6 * x1]]]
        assert np.max(np.abs(np.subtract(grad, want_grad))) <= 1e-7
        assert np.max(np.abs(np.subtract(hess, want_hess))) <= 1e-6
        assert all(hess[k][j] == hess[j][k] for k in range(2) for j in range(2))


class TestElimination:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_against_lapack_on_random_systems(self, k):
        # both are backward stable: they differ by rounding, at most a few
        # eps times the condition number relative to the solution
        rng = np.random.default_rng(100 + k)
        worst_ulp, worst = 0, 0.0
        for m in range(1, 9):
            solve = solver(k, m)
            for _ in range(40):
                a, b = rng.standard_normal((k, k)), rng.standard_normal((k, m))
                want = np.linalg.solve(a, b)
                got = np.array(solve(a.ravel().tolist(), b.ravel().tolist())).reshape(k, m)
                worst_ulp = max(worst_ulp, ulps(got, want))
                rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
                worst = max(worst, rel / (EPS * np.linalg.cond(a)))
        assert worst < 8.0, f"k={k}: max {worst_ulp} ulp, {worst:.2f} eps * cond"

    def test_zero_pivot_raises_singular_matrix(self):
        with pytest.raises(numerics.SingularMatrixError, match="Singular matrix"):
            solver(2)([1.0, 2.0, 2.0, 4.0], [1.0, 1.0])

    def test_pivoting_swaps_rows(self):
        assert solver(2)([0.0, 1.0, 1.0, 0.0], [2.0, 3.0]) == [3.0, 2.0]

    def test_source_is_straight_line(self):
        source = solver(3, 7).source
        assert "for " not in source and "while " not in source


class TestStageKernel:
    """The fused RK4 stage at tol = inf from a Resolution's own velocities:
    its first pass accepts them, so it is the stage at that root."""

    @staticmethod
    def stage(ct, pt, res, plan, vo):
        """(dq, dp, v, resid, H, F's subblock, V) from the flat stage."""
        out = ct._stage(*plan)(*pt._q, *pt._p, *pt._v, *vo, *res._v, math.inf)
        return split_stage(ct, plan, out)[:-1]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_resolution_and_sector_solve(self, name):
        ct = ClairautTransform(load_bundled(name))
        cls = classify(ct)
        # each given slot at 0.25, so the solved slots' right-hand side reads it
        gauge = gauge_input(ct, cls, {c: 0.25 for a, c in enumerate(ct.split.degenerate)
                                      if a not in cls.subblock})
        solve, other = gauge._plan
        worst = 0.0
        for pt in phase_probes(ct):
            res = ct.resolve(pt)
            v, resid = degenerate_velocities(ct, pt, gauge, cls, res=res)
            dq, dp, v_k, resid_k, h, f_sub, V = self.stage(ct, pt, res, gauge._plan,
                                                           [0.25] * len(other))
            want_dq = np.empty(ct.n)
            want_dq[ct.reg_idx] = res.dH_dp - v @ res.dB_dp
            want_dq[ct.deg_idx] = v
            want_dp = -res.dH_dq[ct.reg_idx] + v @ res.dB_dq[:, ct.reg_idx]
            # one emitted formula and one sector solve: the same floats
            assert V == list(res._v)
            assert res.F[np.ix_(solve, solve)].ravel().tolist() == f_sub
            assert v.tolist() == v_k and resid.hex() == resid_k.hex()
            assert h.hex() == res.H.hex()
            for got, want in ((dq, want_dq), (dp, want_dp)):
                worst = max(worst, rel_error(got, want))
        assert worst < 1e-12, f"{name}: {worst:.2e}"


    @pytest.mark.parametrize("name", BUNDLED)
    def test_h_is_bit_equal_to_the_resolution(self, name):
        # Resolution.H sums the stage's pairs in its order: (p, V), then
        # (B, v_deg), minus L
        ct = ClairautTransform(load_bundled(name))
        plan = gauge_input(ct, classify(ct))._plan
        probes = phase_probes(ct)
        assert len(probes) == 17
        for pt in probes:
            res = ct.resolve(pt)
            assert self.stage(ct, pt, res, plan, [0.0] * len(plan[1]))[4].hex() == res.H.hex()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_w_rr_sign_is_the_sign_of_its_determinant(self, name):
        ct = ClairautTransform(load_bundled(name))
        plan = gauge_input(ct, classify(ct))._plan
        for pt in phase_probes(ct):
            res = ct.resolve(pt)
            w = np.array(res._core[ct.core_slices["W"]]).reshape(ct.n, ct.n)
            want = np.sign(np.linalg.det(w[np.ix_(ct.reg_idx, ct.reg_idx)]))
            out = ct._stage(*plan)(*pt._q, *pt._p, *pt._v, *[0.0] * len(plan[1]), *res._v,
                                   math.inf)
            assert split_stage(ct, plan, out)[-1] == want != 0.0

    def test_a_root_above_tol_is_accepted(self):
        # velocities 0.25 off the root, so the residual is far above 1e-12:
        # tol = inf takes them as they are, a finite tol steps on from them
        ct = ClairautTransform(load_bundled("christ_lee"))
        pt = ct.point({"x1": 0.8, "x2": -0.6, "x3": 1.0}, {"x1": 0.4, "x2": -0.3, "x3": 0.5})
        res = ct.resolve(pt)
        solve, other = gauge_input(ct, classify(ct))._plan
        vo, off = [0.0] * len(other), [v + 0.25 for v in res._v]
        kernel = ct._stage(solve, other)

        def velocities(tol):
            return split_stage(ct, (solve, other), kernel(*pt._q, *pt._p, *pt._v, *vo, *off,
                                                          tol))[6]

        assert velocities(math.inf) == off
        assert velocities(1e-12) != off


def split_stage(ct, plan, out):
    """The flat tuple of a fused stage as (dq, dp, v, resid, H, F's solved
    subblock, V, det W_rr's sign), each block a list."""
    n, r, out = ct.n, ct.r, list(out)
    dq, dp, v, V = out[:n], out[n:n + r], out[n + r:2 * n], out[2 * n:2 * n + r]
    resid, h, sign = out[2 * n + r:2 * n + r + 3]
    sub = out[2 * n + r + 3:]
    assert len(sub) == len(plan[0]) ** 2
    return dq, dp, v, resid, h, sub, V, sign


class TestStageInlining:
    """The fused stage writes single-use sums, products and negations into
    their readers: the same floats as a local per node, the raising nodes in
    their own statements and order, and a bounded parenthesis depth."""

    RAISING = re.compile(r"\b(?:pow|" + "|".join(expressions._FUNCTIONS) + r")\(|/")

    @staticmethod
    def kernels(ct, plan, monkeypatch):
        """The stage as built, then with no node inline."""
        args = ([e for block in ct.core_exprs.values() for e in block], ct.arg_names, ct._reg,
                *plan, ct.newton.max_iter)
        inlined = numerics.fused_stage(*args)
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_single_use", lambda exprs, hoisted: frozenset())
            return inlined, numerics.fused_stage(*args)

    @staticmethod
    def outcome(kernel, *args):
        try:
            out = kernel(*args)
        except RankDeficiencyError as exc:
            return str(exc)
        return None if out is None else [x.hex() for x in out]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_inlining_changes_no_bit(self, name, monkeypatch):
        ct = ClairautTransform(load_bundled(name))
        plan = gauge_input(ct, classify(ct))._plan
        inlined, plain = self.kernels(ct, plan, monkeypatch)
        lines = inlined.source.count("\n"), plain.source.count("\n")
        assert lines[0] < lines[1] if name == "particle" else lines[0] <= lines[1]
        vo = [0.25] * len(plan[1])
        for pt in phase_probes(ct):
            V = ct.resolve(pt)._v
            for start, tol in ((V, math.inf), ([v + 1e-3 for v in V], ct.newton.tol)):
                args = (*pt._q, *pt._p, *pt._v, *vo, *start, tol)
                assert self.outcome(inlined, *args) == self.outcome(plain, *args)

        def raising(source):
            return [found for line in source.splitlines() if (found := self.RAISING.findall(line))]

        assert raising(inlined.source) == raising(plain.source)

    @staticmethod
    def nested_to_the_limit():
        inner = "x"
        for _ in range(expressions.MAX_NESTING - 1):
            inner = f"(x+0.01*d(x)*{inner})"
        return ClairautTransform(parse_model(f"coord x; lagrangian = d(x)^2/2 + {inner};"))

    def test_a_model_nested_to_the_limit_compiles_and_simulates(self):
        ct = self.nested_to_the_limit()
        traj = integrate(ct, ct.point([0.1], [0.2]), cfg=IntegratorConfig(t1=0.01, dt=1e-3))
        assert len(traj) == 11 and np.all(np.isfinite(traj.q))
        # the stage reads every level: uncapped, its inline texts nest 95 deep
        source = ct._stage((), ()).source
        depth = max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in source))
        assert depth <= expressions.INLINE_DEPTH

    def test_the_stage_build_reads_each_node_a_bounded_number_of_times(self, monkeypatch):
        # linear in the core's size: a walk of each node's own subtree, to
        # see whether it reads V, made 75 _children calls per node here
        ct = self.nested_to_the_limit()
        exprs = [e for block in ct.core_exprs.values() for e in block]
        nodes, calls, real = len(expressions._walk(exprs)), [0], expressions._children

        def counted(e):
            calls[0] += 1
            return real(e)

        monkeypatch.setattr(expressions, "_children", counted)
        monkeypatch.setattr(numerics, "_children", counted)
        numerics.fused_stage(exprs, ct.arg_names, ct._reg, (), (), ct.newton.max_iter)
        assert calls[0] <= 10 * nodes


class TestFoldRules:
    """Each fold of the fused stage's term algebra (numerics._times, _plus,
    _neg, _over) gives the bits of the operation it stands for, signed
    zeros included, for every finite operand, and each value it claims
    holds: literals exactly, numerics._ZERO as some zero."""

    # the operands: the tracked literals, a local known to be a zero of
    # unknown sign, and a local of unknown value, with the values each takes
    OPERANDS = {"0.0": [0.0], "-0.0": [-0.0], "1.0": [1.0], "z": [0.0, -0.0],
                "u": [0.0, -0.0, 1.0, -2.5, 1e-300, 1e300]}

    @staticmethod
    def codes():
        tracked, plain = expressions._Code(), expressions._Code()
        tracked.known = {"z": numerics._ZERO}
        return tracked, plain

    def check(self, folded, plain, names, divides=False):
        text, value = folded
        for values in itertools.product(*(self.OPERANDS[name] for name in names)):
            env = dict(zip(names, values))
            if divides and env[names[-1]] == 0.0:
                continue  # a pivot is checked nonzero first
            got, want = eval(text, env), eval(plain, env)
            assert got.hex() == want.hex(), (text, plain, env)
            if value == numerics._ZERO:
                assert got == 0.0
            elif value is not None:
                assert got.hex() == float(value).hex()

    @pytest.mark.parametrize("x, y", itertools.product(OPERANDS, repeat=2))
    def test_binary_folds_keep_every_bit(self, x, y):
        tracked, plain = self.codes()
        names = [v for v in (x, y) if v.isidentifier()]
        self.check(numerics._times(tracked, x, y), numerics._times(plain, x, y)[0], names)
        for op in "+-":
            terms = [numerics._term(tracked, x), numerics._term(tracked, y)]
            self.check(numerics._plus(tracked, *terms, op), f"{x} {op} {y}", names)
        if y != "0.0" and y != "-0.0" and y != "z":
            self.check(numerics._over(tracked, numerics._term(tracked, x), y), f"{x} / {y}",
                       names, divides=y == "u")

    @pytest.mark.parametrize("x", OPERANDS)
    def test_negation_keeps_every_bit(self, x):
        tracked, _ = self.codes()
        self.check(numerics._neg(numerics._term(tracked, x)), f"-{x}",
                   [x] if x.isidentifier() else [])


class TestStageFolding:
    """fused_stage tracks the exact zeros and ones of the core's Hessian
    blocks (numerics._FOLD) and emits only what they leave open: the same
    bits, signed zeros included, as the stage with every operation, and the
    same None, exception or non-finite slot where a W entry overflows."""

    # W_rr = x*x overflows to inf for |x| > 1.4e154 (a product, which does not
    # raise); gaugeless, the sector solve over both degenerate slots
    OVERFLOWING = "coord x, a, b; lagrangian = x*x*d(x)^2/2 + a*x*d(b) - x;"

    @staticmethod
    def kernels(ct, plan, monkeypatch):
        """The stage as built, then with no value tracked."""
        args = ([e for block in ct.core_exprs.values() for e in block], ct.arg_names, ct._reg,
                *plan, ct.newton.max_iter)
        folded = numerics.fused_stage(*args)
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_FOLD", False)
            return folded, numerics.fused_stage(*args)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_folding_changes_no_bit(self, name, monkeypatch):
        ct = ClairautTransform(load_bundled(name))
        plan = gauge_input(ct, classify(ct))._plan
        folded, plain = self.kernels(ct, plan, monkeypatch)
        lines = folded.source.count("\n"), plain.source.count("\n")
        if name in ("particle", "christ_lee", "synthetic_gaugeless"):
            assert lines[0] < lines[1]
        for pt, given in itertools.product(phase_probes(ct), (0.25, -0.5)):
            V, vo = ct.resolve(pt)._v, [given] * len(plan[1])
            for start, tol in ((V, math.inf), ([v + 1e-3 for v in V], ct.newton.tol)):
                args = (*pt._q, *pt._p, *pt._v, *vo, *start, tol)
                assert TestStageInlining.outcome(folded, *args) == \
                    TestStageInlining.outcome(plain, *args)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_the_other_kernels_track_nothing(self, name, monkeypatch):
        ct = ClairautTransform(load_bundled(name))
        core = ct.model.core
        zeros = transform_module._zeros([e for block in core.exprs.values() for e in block])

        def sources():
            return [numerics.block_kernel.__wrapped__(ct.n, ct._reg).source,
                    numerics.solver.__wrapped__(ct.r).source,
                    numerics.resolve_kernel.__wrapped__(ct.n, ct._reg).source,
                    numerics.jet_kernel.__wrapped__(ct.n, ct._reg, zeros, core.third[1]).source]

        on = sources()
        monkeypatch.setattr(numerics, "_FOLD", False)
        assert sources() == on

    def test_an_overflowing_w_entry_gives_the_same_outcome(self, monkeypatch):
        ct = ClairautTransform(parse_model(self.OVERFLOWING))
        plan = gauge_input(ct, classify(ct))._plan
        assert plan == ((0, 1), ())
        folded, plain = self.kernels(ct, plan, monkeypatch)
        overflowed = 0
        for x, V in itertools.product((1e155, -1e160, 1e200), (1.0, -3.0, 1e-200)):
            q, vd = [x, 0.3, 0.4], [0.2, 0.1]
            assert ct.model.core.fn([*q, V, *vd])[1 + 2 * ct.n] == math.inf  # W_xx
            args = (*q, 0.7, *vd, V, math.inf)
            got = TestStageInlining.outcome(folded, *args)
            assert got == TestStageInlining.outcome(plain, *args)
            overflowed += got is not None and not all(math.isfinite(float.fromhex(x)) for x in got)
        assert overflowed == 9
        # particle with V on its light cone (a zero divisor: None) and inside
        # it by rounding, at scales from 2**-480 to where the core's pow
        # overflows (None)
        ct = ClairautTransform(load_bundled("particle"))
        plan = gauge_input(ct, classify(ct))._plan
        folded, plain = self.kernels(ct, plan, monkeypatch)
        outcomes = set()
        for scale in (2.0 ** -480, 1.0, 2.0 ** 300, 2.0 ** 512):
            V0 = math.nextafter(scale, 0.0)
            V1 = math.nextafter(math.sqrt(scale * scale - V0 * V0), 0.0)
            for V in ([scale, 0.0, 0.0], [V0, V1, 0.0], [V0, 0.0, V1]):
                args = (0.1, 0.2, 0.3, 0.4, 0.4, 0.1, 0.2, scale, -0.5, *V, math.inf)
                got = TestStageInlining.outcome(folded, *args)
                assert got == TestStageInlining.outcome(plain, *args)
                outcomes.add(type(got))
        assert outcomes == {type(None), list}

    @pytest.mark.parametrize("make, start, spec", [
        ("OVERFLOWING", ([1e155, 0.3, 0.4], [1.0], None), None),
        ("particle", ({"x": 0.1}, {"x": 0.4, "y": 0.1, "z": 0.2}, None), {"x0": "1 + 1e160*t*t"}),
    ])
    def test_integrate_stops_at_the_same_row_with_the_same_message(self, make, start, spec,
                                                                 monkeypatch):
        def run():
            model = parse_model(self.OVERFLOWING) if make == "OVERFLOWING" else load_bundled(make)
            ct = ClairautTransform(model)
            gauge = gauge_input(ct, classify(ct), spec)
            with pytest.raises(IntegrabilityError) as exc:
                integrate(ct, ct.point(*start), gauge, IntegratorConfig(t1=0.01, dt=1e-3))
            return str(exc.value), len(exc.value.trajectory)

        folded = run()
        monkeypatch.setattr(numerics, "_FOLD", False)
        assert run() == folded

    def test_the_dead_store_pass_keeps_what_can_raise(self):
        code = expressions._Code()
        code("a * 9.0")  # before the tail: kept though nothing reads it
        start = len(code.lines)
        code("a * 1.0")
        chained = code("a * 2.0")
        code(f"{chained} + 1.0")  # unread, and the only reader of chained
        read, pivot, moved, raised = (code(f"a * {k}.0") for k in (3, 4, 5, 6))
        code.line(f"if {pivot} == 0.0: raise ValueError")
        code.line(f"if row == 1: {moved}, b = b, {moved}")
        code.line(f"raise ValueError({raised})")
        code.line("wsign = 1.0")  # no recorded local: kept though nothing reads it
        numerics._drop_dead(code, start, read)
        assert code.lines == ["    t0 = a * 9.0", "    t4 = a * 3.0", "    t5 = a * 4.0",
                              "    t6 = a * 5.0", "    t7 = a * 6.0",
                              "    if t5 == 0.0: raise ValueError",
                              "    if row == 1: t6, b = b, t6", "    raise ValueError(t7)",
                              "    wsign = 1.0"]

    def test_a_row_swap_forgets_the_shared_sums(self):
        # t0 * 0.0 is +0.0 before the swap moves -2.0 into t0 and -0.0 after
        # it: the sum read after it gets a local of its own
        code = expressions._Code()
        code.known = {}
        x, y = code("a"), code("b")
        before = numerics._dot(code, [(x, "0.0")])[0]
        assert numerics._dot(code, [(x, "0.0")])[0] == before
        numerics._lu_solve(code, [[x, "1.0"], [y, "1.0"]], [["1.0"], ["0.0"]], "return None",
                           since=0)
        after = numerics._dot(code, [(x, "0.0")])[0]
        assert after != before
        out = code.build("a, b", f"{before}, {after}", {})(1.0, -2.0)
        assert [v.hex() for v in out] == [(0.0).hex(), (-0.0).hex()]

    # the dead-store pass's oracle: the analysis of the emitted text it replaced
    CALL = re.compile(r"\b(?!abs\()\w+\(")
    DENOMINATOR = re.compile(r"/\s*([\w.]*)")
    PIVOT_TEST = re.compile(r"if (\w+) == 0\.0: .*")

    @staticmethod
    def assigned(statement):
        """The names a line of straight-line code assigns, in its body if an if."""
        body = statement.split(": ", 1)[1] if statement.startswith(("if ", "elif ")) else statement
        return {name for part in body.split("; ") if " = " in part
                for name in re.findall(r"\w+", part.split(" = ")[0])}

    def test_no_recorded_local_of_the_tail_can_raise(self, monkeypatch):
        # what lets _drop_dead drop any unread recorded local: over the stages
        # of scripts/kernel_digests.py, each local recorded after the except
        # line calls no function but abs, and divides only by a nonzero
        # number, by a local that an earlier line tests against 0.0 and no
        # line since assigns, or by anything past an unconditional raise (a
        # literal zero pivot's)
        digests, tails, real = runpy.run_path(KERNEL_DIGESTS), [], numerics._drop_dead

        def record(code, start, ret):
            recorded = {k - start for k in code.locals.values() if k >= start}
            tails.append((code.lines[start:], recorded))
            real(code, start, ret)

        monkeypatch.setattr(numerics, "_drop_dead", record)
        models = [load_bundled(name) for name in BUNDLED]
        models += [parse_model(text, name=name) for name, text in digests["MODELS"].items()]
        for model in models:
            ct = ClairautTransform(model)
            for solve, other, _ in digests["plans"](model.name, ct):
                ct._stage(solve, other)
        assert len(tails) == len(models)
        checked = tested_divisions = 0
        for lines, recorded in tails:
            tested, unreachable = set(), False
            for k, line in enumerate(lines):
                statement = line.strip()
                if k in recorded:
                    expr = statement.split(" = ", 1)[1]
                    assert not self.CALL.search(expr), statement
                    for den in self.DENOMINATOR.findall(expr):
                        assert den in tested or unreachable or \
                            re.fullmatch(r"[0-9.]+", den) and float(den), statement
                        tested_divisions += den in tested
                    checked += 1
                tested -= self.assigned(statement)
                if test := self.PIVOT_TEST.fullmatch(statement):
                    tested.add(test[1])
                unreachable |= statement.startswith("raise ")
        assert checked > 400 and tested_divisions > 50  # 463 and 70 here

    @pytest.mark.xfail(strict=True, reason="the folds are exact for finite operands only: "
                       "F's diagonal folds to 0.0 where the unfolded stage computes 0 * inf")
    def test_a_subnormal_w_entry_gives_the_same_outcome(self, monkeypatch):
        # W_rr = x*x is subnormal at x = 1e-160 and W_rr^-1 overflows, so W_dr X
        # is 0 * inf: folded, integrate raises RankDeficiencyError ('sector
        # subblock singular'); unfolded, IntegrabilityError ('non-finite v:a
        # = nan at t=0')
        def run():
            ct = ClairautTransform(parse_model(self.OVERFLOWING))
            try:
                integrate(ct, ct.point([1e-160, 0.3, 0.4], [1e-300]),
                          cfg=IntegratorConfig(t1=0.01))
            except (IntegrabilityError, RankDeficiencyError) as exc:
                return type(exc).__name__, str(exc)
            return None

        folded = run()
        monkeypatch.setattr(numerics, "_FOLD", False)
        assert run() == folded

    def test_a_literal_zero_pivot_in_the_sector_solve_raises(self):
        # no degenerate slot enters L but through x * d(b): F is exactly 0,
        # each entry a literal in the folded stage, and solving it fails
        ct = ClairautTransform(parse_model("coord x, a, b; lagrangian = d(x)^2/2 + x*d(b);"))
        exprs = [e for block in ct.core_exprs.values() for e in block]
        stage = numerics.fused_stage(exprs, ct.arg_names, ct._reg, (0, 1), (), ct.newton.max_iter)
        lines = stage.source.splitlines()
        raises = [k for k, line in enumerate(lines) if line.lstrip().startswith("raise ")]
        assert lines[raises[0]] == f"    raise RankDeficiencyError({numerics.SECTOR_SINGULAR!r})"
        assert raises[0] == len(lines) - 1  # nothing after it is reached, so nothing is emitted
        with pytest.raises(RankDeficiencyError, match="sector subblock singular"):
            stage(0.1, 0.2, 0.3, 0.4, 0.5, -0.25, 0.4, math.inf)


def reference_trajectory(ct, initial, gauge, cls, dt, steps):
    """RK4 with every stage built from resolve and degenerate_velocities, on
    numpy arrays: the stage as it was before it ran on floats."""
    other = [a for a, mode in enumerate(gauge.modes) if mode != "solve"]
    q, p = initial.q.copy(), initial.p.copy()
    warm_v, warm_reg = initial.v_deg.copy(), None
    rows = []

    def stage(t, q, p):
        nonlocal warm_v, warm_reg
        v_ref = warm_v.copy()
        for a in other:
            v_ref[a] = gauge.velocity(a, t)
        pt = PhasePoint(q, p, v_ref)
        res = ct.resolve(pt, v_init=warm_reg)
        warm_reg = res.V
        v, resid = degenerate_velocities(ct, pt, gauge, cls, t=t, res=res)
        warm_v = v
        dq = np.empty(ct.n)
        dq[ct.reg_idx] = res.dH_dp - v @ res.dB_dp
        dq[ct.deg_idx] = v
        dp = -res.dH_dq[ct.reg_idx] + v @ res.dB_dq[:, ct.reg_idx]
        return dq, dp, v, resid, res.H

    for k in range(steps + 1):
        t = k * dt
        dq1, dp1, v1, c1, h1 = stage(t, q, p)
        rows.append(np.concatenate([q, p, v1, [h1, c1]]))
        if k == steps:
            break
        dq2, dp2, *_ = stage(t + dt / 2, q + dt / 2 * dq1, p + dt / 2 * dp1)
        dq3, dp3, *_ = stage(t + dt / 2, q + dt / 2 * dq2, p + dt / 2 * dp2)
        dq4, dp4, *_ = stage(t + dt, q + dt * dq3, p + dt * dp3)
        q = q + (dt / 6) * (dq1 + 2 * dq2 + 2 * dq3 + dq4)
        p = p + (dt / 6) * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
    return np.array(rows)


CASES = [
    ("particle", {"x0": "1+0.1*sin(t)"}, {"x": 0.1}, {"x": 0.4, "y": 0.1, "z": 0.2}, {}),
    ("christ_lee", None, {"x1": 0.8, "x2": -0.6, "x3": 0.5, "y1": 0.2},
     {"x1": 0.4, "x2": -0.3, "x3": 0.25}, {}),
    ("synthetic_gaugeless", None, {"x": 0.3, "a": 0.1, "b": -0.2}, {"x": 0.4}, {}),
    ("synthetic_gauge", {"u": "0.3*sin(t) + 0.2", "w": "zero"},
     {"x": 0.4, "a": 0.2, "b": 0.1}, {"x": 0.3}, {}),
    ("synthetic_bianchi", {"b": "0.4 - t^2"}, {"x": 0.5, "a": 0.1, "b": 0.3, "c": 0.2},
     {"x": 0.3}, {}),
]


class TestFloatStage:
    @pytest.mark.parametrize("name, spec, q, p, v", CASES, ids=[c[0] for c in CASES])
    def test_integrate_matches_resolve_and_sector(self, name, spec, q, p, v):
        ct = ClairautTransform(load_bundled(name))
        cls = classify(ct)
        gauge = gauge_input(ct, cls, spec)
        initial = ct.point(q, p, v or None)
        dt, steps = 1e-3, 200
        cfg = IntegratorConfig(t1=steps * dt, dt=dt, consistency_tol=math.inf)
        traj = integrate(ct, initial, gauge, cfg, cls)
        got = np.hstack([traj.q, traj.p, traj.v_deg, traj.h_phys[:, None]])
        want = reference_trajectory(ct, initial, gauge, cls, dt, steps)
        # the same scheme, rounded differently: no drift over 200 steps
        assert rel_error(got, want[:, :-1]) < 1e-12
        assert np.max(np.abs(traj.consistency - want[:, -1])) < 1e-12

    def test_one_gauge_call_per_distinct_time_and_one_gauge_check(self, monkeypatch):
        ct = ClairautTransform(load_bundled("particle"))
        cls = classify(ct)
        compiled = gauge_input(ct, cls, {"x0": "1+0.1*sin(t)"})
        calls, checks = [], []

        def counted(values):
            calls.append(values[0])
            return compiled.values[0](values)

        gauge = type(compiled)(compiled.modes, (counted,))
        check = dynamics_module.check_gauge_input
        monkeypatch.setattr(dynamics_module, "check_gauge_input",
                            lambda *args: checks.append(1) or check(*args))
        traj = integrate(ct, ct.point({"x": 0.1}, {"x": 0.4, "y": 0.1, "z": 0.2}), gauge,
                         IntegratorConfig(t1=0.1, dt=1e-3), cls)
        # stages 2 and 3 share t + dt/2; the next step's t is its own time
        steps = len(traj.t) - 1
        assert len(calls) == 3 * steps + 1 == 301
        assert calls[:4] == [0.0, 0.0 + 1e-3 / 2, 0.0 + 1e-3, 1e-3 * 1]
        assert calls[-1] == traj.t[-1]
        assert len(checks) == 1  # once before the loop, never per stage


class TestPfaffianSign:
    """numerics.pfaffian_sign, the RK4 loop's Parlett-Reid, gives
    np.sign(pfaffian(F)) exactly, ties, zero pivots and nan entries
    included."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_same_sign_as_pfaffian(self, m):
        rng = np.random.default_rng(m)
        for trial in range(300):
            a = rng.integers(-2, 3, size=(m, m)).astype(float) if trial % 2 else \
                rng.standard_normal((m, m))
            a = a - a.T
            if trial % 7 == 0:
                a[rng.integers(m), rng.integers(m)] = math.nan
            want = np.sign(pfaffian(a))
            got = numerics.pfaffian_sign(a.ravel().tolist(), m)
            assert got == want or (math.isnan(got) and math.isnan(want)), (a, got, want)

    @pytest.mark.parametrize("row, want", [
        ([0.0, 0.0, 0.0, math.nan], math.nan),  # the nan is the pivot, not the first 0
        ([0.0, 0.0, 0.0, 0.0], 0.0),
        ([0.0, 0.0, 1.0, -1.0], -1.0),  # a tie: the first largest is the pivot; Pf = -5
    ])
    def test_pivot_rule_edge_cases(self, row, want):
        a = np.zeros((4, 4))
        a[0] = row
        a[1:, 0] = -a[0, 1:]
        a[1, 2:], a[2:, 1] = [2.0, 3.0], [-2.0, -3.0]
        for got in (np.sign(pfaffian(a)), numerics.pfaffian_sign(a.ravel().tolist(), 4)):
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_a_tie_rounds_as_the_first_largest_pivot(self):
        # Pf = 0.1*3 - 0.3*0.7 + 0.3*(-0.3) = 0: pivoting on a[0][2], the
        # first 0.3, rounds it to 0.0, and on a[0][3] to a positive number
        a = np.zeros((4, 4))
        for (i, j), x in {(0, 1): 0.1, (0, 2): 0.3, (0, 3): 0.3, (1, 2): -0.3, (1, 3): 0.7,
                          (2, 3): 3.0}.items():
            a[i, j], a[j, i] = x, -x
        assert np.sign(pfaffian(a)) == 0.0 == numerics.pfaffian_sign(a.ravel().tolist(), 4)


class TestRK4Loop:
    """rk4_kernel's routing and exit statuses on a stand-in fused stage with
    dq = (1, 0, 0) and dp = 0, whose F subblock [[0, f], [-f, 0]], sign of
    det W_rr and residual at step k come from schedules, and whose
    velocities V count the stages run; a row is t, q (3), p (1), v (2), H,
    residual."""

    WIDTH = 9

    def run(self, f, residual=None, steps=3, give_up=(), w_sign=None):
        """(status, rows, log): log holds each call of fused and resolve, the
        fused stage's flat floats as the lists q, p, vd and V; the fused
        calls numbered (from 1) in give_up give up at a finite tol."""
        residual = residual or [0.0] * len(f)
        w_sign = w_sign or [1.0] * len(f)
        stages, log = [], []

        def fused(*args):  # q (3), p (1), vd (2), no vo, V (1), tol
            q, p, vd, V, tol = list(args[:3]), list(args[3:4]), list(args[4:6]), \
                list(args[6:7]), args[7]
            log.append((q, p, vd, V, tol))
            if tol != math.inf and len(log) in give_up:
                return None
            k = len(stages) // 4
            stages.append(k)
            return 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, float(len(stages)), residual[k], 0.0, \
                w_sign[k], 0.0, f[k], -f[k], 0.0

        def resolve(q, p, vd, V):
            log.append((q, p, vd, V, "resolve"))
            return None, [-1.0], None

        rows = array.array("d")
        status = numerics.rk4_kernel(3, (0,), (0, 1), (), ())(
            fused, 1e-12, resolve, None, [0.0] * 3, [0.0], [0.0, 0.0], 0.0, 1.0, steps,
            1e-6, rows)
        return status, list(rows), log

    def test_a_stage_that_gives_up_runs_at_the_damped_root(self):
        # stage 2 gives up: resolve from its start V, then fused at tol inf from
        # the root resolve returns second, on the same argument lists
        status, rows, log = self.run([1.0] * 4, steps=1, give_up={2})
        assert status == 0 and len(rows) == 2 * self.WIDTH
        assert [entry[3:] for entry in log] == [
            ([0.0], 1e-12), ([1.0], 1e-12), ([1.0], "resolve"), ([-1.0], math.inf),
            ([2.0], 1e-12), ([3.0], 1e-12), ([4.0], 1e-12)]
        assert log[1][:3] == log[2][:3] == log[3][:3] == ([0.5, 0.0, 0.0], [0.0], [0.0, 0.0])

    def test_a_whole_run(self):
        status, rows, log = self.run([1.0, 2.0, 3.0, 4.0])
        assert len(log) == 4 * 3 + 1 and {entry[-1] for entry in log} == {1e-12}
        assert status == 0 and len(rows) == 4 * self.WIDTH
        assert rows[::self.WIDTH] == [0.0, 1.0, 2.0, 3.0] == rows[1::self.WIDTH]

    @pytest.mark.parametrize("f, k", [([1.0, 1.0, -1.0, 1.0], 2), ([1.0, 0.0, 0.0, 0.0], 1),
                                      ([math.nan, 1.0, 1.0, 1.0], 1),
                                      ([1.0, math.nan, math.nan, 1.0], 1)])
    def test_a_sign_change_stops_before_the_row(self, f, k):
        status, rows, _ = self.run(f)
        assert status == 2 and len(rows) == k * self.WIDTH + 1 and rows[-1] == k

    @pytest.mark.parametrize("w_sign, k", [([1.0, 1.0, -1.0, -1.0], 2),
                                           ([-1.0, 1.0, 1.0, 1.0], 1)])
    def test_a_w_rr_sign_change_stops_before_the_row(self, w_sign, k):
        # checked before the Pfaffian's, which changes at the same step here
        status, rows, _ = self.run([1.0] * k + [-1.0] * (4 - k), w_sign=w_sign)
        assert status == 4 and len(rows) == k * self.WIDTH + 1 and rows[-1] == k

    def test_a_w_rr_sign_that_holds_runs(self):
        assert self.run([1.0] * 4, w_sign=[-1.0] * 4)[0] == 0

    def test_a_singular_start_that_stays_singular_runs(self):
        assert self.run([0.0, 0.0, 0.0, 0.0])[0] == 0

    def test_residual_flags_at_the_start_and_aborts_later(self):
        status, rows, _ = self.run([1.0] * 4, [1.0, 1.0, 0.0, 0.0])
        assert status == 0  # flagged: step 0 was already off the surface
        status, rows, _ = self.run([1.0] * 4, [0.0, 0.0, 1.0, 0.0])
        assert status == 1 and len(rows) == 3 * self.WIDTH and rows[-1] == 1.0


class TestTypedFailures:
    def test_singular_newton_jacobian(self):
        with pytest.raises(NewtonError, match="singular jacobian"):
            damped_newton(lambda x: [x[0] + 1.0, x[1] - 1.0], lambda x: [1.0, 2.0, 2.0, 4.0],
                          [0.0, 0.0])

    def test_singular_jacobian_keeps_its_message(self):
        with pytest.raises(NewtonError) as exc:
            damped_newton(lambda x: [x[0] + 1.0, x[1] - 1.0], lambda x: [1.0, 2.0, 2.0, 4.0],
                          [0.0, 0.0])
        assert str(exc.value) == "singular jacobian: Singular matrix"
        assert isinstance(exc.value.__cause__, numerics.SingularMatrixError)

    def test_singular_field_strength_in_the_corrected_bracket(self):
        # synthetic_gauge's F has rank 2 of 4: a bracket corrected over every
        # degenerate direction solves with a singular F
        ct = ClairautTransform(load_bundled("synthetic_gauge"))
        pt = phase_probes(ct, count=1)[0]
        x, h = ExprObservable(ct, "p_x"), ct.hamiltonian_observable()
        with pytest.raises(RankDeficiencyError) as exc:
            gauge._corrected_bracket(ct, x, h, pt, range(ct.n - ct.r), "F is singular here")
        assert str(exc.value) == "F is singular here" and exc.value.__cause__ is None

    def test_singular_sector_subblock_in_integrate(self):
        ct = ClairautTransform(load_bundled("synthetic_gaugeless"))
        initial = ct.point({"x": 0.0, "a": 1.0, "b": 0.0}, {"x": 1.0})
        with pytest.raises(RankDeficiencyError, match="sector subblock singular"):
            integrate(ct, initial, cfg=IntegratorConfig(t1=0.01, dt=1e-3))

    def test_singular_velocity_hessian_block(self):
        ct = ClairautTransform(load_bundled("oscillator"))
        res = ct.resolve(ct.point([0.5], [1.0]))
        res._core = res._core[:3] + (0.0,) + res._core[4:]  # W_rr = 0
        with pytest.raises(RankDeficiencyError, match="W_rr"):
            res.dV_dq

    def test_singular_velocity_hessian_block_in_the_sector(self):
        # W_rr = 0 is not a singular sector subblock
        ct = ClairautTransform(load_bundled("synthetic_gaugeless"))
        cls = classify(ct)
        pt = ct.point({"x": 0.3, "a": 0.1, "b": -0.2}, {"x": 0.4})
        res = ct.resolve(pt)
        w = ct.core_slices["W"].start  # x is the one regular coordinate
        res._core = res._core[:w] + (0.0,) + res._core[w + 1:]
        with pytest.raises(RankDeficiencyError, match="W_rr"):
            degenerate_velocities(ct, pt, cls=cls, res=res)

    def test_domain_error_inside_backtracking(self):
        trials = []

        def residual(x):
            trials.append(x[0])
            if x[0] <= 0.0:
                raise DomainError("log of a non-positive number")
            return [math.log(x[0])]

        root = damped_newton(residual, lambda x: [1.0 / x[0]], [3.0])
        assert abs(root[0] - 1.0) < 1e-12 and type(root) is list
        assert any(x <= 0.0 for x in trials)  # the full step left the domain


class TestNewtonContract:
    def test_ndarray_callables_and_start(self):
        # x^2 = 2, y = x: the residual an ndarray, the Jacobian a 2-D one
        def residual(x):
            return np.array([x[0] ** 2 - 2.0, x[1] - x[0]])

        def jacobian(x):
            return np.array([[2.0 * x[0], 0.0], [-1.0, 1.0]])

        root = damped_newton(residual, jacobian, np.array([1.0, 0.0]))
        assert type(root) is list and len(root) == 2 and all(type(x) is float for x in root)
        assert max(abs(x - math.sqrt(2.0)) for x in root) < 1e-12
        start = damped_newton(residual, jacobian, np.array([root]))  # 2-D x0
        assert type(start) is list and start == root


class TestNewtonConfigFields:
    @pytest.mark.parametrize("kwargs, message", [
        # tol=-1 ran to a NewtonError ("math domain error") at the first probe
        ({"tol": -1}, "tol must be finite and positive, not -1"),
        ({"tol": math.nan}, "tol must be finite and positive, not nan"),
        ({"damping": 1.5}, "damping must lie strictly between 0 and 1, not 1.5"),
        ({"max_iter": 0}, "max_iter must be an integer of at least 1, not 0"),
        ({"max_iter": 2.5}, "max_iter must be an integer of at least 1, not 2.5"),
        ({"retries": -1}, "retries must be an integer of at least 0, not -1"),
        ({"max_backtracks": 0}, "max_backtracks must be an integer of at least 1, not 0"),
    ])
    def test_a_field_out_of_range_raises(self, kwargs, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            NewtonConfig(**kwargs)

    def test_the_defaults_and_the_smallest_settings_construct(self):
        assert NewtonConfig() == NewtonConfig(50, 1e-12, 0.5, 8, 40)
        NewtonConfig(max_iter=1, tol=5e-324, damping=1e-3, retries=0, max_backtracks=1)


class TestFullNewton:
    """The generated resolve kernel on one-coordinate models, where the
    Newton residual is L_v - p: damped_newton's root where damped_newton
    takes only full steps, and None where it would backtrack or fail."""

    @staticmethod
    def resolve(lagrangian, p, x0):
        """The kernel's outcome and damped_newton's pair on the same core."""
        fn = parse_model(f"coord x; lagrangian = {lagrangian};").core.fn
        got = numerics.resolve_kernel(1, (0,))(fn, NewtonConfig(), [0.0], [], [x0], [p])
        residual, jacobian, last = numerics.newton_pair(fn, [0.0, 0.0], [1], [1], [3], [p])
        return got, residual, jacobian, last

    @pytest.mark.parametrize("x0", [1.0, 3.0, 1e4])
    def test_root_as_damped_newton(self, x0):
        (args, root, core), residual, jacobian, last = self.resolve("d(x)^3/3", 2.0, x0)
        assert type(root) is list
        assert root == damped_newton(residual, jacobian, [x0])
        assert args == [0.0] + root and core == last[1]  # both at the root

    @pytest.mark.parametrize("lagrangian, p, x0", [
        ("sqrt(1 + d(x)^2)", 0.0, 2.0),  # L_v = v/sqrt(1+v^2): the full step overshoots
        ("d(x)^3/3", 2.0, 0.0),  # W = 2v: singular at the start
        ("d(x)*log(d(x)) - d(x)", 1.0, 10.0),  # L_v = log(v): steps to v < 0
        ("d(x)^3/3 + d(x)", 0.0, 0.5),  # L_v = v^2 + 1 = 0: no root
    ])
    def test_none_where_damped_newton_backtracks_or_fails(self, lagrangian, p, x0):
        assert self.resolve(lagrangian, p, x0)[0] is None


class TestNewtonPair:
    def test_latest_call_is_at_the_root(self):
        # x^3 = 1: the Jacobian 3x^2 is singular at the start x = 0, so the
        # root comes from a restart, whose first full steps overshoot and are
        # rejected; the last evaluation is still the root's
        calls, jacobians = [], []

        def fn(args):
            x = args[0]
            calls.append(x)
            return (x ** 3 - 1.0, 3.0 * x * x)

        residual, jacobian, last = numerics.newton_pair(fn, [0.0], [0], [0], [1], [0.0])

        def jac(x):
            jacobians.append(len(calls))
            before = len(calls)
            out = jacobian(x)
            assert len(calls) == before
            return out

        root = numerics.newton_with_restarts(residual, jac, [0.0])
        assert abs(root[0] - 1.0) < 1e-12
        assert calls[0] == 0.0 and jacobians[0] == 1  # the singular first run
        restart = calls[1:]
        # the restart's calls: its start, then one accepted trial per Jacobian
        # (the last one's is the root) and the rejected ones
        assert len(restart) > 1 + (len(jacobians) - 1)
        assert type(root) is list and last[0] == root and calls[-1] == root[0]
        assert last[1] == (root[0] ** 3 - 1.0, 3.0 * root[0] * root[0])


class TestTransformStart:
    def test_no_doomed_restarts_on_particle(self, monkeypatch, capsys):
        runs, solves = [], []
        real_run, real_solve = numerics.damped_newton, transform_module.newton_with_restarts
        monkeypatch.setattr(numerics, "damped_newton",
                            lambda *args: runs.append(1) or real_run(*args))
        monkeypatch.setattr(transform_module, "newton_with_restarts",
                            lambda *args: solves.append(1) or real_solve(*args))
        code = cli.main(["transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4"])
        assert code == 0 and capsys.readouterr().out.startswith("H_phys = ")
        assert solves and len(runs) == len(solves)  # every solve succeeds on its first run

    def test_restarts_kept_where_v_deg_1_is_outside_the_domain(self, capsys, tmp_path):
        # log(v_x^2) fails at Newton's start v_x = 0 whatever v_y is, and
        # sqrt(0.5 - v_y) fails at v_y = 1: only a restart at v_y = 0 resolves
        path = tmp_path / "domain.lag"
        path.write_text("coord x, y;\n"
                        "lagrangian = d(x)^2 + log(d(x)^2) + y*sqrt(0.5 - d(y))^2 - x^2;\n")
        code = cli.main(["transform", str(path), "--at", "x=0.3,y=0.2,p_x=5"])
        out = capsys.readouterr().out
        assert code == 0 and "B_y = -0.20000000000000001" in out
