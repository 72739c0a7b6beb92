"""General, envelope, and s-mixed solutions with defect verification."""

import numpy as np
import pytest

from clairaut import DomainError, ModelError, NewtonError, RankDeficiencyError
from clairaut.clairaut_pde import (
    ClairautProblem,
    envelope_solution,
    general_solution,
    mixed_solution,
    pde_residual,
)
from clairaut.errors import ArgumentError
from clairaut.expressions import Const, Sym, differentiate, substitute
from clairaut.fixtures import BUNDLED, load_bundled
from clairaut.model import default_probes
from clairaut.numerics import damped_newton
from clairaut.transform import ClairautTransform

RNG_SEED = 4242


@pytest.fixture(scope="module")
def rank2_problem():
    return ClairautProblem(3, "z1^2 + z2^2 + z3")


@pytest.fixture(scope="module")
def quadratic_problem():
    return ClairautProblem(2, "z1^2 + z2^2")


class TestProblem:
    def test_argument_names(self, rank2_problem):
        assert rank2_problem.names == ("z1", "z2", "z3")

    def test_foreign_symbols_rejected(self):
        with pytest.raises(ModelError):
            ClairautProblem(2, "z1 + z3")

    def test_dimension_must_be_positive(self):
        with pytest.raises(ModelError):
            ClairautProblem(0, "1")

    def test_evaluators(self, rank2_problem):
        z = [1.0, 2.0, 3.0]
        assert rank2_problem.f_value(z) == 8.0
        assert np.all(rank2_problem.f_gradient(z) == [2.0, 4.0, 1.0])
        assert np.all(rank2_problem.f_hessian(z) == np.diag([2.0, 2.0, 0.0]))

    @pytest.mark.parametrize("f", ["z1^2 + z2^2 + z3", "exp(z1*z2)/(1 + z3^2) + sin(z1)*z3"])
    def test_shared_memos_give_the_per_call_derivatives(self, f):
        # the gradient and Hessian are the core's L_v and W of f(d(z)); W's
        # lower triangle mirrors the upper one
        prob = ClairautProblem(3, f)
        vel = {z: Sym(f"d({z})") for z in prob.names}
        grad = [differentiate(prob.f, z) for z in prob.names]
        hess = [differentiate(grad[min(i, j)], prob.names[max(i, j)])
                for i in range(3) for j in range(3)]
        core = prob.model.core
        assert core.exprs["L_v"] == [substitute(g, vel) for g in grad]
        assert core.exprs["W"] == [substitute(h, vel) for h in hess]
        assert set(core.exprs["L_q"] + core.exprs["L_vq"]) == {Const(0.0)}

    @pytest.mark.parametrize("z", [[1.0, 2.0, 3.0], [1.0]])
    @pytest.mark.parametrize("method", ["f_value", "f_gradient", "f_hessian"])
    def test_wrong_length_is_an_argument_error(self, quadratic_problem, method, z):
        # three values gave f(1, 2) = 5.0 and the gradient [2, 4], one an IndexError
        with pytest.raises(ArgumentError, match=f"f takes 2 values, not {len(z)}"):
            getattr(quadratic_problem, method)(z)

    def test_hessian_rank(self, rank2_problem, quadratic_problem):
        assert rank2_problem.hessian_rank([0.3, -0.7, 1.1]) == 2
        assert quadratic_problem.hessian_rank([0.0, 0.0]) == 2


class TestGeneralSolution:
    def test_affine_closed_form(self, rank2_problem):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            c = rng.uniform(-2, 2, size=3)
            x = rng.uniform(-2, 2, size=3)
            want = c[0] * (x[0] - c[0]) + c[1] * (x[1] - c[1]) + c[2] * (x[2] - 1)
            assert general_solution(rank2_problem, c)(x) == pytest.approx(want, abs=1e-12)

    def test_zero_function(self):
        prob = ClairautProblem(1, "0")
        y = general_solution(prob, [0.0])
        assert y([1.7]) == 0.0

    def test_quadratic_single_variable(self):
        # f = z^2/2 - 1/8 gives y = x*c - c^2/2 + 1/8, the familiar
        # Hamiltonian-as-general-solution shape with the slope still free
        prob = ClairautProblem(1, "z1^2/2 - 0.125")
        assert general_solution(prob, [2.0])([3.0]) == pytest.approx(4.125, abs=1e-12)

    def test_constant_count_checked(self, rank2_problem):
        with pytest.raises(ModelError):
            general_solution(rank2_problem, [1.0, 2.0])

    def test_point_count_checked(self, quadratic_problem):
        # 1 * 1 - f(1, 2) = -4.0 if the second component were dropped
        y = general_solution(quadratic_problem, [1.0, 2.0])
        with pytest.raises(ModelError, match="expected 2 point components"):
            y([1.0])

    @pytest.mark.parametrize("call", [
        lambda prob: general_solution(prob, [[1.0, 2.0]]),
        lambda prob: general_solution(prob, np.ones((1, 2))),
        lambda prob: general_solution(prob, [1.0, 2.0])([[1.0], [2.0]]),
        lambda prob: envelope_solution(prob, np.ones((2, 1))),
        lambda prob: mixed_solution(prob, 1, [[1.0]], [1.0, 2.0]),
        lambda prob: pde_residual(prob, lambda x: 0.0, 3.0),
    ], ids=["constants", "constant-row", "point", "envelope-point", "tail", "scalar-point"])
    def test_nested_input_is_a_model_error(self, quadratic_problem, call):
        with pytest.raises(ModelError):
            call(quadratic_problem)

    def test_domain_error_at_bad_constants(self):
        prob = ClairautProblem(1, "log(z1)")
        with pytest.raises(DomainError):
            general_solution(prob, [-1.0])


class TestEnvelopeSolution:
    def test_single_variable_quadratic(self):
        prob = ClairautProblem(1, "z1^2/2")
        assert envelope_solution(prob, [3.0]) == pytest.approx(4.5, abs=1e-10)

    def test_paper_pair_of_squares(self, quadratic_problem):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=2)
            want = x[0] ** 2 / 4 + x[1] ** 2 / 4
            assert envelope_solution(quadratic_problem, x) == pytest.approx(want, abs=1e-10)

    def test_rank_deficient_f_has_no_envelope(self, rank2_problem):
        with pytest.raises(RankDeficiencyError):
            envelope_solution(rank2_problem, [2.0, 2.0, 3.0])

    def test_transcendental_slope_condition(self):
        # x = exp(z) resolves to z = log(x), so y = x log(x) - x
        prob = ClairautProblem(1, "exp(z1)")
        assert envelope_solution(prob, [2.0]) == pytest.approx(2 * np.log(2) - 2, abs=1e-10)

    def test_point_shape_checked(self, quadratic_problem):
        with pytest.raises(ModelError):
            envelope_solution(quadratic_problem, [1.0, 2.0, 3.0])

    def test_deterministic(self, quadratic_problem):
        a = envelope_solution(quadratic_problem, [1.3, -0.4])
        b = envelope_solution(quadratic_problem, [1.3, -0.4])
        assert a == b


class TestMixedSolution:
    def test_paper_two_mixed(self, rank2_problem):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=3)
            c3 = rng.uniform(-2, 2)
            want = x[0] ** 2 / 4 + x[1] ** 2 / 4 + c3 * (x[2] - 1)
            got = mixed_solution(rank2_problem, 2, [c3], x)
            assert got == pytest.approx(want, abs=1e-10)

    def test_paper_one_mixed(self, rank2_problem):
        x = np.array([2.0, 1.0, 3.0])
        c2, c3 = 0.7, -1.2
        want = x[0] ** 2 / 4 + c2 * (x[1] - c2) + c3 * (x[2] - 1)
        assert mixed_solution(rank2_problem, 1, [c2, c3], x) == pytest.approx(want, abs=1e-10)

    def test_s_zero_is_the_general_solution(self, rank2_problem):
        c = [0.5, -0.3, 1.1]
        x = [1.0, 2.0, 3.0]
        assert mixed_solution(rank2_problem, 0, c, x) == general_solution(rank2_problem, c)(x)

    def test_s_equal_n_is_the_envelope(self, quadratic_problem):
        x = [1.5, -0.8]
        got = mixed_solution(quadratic_problem, 2, [], x)
        assert got == pytest.approx(envelope_solution(quadratic_problem, x), abs=1e-12)

    def test_block_past_the_rank_fails(self, rank2_problem):
        with pytest.raises(RankDeficiencyError):
            mixed_solution(rank2_problem, 3, [], [2.0, 2.0, 3.0])

    def test_s_out_of_range(self, rank2_problem):
        with pytest.raises(ModelError):
            mixed_solution(rank2_problem, 4, [], [0.0, 0.0, 0.0])
        with pytest.raises(ModelError):
            mixed_solution(rank2_problem, -1, [0.0] * 4, [0.0, 0.0, 0.0])

    def test_tail_length_checked(self, rank2_problem):
        with pytest.raises(ModelError):
            mixed_solution(rank2_problem, 2, [1.0, 2.0], [0.0, 0.0, 0.0])


class TestEquationResidual:
    """Every produced solution satisfies the defining equation pointwise."""

    def test_general(self, rank2_problem):
        rng = np.random.default_rng(RNG_SEED)
        y = general_solution(rank2_problem, [0.4, -1.1, 0.9])
        worst = max(pde_residual(rank2_problem, y, rng.uniform(-2, 2, size=3))
                    for _ in range(100))
        assert worst <= 1e-8

    def test_envelope(self, quadratic_problem):
        rng = np.random.default_rng(RNG_SEED)
        y = lambda x: envelope_solution(quadratic_problem, x)  # noqa: E731
        worst = max(pde_residual(quadratic_problem, y, rng.uniform(-2, 2, size=2))
                    for _ in range(100))
        assert worst <= 1e-8

    def test_mixed(self, rank2_problem):
        rng = np.random.default_rng(RNG_SEED)
        y = lambda x: mixed_solution(rank2_problem, 2, [0.8], x)  # noqa: E731
        worst = max(pde_residual(rank2_problem, y, rng.uniform(-2, 2, size=3))
                    for _ in range(100))
        assert worst <= 1e-8

    def test_transcendental_envelope(self):
        prob = ClairautProblem(1, "exp(z1)")
        rng = np.random.default_rng(RNG_SEED)
        y = lambda x: envelope_solution(prob, x)  # noqa: E731
        worst = max(pde_residual(prob, y, [rng.uniform(0.5, 3.0)])
                    for _ in range(30))
        assert worst <= 1e-8


class TestEnvelopeFromGeneral:
    def test_stationary_general_solution_reproduces_the_envelope(self, quadratic_problem):
        # drive the slope constants to the stationary point of the general
        # solution using nothing but its values: the result must agree with
        # the directly resolved envelope
        prob = quadratic_problem
        x = np.array([1.2, -0.7])

        def y_of_c(c):
            return general_solution(prob, c)(x)

        c = x / 2 + 0.3
        for _ in range(40):
            g = _fd_gradient(y_of_c, c)
            h = _fd_hessian(y_of_c, c)
            c = c - np.linalg.solve(h, g)
        assert y_of_c(c) == pytest.approx(envelope_solution(prob, x), abs=1e-8)


def _fd_gradient(fn, z, step=1e-5):
    out = np.empty(len(z))
    for j in range(len(z)):
        h = step * (1 + abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        out[j] = (fn(zp) - fn(zm)) / (2 * h)
    return out


def _fd_hessian(fn, z, step=1e-4):
    out = np.empty((len(z), len(z)))
    for j in range(len(z)):
        h = step * (1 + abs(z[j]))
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        out[:, j] = (_fd_gradient(fn, zp, step) - _fd_gradient(fn, zm, step)) / (2 * h)
    return out


class TestStartRule:
    """Every resolve starts at z = 0, the transform's start, and checks the
    Hessian block at the root and, where Newton fails, at the start."""

    @pytest.mark.parametrize("f, x, y", [
        ("z1*log(z1)", -0.5, np.exp(-1.5)),  # log(z) + 1 = x: z = y = e^(x - 1)
        ("z1^4", 2.0, 1.5 * 0.5 ** (1 / 3)),  # 4 z^3 = 2: a singular start
        ("1/z1 + z1^2", 1.0, -1.0),  # -1/z^2 + 2 z = 1 at z = 1: no f at the start
        ("-(5*sqrt(1 - z1^2))", 3.0, np.sqrt(34.0)),  # 5 z / sqrt(1 - z^2) = 3
    ])
    def test_resolves(self, f, x, y):
        assert envelope_solution(ClairautProblem(1, f), [x]) == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("f, x", [("z1^4", [0.0]), ("z1^2 + z2^2 + z3", [2.0, 2.0, 3.0])])
    def test_singular_block_raises(self, f, x):
        with pytest.raises(RankDeficiencyError, match="Hessian block rank"):
            envelope_solution(ClairautProblem(len(x), f), x)


class TestTransformAgreement:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_mixed_solution_is_h_mix(self, name):
        # f(z) = L(q, z) with the slots in split order: the mixed solution at
        # (p, pbar) with the degenerate slopes v_deg is H_mix at the probe
        model = load_bundled(name)
        ct = ClairautTransform(model)
        core, order, r = model.core, list(ct.split.order), ct.r
        for probe in default_probes(model):
            q = [probe[c] for c in model.coords]
            v = [probe[d] for d in model.velocity_names]
            lv = core.fn(q + v)[core.slices["L_v"]]
            mapping = model.base_bindings() | dict(zip(model.coords, q))
            mapping |= {model.velocity_names[i]: Sym(f"z{k + 1}") for k, i in enumerate(order)}
            prob = ClairautProblem(model.n, substitute(model.lagrangian, mapping))
            pt = ct.point(q, [lv[i] for i in order[:r]], [v[i] for i in order[r:]])
            pbar = [lv[i] for i in order[r:]]
            h = ct.h_mix(pt, pbar)
            got = mixed_solution(prob, r, pt.v_deg, np.concatenate([pt.p, pbar]))
            assert abs(got - h) <= 1e-12 * max(1.0, abs(h)), (probe, got, h)


class TestNewtonFailure:
    def test_unreachable_slope_reports_newton_failure(self):
        # x = exp(z) has no real solution for negative x
        prob = ClairautProblem(1, "exp(z1)")
        with pytest.raises(NewtonError, match="^the envelope solution's slopes: "):
            envelope_solution(prob, [-1.0])


class TestFamilyErrors:
    # the envelope and mixed families evaluate the general solution's
    # formula; their failures name the family, not the general solution
    def test_mixed_overflow_names_the_family(self):
        prob = ClairautProblem(2, "z1^2 + z2")
        with pytest.raises(DomainError, match=r"^the mixed solution overflows at this point"):
            mixed_solution(prob, 1, [1e300], [1.0, 1e300])

    def test_envelope_overflow_names_the_family(self):
        # the resolve evaluates f at every iterate, and f overflows at the
        # root z = 5e307: the resolve fails, and says for which family
        with pytest.raises(NewtonError, match=r"^the envelope solution's slopes: newton failed "):
            envelope_solution(ClairautProblem(1, "z1^2"), [1e308])


class TestOneEvaluator:
    def test_one_call_per_iterate(self, monkeypatch):
        # gradient and Hessian come from one core call per Newton iterate,
        # the full steps of damped_newton from z = 0; the rank check at the
        # root reads the root's call
        x = np.array([2.0, 1.5])
        for s, tail, solve in ((2, [], lambda prob: envelope_solution(prob, x)),
                               (1, [0.25], lambda prob: mixed_solution(prob, 1, [0.25], x))):
            prob = ClairautProblem(2, "exp(z1) + z1*z2 + z2^2")
            iterates, calls = [], []

            def residual(head):
                iterates.append(list(head) + tail)
                return prob.f_gradient(iterates[-1])[:s] - x[:s]

            damped_newton(residual, lambda _: prob.f_hessian(iterates[-1])[:s, :s], [0.0] * s)
            core = prob.model.core.fn
            monkeypatch.setattr(prob.model.core, "fn",
                                lambda args: calls.append(args[2:]) or core(args))
            assert np.isfinite(solve(prob))
            assert len(iterates) > 2 and calls == iterates

    def test_general_solution_where_only_f_is_defined(self):
        # sqrt(z1) is defined at 0, its derivatives are not
        prob = ClairautProblem(1, "sqrt(z1)")
        assert general_solution(prob, [0.0])([2.0]) == 0.0
        with pytest.raises(DomainError):
            prob.f_gradient([0.0])
