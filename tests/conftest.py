"""Shared reporting: the acceptance tests append one line per criterion
here, and the summary hook prints the scoreboard after the run regardless
of capture mode.  reference_resolve and reference_stage_kernel are the
damped-Newton-only resolve and RK4 stage that the transform's and
integrate's full Newton steps are checked against."""

import numpy as np

from clairaut import numerics

ACCEPTANCE_LINES = []


def damped_resolve(fn, cfg, n, reg, q, v_deg, p, x0):
    """(args, V, core) by damped Newton alone: newton_pair on the derivative
    core fn, whose flat layout is (L, L_v[n], L_q[n], W[n*n], L_vq[n*n]),
    and numerics.newton_with_restarts from the list x0."""
    args = list(q) + [0.0] * n
    for i, val in zip([i for i in range(n) if i not in reg], v_deg):
        args[n + i] = val
    if not reg:
        return args, [], fn(args)
    residual, jacobian, last = numerics.newton_pair(
        fn, args, [n + i for i in reg], [1 + i for i in reg],
        [1 + 2 * n + i * n + j for i in reg for j in reg], p)
    numerics.newton_with_restarts(residual, jacobian, x0, cfg)
    return args, last[0], last[1]


def reference_resolve(ct, q, p, v_deg, v_init=None):
    """ClairautTransform._resolve_args by damped Newton alone, from the same
    start."""
    x0 = [0.0] * ct.r if v_init is None else np.asarray(v_init, dtype=float).tolist()
    return damped_resolve(ct._f_core, ct.newton, ct.n, ct._reg, q, v_deg, p, x0)


def reference_stage_kernel(n, reg, solve, other):
    """numerics.stage_kernel entered at damped Newton's root from x0, where
    it takes no full step: with dynamics.stage_kernel patched to this,
    integrate resolves every stage by damped Newton alone."""
    kernel = numerics.stage_kernel(n, reg, solve, other)

    def stage(fn, cfg, q, vd, x0, p, vo):
        root = damped_resolve(fn, cfg, n, reg, q, vd, p, x0)[1]
        return kernel(fn, cfg, q, vd, root, p, vo)

    return stage


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
