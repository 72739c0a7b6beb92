"""Shared reporting: the acceptance tests append one line per criterion
here, and the summary hook prints the scoreboard after the run regardless
of capture mode.  reference_resolve is the damped-Newton-only resolve that
the transform's and integrate's full Newton steps are checked against."""

from clairaut import numerics

ACCEPTANCE_LINES = []


def reference_resolve(ct, q, p, v_deg, x0):
    """ClairautTransform._resolve_args by damped Newton alone, from the same
    start: newton_pair on the derivative core, whose flat layout is (L,
    L_v[n], L_q[n], W[n*n], L_vq[n*n]), and numerics.newton_with_restarts
    from the list x0."""
    n, reg = ct.n, ct._reg
    args = list(q) + [0.0] * n
    for i, val in zip([i for i in range(n) if i not in reg], v_deg):
        args[n + i] = val
    if not reg:
        return args, [], ct._f_core(args)
    residual, jacobian, last = numerics.newton_pair(
        ct._f_core, args, [n + i for i in reg], [1 + i for i in reg],
        [1 + 2 * n + i * n + j for i in reg for j in reg], p)
    numerics.newton_with_restarts(residual, jacobian, x0, ct.newton)
    return args, last[0], last[1]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
