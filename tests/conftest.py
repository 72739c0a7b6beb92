"""Shared reporting: the acceptance tests append one line per criterion
here, and the summary hook prints the scoreboard after the run regardless
of capture mode.  reference_resolve is the damped-Newton-only resolve that
the transform's is checked against."""

import numpy as np

from clairaut import numerics

ACCEPTANCE_LINES = []


def reference_resolve(ct, q, p, v_deg, v_init=None):
    """ClairautTransform._resolve_args by damped Newton alone: newton_pair on
    the derivative core and numerics.newton_with_restarts from the same start."""
    args = ct._args(q, v_deg)
    if not ct.r:
        return args, [], ct._f_core(args)
    residual, jacobian, last = numerics.newton_pair(ct._f_core, args, ct._reg_at, ct._lv_reg,
                                                    ct._w_rr, p)
    x0 = [0.0] * ct.r if v_init is None else np.asarray(v_init, dtype=float).tolist()
    numerics.newton_with_restarts(residual, jacobian, x0, ct.newton)
    return args, last[0], last[1]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
