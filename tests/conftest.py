"""Shared reporting: the acceptance tests append one line per criterion
here, and the summary hook prints the scoreboard after the run regardless
of capture mode.  reference_resolve is the damped-Newton-only resolve that
the transform's and integrate's full Newton steps are checked against, and
pfaffian the reference of the RK4 loop's Pfaffian sign."""

import numpy as np

from clairaut import numerics

ACCEPTANCE_LINES = []


def reference_resolve(ct, q, p, v_deg, x0):
    """ClairautTransform._damped_resolve rebuilt, damped Newton alone from
    the start x0: newton_pair on the derivative core, whose flat layout is (L,
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


def pfaffian(matrix):
    """Pfaffian of an antisymmetric matrix; 0.0 for odd sizes.

    Skew-symmetric Gaussian elimination with partial pivoting (Parlett-Reid),
    two rows and columns per step.  Pf(A)^2 = det(A), but unlike the
    determinant the Pfaffian changes sign when A passes through a singular
    antisymmetric matrix.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k, k + 1:])))
        if kp != k + 1:
            a[[k + 1, kp]] = a[[kp, k + 1]]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        pivot = a[k, k + 1]
        if pivot == 0.0:
            return 0.0
        pf *= pivot
        if k + 2 < n:
            tau = a[k, k + 2:] / pivot
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
