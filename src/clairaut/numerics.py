"""Small numeric kernels: pivoted rank detection, the Pfaffian of an
antisymmetric matrix, and damped Newton iteration.

Both routines are deterministic for fixed inputs; the Newton restarts draw
from a generator seeded per call, never from global state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NewtonError


def rank_and_pivots(matrix, rel_tol=1e-9):
    """Numeric rank via Gaussian elimination with complete pivoting.

    A pivot counts while its magnitude exceeds rel_tol times the largest
    absolute entry of the input matrix.  Returns (rank, pivot_columns) with
    columns listed in selection order; the greedy order is what callers use
    to pick a regular velocity block.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("rank_and_pivots expects a matrix")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return 0, []
    threshold = rel_tol * scale
    rows = list(range(a.shape[0]))
    cols = list(range(a.shape[1]))
    pivot_cols = []
    while rows and cols:
        sub = np.abs(a[np.ix_(rows, cols)])
        flat = int(np.argmax(sub))
        ri, ci = divmod(flat, sub.shape[1])
        if sub[ri, ci] <= threshold:
            break
        pr, pc = rows[ri], cols[ci]
        pivot_cols.append(pc)
        rows.pop(ri)
        cols.pop(ci)
        if rows:
            ratios = a[rows, pc] / a[pr, pc]
            a[np.ix_(rows, cols)] -= np.outer(ratios, a[pr, cols])
    return len(pivot_cols), pivot_cols


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


@dataclass(frozen=True)
class NewtonConfig:
    """Damped Newton settings shared by velocity resolution and the PDE solver."""

    max_iter: int = 50
    tol: float = 1e-12
    damping: float = 0.5
    retries: int = 8
    max_backtracks: int = 40


def damped_newton(residual, jacobian, x0, cfg=NewtonConfig()):
    """Solve residual(x) = 0 with Newton steps and residual-norm backtracking.

    A step is halved (cfg.damping) whenever it raises a DomainError or grows
    the residual norm.  Raises NewtonError when out of iterations or the
    Jacobian goes singular.  The Jacobian is only ever asked for at the very
    point (the same object) of the latest residual call, so a caller may
    evaluate both at once and hand the Jacobian over from that call.
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(residual(x), dtype=float)
    norm = float(np.abs(fx).max()) if fx.size else 0.0
    for _ in range(cfg.max_iter):
        if norm <= cfg.tol:
            return x
        jac = np.asarray(jacobian(x), dtype=float)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular jacobian: {exc}", residual=norm) from exc
        if not np.isfinite(step).all():
            raise NewtonError("non-finite newton step", residual=norm)
        scale = 1.0
        for _ in range(cfg.max_backtracks):
            trial = x + scale * step
            try:
                ftrial = np.asarray(residual(trial), dtype=float)
            except DomainError:
                scale *= cfg.damping
                continue
            new_norm = float(np.abs(ftrial).max()) if ftrial.size else 0.0
            if not np.isfinite(new_norm):
                scale *= cfg.damping
                continue
            if new_norm < norm or new_norm <= cfg.tol:
                x, fx, norm = trial, ftrial, new_norm
                break
            scale *= cfg.damping
        else:
            raise NewtonError("newton line search stalled", residual=norm)
    if norm <= cfg.tol:
        return x
    raise NewtonError("newton did not converge", residual=norm, iterations=cfg.max_iter)


def newton_with_restarts(residual, jacobian, x0, cfg=NewtonConfig(), box=1.0, seed=0):
    """Newton from x0, then from cfg.retries seeded random points in [-box, box]^n."""
    try:
        return damped_newton(residual, jacobian, x0, cfg)
    except (NewtonError, DomainError) as first_failure:
        failure = first_failure
    rng = np.random.default_rng(seed)
    dim = len(np.atleast_1d(x0))
    for _ in range(cfg.retries):
        start = rng.uniform(-box, box, size=dim)
        try:
            return damped_newton(residual, jacobian, start, cfg)
        except (NewtonError, DomainError) as exc:
            failure = exc
    raise NewtonError(
        f"newton failed from initial guess and {cfg.retries} restarts: {failure}",
        residual=getattr(failure, "residual", None),
    ) from failure
