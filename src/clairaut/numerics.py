"""Small numeric kernels: pivoted rank detection, the one central-difference
stencil, the one float dot product, damped Newton iteration, and generated
straight-line kernels for the tiny dense solves of the mixed transform.

rank_and_pivots eliminates on Python floats, entry by entry as numpy would.
probe_ranks is the one constant-rank routine over probe matrices: the
velocity split and rank report (W) and the gauge classification (F) read
their ranks and principal-block ranks from it.

Everything is deterministic for fixed inputs; the Newton restarts draw from
a generator seeded per call, never from global state.  damped_newton and its
restarts (transform fallback, Fenchel oracle) build their residual and
Jacobian with newton_pair: flat float lists from one evaluator call per
point.

The generated kernels (solver, resolve_kernel, block_kernel, stage_kernel,
and rk4_kernel, integrate's whole fixed-step loop around a resolve and a
stage_kernel call per stage) run on Python floats: Gauss elimination with
partial pivoting and dot products summed left to right, unrolled for one
shape and compiled once.  They come from the package's one source emitter,
expressions._Code, as the compiled evaluators do.  resolve_kernel's full
Newton steps are damped_newton's iterates wherever it takes no shorter step.
One function, _block, emits the derivative block for block_kernel and
stage_kernel, so the two give the same floats for it.  rk4_kernel's Pfaffian
sign (_pfaffian_sign) is Parlett-Reid elimination unrolled.  dot (the sum
_dot emits, on floats), solver and verify's minimal-norm step (Gram-Schmidt
on dot) own every reported sum and solve, so each reported number rounds the
same way on every machine: none goes through numpy's BLAS or LAPACK.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, NewtonError, RankDeficiencyError
from .expressions import _Code


def rank_and_pivots(matrix, rel_tol=1e-9):
    """Numeric rank via Gaussian elimination with complete pivoting, on
    Python floats.

    A pivot counts while its magnitude exceeds rel_tol times the largest
    absolute entry of the input matrix.  The pivot is the first largest
    |entry| in row-major order over the rows and columns left, a nan the
    largest.  Returns (rank, pivot_columns) with columns listed in selection
    order; the greedy order is what callers use to pick a regular velocity
    block.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2:
        raise ArgumentError("rank_and_pivots expects a matrix")
    a = a.tolist()
    threshold = rel_tol * _max_abs(v for row in a for v in row)
    rows, cols = list(range(len(a))), list(range(len(a[0]) if a else 0))
    pivot_cols = []
    while rows and cols:
        top = -1.0
        for i in rows:
            row = a[i]
            for j in cols:
                v = abs(row[j])
                if top == top and not v <= top:
                    top, pr, pc = v, i, j
        if top <= threshold:
            break
        pivot_cols.append(pc)
        rows.remove(pr)
        cols.remove(pc)
        prow, pivot = a[pr], a[pr][pc]
        for i in rows:
            row = a[i]
            # a zero pivot (nan threshold) leaves only zeros: numpy's 0/0
            ratio = row[pc] / pivot if pivot else math.nan
            for j in cols:
                row[j] -= ratio * prow[j]
    return len(pivot_cols), pivot_cols


def probe_ranks(matrices, block, rel_tol):
    """The numbers of the constant-rank rule over square probe matrices
    (rows of floats): the rank of each and of its principal block, the
    index list block or, if that is None, the first matrix's sorted pivot
    columns.  Returns (block, ranks, block_ranks)."""
    ranks, block_ranks = [], []
    for m in matrices:
        rank, pivots = rank_and_pivots(m, rel_tol)
        if block is None:
            block = sorted(pivots)
        ranks.append(rank)
        sub = [[m[i][j] for j in block] for i in block]
        block_ranks.append(rank_and_pivots(np.reshape(sub, (len(block),) * 2), rel_tol)[0])
    return block, ranks, block_ranks


def central_differences(fn, x, step):
    """Central-difference derivatives of fn at the float array x: for each
    component k, h = step * (1 + |x_k|) and (fn(x + h e_k) - fn(x - h e_k))
    / (2h).  fn may return a scalar or an array; the direction axis is last,
    so one entry's gradient is a contiguous vector."""
    cols = []
    for k in range(len(x)):
        h = step * (1 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((fn(xp) - fn(xm)) / (2 * h))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class NewtonConfig:
    """Damped Newton settings shared by velocity resolution and the PDE solver."""

    max_iter: int = 50
    tol: float = 1e-12
    damping: float = 0.5
    retries: int = 8
    max_backtracks: int = 40


def dot(a, b):
    """sum(a[k] * b[k]) over float sequences or 1-D arrays, added left to right
    from the first product as _dot emits it (never compensated, as sum() is
    from Python 3.12 on); 0.0 for empty operands."""
    if isinstance(a, np.ndarray):
        a = a.tolist()
    if isinstance(b, np.ndarray):
        b = b.tolist()
    return float(functools.reduce(operator.add, map(operator.mul, a, b))) if len(a) else 0.0


def _floats(values):
    """A flat list of floats from an array-like, row-major; such a list
    itself passes through without numpy work."""
    if type(values) is list and (not values or type(values[0]) is float):
        return values
    return np.asarray(values, dtype=float).ravel().tolist()


def _max_abs(values):
    """max |v|, nan as soon as any entry is nan (like ndarray.max)."""
    worst = 0.0
    for value in values:
        value = abs(value)
        if value > worst or value != value:
            worst = value
    return worst


def damped_newton(residual, jacobian, x0, cfg=NewtonConfig()):
    """Solve residual(x) = 0 with Newton steps and residual-norm backtracking.

    The iterate is a list of floats: residual(x) returns k values and
    jacobian(x) the k x k matrix, each as an array or a flat row-major
    sequence (flat lists, x0 too, are used as they are).  A step (solver's)
    is halved (cfg.damping) whenever it raises a DomainError or does not
    lower the residual norm; resolve_kernel's full steps are the path where
    none is.  Raises NewtonError when out of iterations or the Jacobian goes
    singular.  The Jacobian is only asked for at the very point (the same
    object) of the latest residual call, so a caller may evaluate both at
    once.  Returns the root as an ndarray; the latest residual call is at
    it.
    """
    x = _floats(x0)
    fx = _floats(residual(x))
    norm = _max_abs(fx)
    for _ in range(cfg.max_iter):
        if norm <= cfg.tol:
            return np.array(x, dtype=float)
        try:
            step = solver(len(x))(_floats(jacobian(x)), [-f for f in fx])
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular jacobian: {exc}", residual=norm) from exc
        if not all(map(math.isfinite, step)):
            raise NewtonError("non-finite newton step", residual=norm)
        scale = 1.0
        for _ in range(cfg.max_backtracks):
            trial = [xi + scale * si for xi, si in zip(x, step)]
            try:
                ftrial = _floats(residual(trial))
                new_norm = _max_abs(ftrial)
            except DomainError:
                new_norm = math.nan
            if new_norm < norm or new_norm <= cfg.tol:  # never for nan or inf
                x, fx, norm = trial, ftrial, new_norm
                break
            scale *= cfg.damping
        else:
            raise NewtonError("newton line search stalled", residual=norm)
    if norm <= cfg.tol:
        return np.array(x, dtype=float)
    raise NewtonError("newton did not converge", residual=norm, iterations=cfg.max_iter)


def newton_pair(fn, args, at, rows, jac, target):
    """(residual, jacobian, last) for damped_newton on one evaluator.

    The iterate fills the slots at of the argument list args (mutated in
    place) and fn(args) returns a flat sequence: the residual is its entries
    rows minus target, the Jacobian its entries jac (row-major) from the same
    call.  last holds the point and the values of the latest call; after
    damped_newton returns, they are its root and fn there.
    """
    last = [None, None]

    def residual(x):
        for i, val in zip(at, x):
            args[i] = val
        vals = fn(args)
        last[:] = x, vals
        return [vals[i] - t for i, t in zip(rows, target)]

    def jacobian(x):
        if x is not last[0]:  # damped_newton never asks elsewhere
            residual(x)
        return [last[1][i] for i in jac]

    return residual, jacobian, last


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


# ------------------------------------------------------- generated kernels

_KERNEL_ENV = {"LinAlgError": np.linalg.LinAlgError, "RankDeficiencyError": RankDeficiencyError,
               "DomainError": DomainError, "isfinite": math.isfinite}


def _dot(pairs):
    """Source of sum(a * b) over the pairs, added left to right."""
    return " + ".join(f"{a} * {b}" for a, b in pairs) or "0.0"


def _lu_solve(code, a, b, singular):
    """Gauss elimination with partial pivoting on names: the k rows of
    right-hand sides b become A^-1 b, and a is overwritten.  A zero pivot
    runs the statement singular."""
    k = len(a)
    for j in range(k):
        if j + 1 < k:
            code.line(f"top, row = abs({a[j][j]}), {j}")
            for i in range(j + 1, k):
                code.line(f"if abs({a[i][j]}) > top: top, row = abs({a[i][j]}), {i}")
            for i in range(j + 1, k):
                mine, theirs = ", ".join(a[j][j:] + b[j]), ", ".join(a[i][j:] + b[i])
                code.line(f"{'if' if i == j + 1 else 'elif'} row == {i}: "
                          f"{mine}, {theirs} = {theirs}, {mine}")
        code.line(f"if {a[j][j]} == 0.0: {singular}")
        for i in range(j + 1, k):
            factor = code(f"{a[i][j]} / {a[j][j]}")
            for c in range(j + 1, k):
                code.line(f"{a[i][c]} = {a[i][c]} - {factor} * {a[j][c]}")
            for c, name in enumerate(b[i]):
                code.line(f"{name} = {name} - {factor} * {b[j][c]}")
    for i in reversed(range(k)):
        for c, name in enumerate(b[i]):
            rest = "".join(f" - {a[i][t]} * {b[t][c]}" for t in range(i + 1, k))
            code.line(f"{name} = ({name}{rest}) / {a[i][i]}")


def _emit_max_abs(code, values):
    """A fresh local holding max |v| over the expressions values, nan as
    soon as any is nan: _max_abs, unrolled."""
    worst = code("0.0")
    for value in values:
        err = code(f"abs({value})")
        code.line(f"if {err} > {worst} or {err} != {err}: {worst} = {err}")
    return worst


@functools.lru_cache(maxsize=None)
def resolve_kernel(n, reg):
    """Generated velocity resolve by full Newton steps for one split, cached
    by it: reg lists the regular coordinates.

    The kernel takes (fn, cfg, q, vd, x0, p): the derivative core evaluator
    (model.DerivativeCore.fn), the NewtonConfig, the coordinates, the
    degenerate velocities, the start and the regular momenta, as lists of
    floats.  Each iterate goes into the regular slots of the argument list
    A, c = fn(A) gives the residual L_v - p and the Jacobian W_rr, and the
    step solves W_rr s = -(L_v - p): damped_newton's iterate at scale 1.  A
    step is kept while the residual's max-abs norm falls.  The kernel
    returns (A, V, c), the argument list, the regular velocities and the
    core at the root (fn's last call), or None where damped_newton would
    backtrack or fail: a step that does not lower the norm (nan neither), a
    DomainError, a singular W_rr, cfg.max_iter steps, or a non-finite root.
    """
    code = _Code()
    deg = [i for i in range(n) if i not in reg]
    x = [code(f"x0[{s}]") for s in range(len(reg))]
    p = [code(f"p[{s}]") for s in range(len(reg))]
    vel = dict(zip(reg, x)) | {i: f"vd[{k}]" for k, i in enumerate(deg)}
    code.line(f"A = q + [{', '.join(vel[i] for i in range(n))}]")
    code.line("try:")
    body = len(code.lines)
    code.line("c = fn(A)")
    f = [code(f"c[{1 + i}] - {ps}") for i, ps in zip(reg, p)]
    norm = _emit_max_abs(code, f)
    code.line("for _ in range(cfg.max_iter):")
    loop = len(code.lines)
    code.line(f"if {norm} <= cfg.tol: break")
    b = [[code(f"-{fs}")] for fs in f]
    _lu_solve(code, [[code(f"c[{1 + 2 * n + i * n + j}]") for j in reg] for i in reg], b,
              "return None")
    for i, xs, (step,) in zip(reg, x, b):
        code.line(f"{xs} = {xs} + {step}")
        code.line(f"A[{n + i}] = {xs}")
    code.line("c = fn(A)")
    for i, ps, fs in zip(reg, p, f):
        code.line(f"{fs} = c[{1 + i}] - {ps}")
    new = _emit_max_abs(code, f)
    code.line(f"if not {new} < {norm}: return None")
    code.line(f"{norm} = {new}")
    code.indent(loop)
    code.indent(body)
    code.line("except DomainError: return None")
    code.line(f"if not ({' and '.join([f'{norm} <= cfg.tol'] + [f'isfinite({xs})' for xs in x])}):"
              " return None")
    return code.build("fn, cfg, q, vd, x0, p", f"A, [{', '.join(x)}], c", _KERNEL_ENV)


def _names(prefix, rows, cols):
    return [[f"{prefix}{i}_{j}" for j in range(cols)] for i in range(rows)]


@functools.lru_cache(maxsize=None)
def solver(k, m=1):
    """Generated x = A^-1 B for a k x k A and a k x m B, both flat row-major
    sequences of floats; returns x as a flat row-major list.  A singular A
    raises numpy.linalg.LinAlgError, like numpy.linalg.solve."""
    code = _Code()
    a, b = _names("a", k, k), _names("b", k, m)
    code.line(f"{', '.join(sum(a, []))}, = A")
    code.line(f"{', '.join(sum(b, []))}, = B")
    _lu_solve(code, a, b, "raise LinAlgError('Singular matrix')")
    return code.build("A, B", _flat(b), _KERNEL_ENV)


def _block(code, n, reg):
    """Emit the implicit-function derivative block for one split into code.

    The kernel's parameters c, V and vd are the derivative core tuple (L,
    L_v, L_q, W, L_vq; model.DerivativeCore) at the resolved point, the
    regular velocities and the point's degenerate velocities.  Returns the
    names of X = [-dV_dq | dV_dp] (r rows), dB_dq (nd x n), dB_dp (nd x r),
    dH_dq (n), dH_dp (r), F (nd x nd) and D_a H (nd), with vd.  F is exactly
    antisymmetric: each of its terms enters as (T - T^t)."""
    r, deg = len(reg), [i for i in range(n) if i not in reg]
    nd = len(deg)

    def core(block, i, j):  # block 0: W, block 1: L_vq
        return f"c[{1 + 2 * n + (block * n + i) * n + j}]"

    # W_rr X = [L_vq regular rows | I_r]: X = [-dV_dq | dV_dp]
    a = [[code(core(0, i, j)) for j in reg] for i in reg]
    x = [[code(core(1, i, j)) for j in range(n)] + [code("1.0" if i == j else "0.0") for j in reg] for i in reg]
    _lu_solve(code, a, x, "raise RankDeficiencyError("
              "'regular velocity Hessian block W_rr is singular at this point')")
    w_dr = [[code(core(0, i, j)) for j in reg] for i in deg]
    db_dq = [[code(f"{core(1, i, j)} - ({_dot((w, x[t][j]) for t, w in enumerate(row))})")
              for j in range(n)] for i, row in zip(deg, w_dr)]
    db_dp = [[code(_dot((w, x[t][n + s]) for t, w in enumerate(row))) for s in range(r)]
             for row in w_dr]
    vd = [code(f"vd[{k}]") for k in range(nd)]
    dh_dq = [code(f"-c[{1 + n + j}] + ({_dot((vd[k], row[j]) for k, row in enumerate(db_dq))})")
             for j in range(n)]
    dh_dp = [code(f"V[{s}] + ({_dot((vd[k], row[s]) for k, row in enumerate(db_dp))})")
             for s in range(r)]
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    pp = [[code(_dot(zip(ra, rb))) for rb in db_dp] for ra in db_dq_reg]
    f = [[code(f"({db_dq[b][deg[a]]} - {db_dq[a][deg[b]]}) + ({pp[a][b]} - {pp[b][a]})")
          for b in range(nd)] for a in range(nd)]
    dah = [code(f"({dh_dq[i]} + ({_dot(zip(db_dq_reg[k], dh_dp))}))"
                f" - ({_dot(zip(db_dp[k], (dh_dq[j] for j in reg)))})") for k, i in enumerate(deg)]
    return x, db_dq, db_dp, dh_dq, dh_dp, f, dah, vd


def _flat(rows):
    return "[" + ", ".join(name for row in rows for name in row) + "]"


@functools.lru_cache(maxsize=None)
def block_kernel(n, reg):
    """Generated derivative block at a resolved point for one split, cached
    by it: reg lists the regular coordinates.  The kernel takes (c, V, vd)
    as _block describes and returns dV_dq (r x n), dV_dp (r x r), dB_dq,
    dB_dp, dH_dq, dH_dp, F and D_a H as flat row-major lists of floats."""
    code = _Code()
    x, db_dq, db_dp, dh_dq, dh_dp, f, dah, _ = _block(code, n, reg)
    dv_dq = [[f"-{name}" for name in row[:n]] for row in x]
    outs = (dv_dq, [row[n:] for row in x], db_dq, db_dp, [dh_dq], [dh_dp], f, [dah])
    return code.build("c, V, vd", ", ".join(map(_flat, outs)), _KERNEL_ENV)


@functools.lru_cache(maxsize=None)
def stage_kernel(n, reg, solve, other):
    """Generated RK4 stage of the mixed equations for one layout, cached by
    it: the derivative block and the sector solve at a resolved point.

    reg lists the regular coordinates; solve and other the degenerate slots
    solved from F v = D H and supplied from outside.  The kernel takes (c,
    V, vd, p, vo): c, V and vd as _block describes, the regular momenta and
    the values of the other slots, all floats.  It returns (dq, dp, v,
    residual ||F v - D H||_inf, H, F's solved subblock flat).
    """
    r, nd = len(reg), n - len(reg)
    deg = [i for i in range(n) if i not in reg]
    code = _Code()
    _, db_dq, db_dp, dh_dq, dh_dp, f, dah, vd = _block(code, n, reg)
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    v = [None] * nd
    for k, s in enumerate(other):
        v[s] = code(f"vo[{k}]")
    rhs = [[code(f"{dah[s]} - ({_dot((f[s][o], v[o]) for o in other)})")] for s in solve]
    _lu_solve(code, [[code(f[s][t]) for t in solve] for s in solve], rhs,
              "raise RankDeficiencyError('sector subblock singular at this point; the "
              "constant-rank classification does not hold here')")
    for k, s in enumerate(solve):
        v[s] = rhs[k][0]
    resid = _emit_max_abs(code, (f"{_dot(zip(f[k], v))} - {dah[k]}" for k in range(nd)))
    dq = [None] * n
    for s, i in enumerate(reg):
        dq[i] = f"{dh_dp[s]} - ({_dot((v[k], row[s]) for k, row in enumerate(db_dp))})"
    for k, i in enumerate(deg):
        dq[i] = v[k]
    dp = [f"-{dh_dq[i]} + ({_dot((v[k], row[s]) for k, row in enumerate(db_dq_reg))})"
          for s, i in enumerate(reg)]
    h = (f"({_dot((f'p[{s}]', f'V[{s}]') for s in range(r))}"
         f" + {_dot((f'c[{1 + i}]', vd[k]) for k, i in enumerate(deg))}) - c[0]")
    sub = ", ".join(f[s][t] for s in solve for t in solve)
    return code.build("c, V, vd, p, vo", f"[{', '.join(dq)}], [{', '.join(dp)}], "
                      f"[{', '.join(v)}], {resid}, {h}, [{sub}]", _KERNEL_ENV)


def _pfaffian_sign(code, f):
    """A fresh local holding the sign of the Pfaffian of F for the names f
    (m x m, m even): skew-symmetric Gauss elimination (Parlett-Reid), two
    rows and columns per step, pivoting on the first largest |entry| of the
    row, a nan the largest; a zero pivot makes it 0.0."""
    m = len(f)
    a = [list(row) for row in f]
    pf = code("1.0")
    opened = []
    for k in range(0, m - 1, 2):
        if k + 2 < m:
            top, row = code(f"abs({a[k][k + 1]})"), code(str(k + 1))
            for i in range(k + 2, m):
                cand = code(f"abs({a[k][i]})")
                code.line(f"if {top} == {top} and not {cand} <= {top}: "
                          f"{top}, {row} = {cand}, {i}")
            for i in range(k + 2, m):  # rows and columns k + 1 and i trade places
                swap = {k + 1: i, i: k + 1}
                lhs, rhs = zip(*[(a[x][y], a[swap.get(x, x)][swap.get(y, y)])
                                 for x in range(k, m) for y in range(k, m)
                                 if x in swap or y in swap])
                code.line(f"{'if' if i == k + 2 else 'elif'} {row} == {i}: "
                          f"{', '.join(lhs)}, {pf} = {', '.join(rhs)}, -{pf}")
        pivot = a[k][k + 1]
        code.line(f"if {pivot} == 0.0: {pf} = 0.0")
        code.line("else:")
        opened.append(len(code.lines))
        code.line(f"{pf} = {pf} * {pivot}")
        if k + 2 < m:
            tau = {j: code(f"{a[k][j]} / {pivot}") for j in range(k + 2, m)}
            col = {i: a[i][k + 1] for i in range(k + 2, m)}
            for i in range(k + 2, m):
                for j in range(k + 2, m):
                    code.line(f"{a[i][j]} = {a[i][j]} + "
                              f"({tau[i]} * {col[j]} - {col[i]} * {tau[j]})")
    for start in reversed(opened):
        code.indent(start)
    return code(f"1.0 if {pf} > 0.0 else -1.0 if {pf} < 0.0 else {pf} * 0.0")


@functools.lru_cache(maxsize=None)
def rk4_kernel(n, reg, solve, other):
    """Generated fixed-step RK4 loop of integrate for one layout, cached by
    it (the layout as for stage_kernel).

    The kernel takes (resolve, stage, velocity, q, p, w, start, dt, steps,
    tol, rows).  resolve(q, p, vd, x0) is ClairautTransform._resolve_args,
    the regular velocities from the start x0 with the core there, and stage
    is stage_kernel's kernel for the layout: each stage is one call of each.
    velocity(a, t) is the prescribed velocity of degenerate slot a,
    evaluated once per distinct time of a step (t, t + dt/2, t + dt).  q, p
    and w are the start and its degenerate velocities, as lists of floats.
    Step k runs at t = start + dt * k for k up to steps: it appends t to
    rows (an array of doubles), runs stage 1 (regular velocities from the
    last stage's, the solved degenerate ones too), compares the sign of the
    Pfaffian of the solved F subblock with the last step's, appends q, p, v,
    H and the consistency residual, tests the residual against tol, then
    runs stages 2 to 4 and the RK4 update.

    Returns 0 after the last step's row, 1 where a residual above tol
    after step 0 aborts (step 0's residual above tol only flags the run), and
    2 where the Pfaffian's sign changed, with row k cut after its t.  A
    NewtonError from resolve propagates, with row k cut after its t where
    stage 1 raised it and whole where a later stage did.
    """
    r, nd = len(reg), n - len(reg)
    code = _Code()
    q = [code(f"q[{i}]") for i in range(n)]
    p = [code(f"p[{s}]") for s in range(r)]
    code.line(f"V = [{', '.join(['0.0'] * r)}]")
    code.line("half = dt / 2")
    code.line("sixth = dt / 6")
    code.line("flagged = False")
    code.line("for k in range(steps + 1):")
    loop = len(code.lines)
    t = code("start + dt * k")
    code.line(f"rows.append({t})")

    def velocities(time):
        return [code(f"velocity({a}, {time})") for a in other]

    def stage(vo, qs, ps):
        """One stage at the coordinates qs and momenta ps; the names of its
        dq and dp lists, then of the whole stage output."""
        slot = {s: f"w[{s}]" for s in solve} | dict(zip(other, vo))
        at, mom = code(f"[{', '.join(qs)}]"), code(f"[{', '.join(ps)}]")
        vd, given = code(f"[{', '.join(slot[s] for s in range(nd))}]"), code(f"[{', '.join(vo)}]")
        code.line(f"_, V, c = resolve({at}, {mom}, {vd}, V)")
        out = code(f"stage(c, V, {vd}, {mom}, {given})")
        code.line(f"w = {out}[2]")
        return code(f"{out}[0]"), code(f"{out}[1]"), out

    def shifted(x, h, dx):
        return [f"{a} + {h} * {dx}[{i}]" for i, a in enumerate(x)]

    dq1, dp1, out = stage(velocities(t), q, p)
    if solve and len(solve) % 2 == 0:  # an odd pfaffian is 0.0 at every step
        m = len(solve)
        sign = _pfaffian_sign(code, [[code(f"{out}[5][{i * m + j}]") for j in range(m)]
                                     for i in range(m)])
        code.line(f"if k and {sign} != last: return 2")  # a nan sign never matches
        code.line(f"last = {sign}")
    res = code(f"{out}[3]")
    code.line(f"rows.extend(({', '.join(q + p + [f'w[{s}]' for s in range(nd)])}, "
              f"{out}[4], {res}))")
    code.line(f"if {res} > tol:")
    code.line("    if k == 0: flagged = True")
    code.line("    elif not flagged: return 1")
    code.line("if k == steps: break")
    vo = velocities(code(f"{t} + half"))
    dq2, dp2, _ = stage(vo, shifted(q, "half", dq1), shifted(p, "half", dp1))
    dq3, dp3, _ = stage(vo, shifted(q, "half", dq2), shifted(p, "half", dp2))
    dq4, dp4, _ = stage(velocities(code(f"{t} + dt")), shifted(q, "dt", dq3),
                        shifted(p, "dt", dp3))
    for x, ds in ((q, (dq1, dq2, dq3, dq4)), (p, (dp1, dp2, dp3, dp4))):
        for i, name in enumerate(x):
            a, b, c, d = (f"{dx}[{i}]" for dx in ds)
            code.line(f"{name} = {name} + sixth * ({a} + 2 * {b} + 2 * {c} + {d})")
    code.indent(loop)
    return code.build("resolve, stage, velocity, q, p, w, start, dt, steps, tol, rows",
                      "0", _KERNEL_ENV)
