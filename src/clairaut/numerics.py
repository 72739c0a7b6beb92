"""Small numeric kernels: pivoted rank detection, the one central-difference
stencil, the one float dot product, damped Newton iteration, and generated
straight-line kernels for the tiny dense solves of the mixed transform.

rank_and_pivots eliminates on Python floats, entry by entry as numpy would.
probe_ranks is the one constant-rank routine over probe matrices: the
velocity split and rank report (W) and the gauge classification (F) read
their ranks and principal-block ranks from it.

Everything is deterministic for fixed inputs; the Newton restarts draw from
a generator seeded per call, never from global state.  That generator, Rng,
is numpy.random.default_rng rebuilt on Python ints (SeedSequence, then
PCG64), bit for bit in the two draws the package makes, uniform and
integers; the probes, the restarts and verify's random observables draw
from it, so importing the package loads no numpy.  _floats reads a flat
sequence or an array as a tuple of floats, central_differences displaces
float lists, and damped_newton and its restarts (transform fallback, Fenchel
oracle) return the root as a list of floats, with the residual and Jacobian
from newton_pair: flat float lists from one evaluator call per point.

The generated kernels (solver, resolve_kernel, block_kernel, fused_stage,
and rk4_kernel, integrate's loop) run on Python floats: Gauss elimination
with partial pivoting and dot products summed left to right, unrolled for
one shape, compiled once and emitted through expressions._Code.  One
emitter per algorithm gives each of its kernels the same floats: _newton
the full Newton steps (damped_newton's iterates where it takes no shorter
step) and _block the derivative block; fused_stage, the one RK4 stage,
inlines a model's derivative core around them (a sum, product or negation
that one node reads written into that node's statement, the nodes that can
raise each in its own) and emits the sector solve at the root.  It takes and
returns flat floats, and rk4_kernel keeps its state in float locals: it
calls the stage once per stage and, where its full steps give up, damped
Newton and the stage again at that root, the one place it builds lists;
once per step it checks the sign of det W_rr, which the stage's elimination
of W_rr tracks, and pfaffian_sign, Parlett-Reid elimination on floats.  dot
(the sum _dot emits), solver and verify's minimal-norm step (Gram-Schmidt on
dot) own every reported sum and solve, so each reported number rounds the
same way on every machine: none goes through numpy's BLAS or LAPACK.  A zero pivot in
solver raises the internal SingularMatrixError ('Singular matrix',
numpy.linalg.solve's text), which damped_newton reports as a NewtonError
and the sector solves as a RankDeficiencyError.
"""

import functools
import math
import operator
import secrets
from dataclasses import dataclass

from .errors import ArgumentError, DomainError, ModelError, NewtonError, RankDeficiencyError
from .expressions import (_COMPILE_ENV, Call, Const, Neg, Pow, Prod, Quot, Sum, Sym, _children,
                          _Code, _emit_cse, _walk, free_symbols)


def rank_and_pivots(matrix, rel_tol=1e-9):
    """Numeric rank via Gaussian elimination with complete pivoting, on
    Python floats: matrix is a sequence of rows or a 2-D ndarray.

    A pivot counts while its magnitude exceeds rel_tol times the largest
    absolute entry of the input matrix.  The pivot is the first largest
    |entry| in row-major order over the rows and columns left, a nan the
    largest.  Returns (rank, pivot_columns) with columns listed in selection
    order; the greedy order is what callers use to pick a regular velocity
    block.
    """
    try:
        if not isinstance(matrix, (list, tuple)):
            matrix = matrix.tolist()  # an ndarray
        a = [list(map(float, row)) for row in matrix]
    except (AttributeError, TypeError, ValueError):
        a = None
    if a is None or any(len(row) != len(a[0]) for row in a):
        raise ArgumentError("rank_and_pivots expects a matrix")
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


def probe_ranks(matrices, block, rel_tol, matrix):
    """The numbers of the constant-rank rule over square probe matrices,
    each a flat row-major sequence of floats: the rank of each and of its
    principal block, the index list block or, if that is None, the first
    matrix's sorted pivot columns.  Returns (block, ranks, block_ranks).
    A matrix with an inf or nan entry has no rank: ModelError, naming the
    matrix (its name, as RankVariationError gives it) and the probe, or,
    with matrix None, None for both of its ranks."""
    ranks, block_ranks = [], []
    for index, m in enumerate(matrices):
        if not all(map(math.isfinite, m)):
            if matrix is not None:
                raise ModelError(f"{matrix} has a non-finite entry at probe {index}")
            ranks.append(None)
            block_ranks.append(None)
            continue
        k = math.isqrt(len(m))
        rank, pivots = rank_and_pivots([m[i * k:i * k + k] for i in range(k)], rel_tol)
        if block is None:
            block = sorted(pivots)
        ranks.append(rank)
        sub = [[m[i * k + j] for j in block] for i in block]
        block_ranks.append(rank_and_pivots(sub, rel_tol)[0])
    return block, ranks, block_ranks


def central_differences(fn, x, step):
    """Central-difference derivatives of fn at the floats x: for each
    component k, h = step * (1 + |x_k|) and (fn(x + h e_k) - fn(x - h e_k))
    / (2h), the displaced points as lists.  fn may return a float or an
    array; the result is the list of these columns, one per component."""
    cols = []
    for k in range(len(x)):
        h = step * (1 + abs(x[k]))
        xp, xm = list(x), list(x)
        xp[k] += h
        xm[k] -= h
        cols.append((fn(xp) - fn(xm)) / (2 * h))
    return cols


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
    from Python 3.12 on); 0.0 for empty operands.  Operands of unequal
    lengths are an ArgumentError."""
    if not isinstance(a, (list, tuple)):
        a = a.tolist()  # an ndarray
    if not isinstance(b, (list, tuple)):
        b = b.tolist()
    if len(a) != len(b):
        raise ArgumentError(f"dot of sequences of lengths {len(a)} and {len(b)}")
    return float(functools.reduce(operator.add, map(operator.mul, a, b))) if a else 0.0


def _floats(values):
    """A tuple of floats from a flat sequence of numbers or, without numpy,
    an array read row-major."""
    if hasattr(values, "ravel"):  # an array
        values = values.ravel().tolist()
    return tuple(map(float, values))


def _max_abs(values):
    """max |v|, nan as soon as any entry is nan (like ndarray.max)."""
    worst = 0.0
    for value in values:
        value = abs(value)
        if value > worst or value != value:
            worst = value
    return worst


class SingularMatrixError(ArithmeticError):
    """A generated elimination met a zero pivot.  Internal: damped_newton
    and the corrected brackets turn it into their own typed errors."""


# numpy's SeedSequence (hashmix, mix) and PCG64 (XSL-RR output) constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for an int
    seed >= 0, as four Python ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class Rng:
    """The draws of numpy.random.default_rng(seed), bit for bit, on Python
    ints: SeedSequence, then PCG64 (128-bit LCG, XSL-RR output).  seed is
    an int >= 0, or None for 128 bits from secrets.  Only the two draws the
    package makes: uniform and integers."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed=None):
        if seed is None:
            seed = secrets.randbits(128)
        w0, w1, w2, w3 = _seed_state(operator.index(seed))
        # PCG's srandom: state 0, step, add the initial state, step
        self._inc = inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        self._half = None  # the high half of a 64-bit draw, kept for the next 32-bit one

    def _next64(self):
        # XSL-RR: the xor of the state's halves, rotated right by its top 6 bits
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        return (x | x << 64) >> (state >> 122) & _M64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, lo=0.0, hi=1.0, size=None):
        """lo + (hi - lo) * u, u = (next64 >> 11) * 2**-53: a float, or a
        list of size floats."""
        lo, scale = float(lo), float(hi) - float(lo)
        state, inc, out = self._state, self._inc, []
        mult, m53, m64, m128, unit = _PCG_MULT, _M53, _M64, _M128, _TO_UNIT
        for _ in range(1 if size is None else size):  # _next64 >> 11, inlined
            state = (state * mult + inc) & m128
            x = (state >> 64 ^ state) & m64
            out.append(lo + scale * (((x | x << 64) >> ((state >> 122) + 11) & m53) * unit))
        self._state = state
        return out[0] if size is None else out

    def integers(self, k):
        """An int in [0, k) for 1 <= k <= 2**32, as numpy draws an int64
        there: Lemire's rejection on the buffered 32-bit draw."""
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers takes 1 <= k <= 2**32, not {k}")
        if k == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._next32() * k
        if m & _M32 < k:
            threshold = (1 << 32) % k
            while m & _M32 < threshold:
                m = self._next32() * k
        return m >> 32


def damped_newton(residual, jacobian, x0, cfg=NewtonConfig()):
    """Solve residual(x) = 0 with Newton steps and residual-norm backtracking.

    The iterate is a list of floats: residual(x) returns k values and
    jacobian(x) the k x k matrix, each as an array or a flat row-major
    sequence, x0 too (each read by _floats).  A step (solver's) is halved
    (cfg.damping) whenever it raises a DomainError or does not lower the
    residual norm; resolve_kernel's full steps are the path where none is.
    Raises NewtonError when out of iterations or the Jacobian goes singular.
    The Jacobian is only asked for at the very point (the same object) of
    the latest residual call, so a caller may evaluate both at once.
    Returns the root as a list of floats; the latest residual call is at it.
    """
    x = list(_floats(x0))
    fx = _floats(residual(x))
    norm = _max_abs(fx)
    for _ in range(cfg.max_iter):
        if norm <= cfg.tol:
            return x
        try:
            step = solver(len(x))(_floats(jacobian(x)), [-f for f in fx])
        except SingularMatrixError as exc:
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
        return x
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
    rng = Rng(seed)
    dim = len(_floats(x0))
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

_KERNEL_ENV = {"SingularMatrixError": SingularMatrixError,
               "RankDeficiencyError": RankDeficiencyError, "DomainError": DomainError,
               "isfinite": math.isfinite}

# the RK4 stage's text, and degenerate_velocities', where F's solved subblock is singular
SECTOR_SINGULAR = ("sector subblock singular at this point; the constant-rank "
                   "classification does not hold here")


def _dot(pairs):
    """Source of sum(a * b) over the pairs, added left to right."""
    return " + ".join(f"{a} * {b}" for a, b in pairs) or "0.0"


def _lu_solve(code, a, b, singular, sign=None):
    """Gauss elimination with partial pivoting on names: the k rows of
    right-hand sides b become A^-1 b, and a is overwritten.  A zero pivot
    runs the statement singular.  The local sign, if named, starts at 1.0
    and is negated on each row swap and each negative pivot: det A's sign."""
    k, flip = len(a), f"; {sign} = -{sign}" if sign else ""
    if sign:
        code.line(f"{sign} = 1.0")
    for j in range(k):
        if j + 1 < k:
            code.line(f"top, row = abs({a[j][j]}), {j}")
            for i in range(j + 1, k):
                code.line(f"if abs({a[i][j]}) > top: top, row = abs({a[i][j]}), {i}")
            for i in range(j + 1, k):
                mine, theirs = ", ".join(a[j][j:] + b[j]), ", ".join(a[i][j:] + b[i])
                code.line(f"{'if' if i == j + 1 else 'elif'} row == {i}: "
                          f"{mine}, {theirs} = {theirs}, {mine}{flip}")
        code.line(f"if {a[j][j]} == 0.0: {singular}")
        if sign:
            code.line(f"if {a[j][j]} < 0.0: {sign} = -{sign}")
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


def _newton(code, n, reg, x, p, evaluate, core, tol, max_iter):
    """Emit damped_newton's steps at scale 1 for the velocities reg, locals x,
    and momenta p: evaluate() emits the core at each iterate, core(k) is the
    text of its entry k.  A norm that does not fall (nan too), a singular
    W_rr, or a last iterate above tol or not finite returns None."""
    code.line(f"for it in range({max_iter} + 1):")
    loop = len(code.lines)
    evaluate()
    f = [code(f"{core(1 + i)} - {ps}") for i, ps in zip(reg, p)]
    new = _emit_max_abs(code, f)
    code.line(f"if it and not {new} < norm: return None")
    code.line(f"norm = {new}")
    code.line(f"if norm <= {tol} or it == {max_iter}: break")
    b = [[code(f"-{fs}")] for fs in f]
    _lu_solve(code, [[code(core(1 + 2 * n + i * n + j)) for j in reg] for i in reg], b,
              "return None")
    for xs, (step,) in zip(x, b):
        code.line(f"{xs} = {xs} + {step}")
    code.indent(loop)
    code.line(f"if not ({' and '.join([f'norm <= {tol}'] + [f'isfinite({xs})' for xs in x])}):"
              " return None")


@functools.lru_cache(maxsize=None)
def resolve_kernel(n, reg):
    """Generated velocity resolve by full Newton steps (_newton) for one
    split, cached by it: reg lists the regular coordinates.  The kernel takes
    (fn, cfg, q, vd, x0, p): the derivative core evaluator, the NewtonConfig,
    the coordinates, the degenerate velocities, the start and the regular
    momenta, as sequences of floats; c = fn(A) at each iterate.  Returns (A,
    V, c), the argument list, the regular velocities and the core at the
    root, or None where damped_newton would backtrack or fail: where _newton
    gives up, or on a DomainError."""
    code, deg = _Code(), [i for i in range(n) if i not in reg]
    x, p = _unpack(code, "x0", len(reg)), _unpack(code, "p", len(reg))
    vel = dict(zip(reg, x)) | {i: f"vd[{k}]" for k, i in enumerate(deg)}
    code.line("try:")
    body = len(code.lines)

    def evaluate():
        code.line(f"A = [*q, {', '.join(vel[i] for i in range(n))}]")
        code.line("c = fn(A)")

    _newton(code, n, reg, x, p, evaluate, "c[{}]".format, "cfg.tol", "cfg.max_iter")
    code.indent(body)
    code.line("except DomainError: return None")
    return code.build("fn, cfg, q, vd, x0, p", f"A, [{', '.join(x)}], c", _KERNEL_ENV)


def _unpack(code, seq, count):
    """Locals seq_0 .. seq_(count-1) holding the items of the sequence seq."""
    code.line(f"[{', '.join(names := [f'{seq}_{k}' for k in range(count)])}] = {seq}")
    return names


@functools.lru_cache(maxsize=None)
def solver(k, m=1):
    """Generated x = A^-1 B for a k x k A and a k x m B, both flat row-major
    sequences of floats; returns x as a flat row-major list.  A zero pivot
    raises SingularMatrixError('Singular matrix'), numpy.linalg.solve's text."""
    code = _Code()
    a, b = _unpack(code, "A", k * k), _unpack(code, "B", k * m)
    a, b = [a[i * k:i * k + k] for i in range(k)], [b[i * m:i * m + m] for i in range(k)]
    _lu_solve(code, a, b, "raise SingularMatrixError('Singular matrix')")
    return code.build("A, B", _flat(b), _KERNEL_ENV)


def _block(code, n, reg, core, V, vd, sign=None):
    """Emit the implicit-function derivative block for one split into code.

    core(k) is the text of entry k of the derivative core (L, L_v, L_q, W,
    L_vq; model.DerivativeCore) at the resolved point, V and vd the texts of
    the regular velocities and of the point's degenerate velocities.
    Returns the names of X = [-dV_dq | dV_dp] (r rows), dB_dq (nd x n),
    dB_dp (nd x r), dH_dq (n), dH_dp (r), F (nd x nd) and D_a H (nd).  F is
    exactly antisymmetric: each of its terms enters as (T - T^t).  The
    local sign, if named, is set to det W_rr's sign (_lu_solve's)."""
    r, deg = len(reg), [i for i in range(n) if i not in reg]
    nd = len(deg)

    def entry(block, i, j):  # block 0: W, block 1: L_vq
        return core(1 + 2 * n + (block * n + i) * n + j)

    # W_rr X = [L_vq regular rows | I_r]: X = [-dV_dq | dV_dp]
    a = [[code(entry(0, i, j)) for j in reg] for i in reg]
    x = [[code(entry(1, i, j)) for j in range(n)] + [code("1.0" if i == j else "0.0") for j in reg] for i in reg]
    _lu_solve(code, a, x, "raise RankDeficiencyError("
              "'regular velocity Hessian block W_rr is singular at this point')", sign)
    w_dr = [[code(entry(0, i, j)) for j in reg] for i in deg]
    db_dq = [[code(f"{entry(1, i, j)} - ({_dot((w, x[t][j]) for t, w in enumerate(row))})")
              for j in range(n)] for i, row in zip(deg, w_dr)]
    db_dp = [[code(_dot((w, x[t][n + s]) for t, w in enumerate(row))) for s in range(r)]
             for row in w_dr]
    dh_dq = [code(f"-{core(1 + n + j)} + ({_dot((vd[k], row[j]) for k, row in enumerate(db_dq))})")
             for j in range(n)]
    dh_dp = [code(f"{V[s]} + ({_dot((vd[k], row[s]) for k, row in enumerate(db_dp))})")
             for s in range(r)]
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    pp = [[code(_dot(zip(ra, rb))) for rb in db_dp] for ra in db_dq_reg]
    f = [[code(f"({db_dq[b][deg[a]]} - {db_dq[a][deg[b]]}) + ({pp[a][b]} - {pp[b][a]})")
          for b in range(nd)] for a in range(nd)]
    dah = [code(f"({dh_dq[i]} + ({_dot(zip(db_dq_reg[k], dh_dp))}))"
                f" - ({_dot(zip(db_dp[k], (dh_dq[j] for j in reg)))})") for k, i in enumerate(deg)]
    return x, db_dq, db_dp, dh_dq, dh_dp, f, dah


def _flat(rows):
    return "[" + ", ".join(name for row in rows for name in row) + "]"


@functools.lru_cache(maxsize=None)
def block_kernel(n, reg):
    """Generated derivative block at a resolved point for one split, cached
    by it: reg lists the regular coordinates.  The kernel takes (c, V, vd),
    the derivative core tuple, the regular velocities and the degenerate
    ones, and returns dV_dq (r x n), dV_dp (r x r), dB_dq, dB_dp, dH_dq,
    dH_dp, F and D_a H as flat row-major lists of floats."""
    code = _Code()
    V, vd = _unpack(code, "V", len(reg)), _unpack(code, "vd", n - len(reg))
    x, db_dq, db_dp, dh_dq, dh_dp, f, dah = _block(code, n, reg, "c[{}]".format, V, vd)
    dv_dq = [[f"-{name}" for name in row[:n]] for row in x]
    outs = (dv_dq, [row[n:] for row in x], db_dq, db_dp, [dh_dq], [dh_dp], f, [dah])
    return code.build("c, V, vd", ", ".join(map(_flat, outs)), _KERNEL_ENV)


def _single_use(exprs, hoisted):
    """The Sum, Prod and Neg nodes under exprs that one operand of one node
    reads, which fused_stage writes inline into that reader: not exprs' own
    entries, whose texts the stage reads, nor the operand of a one-operand
    Sum or Prod (the two share a text), nor a node of hoisted (emitted
    before the Newton loop) under a reader that is not."""
    readers = {}
    for e in _walk(exprs):
        for kid in _children(e):
            readers.setdefault(kid, []).append(e)
    entries = set(exprs)
    return frozenset(e for e, (reader, *more) in readers.items()
                     if not more and isinstance(e, (Sum, Prod, Neg)) and e not in entries
                     and not (isinstance(reader, (Sum, Prod)) and len(_children(reader)) == 1)
                     and (reader in hoisted or e not in hoisted))


def fused_stage(exprs, names, reg, solve, other, max_iter):
    """Generated RK4 stage for one layout (reg the regular coordinates, solve
    and other the degenerate slots solved from F v = D H and given) with the
    core inline, exprs over names (model.DerivativeCore's flat tuple).

    The kernel takes flat floats, (q..., p..., vd..., vo..., V..., tol), and
    returns one flat tuple: dq (n), dp (r), v (nd), the velocities V (r)
    that _newton resolves from V at tol (at tol inf, V as it is), then the
    diagnostics ||F v - D H||_inf, H, the sign of det W_rr (+-1.0) and F's
    solved subblock (row-major); or None where resolve_kernel gives up.  A
    pass evaluates L_v's regular rows, W_rr and each node that can raise
    (Quot, Pow, Call), each in its own statement in the tree's order, so it
    raises where fn would; the nodes that do not read V precede the loop,
    and what the stage reads of the rest follows it.  A Sum, Prod or Neg
    that one node reads (_single_use) is written inline into that node's
    statement: the same operations, so every value is fn's."""
    n, r, code = len(names) // 2, len(reg), _Code()
    nd, deg = n - r, [i for i in range(n) if i not in reg]
    q, p, vd, vo, x = ([f"{seq}_{k}" for k in range(count)] for seq, count in
                       (("q", n), ("p", r), ("vd", nd), ("vo", len(other)), ("V", r)))
    vel = dict(zip(reg, x)) | dict(zip(deg, vd))
    text_of = {Sym(name): text for name, text in zip(names, q + [vel[i] for i in range(n)])}
    roots = [exprs[1 + i] for i in reg] + [exprs[1 + 2 * n + i * n + j] for i in reg for j in reg]
    roots += [e for e in _walk(exprs) if isinstance(e, (Pow, Call)) or isinstance(e, Quot)
              and not (isinstance(e.den, Const) and e.den.value)]  # x / c, c != 0, never raises
    iterate = {names[n + i] for i in reg}
    hoisted = [e for e in _walk(roots) if not iterate & free_symbols(e)]
    inline = _single_use(exprs, set(hoisted))

    def emit(seq):
        return _emit_cse(code, seq, text_of=text_of, inline=inline)

    def core(k):  # the text of core entry k, emitted where the loop has not
        return emit([exprs[k]])[0]

    code.line("try:")
    body = len(code.lines)
    emit(hoisted)
    _newton(code, n, reg, x, p, lambda: emit(roots), core, "tol", repr(operator.index(max_iter)))
    code.indent(body)
    code.line("except (ValueError, ZeroDivisionError, OverflowError): return None")
    # the stage at the root x: the derivative block, then the sector solve
    _, db_dq, db_dp, dh_dq, dh_dp, f, dah = _block(code, n, reg, core, x, vd, "wsign")
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    v = [None] * nd
    for s, given in zip(other, vo):
        v[s] = given
    rhs = [[code(f"{dah[s]} - ({_dot((f[s][o], v[o]) for o in other)})")] for s in solve]
    _lu_solve(code, [[code(f[s][t]) for t in solve] for s in solve], rhs,
              f"raise RankDeficiencyError({SECTOR_SINGULAR!r})")
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
    h = (f"({_dot(zip(p, x))} + {_dot((core(1 + i), vd[k]) for k, i in enumerate(deg))})"
         f" - {core(0)}")
    sub = [f[s][t] for s in solve for t in solve]
    return code.build(", ".join(q + p + vd + vo + x + ["tol"]),
                      ", ".join(dq + dp + v + x + [resid, h, "wsign"] + sub),
                      _COMPILE_ENV | _KERNEL_ENV)


def pfaffian_sign(a, m):
    """The sign of the Pfaffian of the m x m skew matrix a (flat row-major,
    m even): 1.0, -1.0, 0.0 at a zero pivot, or nan.  Skew-symmetric Gauss
    elimination (Parlett-Reid), two rows and columns per step, pivoting on
    the first largest |entry| of the row, a nan the largest."""
    a = [list(a[i * m:i * m + m]) for i in range(m)]
    pf = 1.0
    for k in range(0, m - 1, 2):
        top, row = abs(a[k][k + 1]), k + 1
        for i in range(k + 2, m):
            if top == top and not abs(a[k][i]) <= top:
                top, row = abs(a[k][i]), i
        if row != k + 1:  # rows and columns k + 1 and row trade places
            a[k + 1], a[row] = a[row], a[k + 1]
            for x in a:
                x[k + 1], x[row] = x[row], x[k + 1]
            pf = -pf
        pivot = a[k][k + 1]
        if pivot == 0.0:
            return 0.0
        pf = pf * pivot
        tau = {j: a[k][j] / pivot for j in range(k + 2, m)}
        for i in range(k + 2, m):  # column k + 1 is read, never written, here
            for j in range(k + 2, m):
                a[i][j] = a[i][j] + (tau[i] * a[j][k + 1] - a[i][k + 1] * tau[j])
    return 1.0 if pf > 0.0 else -1.0 if pf < 0.0 else pf * 0.0


@functools.lru_cache(maxsize=None)
def rk4_kernel(n, reg, solve, other):
    """Generated fixed-step RK4 loop of integrate for one layout, cached by
    it (the layout as for fused_stage).

    The kernel takes (fused, ntol, resolve, velocity, q, p, w, start, dt,
    steps, tol, rows).  A stage is fused(*Q, *P, *VD, *VO, *V, ntol),
    fused_stage's kernel on the loop's float locals from the last stage's
    velocities V, its tuple unpacked into locals; or where that gives up,
    fused at tol inf from resolve(Q, P, VD, V)[1], damped Newton's root, the
    one place that builds lists.  velocity(a, t) is the prescribed velocity
    of degenerate slot a, evaluated once per distinct time of a step (t,
    t + dt/2, t + dt).  q, p and w are the start and its degenerate
    velocities, as sequences of floats.  Step k runs at t = start + dt * k
    for k up to steps: it appends t to rows (an array of doubles), runs
    stage 1, compares the sign of det W_rr and pfaffian_sign of the solved
    F subblock with the last step's, appends q, p, v, H and the consistency
    residual, tests the residual against tol, then runs stages 2 to 4 and
    the RK4 update.

    Returns 0 after the last step's row, 1 where a residual above tol
    after step 0 aborts (step 0's residual above tol only flags the run), 2
    where the Pfaffian's sign changed and 4 where det W_rr's did, with row k
    cut after its t, and 3 where row k, just written, holds a value that is
    not finite.  A NewtonError from resolve propagates, with row k cut after
    its t where stage 1 raised it and whole where a later stage did.
    """
    r, nd, m, code = len(reg), n - len(reg), len(solve), _Code()
    q, p, w = _unpack(code, "q", n), _unpack(code, "p", r), _unpack(code, "w", nd)
    V = [f"V_{i}" for i in range(r)]
    if r:
        code.line(f"{', '.join(V)} = {', '.join(['0.0'] * r)}")
    code.line("half = dt / 2")
    code.line("sixth = dt / 6")
    code.line("flagged = False")
    code.line("for k in range(steps + 1):")
    loop = len(code.lines)
    t = code("start + dt * k")
    code.line(f"rows.append({t})")

    def velocities(time):
        return [code(f"velocity({a}, {time})") for a in other]

    def stage(number, vo, qs, ps, diagnostics):
        """One stage at qs and ps into w, V, the names of its dq and dp (which
        it returns) and diagnostics (resid, H, det W_rr's sign, F's subblock)."""
        slot = {s: w[s] for s in solve} | dict(zip(other, vo))
        vd = [slot[s] for s in range(nd)]
        dq, dp = [f"dq{number}_{i}" for i in range(n)], [f"dp{number}_{i}" for i in range(r)]
        lists = ", ".join(f"[{', '.join(x)}]" for x in (qs, ps, vd, V))
        code.line(f"{', '.join(dq + dp + w + V + diagnostics)} = "
                  f"fused({', '.join(qs + ps + vd + vo + V)}, ntol) or "
                  f"fused({', '.join(qs + ps + vd + vo)}, *resolve({lists})[1], inf)")
        return dq, dp

    def shifted(x, h, dx):
        return [f"{a} + {h} * {d}" for a, d in zip(x, dx)]

    f = [f"f_{k}" for k in range(m * m)]
    dq1, dp1 = stage(1, velocities(t), q, p, ["res", "h", "wsign"] + f)
    if r:
        code.line("if k and wsign != wlast: return 4")
        code.line("wlast = wsign")
    if solve and m % 2 == 0:  # an odd pfaffian is 0.0 at every step
        sign = code(f"pfaffian_sign([{', '.join(f)}], {m})")
        code.line(f"if k and {sign} != last: return 2")  # a nan sign never matches
        code.line(f"last = {sign}")
    row = q + p + w + ["h", "res"]
    code.line(f"rows.extend(({', '.join(row)}))")
    zero = code(" + ".join(f"{x} * 0.0" for x in [t] + row))  # nan where a value is not finite
    code.line(f"if {zero} != {zero}: return 3")
    code.line("if res > tol:")
    code.line("    if k == 0: flagged = True")
    code.line("    elif not flagged: return 1")
    code.line("if k == steps: break")
    unused = ["_"] * (3 + m * m)
    vo = velocities(code(f"{t} + half"))
    dq2, dp2 = stage(2, vo, shifted(q, "half", dq1), shifted(p, "half", dp1), unused)
    dq3, dp3 = stage(3, vo, shifted(q, "half", dq2), shifted(p, "half", dp2), unused)
    dq4, dp4 = stage(4, velocities(code(f"{t} + dt")), shifted(q, "dt", dq3),
                     shifted(p, "dt", dp3), unused)
    for x, ds in ((q, (dq1, dq2, dq3, dq4)), (p, (dp1, dp2, dp3, dp4))):
        for name, a, b, c, d in zip(x, *ds):
            code.line(f"{name} = {name} + sixth * ({a} + 2 * {b} + 2 * {c} + {d})")
    code.indent(loop)
    return code.build("fused, ntol, resolve, velocity, q, p, w, start, dt, steps, tol, rows",
                      "0", _KERNEL_ENV | {"inf": math.inf, "pfaffian_sign": pfaffian_sign})
