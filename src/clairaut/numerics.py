"""Small numeric kernels: pivoted rank detection, the central-difference
stencils (first order, and second order for verify's third tower level),
the one float dot product, damped Newton iteration, and generated
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
sequence or an array as a tuple of floats, central_differences and
second_differences displace float lists, and damped_newton and its restarts (transform fallback, Fenchel
oracle) return the root as a list of floats, with the residual and Jacobian
from newton_pair: flat float lists from one evaluator call per point.

The generated kernels (solver, resolve_kernel, block_kernel, jet_kernel,
fused_stage, and rk4_kernel, integrate's loop) run on Python floats: Gauss
elimination with partial pivoting and dot products summed left to right,
unrolled for one shape, compiled once and emitted through expressions._Code.
One emitter per algorithm gives each of its kernels the same floats: _newton
the full Newton steps (damped_newton's iterates where it takes no shorter
step) and _block the derivative block, which jet_kernel differentiates once
more from the third partials of L; fused_stage, the one RK4 stage,
inlines a model's derivative core around them (a sum, product or negation
that one node reads written into that node's statement, the nodes that can
raise each in its own) and emits the sector solve at the root.  It takes and
returns flat floats, and rk4_kernel keeps its state in float locals: it
calls the stage once per stage and, where its full steps give up, damped
Newton and the stage again at that root, the one place it builds lists;
once per step it checks the sign of det W_rr, which the stage's elimination
of W_rr tracks, and pfaffian_sign, Parlett-Reid elimination on floats.  The
fused stage alone tracks the exact value of each local where it is known
(+0.0, -0.0, 1.0, or a zero of unknown sign, from the literal 0.0 and 1.0
that _emit_cse gives constant core entries), so that _lu_solve, _block and
_newton emit only what IEEE 754 does not already fix: +0.0 +- z is +0.0
for any zero z, x - (+0.0) and x + (-0.0) are x, x * 1.0 and x / 1.0 are
x, a zero entry is never a pivot, swapping two equal entries is a no-op,
and a comparison between literals is decided at build time; never x + z
for a zero z of unknown sign (wrong at x = -0.0), nor x - x (nan at inf).
Each fold gives the same bits, signed zeros included, for every finite
operand.  A sum of zero products gets one local per distinct text, and the
stage drops each local of its straight-line tail that nothing reads: no
local there can raise, since every node that can is evaluated in the
Newton loop and each division is by a pivot tested nonzero.  dot
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
import re
import secrets
from dataclasses import dataclass

from .errors import ArgumentError, DomainError, ModelError, NewtonError, RankDeficiencyError
from .expressions import (_COMPILE_ENV, Call, Const, Neg, Pow, Prod, Quot, Sum, Sym, _children,
                          _Code, _emit_cse, _walk)


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
    / (2h), the displaced points as lists.  fn may return a float, an
    array or a list of floats, differenced entry by entry; the result is the
    list of these columns, one per component."""
    cols = []
    for k in range(len(x)):
        h = step * (1 + abs(x[k]))
        xp, xm = list(x), list(x)
        xp[k] += h
        xm[k] -= h
        up, down = fn(xp), fn(xm)
        cols.append([(u - d) / (2 * h) for u, d in zip(up, down)] if isinstance(up, list)
                    else (up - down) / (2 * h))
    return cols


def second_differences(fn, x, step):
    """Gradient and Hessian of fn, a list of floats, at the floats x by one
    central stencil: h_k = step * (1 + |x_k|), (f(x + h_k) - f(x - h_k)) /
    2h_k, (f(x + h_k) - 2 f(x) + f(x - h_k)) / h_k^2 on the diagonal and (f++
    - f+- - f-+ + f--) / 4 h_k h_l off it.  Returns (gradient, hessian) with
    gradient[k] and hessian[k][l] lists over fn's entries."""
    h = [step * (1 + abs(v)) for v in x]

    def at(*moves):
        y = list(x)
        for k, sign in moves:
            y[k] += sign * h[k]
        return fn(y)

    f0, grad, hess = fn(list(x)), [], [[None] * len(x) for _ in x]
    for k in range(len(x)):
        up, down = at((k, 1)), at((k, -1))
        grad.append([(u - d) / (2 * h[k]) for u, d in zip(up, down)])
        hess[k][k] = [(u - 2 * c + d) / (h[k] * h[k]) for u, c, d in zip(up, f0, down)]
        for j in range(k):
            corners = zip(at((k, 1), (j, 1)), at((k, 1), (j, -1)), at((k, -1), (j, 1)),
                          at((k, -1), (j, -1)))
            hess[k][j] = hess[j][k] = [(a - b - c + d) / (4 * h[k] * h[j]) for a, b, c, d in corners]
    return grad, hess


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
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"expected a flat sequence of numbers: {exc}") from None


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


# The exact values the fused stage's emitter tracks (_Code.known, local ->
# value; a literal is its own value): +0.0, -0.0, 1.0, or _ZERO, a zero of
# unknown sign.  A term is an expression's (text, value).  Each fold below
# gives the same bits, signed zeros included, for every finite operand; an
# emitter whose code tracks nothing (known None) emits every operation.
_ZERO = "zero"
_LITERALS = ("0.0", "-0.0", "1.0")
_SIGNED = ("0.0", "-0.0")
_NUMBER = re.compile(r"-?[0-9.]+(?:e[+-]?[0-9]+)?")


def _value(code, text):
    """The tracked exact value of the local or literal text, or None."""
    if code.known is None:
        return None
    return text if text in _LITERALS else code.known.get(text)


def _zero(value):
    return value in ("0.0", "-0.0", _ZERO)


def _term(code, text):
    return text, _value(code, text)


def _atom(code, text):
    """Whether a tracking code reads text as it is: a name or a number."""
    return code.known is not None and (text.isidentifier() or bool(_NUMBER.fullmatch(text)))


def _group(code, term):
    """term parenthesized, unless it is an atom."""
    return term if _atom(code, term[0]) else (f"({term[0]})", term[1])


def _times(code, x, y):
    """x * y over atoms: x * 1.0 is x, and a product with a zero factor is a
    zero (a literal where both signs are known)."""
    vx, vy = _value(code, x), _value(code, y)
    if vy == "1.0":
        return x, vx
    if vx == "1.0":
        return y, vy
    if vx in _SIGNED and vy in _SIGNED:
        return ("0.0",) * 2 if vx == vy else ("-0.0",) * 2
    return f"{x} * {y}", _ZERO if _zero(vx) or _zero(vy) else None


def _plus(code, s, t, op="+"):
    """s op t over terms, op "+" or "-": x - (+0.0) and x + (-0.0) are x,
    -0.0 + x is x, and +0.0 +- z is +0.0 for any zero z; never x + z for a
    z of unknown sign (wrong at x = -0.0), nor x - x (nan at inf)."""
    (x, vx), (y, vy) = s, t
    if vy == ("-0.0" if op == "+" else "0.0"):
        return s
    if op == "+" and vx == "-0.0":
        return t
    if vx == "0.0" and _zero(vy):
        return "0.0", "0.0"
    return f"{x} {op} {y}", _ZERO if _zero(vx) and _zero(vy) else None


def _minus(code, s, t):
    return _plus(code, s, t, "-")


def _neg(term):
    value = {"0.0": "-0.0", "-0.0": "0.0", _ZERO: _ZERO}.get(term[1])
    return (value, value) if value in _SIGNED else (f"-{term[0]}", value)


def _over(code, term, pivot):
    """term / pivot for a pivot checked nonzero: x / 1.0 is x, and a zero
    over it is a zero."""
    if _value(code, pivot) == "1.0":
        return term
    return f"{term[0]} / {pivot}", _ZERO if _zero(term[1]) else None


def _products(code, pairs):
    """The terms a * b over the pairs, or the literal 0.0 for none."""
    return [_times(code, a, b) for a, b in pairs] or [_term(code, "0.0")]


def _sum(code, terms, op="+"):
    """The terms combined left to right by op."""
    return functools.reduce(lambda s, t: _plus(code, s, t, op), terms)


def _dot(code, pairs):
    """sum(a * b) over the pairs, added left to right (0.0 for none), as a
    term.  Where code tracks values, a sum whose every product has a zero
    factor and whose text is not an atom gets one local per distinct text
    (code.sums), until _lu_solve next emits a row swap."""
    products = _products(code, pairs)
    text, value = _sum(code, products)
    if _atom(code, text) or not all(_zero(v) for _, v in products):
        return text, value
    if text not in code.sums:
        code.sums[text] = _local(code, (text, value))
    return code.sums[text], value


def _local(code, term):
    """A name or literal holding term: a fresh local, or where code tracks
    values and term's text is an atom, that text."""
    if _atom(code, term[0]):
        return term[0]
    name = code(term[0])
    if term[1]:
        code.known[name] = term[1]
    return name


def _copy(code, text):
    """text in a local of its own; a tracking code reads text itself, and
    _lu_solve copies what it moves."""
    return text if code.known is not None else code(text)


def _lu_solve(code, a, b, singular, sign=None, since=None):
    """Gauss elimination with partial pivoting on names: the k rows of
    right-hand sides b become A^-1 b, and a is overwritten.  A zero pivot
    runs the statement singular.  The local sign, if named, starts at 1.0
    and is negated on each row swap and each negative pivot: det A's sign.

    Where code tracks values, an entry may be any name or literal, and the
    solve emits only what the tracked values leave open: a fresh local for
    each entry it changes (the folds of _times, _plus and _over), a copy of
    each entry a row swap moves unless code recorded it from line since on
    (the solve's start if None), no pivot search over a zero (abs(z) > top
    is never true), no swap of two equal entries, and no test of a literal
    pivot (a signed zero runs singular unconditionally, and the solve emits
    nothing after it: it returns False, a and b left as they were; else
    True).  A swap forgets the values of the entries it moves, and the sums
    _dot shares.  Each division is by a pivot that a line before tests
    against 0.0."""
    k, fold = len(a), code.known is not None
    rows = [ra + rb for ra, rb in zip(a, b)]  # [A | B]
    width, since = len(rows[0]) if rows else 0, len(code.lines) if since is None else since

    def put(i, c, term):  # entry (i, c) = term
        if not fold:
            code.line(f"{rows[i][c]} = {term[0]}")
        elif term[0] != rows[i][c]:
            rows[i][c] = _local(code, term)

    def differ(x, y):  # whether swapping x and y moves a bit
        return x != y and not _value(code, x) == _value(code, y) in _LITERALS

    if sign:
        code.line(f"{sign} = 1.0")
    for j in range(k):
        rivals = [i for i in range(j + 1, k) if not _zero(_value(code, rows[i][j]))]
        if rivals:
            code.line(f"top, row = abs({rows[j][j]}), {j}")
            for i in rivals:
                code.line(f"if abs({rows[i][j]}) > top: top, row = abs({rows[i][j]}), {i}")
        moves = {i: [c for c in range(j, width) if differ(rows[j][c], rows[i][c])] for i in rivals}
        for i, c in sorted({(x, c) for i, cols in moves.items() for c in cols for x in (j, i)}):
            if fold:  # a moved entry is a local of the solve's own, its value forgotten
                if code.locals.get(rows[i][c], -1) < since:
                    rows[i][c] = code(rows[i][c])
                code.known.pop(rows[i][c], None)
        branch = "if"
        for i, cols in moves.items():
            mine, theirs = (", ".join(rows[x][c] for c in cols) for x in (j, i))
            swap = [f"{mine}, {theirs} = {theirs}, {mine}"] if cols else []
            if statements := swap + ([f"{sign} = -{sign}"] if sign else []):
                code.line(f"{branch} row == {i}: {'; '.join(statements)}")
                branch = "elif"
        if any(moves.values()):  # what a shared sum read may have moved
            code.sums.clear()
        pivot = rows[j][j]
        value = _value(code, pivot)
        if value in _SIGNED:
            code.line(singular)
            return False
        if value != "1.0":
            code.line(f"if {pivot} == 0.0: {singular}")
        if sign and value != "1.0" and not _zero(value):
            code.line(f"if {pivot} < 0.0: {sign} = -{sign}")
        for i in range(j + 1, k):
            factor = _local(code, _over(code, _term(code, rows[i][j]), pivot))
            for c in range(j + 1, width):
                put(i, c, _minus(code, _term(code, rows[i][c]), _times(code, factor, rows[j][c])))
    for i in reversed(range(k)):
        for c in range(k, width):
            rest = _sum(code, [_term(code, rows[i][c])]
                        + [_times(code, rows[i][t], rows[t][c]) for t in range(i + 1, k)], "-")
            put(i, c, _over(code, _group(code, rest), rows[i][i]))
    for ra, rb, row in zip(a, b, rows):
        ra[:], rb[:] = row[:k], row[k:]
    return True


def _emit_max_abs(code, terms):
    """A fresh local holding max |v| over the terms, nan as soon as any is
    nan: _max_abs, unrolled.  A zero term never raises it, and is left out."""
    worst = code("0.0")
    for text, value in terms:
        if not _zero(value):
            err = code(f"abs({text})")
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
    new = _emit_max_abs(code, [_term(code, fs) for fs in f])
    code.line(f"if it and not {new} < norm: return None")
    code.line(f"norm = {new}")
    code.line(f"if norm <= {tol} or it == {max_iter}: break")
    mark = len(code.lines)
    b = [[code(f"-{fs}")] for fs in f]
    _lu_solve(code, [[_copy(code, core(1 + 2 * n + i * n + j)) for j in reg] for i in reg], b,
              "return None", since=mark)
    for xs, (step,) in zip(x, b):
        if (text := _plus(code, (xs, None), _term(code, step))[0]) != xs:
            code.line(f"{xs} = {text}")
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
    local sign, if named, is set to det W_rr's sign (_lu_solve's).  Where
    code tracks values (fused_stage), core(k) may be a literal and each
    result is a name or a literal: an identity W_rr, a zero W_dr or L_vq
    folds out of the elimination and the sums by the rules of _times,
    _plus and _over."""
    r, deg = len(reg), [i for i in range(n) if i not in reg]
    nd = len(deg)

    def entry(block, i, j):  # block 0: W, block 1: L_vq
        return core(1 + 2 * n + (block * n + i) * n + j)

    def term(text):
        return _term(code, text)

    def dot(pairs):  # (sum(a * b)), a term
        return _group(code, _dot(code, pairs))

    # W_rr X = [L_vq regular rows | I_r]: X = [-dV_dq | dV_dp]
    a = [[_copy(code, entry(0, i, j)) for j in reg] for i in reg]
    x = [[_copy(code, entry(1, i, j)) for j in range(n)]
         + [_copy(code, "1.0" if i == j else "0.0") for j in reg] for i in reg]
    _lu_solve(code, a, x, "raise RankDeficiencyError("
              "'regular velocity Hessian block W_rr is singular at this point')", sign)
    w_dr = [[_copy(code, entry(0, i, j)) for j in reg] for i in deg]
    db_dq = [[_local(code, _minus(code, term(entry(1, i, j)),
                                  dot((w, x[t][j]) for t, w in enumerate(row))))
              for j in range(n)] for i, row in zip(deg, w_dr)]
    db_dp = [[_local(code, _dot(code, ((w, x[t][n + s]) for t, w in enumerate(row))))
              for s in range(r)] for row in w_dr]
    dh_dq = [_local(code, _plus(code, _neg(term(core(1 + n + j))),
                                dot((vd[k], row[j]) for k, row in enumerate(db_dq))))
             for j in range(n)]
    dh_dp = [_local(code, _plus(code, term(V[s]),
                                dot((vd[k], row[s]) for k, row in enumerate(db_dp))))
             for s in range(r)]
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    pp = [[_local(code, _dot(code, zip(ra, rb))) for rb in db_dp] for ra in db_dq_reg]
    f = [[_local(code, _plus(code, _group(code, _minus(code, term(db_dq[b][deg[a]]),
                                                       term(db_dq[a][deg[b]]))),
                             _group(code, _minus(code, term(pp[a][b]), term(pp[b][a])))))
          for b in range(nd)] for a in range(nd)]
    dah = [_local(code, _minus(code, _group(code, _plus(code, term(dh_dq[i]),
                                                        dot(zip(db_dq_reg[k], dh_dp)))),
                               dot(zip(db_dp[k], (dh_dq[j] for j in reg)))))
           for k, i in enumerate(deg)]
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


def third_layout(n):
    """The flat layout of model.DerivativeCore.third over the arguments (q,
    v), numbered 0 to 2n - 1: L_qq's upper triangle as pairs (j, l), then
    each third partial of L with a velocity among its arguments once, as its
    sorted argument triple (x, y, z), z >= n."""
    return ([(j, l) for j in range(n) for l in range(j, n)],
            [(x, y, z) for z in range(n, 2 * n) for y in range(z + 1) for x in range(y + 1)])


@functools.lru_cache(maxsize=None)
def jet_kernel(n, reg, core_zeros, third_zeros):
    """Generated second-order jet at a resolved point for one split, cached
    by it: reg lists the regular coordinates, core_zeros and third_zeros the
    entries of the derivative core and of the third partials (third_layout)
    that are exactly 0, whose terms it leaves out.  The kernel takes (c, d3,
    vd, dv_dq, dv_dp, db_dq, db_dp, dh_dq, dh_dp): the derivative core tuple,
    the third partials, the degenerate velocities and block_kernel's first
    six outputs, all floats.

    Over z = (q, p), m = n + r, differentiating L_v(q, V) = p once more gives
    W_rr d2V = -T_r, with T_i = J^T L3_i J: J = d(q, V)/dz (unit rows, then
    dV/dz) and L3_i the second partials of L_v^i by (q, V).  dV_dp is W_rr^-1,
    the block's elimination, so d2V = -dV_dp T_r; d2B_a = T_a + W_a,r d2V,
    and d2H differentiates dH = (-L_q + vd dB_dq, V + vd dB_dp) once more.
    dF and the gradient of D_a H differentiate _block's formulas by the
    product rule.  Returns d2V (r x m x m), d2B (nd x m x m), d2H (m x m), dF
    (nd x nd x m) and dDH (nd x m) as flat row-major lists of floats: each
    Hessian exactly symmetric (its upper triangle, mirrored) and dF exactly
    antisymmetric in its first two indices."""
    code, r = _Code(), len(reg)
    deg = [i for i in range(n) if i not in reg]
    nd, m = n - r, n + r

    # None is an exact zero: a sum leaves it out, and a sum of nothing is None
    def products(pairs):
        pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
        return _dot(code, pairs)[0] if pairs else None

    def total(*parts):  # (part) + (part) + ... as text
        parts = [p for p in parts if p is not None]
        return " + ".join(f"({p})" for p in parts) if parts else None

    def emit(*parts):  # total in a fresh local; a lone name or an exact zero as it is
        text = total(*parts)
        if text is None or text[1:-1].isidentifier():
            return text and text[1:-1]
        return code(text)

    def neg(x):
        return None if x is None else f"-({x})"

    def rows(seq, k, width):
        names = _unpack(code, seq, k * width)
        return [names[i * width:i * width + width] for i in range(k)]

    def core(k):
        return None if k in core_zeros else code(f"c[{k}]")

    vd = _unpack(code, "vd", nd)
    dv = [q + p for q, p in zip(rows("dv_dq", r, n), rows("dv_dp", r, r))]
    db = [q + p for q, p in zip(rows("db_dq", nd, n), rows("db_dp", nd, r))]
    dh = _unpack(code, "dh_dq", n) + _unpack(code, "dh_dp", r)
    pairs, triples = third_layout(n)
    at, d3 = {key: k for k, key in enumerate(pairs + triples)}, {}
    upper = [(k, l) for k in range(m) for l in range(k, m)]

    def third(key):  # a local on first read
        if key not in d3:
            d3[key] = None if at[key] in third_zeros else code(f"d3[{at[key]}]")
        return d3[key]

    def l3(i, a, b):  # d3 L / dv^i d(arg a) d(arg b)
        return third(tuple(sorted((n + i, a, b))))

    def t_of(i):  # T_i's upper triangle, through M = L3_i J
        mj = {(a, l): emit(l3(i, a, l) if l < n else None,
                           products((l3(i, a, n + j), dv[t][l]) for t, j in enumerate(reg)))
              for a in [*range(n), *(n + j for j in reg)] for l in range(a if a < n else 0, m)}
        return {(k, l): emit(mj[k, l] if k < n else None,
                             products((dv[s][k], mj[n + j, l]) for s, j in enumerate(reg)))
                for k, l in upper}

    def full(tri):
        return [[tri[min(k, l), max(k, l)] for l in range(m)] for k in range(m)]

    t = [t_of(i) for i in range(n)]
    d2v = [{kl: emit(neg(products((w, t[j][kl]) for w, j in zip(dv[s][n:], reg)))) for kl in upper}
           for s in range(r)]
    w_dr = [[core(1 + 2 * n + i * n + j) for j in reg] for i in deg]
    d2b = [{kl: emit(t[i][kl], products((w, d2v[s][kl]) for s, w in enumerate(row)))
            for kl in upper} for i, row in zip(deg, w_dr)]
    lvq = [[core(1 + 2 * n + n * n + j * n + k) for k in range(n)] for j in reg]

    def h_entry(k, l):  # l >= n: the p-row l - n of dH; else both q-rows
        rest = products((vd[a], d2b[a][k, l]) for a in range(nd))
        if l >= n:
            return emit(dv[l - n][k], rest)
        lq = products((lvq[s][k], dv[s][l]) for s in range(r))
        return emit(neg(total(third((k, l)), lq)), rest)

    b2, h2 = [full(x) for x in d2b], full({kl: h_entry(*kl) for kl in upper})
    reg_pairs = list(enumerate(reg))

    def half(x2, x, y2, y, k):  # the z_k-partial of sum_i dX/dq^i dY/dp_i, i regular
        return products([(x2[j][k], y[n + s]) for s, j in reg_pairs]
                   + [(x[j], y2[n + s][k]) for s, j in reg_pairs])

    df = [[[None] * m for _ in range(nd)] for _ in range(nd)]
    for a in range(nd):
        for b in range(a + 1, nd):
            df[a][b] = [emit(total(b2[b][deg[a]][k], neg(b2[a][deg[b]][k])),
                             total(emit(half(b2[a], db[a], b2[b], db[b], k)),
                                   neg(emit(half(b2[b], db[b], b2[a], db[a], k)))))
                        for k in range(m)]
            df[b][a] = [neg(x) for x in df[a][b]]
    ddh = [[emit(total(h2[i][k], half(b2[a], db[a], h2, dh, k)),
                 neg(half(h2, dh, b2[a], db[a], k))) for k in range(m)] for a, i in enumerate(deg)]
    outs = ([row for x in d2v for row in full(x)], [row for x in b2 for row in x], h2,
            [row for x in df for row in x], ddh)
    return code.build("c, d3, vd, dv_dq, dv_dp, db_dq, db_dp, dh_dq, dh_dp", ", ".join(
        "[" + ", ".join("0.0" if x is None else x for row in block for x in row) + "]"
        for block in outs), _KERNEL_ENV)


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


def _reading(exprs, names):
    """Whether each node under exprs reads a symbol of names, as a dict: one
    children-first pass, each node marked after its operands."""
    reads, stack = {}, [(e, False) for e in exprs]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            reads[e] = isinstance(e, Sym) and e.name in names or any(map(reads.get, _children(e)))
        elif e not in reads:
            stack += [(e, True)] + [(k, False) for k in _children(e)]
    return reads


_FOLD = True  # whether fused_stage tracks exact values (off: every operation emitted)


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
    statement: the same operations, so every value is fn's.

    The emitter tracks exact values (_FOLD): the W_rr elimination in the
    loop, the derivative block and the sector solve after it emit only the
    operations whose result the Hessian blocks' exact zeros and ones leave
    open (_lu_solve, _block), each fold exact for finite operands, and a
    sum of zero products once per distinct text (_dot).  The straight-line
    tail after the except line assigns no local that can raise: every Pow,
    Call and Quot by a non-constant is a root of the loop, and _lu_solve
    divides only by pivots tested nonzero.  So it then loses each local
    that nothing reads (_drop_dead).  A literal zero pivot in the sector
    solve raises unconditionally, and the kernel ends there."""
    n, r, code = len(names) // 2, len(reg), _Code()
    code.known = {} if _FOLD else None
    nd, deg = n - r, [i for i in range(n) if i not in reg]
    q, p, vd, vo, x = ([f"{seq}_{k}" for k in range(count)] for seq, count in
                       (("q", n), ("p", r), ("vd", nd), ("vo", len(other)), ("V", r)))
    vel = dict(zip(reg, x)) | dict(zip(deg, vd))
    text_of = {Sym(name): text for name, text in zip(names, q + [vel[i] for i in range(n)])}
    roots = [exprs[1 + i] for i in reg] + [exprs[1 + 2 * n + i * n + j] for i in reg for j in reg]
    roots += [e for e in _walk(exprs) if isinstance(e, (Pow, Call)) or isinstance(e, Quot)
              and not (isinstance(e.den, Const) and e.den.value)]  # x / c, c != 0, never raises
    reads_v = _reading(roots, {names[n + i] for i in reg})
    hoisted = [e for e in _walk(roots) if not reads_v[e]]
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
    tail = len(code.lines)
    # the stage at the root x: the derivative block, then the sector solve
    _, db_dq, db_dp, dh_dq, dh_dp, f, dah = _block(code, n, reg, core, x, vd, "wsign")
    db_dq_reg = [[row[j] for j in reg] for row in db_dq]
    v = [None] * nd
    for s, given in zip(other, vo):
        v[s] = given

    def term(text):
        return _term(code, text)

    def dot(pairs):  # (sum(a * b)), a term
        return _group(code, _dot(code, pairs))

    def build(ret):  # ret None: the code ends at a raise
        if code.known is not None:
            _drop_dead(code, tail, ret or "")
        return code.build(", ".join(q + p + vd + vo + x + ["tol"]), ret,
                          _COMPILE_ENV | _KERNEL_ENV)

    mark = len(code.lines)
    rhs = [[_local(code, _minus(code, term(dah[s]), dot((f[s][o], v[o]) for o in other)))]
           for s in solve]
    if not _lu_solve(code, [[_copy(code, f[s][t]) for t in solve] for s in solve], rhs,
                     f"raise RankDeficiencyError({SECTOR_SINGULAR!r})", since=mark):
        return build(None)
    for k, s in enumerate(solve):
        v[s] = rhs[k][0]
    resid = _emit_max_abs(code, [_minus(code, _dot(code, zip(f[k], v)), term(dah[k]))
                                 for k in range(nd)])
    dq = [None] * n
    for s, i in enumerate(reg):
        dq[i] = _minus(code, term(dh_dp[s]), dot((v[k], row[s]) for k, row in enumerate(db_dp)))[0]
    for k, i in enumerate(deg):
        dq[i] = v[k]
    dp = [_plus(code, _neg(term(dh_dq[i])),
                dot((v[k], row[s]) for k, row in enumerate(db_dq_reg)))[0]
          for s, i in enumerate(reg)]
    # one sum: p V, then each L_v^a v^a
    h = _minus(code, _group(code, _sum(code, _products(code, zip(p, x)) + _products(
        code, ((core(1 + i), vd[k]) for k, i in enumerate(deg))))), term(core(0)))[0]
    sub = [f[s][t] for s in solve for t in solve]
    return build(", ".join(dq + dp + v + x + [resid, h, "wsign"] + sub))


_NAME = re.compile(r"[A-Za-z_]\w*")


def _drop_dead(code, start, ret):
    """Drop each local that code recorded from line start on (straight-line
    code followed by return ret) and that nothing after it reads.  Every
    other line stays and reads each name in it.  Sound where none of those
    locals can raise: fused_stage's tail."""
    local_at = {k: name for name, k in code.locals.items() if k >= start}
    live, kept = set(_NAME.findall(ret)), []
    for k in reversed(range(start, len(code.lines))):
        if k not in local_at or local_at[k] in live:
            live.update(_NAME.findall(code.lines[k]))
            kept.append(code.lines[k])
    code.lines[start:] = reversed(kept)


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
def rk4_kernel(n, reg, solve, other, zeros):
    """Generated fixed-step RK4 loop of integrate for one layout, cached by
    it (the layout as for fused_stage, and zeros the slots of other pinned
    to zero).

    The kernel takes (fused, ntol, resolve, given, q, p, w, start, dt,
    steps, tol, rows).  A stage is fused(*Q, *P, *VD, *VO, *V, ntol),
    fused_stage's kernel on the loop's float locals from the last stage's
    velocities V, its tuple unpacked into locals; or where that gives up,
    fused at tol inf from resolve(Q, P, VD, V)[1], damped Newton's root, the
    one place that builds lists.  A slot of zeros is the literal 0.0, and
    any other slot a of other is given[a]([t]), its compiled evaluator
    (GaugeInput.values), called once per distinct time of a step (t,
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
    for a in other:
        if a not in zeros:
            code.line(f"given_{a} = given[{a}]")
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
        return ["0.0" if a in zeros else code(f"given_{a}([{time}])") for a in other]

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
    return code.build("fused, ntol, resolve, given, q, p, w, start, dt, steps, tol, rows",
                      "0", _KERNEL_ENV | {"inf": math.inf, "pfaffian_sign": pfaffian_sign})
