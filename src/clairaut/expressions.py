"""Expression trees with exact differentiation and guarded numeric evaluation.

The engine keeps every Lagrangian and every derived quantity as a small
immutable tree built from eight node kinds: constants, symbols, n-ary sums and
products, powers, negation, quotients, and calls to a fixed set of unary
functions (sin, cos, exp, log, sqrt).  Velocities are ordinary symbols whose
names happen to render as d(coordinate); no node kind distinguishes them.

Nodes are interned when they are built: a dict of weak references holds the
live node for each kind and fields, so structurally equal trees are the same
object and equality is identity.  A tree is therefore a DAG of shared nodes,
and the walks over it do work per distinct node: simplify keeps its result
on the node, and so does the set of symbol names under it (free_symbols),
and differentiate memoizes per call (a derivation, per symbol).  The one
exception is a derivative's scaffolding: the raw trees the rules build,
which only simplify reads, are plain node objects that no table holds, and
simplify turns them into interned normal form.

Differentiation is purely syntactic, less the terms simplify folds to 0 (but
inf*0 and nan*0 are nan): a derivation visits only the subtrees that read
its symbol or hold a non-finite constant, and takes the others' derivative
as 0 unseen.  Simplification performs constant folding, identity
elimination, flattening, and like-term collection, and is idempotent; it
never folds a division by a zero constant or log/sqrt of a negative
constant, leaving those to raise at evaluation time.
"""

import functools
import math
import operator
import threading
import weakref
from _weakref import _remove_dead_weakref

from .errors import ArgumentError, DomainError, ExprSyntaxError, UnboundSymbolError

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

# Precedence levels used by the printer; parser mirrors them.
_P_SUM = 10
_P_UNARY = 20
_P_TERM = 30
_P_POWER = 40
_P_ATOM = 50


class Expr:
    """Base class for expression nodes.  Instances are immutable and interned:
    building a node equal to a live one returns that node, so equality and
    hashing are identity.  A derivative's scaffolding is not interned (see
    the module docstring); it never leaves the derivation."""

    # _simple memoizes simplify: None until computed, True for a node that is
    # its own normal form (no self-reference, so refcounting frees the node);
    # _free memoizes _free_names, None until computed
    __slots__ = ("_simple", "_free", "__weakref__")

    def __reduce__(self):
        # copies and pickles rebuild through the intern table
        return type(self), tuple(getattr(self, s) for s in self.__slots__)

    def __str__(self):
        return _render(self, _P_SUM)

    def __repr__(self):
        return f"<expr {self}>"

    # Arithmetic sugar builds raw nodes; callers simplify when they care.
    def __add__(self, other):
        return Sum((self, _wrap(other)))

    def __radd__(self, other):
        return Sum((_wrap(other), self))

    def __sub__(self, other):
        return Sum((self, Neg(_wrap(other))))

    def __rsub__(self, other):
        return Sum((_wrap(other), Neg(self)))

    def __mul__(self, other):
        return Prod((self, _wrap(other)))

    def __rmul__(self, other):
        return Prod((_wrap(other), self))

    def __truediv__(self, other):
        return Quot(self, _wrap(other))

    def __rtruediv__(self, other):
        return Quot(_wrap(other), self)

    def __pow__(self, other):
        return Pow(self, _wrap(other))

    def __neg__(self):
        return Neg(self)


def _wrap(value):
    if isinstance(value, Expr):
        return value
    return Const(float(value))


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the key of the node it refers to


def _drop(ref):
    # one C call that takes no lock, so a node may die anywhere, inside
    # _intern's locked store too; it keeps a live node that replaced this one
    _remove_dead_weakref(_nodes, ref.key)


# A weak reference to the live node for each (class, fields) key.  Children
# are interned before their parents, so a key compares them by identity.
_nodes = {}
_nodes_lock = threading.Lock()
_DEAD = type(None)  # called like a dead reference, it returns None


def _build(cls, *fields):
    """A new node of cls with its slots set to fields, in no table."""
    node = object.__new__(cls)
    for slot, value in zip(cls.__slots__, fields):
        setattr(node, slot, value)
    node._simple = node._free = None
    return node


def _intern(key, fields=None):
    """The live node for key = (class, *fields), built on a miss; fields
    defaults to the rest of the key.  A hit reads the table without a lock."""
    node = _nodes.get(key, _DEAD)()
    if node is None:
        node = _build(key[0], *(fields or key[1:]))
        with _nodes_lock:  # a node another thread stored first wins
            live = _nodes.get(key, _DEAD)()
            if live is not None:
                return live
            ref = _nodes[key] = _Ref(node, _drop)
            ref.key = key
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        # hex() keeps -0.0 apart from 0.0: they compile to different literals
        return _intern((cls, value.hex()), (value,))


_ZERO, _ONE = Const(0.0), Const(1.0)  # built often, so kept alive


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern((cls, name))


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        return _intern((cls, tuple(terms)))


class Prod(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        return _intern((cls, tuple(factors)))


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        return _intern((cls, base, exponent))


class Neg(Expr):
    __slots__ = ("child",)

    def __new__(cls, child):
        return _intern((cls, child))


class Quot(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num, den):
        return _intern((cls, num, den))


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __new__(cls, fn, arg):
        if fn not in _FUNCTIONS:
            raise ArgumentError(f"unknown function {fn!r}")
        return _intern((cls, fn, arg))


def free_symbols(expr):
    """Set of symbol names occurring in expr: its _free_names without the
    non-finite marker."""
    names = set(_free_names(expr))
    names.discard(_NON_FINITE)
    return names


_NON_FINITE = object()  # in the _free_names of a node with inf or nan below
_NO_NAMES = frozenset()


def _free_names(e):
    """The frozenset of symbol names under e, with _NON_FINITE if an inf or
    nan Const is there too; computed on first read and kept on the node (two
    threads may both compute it, and get equal sets).  A node shares an
    operand's set where that one covers the others'."""
    free = e._free
    if free is None:
        if isinstance(e, Sym):
            free = frozenset((e.name,))
        elif isinstance(e, Const):
            free = _NO_NAMES if math.isfinite(e.value) else frozenset((_NON_FINITE,))
        else:
            free = _NO_NAMES
            for names in map(_free_names, _children(e)):
                if not names <= free:
                    free = names if free <= names else free | names
        e._free = free
    return free


def _walk(seq):
    """Every node of the trees in seq, once each, as a dict's keys."""
    nodes, stack = {}, list(seq)
    while stack:
        e = stack.pop()
        if e not in nodes:
            nodes[e] = None
            stack.extend(_children(e))
    return nodes


def _children(e):
    """Operand nodes of e, in tree order; empty for leaves."""
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    if isinstance(e, Quot):
        return (e.num, e.den)
    if isinstance(e, Neg):
        return (e.child,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def substitute(expr, mapping):
    """Replace symbols by expressions; mapping values may be Expr or numbers."""
    if isinstance(expr, Sym):
        rep = mapping.get(expr.name)
        return expr if rep is None else _wrap(rep)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Sum):
        return Sum(tuple(substitute(t, mapping) for t in expr.terms))
    if isinstance(expr, Prod):
        return Prod(tuple(substitute(f, mapping) for f in expr.factors))
    if isinstance(expr, Pow):
        return Pow(substitute(expr.base, mapping), substitute(expr.exponent, mapping))
    if isinstance(expr, Neg):
        return Neg(substitute(expr.child, mapping))
    if isinstance(expr, Quot):
        return Quot(substitute(expr.num, mapping), substitute(expr.den, mapping))
    return Call(expr.fn, substitute(expr.arg, mapping))


# ---------------------------------------------------------------- evaluation


def evaluate(expr, bindings):
    """Evaluate to a float.  Raises UnboundSymbolError or DomainError."""
    try:
        return _eval(expr, bindings)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(str(exc) or "math domain error") from exc


def _eval(e, b):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        try:
            return float(b[e.name])
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if isinstance(e, Sum):
        # left to right from the first term, as the compiled code adds
        vals = [_eval(t, b) for t in e.terms]
        return functools.reduce(operator.add, vals) if vals else 0.0
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= _eval(f, b)
        return out
    if isinstance(e, Pow):
        return math.pow(_eval(e.base, b), _eval(e.exponent, b))
    if isinstance(e, Neg):
        return -_eval(e.child, b)
    if isinstance(e, Quot):
        return _eval(e.num, b) / _eval(e.den, b)
    # Call
    v = _eval(e.arg, b)
    return getattr(math, e.fn)(v)


# ------------------------------------------------------------- differentiation


def differentiate(expr, name):
    """Exact partial derivative with respect to the symbol called name."""
    return _Derivatives(name)(expr)


class _Derivatives(dict):
    """Derivative of each node with respect to one symbol, derived on first
    lookup; a memo kept for a whole derivation differentiates each node once.

    A node whose _free_names hold neither the symbol nor the non-finite
    marker derives to _ZERO unseen: under the rules of _diff its derivative
    would simplify to 0 (a zero term, or a product with coefficient 0), which
    adds +0.0 to a sum's constant and joins no like-term group, so every
    simplified derivative is the node it would be.  Under inf or nan, 0 may
    turn into nan, so such a subtree is always derived.  The memo holds the
    rules' raw scaffolding (not interned); __call__ returns its simplified,
    interned normal form."""

    def __init__(self, x):
        self.x = x

    def __call__(self, expr):
        """differentiate(expr, x), reading and filling this memo."""
        return simplify(self[simplify(expr)])

    def __missing__(self, e):
        free = _free_names(e)
        out = self[e] = (_diff(e, self.x, self) if self.x in free or _NON_FINITE in free
                         else _ZERO)
        return out


def _diff(e, x, d):
    """Derivative of node e with respect to x, reading its children's from d,
    as scaffolding: its Sum, Prod, Neg, Quot, Pow and Call nodes are built
    raw (_build), its Consts interned.  The sum, negation and product rules
    leave out _ZERO terms, a product only where its Const factor (at most
    one: e is simplified) is finite."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Sym):
        return _ONE if e.name == x else _ZERO
    if isinstance(e, Sum):
        return _dsum(d[t] for t in e.terms)
    if isinstance(e, Neg):
        return _ZERO if (du := d[e.child]) is _ZERO else _build(Neg, du)
    if isinstance(e, Prod):
        fs = e.factors
        prune = all(math.isfinite(f.value) for f in fs if isinstance(f, Const))
        return _dsum(_build(Prod, fs[:i] + (df,) + fs[i + 1:]) for i, f in enumerate(fs)
                     if (df := d[f]) is not _ZERO or not prune)
    if isinstance(e, Quot):
        da, db = d[e.num], d[e.den]
        num = _build(Sum, (_build(Prod, (da, e.den)), _build(Neg, _build(Prod, (e.num, db)))))
        return _dquot(num, _build(Pow, e.den, Const(2.0)))
    if isinstance(e, Pow):
        c = _signed_const(e.exponent)
        du = d[e.base]
        if c is not None:
            # power rule with a constant exponent
            return _build(Prod, (Const(c), _build(Pow, e.base, Const(c - 1.0)), du))
        dw = d[e.exponent]
        bracket = _build(Sum, (_build(Prod, (dw, _build(Call, "log", e.base))),
                               _build(Prod, (e.exponent, _dquot(du, e.base)))))
        return _build(Prod, (e, bracket))
    # Call
    u, du = e.arg, d[e.arg]
    if e.fn == "sin":
        return _build(Prod, (_build(Call, "cos", u), du))
    if e.fn == "cos":
        return _build(Neg, _build(Prod, (_build(Call, "sin", u), du)))
    if e.fn == "exp":
        return _build(Prod, (e, du))
    if e.fn == "log":
        return _dquot(du, u)
    # sqrt
    return _dquot(du, _build(Prod, (Const(2.0), _build(Call, "sqrt", u))))


def _dsum(terms):
    """Sum of the terms but _ZERO, which simplify adds exactly to its constant
    sum (never -0.0), as scaffolding."""
    terms = tuple(t for t in terms if t is not _ZERO)
    return _build(Sum, terms) if terms else _ZERO


def _dquot(num, den):
    """num/den in a derivative, folded to 0 where num simplifies to 0, as
    scaffolding."""
    return _ZERO if simplify(num) is _ZERO else _build(Quot, num, den)


# ---------------------------------------------------------------- simplifier


def _signed_const(e):
    """Float value of a normal-form constant (Const or Neg(Const)), else None."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg) and isinstance(e.child, Const):
        return -e.child.value
    return None


def _const(value):
    # Normal form keeps constants nonnegative, with signs as Neg wrappers.
    # Zero is +0.0, the value its printed form "0" parses back to.
    if value < 0.0:
        return Neg(Const(-value))
    return Const(abs(value))


def _negate(e):
    if isinstance(e, Neg):
        return e.child
    c = _signed_const(e)
    if c is not None:
        return _const(-c)
    return Neg(e)


def simplify(expr):
    """Normal form: folded constants, no trivial identities, flat sums/products.

    Idempotent, and value-preserving at every binding where the input is
    defined (modulo rounding).  Division by a symbolic or zero denominator is
    left in place.
    """
    done = expr._simple
    if done is not None:
        return expr if done is True else done
    if isinstance(expr, Const):
        out = _const(expr.value)
    elif isinstance(expr, Sym):
        out = expr
    elif isinstance(expr, Sum):
        out = _simplify_sum([simplify(t) for t in expr.terms])
    elif isinstance(expr, Prod):
        out = _simplify_prod([simplify(f) for f in expr.factors])
    elif isinstance(expr, Neg):
        out = _negate(simplify(expr.child))
    elif isinstance(expr, Quot):
        out = _simplify_quot(simplify(expr.num), simplify(expr.den))
    elif isinstance(expr, Pow):
        out = _simplify_pow(simplify(expr.base), simplify(expr.exponent))
    else:
        out = _simplify_call(expr.fn, simplify(expr.arg))
    expr._simple = True if out is expr else out
    return out


def _flatten_sum(terms, out):
    for t in terms:
        if isinstance(t, Sum):
            _flatten_sum(t.terms, out)
        elif isinstance(t, Neg) and isinstance(t.child, Sum):
            _flatten_sum([_negate(s) for s in t.child.terms], out)
        else:
            out.append(t)


def _coeff_split(term):
    """Split a normal-form term into (coefficient, base); base None for constants."""
    if isinstance(term, Const):
        return term.value, None
    if isinstance(term, Neg):
        c, base = _coeff_split(term.child)
        return -c, base
    if isinstance(term, Prod):
        coeff = 1.0
        rest = []
        for f in term.factors:
            if isinstance(f, Const):
                coeff *= f.value
            else:
                rest.append(f)
        if not rest:
            return coeff, None
        if len(rest) == 1:
            return coeff, rest[0]
        return coeff, Prod(tuple(rest))
    return 1.0, term


def _with_coeff(coeff, base):
    if coeff == 0.0:
        return None
    if coeff == 1.0:
        return base
    if coeff == -1.0:
        return _negate(base)
    factors = base.factors if isinstance(base, Prod) else (base,)
    core = Prod((Const(abs(coeff)),) + factors)
    return Neg(core) if coeff < 0.0 else core


def _simplify_sum(terms):
    flat = []
    _flatten_sum(terms, flat)
    const_acc = 0.0
    groups = {}  # base -> summed coefficient, bases in first-seen order
    for t in flat:
        coeff, base = _coeff_split(t)
        if base is None:
            const_acc += coeff
        elif base in groups:
            groups[base] += coeff
        else:
            groups[base] = coeff
    out = []
    for base, coeff in groups.items():
        rebuilt = _with_coeff(coeff, base)
        if rebuilt is not None:
            out.append(rebuilt)
    if const_acc != 0.0 or not out:
        out.append(_const(const_acc))
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _simplify_prod(factors):
    coeff = 1.0
    rest = []
    stack = factors[::-1]  # depth first, factors in order
    while stack:
        f = stack.pop()
        if isinstance(f, Prod):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Neg):
            coeff = -coeff
            stack.append(f.child)
        elif isinstance(f, Const):
            coeff *= f.value
        else:
            rest.append(f)
    if coeff == 0.0:
        return _ZERO
    if not rest:
        return _const(coeff)
    return _with_coeff(coeff, rest[0] if len(rest) == 1 else Prod(tuple(rest)))


def _simplify_quot(num, den):
    sign = 1.0
    if isinstance(num, Neg):
        sign, num = -sign, num.child
    if isinstance(den, Neg):
        sign, den = -sign, den.child
    dv = den.value if isinstance(den, Const) else None
    nv = num.value if isinstance(num, Const) else None
    if dv is not None and dv != 0.0:
        if nv is not None:
            folded = sign * nv / dv
            if math.isfinite(folded):
                return _const(folded)
        if dv == 1.0:
            return _negate(num) if sign < 0 else num
        coeff, base = _coeff_split(num)
        if base is not None and coeff != 1.0:
            # explicit constant factor in the numerator: fold it into the
            # denominator constant (keeps plain x/2 untouched)
            folded = coeff / dv
            if math.isfinite(folded) and folded > 0.0:
                return _with_coeff(sign * folded, base)
    return _with_coeff(sign, Quot(num, den))


def _simplify_pow(base, exponent):
    ev = _signed_const(exponent)
    if ev == 0.0:
        return _ONE
    if ev == 1.0:
        return base
    bv = _signed_const(base)
    if bv is not None and ev is not None:
        try:
            folded = math.pow(bv, ev)
        except (ValueError, OverflowError):
            folded = None
        if folded is not None and math.isfinite(folded):
            return _const(folded)
    return Pow(base, exponent)


def _simplify_call(fn, arg):
    v = _signed_const(arg)
    if v is not None:
        ok = fn in ("sin", "cos", "exp") or (fn == "log" and v > 0.0) or (fn == "sqrt" and v >= 0.0)
        if ok:
            try:
                folded = getattr(math, fn)(v)
            except (OverflowError, ValueError):  # exp(1e308); sin(inf) and cos(inf)
                folded = None
            if folded is not None and math.isfinite(folded):
                return _const(folded)
    return Call(fn, arg)


# ------------------------------------------------------------------ printing


def _render(e, min_prec):
    if isinstance(e, Const):
        v = e.value
        text = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
        return text
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg, _P_SUM)})"
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            if i and isinstance(t, Neg):
                parts.append(" - " + _render(t.child, _P_UNARY))
            else:
                parts.append(("" if i == 0 else " + ") + _render(t, _P_UNARY))
        text = "".join(parts)
        return f"({text})" if _P_SUM < min_prec else text
    if isinstance(e, Neg):
        # a negation chain prints as "--x": parentheses would double its depth
        child_prec = _P_UNARY if isinstance(e.child, Neg) else _P_POWER
        text = "-" + _render(e.child, child_prec)
        return f"({text})" if _P_UNARY < min_prec else text
    if isinstance(e, Prod):
        parts = [_render(e.factors[0], _P_TERM)]
        parts += [_render(f, _P_TERM + 1) for f in e.factors[1:]]
        text = "*".join(parts)
        return f"({text})" if _P_TERM < min_prec else text
    if isinstance(e, Quot):
        text = _render(e.num, _P_TERM) + "/" + _render(e.den, _P_POWER)
        return f"({text})" if _P_TERM < min_prec else text
    # Pow: the base needs atom level; the exponent reparses as unary minus
    # signs around a power, so a product or quotient there needs parentheses
    exponent = _render(e.exponent, _P_UNARY if isinstance(e.exponent, Neg) else _P_POWER)
    text = _render(e.base, _P_ATOM) + "^" + exponent
    return f"({text})" if _P_POWER < min_prec else text


# ------------------------------------------------------------------- parsing

_TOKEN_KINDS = (
    ("number", r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"),
    ("ident", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("op", r"[-+*/^(){},;=]"),
)


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(text):
    """Split source into tokens, tracking line and column; '#' starts a
    comment.  A number literal must be a finite double."""
    import re

    master = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_KINDS))
    tokens = []
    line = 1
    line_start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = master.match(text, i)
        if not m:
            raise ExprSyntaxError(f"illegal character {ch!r}", line, i - line_start + 1)
        kind = m.lastgroup
        tok_text = m.group()
        if kind == "number" and math.isinf(float(tok_text)):
            raise ExprSyntaxError(f"number {tok_text} is not a finite double",
                                  line, i - line_start + 1)
        tokens.append(Token(kind if kind != "op" else tok_text, tok_text, line, i - line_start + 1))
        i = m.end()
    tokens.append(Token("end", "", line, n - line_start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting levels open around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind, expected_desc=None):
        tok = self.peek()
        if tok.kind != kind:
            desc = expected_desc or (kind,)
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.line,
                tok.column,
                desc,
            )
        return self.advance()


_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'", "function call")

# Parentheses, calls, unary minus and exponents nest; a left-associative
# chain of quotients nests its numerators.  Deeper input is a syntax error
# rather than a RecursionError in the parser or in the recursive tree walks
# (simplify, differentiate, printing) that consume its tree.
MAX_NESTING = 50


def _check_nesting(cur, depth):
    if depth > MAX_NESTING:
        tok = cur.peek()
        raise ExprSyntaxError(
            f"expression nested more than {MAX_NESTING} levels deep",
            tok.line, tok.column)


def parse_expression(text):
    """Parse infix source into an expression tree.

    Grammar: + - * / ^ with ^ right-associative and binding tightest, then
    unary minus, then * and /, then + and -; parentheses; sin/cos/exp/log/sqrt
    calls; d(name) for velocity symbols; '#' comments.
    """
    cur = _Cursor(tokenize(text))
    expr = _parse_sum(cur)
    tok = cur.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected {tok.text!r} after expression", tok.line, tok.column,
                              ("operator", "end of input"))
    return expr


def _parse_sum(cur):
    terms = []
    first = _parse_term(cur)
    terms.append(first)
    while cur.peek().kind in ("+", "-"):
        op = cur.advance()
        rhs = _parse_term(cur)
        terms.append(Neg(rhs) if op.kind == "-" else rhs)
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _parse_term(cur):
    acc = _parse_unary(cur)
    quotients = 0
    while cur.peek().kind in ("*", "/"):
        op = cur.advance()
        rhs = _parse_unary(cur)
        if op.kind == "*":
            if isinstance(acc, Prod):
                acc = Prod(acc.factors + (rhs,))
            else:
                acc = Prod((acc, rhs))
        else:
            quotients += 1
            _check_nesting(cur, cur.depth + quotients)
            acc = Quot(acc, rhs)
    return acc


def _parse_unary(cur):
    # every nesting construct (parentheses, a call, unary minus, an
    # exponent) recurses through here once, so cur.depth counts open levels
    _check_nesting(cur, cur.depth)
    cur.depth += 1
    if cur.peek().kind == "-":
        cur.advance()
        expr = Neg(_parse_unary(cur))
    else:
        expr = _parse_power(cur)
    cur.depth -= 1
    return expr


def _parse_power(cur):
    base = _parse_atom(cur)
    if cur.peek().kind == "^":
        cur.advance()
        exponent = _parse_unary(cur)
        return Pow(base, exponent)
    return base


def _parse_atom(cur):
    tok = cur.peek()
    if tok.kind == "number":
        cur.advance()
        return Const(float(tok.text))
    if tok.kind == "(":
        cur.advance()
        inner = _parse_sum(cur)
        cur.expect(")", ("')'",))
        return inner
    if tok.kind == "ident":
        cur.advance()
        name = tok.text
        if cur.peek().kind == "(":
            if name == "d":
                cur.advance()
                coord = cur.expect("ident", ("coordinate name",))
                cur.expect(")", ("')'",))
                return Sym(f"d({coord.text})")
            if name in _FUNCTIONS:
                cur.advance()
                arg = _parse_sum(cur)
                cur.expect(")", ("')'",))
                return Call(name, arg)
            raise ExprSyntaxError(f"unknown function {name!r}", tok.line, tok.column,
                                  _FUNCTIONS + ("d",))
        return Sym(name)
    raise ExprSyntaxError(
        f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
        tok.line,
        tok.column,
        _ATOM_EXPECTED,
    )


# ----------------------------------------------------------------- compiling


class _Code:
    """Straight-line source under construction, the package's one emitter
    (evaluators here, float kernels in numerics): calling it assigns an
    expression to a fresh local, t<k> for the line's index k, records it in
    locals (name -> k) and returns the local's name.  known, None unless
    numerics.fused_stage sets it, maps a local to its exact value where the
    numerics emitters track one; sums maps the text of each sum that
    numerics._dot shares to the local holding it."""

    def __init__(self):
        self.lines = []
        self.locals = {}
        self.known = None
        self.sums = {}

    def __call__(self, expr):
        name = f"t{len(self.lines)}"
        self.locals[name] = len(self.lines)
        self.line(f"{name} = {expr}")
        return name

    def line(self, text):
        self.lines.append("    " + text)

    def indent(self, start):
        """Indent the lines from index start on one level: the body of the
        block statement on the line before them, once it is complete."""
        self.lines[start:] = ["    " + line for line in self.lines[start:]]

    def build(self, params, ret, env):
        """def kernel(params) over the lines, returning ret (no return
        statement for None), with globals env; the source is kept on it as
        ``source``."""
        end = "" if ret is None else f"    return {ret}\n"
        source = f"def kernel({params}):\n" + "\n".join(self.lines) + "\n" + end
        namespace = dict(env)
        exec(compile(source, "<clairaut-code>", "exec"), namespace)  # noqa: S102 (our own codegen)
        kernel = namespace["kernel"]
        kernel.source = source
        return kernel


def _node_text(e, kids):
    """Right-hand side of one node over its children's local names, with the
    operands in tree order so the result rounds like the tree itself."""
    if isinstance(e, Sum):
        return "+".join(kids) if kids else "0.0"
    if isinstance(e, Prod):
        return "*".join(kids) if kids else "1.0"
    if isinstance(e, Pow):
        return f"pow({kids[0]},{kids[1]})"
    if isinstance(e, Neg):
        return f"-{kids[0]}"
    if isinstance(e, Quot):
        return f"{kids[0]}/{kids[1]}"
    return f"{e.fn}({kids[0]})"


INLINE_DEPTH = 3  # the most parentheses _emit_cse nests inline nodes in


def _emit_cse(code, seq, index_of=None, text_of=None, inline=frozenset()):
    """Assign the roots of seq through code, sharing common subtrees; returns
    one text per root (a local name or a constant literal).

    Nodes are interned, so structurally equal subtrees are one node and get
    one local.  text_of (node -> text), if given, holds the symbols' texts
    and is shared: a later call reuses the locals of an earlier one.  Other
    symbols are read once, as float(A[index_of[name]]).  The walk is
    iterative and visits each node once.  A node of inline (the caller
    vouches that its one reader is emitted in the same call) gets no local:
    its text, parenthesized, goes into its reader's, INLINE_DEPTH levels
    deep at most; the operations and their order stay the tree's.
    """
    text_of = {} if text_of is None else text_of
    depth = {}  # the parentheses of this call's inline texts
    for root in seq:
        stack = [(root, False)]
        while stack:
            e, expanded = stack.pop()
            if e in text_of:
                continue
            if isinstance(e, Const):
                text_of[e] = repr(e.value)  # inf and nan are names in _COMPILE_ENV
                continue
            if isinstance(e, Sym):
                if e.name not in (index_of or ()):
                    raise UnboundSymbolError(e.name)
                text_of[e] = code(f"float(A[{index_of[e.name]}])")
                continue
            kids = _children(e)
            if not expanded:
                stack.append((e, True))
                stack.extend((k, False) for k in reversed(kids))
                continue
            if len(kids) == 1 and isinstance(e, (Sum, Prod)):
                text_of[e] = text_of[kids[0]]
                continue
            text = _node_text(e, [text_of[k] for k in kids])
            if e in inline and (level := 1 + max(depth.get(k, 0) for k in kids)) <= INLINE_DEPTH:
                text_of[e], depth[e] = f"({text})", level
            else:
                text_of[e] = code(text)
    return [text_of[root] for root in seq]


# the globals of an evaluator: its functions, math.pow (which raises where
# the ** operator would return a complex), the inf and nan literals
_COMPILE_ENV = {name: getattr(math, name) for name in _FUNCTIONS + ("pow", "inf", "nan")}
_COMPILE_ENV["DomainError"] = DomainError


def compile_evaluator(exprs, names):
    """Compile one expression or a sequence into a fast function.

    The function takes a single indexable of values ordered like names and
    returns a float (single expression) or a tuple of floats.  It converts
    each value it reads with float(), so numpy scalars and arrays are
    accepted and math-domain violations surface as DomainError for every
    input type, like the interpreted evaluator.

    Code generation eliminates common subexpressions across the whole
    sequence: every distinct non-leaf node (nodes are interned, so equal
    subtrees are one node) is computed once, into its own local on its own
    line, and each result reads the locals it needs.  Each node keeps its
    operands in tree order, so every result is bit-identical to evaluating
    its tree alone.  The function keeps its source as ``source``.
    """
    single = isinstance(exprs, Expr)
    seq = [exprs] if single else list(exprs)
    code = _Code()
    code.line("try:")
    results = _emit_cse(code, seq, {name: i for i, name in enumerate(names)})
    ret = code(results[0] if single else "(" + "".join(f"{t}, " for t in results) + ")")
    code.indent(1)
    code.line("except (ValueError, ZeroDivisionError, OverflowError) as exc:")
    code.line("    raise DomainError(str(exc) or 'math domain error') from exc")
    return code.build("A", ret, _COMPILE_ENV)
