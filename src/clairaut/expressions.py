"""Expression trees with exact differentiation and guarded numeric evaluation.

The engine keeps every Lagrangian and every derived quantity as a small
immutable tree built from eight node kinds: constants, symbols, n-ary sums and
products, powers, negation, quotients, and calls to a fixed set of unary
functions (sin, cos, exp, log, sqrt).  Velocities are ordinary symbols whose
names happen to render as d(coordinate); no node kind distinguishes them.

Differentiation is purely syntactic.  Simplification performs constant
folding, identity elimination, flattening, and like-term collection, and is
idempotent; it never folds a division by a zero constant or log/sqrt of a
negative constant, leaving those to raise at evaluation time.
"""

import math

from .errors import DomainError, ExprSyntaxError, UnboundSymbolError

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

# Precedence levels used by the printer; parser mirrors them.
_P_SUM = 10
_P_UNARY = 20
_P_TERM = 30
_P_POWER = 40
_P_ATOM = 50


class Expr:
    """Base class for expression nodes.  Instances are immutable."""

    __slots__ = ("_key",)

    def key(self):
        """Structural identity tuple, used for equality and hashing."""
        k = getattr(self, "_key", None)
        if k is None:
            k = self._make_key()
            object.__setattr__(self, "_key", k)
        return k

    def _make_key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def _make_key(self):
        return ("const", self.value)


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def _make_key(self):
        return ("sym", self.name)


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", tuple(terms))

    def _make_key(self):
        return ("sum",) + tuple(t.key() for t in self.terms)


class Prod(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))

    def _make_key(self):
        return ("prod",) + tuple(f.key() for f in self.factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def _make_key(self):
        return ("pow", self.base.key(), self.exponent.key())


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child):
        object.__setattr__(self, "child", child)

    def _make_key(self):
        return ("neg", self.child.key())


class Quot(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _make_key(self):
        return ("quot", self.num.key(), self.den.key())


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in _FUNCTIONS:
            raise ValueError(f"unknown function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)

    def _make_key(self):
        return ("call", self.fn, self.arg.key())


def free_symbols(expr):
    """Set of symbol names occurring in expr."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Sym):
            out.add(e.name)
        else:
            stack.extend(_children(e))
    return out


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
        return math.fsum(_eval(t, b) for t in e.terms)
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
    return simplify(_diff(simplify(expr), name))


def _diff(e, x):
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Sym):
        return Const(1.0) if e.name == x else Const(0.0)
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, x) for t in e.terms))
    if isinstance(e, Neg):
        return Neg(_diff(e.child, x))
    if isinstance(e, Prod):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            terms.append(Prod(tuple(_diff(f, x) if j == i else f for j, f in enumerate(fs))))
        return Sum(tuple(terms))
    if isinstance(e, Quot):
        da, db = _diff(e.num, x), _diff(e.den, x)
        num = Sum((Prod((da, e.den)), Neg(Prod((e.num, db)))))
        return Quot(num, Pow(e.den, Const(2.0)))
    if isinstance(e, Pow):
        c = _signed_const(e.exponent)
        du = _diff(e.base, x)
        if c is not None:
            # power rule with a constant exponent
            return Prod((Const(c), Pow(e.base, Const(c - 1.0)), du))
        dw = _diff(e.exponent, x)
        bracket = Sum((Prod((dw, Call("log", e.base))), Prod((e.exponent, Quot(du, e.base)))))
        return Prod((e, bracket))
    # Call
    u, du = e.arg, _diff(e.arg, x)
    if e.fn == "sin":
        return Prod((Call("cos", u), du))
    if e.fn == "cos":
        return Neg(Prod((Call("sin", u), du)))
    if e.fn == "exp":
        return Prod((e, du))
    if e.fn == "log":
        return Quot(du, u)
    # sqrt
    return Quot(du, Prod((Const(2.0), Call("sqrt", u))))


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
    if value < 0.0:
        return Neg(Const(-value))
    return Const(value)


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
    if isinstance(expr, (Const, Sym)):
        if isinstance(expr, Const):
            return _const(expr.value)
        return expr
    if isinstance(expr, Sum):
        return _simplify_sum([simplify(t) for t in expr.terms])
    if isinstance(expr, Prod):
        return _simplify_prod([simplify(f) for f in expr.factors])
    if isinstance(expr, Neg):
        return _negate(simplify(expr.child))
    if isinstance(expr, Quot):
        return _simplify_quot(simplify(expr.num), simplify(expr.den))
    if isinstance(expr, Pow):
        return _simplify_pow(simplify(expr.base), simplify(expr.exponent))
    return _simplify_call(expr.fn, simplify(expr.arg))


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
    order = []
    groups = {}
    for t in flat:
        coeff, base = _coeff_split(t)
        if base is None:
            const_acc += coeff
            continue
        k = base.key()
        if k in groups:
            groups[k][0] += coeff
        else:
            groups[k] = [coeff, base]
            order.append(k)
    out = []
    for k in order:
        coeff, base = groups[k]
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

    def absorb(fs):
        nonlocal coeff
        for f in fs:
            if isinstance(f, Prod):
                absorb(f.factors)
            elif isinstance(f, Neg):
                coeff = -coeff
                absorb((f.child,))
            elif isinstance(f, Const):
                coeff *= f.value
            else:
                rest.append(f)

    absorb(factors)
    if coeff == 0.0:
        return Const(0.0)
    if not rest:
        return _const(coeff)
    core = rest[0] if len(rest) == 1 else Prod(tuple(rest))
    if coeff == 1.0:
        return core
    if coeff == -1.0:
        return Neg(core)
    factors_out = rest if len(rest) > 1 else [core]
    core = Prod((Const(abs(coeff)),) + tuple(factors_out))
    return Neg(core) if coeff < 0.0 else core


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
                core = _with_coeff(sign * folded, base)
                if core is not None:
                    return core
    core = Quot(num, den)
    return Neg(core) if sign < 0 else core


def _simplify_pow(base, exponent):
    ev = _signed_const(exponent)
    if ev == 0.0:
        return Const(1.0)
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
            except OverflowError:
                folded = None
            if folded is not None and math.isfinite(folded):
                return _const(folded)
    return Call(fn, arg)


# ------------------------------------------------------------------ printing


def _prec(e):
    if isinstance(e, Sum):
        return _P_SUM
    if isinstance(e, Neg):
        return _P_UNARY
    if isinstance(e, (Prod, Quot)):
        return _P_TERM
    if isinstance(e, Pow):
        return _P_POWER
    return _P_ATOM


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
    # Pow: base needs atom level, exponent reparses at unary level
    text = _render(e.base, _P_ATOM) + "^" + _render(e.exponent, _P_UNARY)
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
    """Split source into tokens, tracking line and column; '#' starts a comment."""
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


def _leaf_text(e, index_of):
    if isinstance(e, Const):
        return repr(e.value)  # inf and nan are names in _COMPILE_ENV
    try:
        return f"A[{index_of[e.name]}]"
    except KeyError:
        raise UnboundSymbolError(e.name) from None


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


def _emit_cse(seq, index_of):
    """Assignment lines and one result text per root, sharing common subtrees.

    Nodes are hash-consed on their right-hand side text, which is the node
    kind over the local names of its children, so structurally equal
    subtrees land on the same local whether or not they share instances.
    The walk is iterative and visits each node instance once.
    """
    lines = []
    local_of = {}  # right-hand side -> local name
    text_of = {}   # id(node) -> leaf literal or local name
    for root in seq:
        stack = [(root, False)]
        while stack:
            e, expanded = stack.pop()
            if id(e) in text_of:
                continue
            if isinstance(e, (Const, Sym)):
                text_of[id(e)] = _leaf_text(e, index_of)
                continue
            kids = _children(e)
            if not expanded:
                stack.append((e, True))
                stack.extend((k, False) for k in reversed(kids))
                continue
            if len(kids) == 1 and isinstance(e, (Sum, Prod)):
                text_of[id(e)] = text_of[id(kids[0])]
                continue
            rhs = _node_text(e, [text_of[id(k)] for k in kids])
            name = local_of.get(rhs)
            if name is None:
                name = local_of[rhs] = f"t{len(lines)}"
                lines.append(f"    {name} = {rhs}\n")
            text_of[id(e)] = name
    return lines, [text_of[id(root)] for root in seq]


_COMPILE_ENV = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "pow": math.pow,
    "inf": math.inf,
    "nan": math.nan,
    "__builtins__": {},
}


def compile_evaluator(exprs, names):
    """Compile one expression or a sequence into a fast callable.

    The callable takes a single indexable of values ordered like names and
    returns a float (single expression) or a tuple of floats.  Math-domain
    violations surface as DomainError, like the interpreted evaluator.

    Code generation eliminates common subexpressions across the whole
    sequence: every distinct non-leaf subtree is computed once, into its own
    local on its own line, and each result reads the locals it needs.  Each
    node keeps its operands in tree order, so every result is bit-identical
    to evaluating its tree alone.  The generated source is kept on the
    callable as ``source``.
    """
    single = isinstance(exprs, Expr)
    seq = [exprs] if single else list(exprs)
    index_of = {name: i for i, name in enumerate(names)}
    lines, results = _emit_cse(seq, index_of)
    if single:
        ret = results[0]
    else:
        ret = "(" + ", ".join(results) + ("," if len(results) == 1 else "") + ")"
    source = "def _fn(A):\n" + "".join(lines) + f"    return {ret}\n"
    namespace = dict(_COMPILE_ENV)
    exec(compile(source, "<clairaut-expr>", "exec"), namespace)  # noqa: S102 (codegen of our own AST)
    raw = namespace["_fn"]

    def call(values):
        # plain floats keep zero-division and domain faults as exceptions;
        # numpy scalars would degrade them to silent nan results
        try:
            return raw(list(map(float, values)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(str(exc) or "math domain error") from exc

    call.source = source
    return call
