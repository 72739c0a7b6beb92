"""Model files: coordinates, parameters, a Lagrangian, and the velocity split.

A model file is a sequence of statements:

    coord x, y;            # declare coordinates (order matters)
    param m = 1;           # numeric parameter
    degenerate { y };      # optional: pin the degenerate set explicitly
    lagrangian = m*y*d(x)^2/2 + x*d(y);

Each model derives its Lagrangian once, into ``model.core``: L, L_v, L_q,
the velocity Hessian W = L_vv and L_vq, compiled into one evaluator that the
split, the rank report, the transform, the Fenchel oracle and the
Euler-Lagrange residual all read; one derivative memo per symbol serves the
whole derivation.  The third partials that verify's exact identities need
(DerivativeCore.third) are derived and compiled only when first read.  The
rank of W, probed numerically at random admissible points
(numerics.probe_ranks), decides which velocities can be resolved for
momenta; the pivot order of the first probe selects the regular block
unless the file pins one.
"""

from dataclasses import dataclass
from functools import cached_property

from . import expressions as ex
from .errors import ExprSyntaxError, ModelError, RankVariationError, UnboundSymbolError
from .expressions import compile_evaluator, evaluate, free_symbols, simplify, substitute
from .numerics import Rng, probe_ranks, third_layout

DEFAULT_RANK_TOL = 1e-9
DEFAULT_PROBE_COUNT = 17
DEFAULT_PROBE_SEED = 42
PROBE_EXCLUSION = 0.1
CORE_BLOCKS = ("L", "L_v", "L_q", "W", "L_vq")


def velocity_name(coord):
    return f"d({coord})"


def momentum_name(coord):
    return f"p_{coord}"


@dataclass(frozen=True)
class LagrangianModel:
    coords: tuple
    params: dict
    lagrangian: ex.Expr
    pinned_degenerate: tuple = None
    name: str = "model"

    @property
    def n(self):
        return len(self.coords)

    @property
    def velocity_names(self):
        return tuple(velocity_name(c) for c in self.coords)

    def base_bindings(self):
        """Parameter values, ready to extend with coordinates and velocities."""
        return dict(self.params)

    @cached_property
    def core(self):
        """The DerivativeCore, derived and compiled on first use.  It keeps the
        parameter values of that moment: change them with dataclasses.replace,
        which makes a new model with its own core."""
        return DerivativeCore(self)

    @cached_property
    def _probe_draws(self):
        """default_probes' admissible draws, by (count, seed)."""
        return {}


class DerivativeCore:
    """L, L_v, L_q, the velocity Hessian W and L_vq after parameter
    substitution, compiled into one CSE evaluator fn over arg_names
    (coordinates, then velocities).  fn returns the flat tuple (L, L_v[n],
    L_q[n], W[n*n], L_vq[n*n]), matrices row-major; CORE_BLOCKS names its
    parts and slices locates each.  W is mirrored: w_rows[j][i] is the
    instance w_rows[i][j].
    """

    def __init__(self, model):
        n, coords, vnames = model.n, model.coords, model.velocity_names
        lag = simplify(substitute(model.lagrangian, model.params))
        self.arg_names = list(coords) + list(vnames)
        d = {x: ex._Derivatives(x) for x in self.arg_names}  # one memo per symbol
        lv = [d[v](lag) for v in vnames]
        lq = [d[c](lag) for c in coords]
        # W is mirrored: an entry below the diagonal is its upper twin, a memo hit
        w = self.w_rows = [[d[vnames[max(i, j)]](lv[min(i, j)]) for j in range(n)]
                           for i in range(n)]
        lvq = [d[c](e) for e in lv for c in coords]  # row-major
        blocks = ([lag], lv, lq, [e for row in w for e in row], lvq)
        self.exprs = dict(zip(CORE_BLOCKS, blocks))
        self.slices, start = {}, 0
        for name, exprs in self.exprs.items():
            self.slices[name] = slice(start, start := start + len(exprs))
        self.fn = compile_evaluator([e for exprs in blocks for e in exprs], self.arg_names)

    @cached_property
    def third(self):
        """(fn, zeros): the compiled evaluator of the third partials that the
        second-order jet (numerics.jet_kernel) reads, and the indices of its
        entries that are exactly 0, derived on first read: verify's exact
        identities read it, and simulate, analyze, transform and pde never do."""
        exprs = _third_partials(self)
        return compile_evaluator(exprs, self.arg_names), _zeros(exprs)


def _zeros(exprs):
    """The indices of the entries of exprs that are the constant 0."""
    return frozenset(k for k, e in enumerate(exprs) if isinstance(e, ex.Const) and e.value == 0.0)


def _third_partials(core):
    """L_qq's upper triangle and each third partial of L with a velocity
    among its arguments, in numerics.third_layout's order over the core's
    arguments: the triple (x, y, z) differentiates the core's d2L/dv^z
    d(argument y), an entry of W or L_vq, by argument x."""
    names, lq, lvq = core.arg_names, core.exprs["L_q"], core.exprs["L_vq"]
    n = len(names) // 2
    d = {x: ex._Derivatives(x) for x in names}  # one memo per symbol
    pairs, triples = third_layout(n)
    return ([d[names[l]](lq[j]) for j, l in pairs]
            + [d[names[x]](core.w_rows[z - n][y - n] if y >= n else lvq[(z - n) * n + y])
               for x, y, z in triples])


@dataclass(frozen=True)
class VariableSplit:
    """Regular and degenerate coordinate sets, both in original declaration order.

    order lists original coordinate indices rearranged regular-first;
    permutation maps an original index to its rearranged position.  Applying
    permutation after order (or the other way round) restores the identity.
    """

    r: int
    regular: tuple
    degenerate: tuple
    order: tuple

    @property
    def permutation(self):
        inverse = [0] * len(self.order)
        for new_pos, orig in enumerate(self.order):
            inverse[orig] = new_pos
        return tuple(inverse)


@dataclass
class RankReport:
    """Outcome of probing Hessian rank constancy; plain data, no exception."""

    passed: bool
    expected_rank: int
    ranks: list  # (probe_index, rank, leading_minor_ok)


# ------------------------------------------------------------------- loading


def parse_model(text, name="model"):
    """Parse model source; see module docstring for the statement grammar."""
    cur = ex._Cursor(ex.tokenize(text))
    coords = []
    params = {}
    pinned = None
    lagrangian = None
    while cur.peek().kind != "end":
        tok = cur.expect("ident", ("coord", "param", "degenerate", "lagrangian"))
        if tok.text == "coord":
            coords.append(cur.expect("ident", ("coordinate name",)).text)
            while cur.peek().kind == ",":
                cur.advance()
                coords.append(cur.expect("ident", ("coordinate name",)).text)
            cur.expect(";", ("';'",))
        elif tok.text == "param":
            pname = cur.expect("ident", ("parameter name",)).text
            cur.expect("=", ("'='",))
            sign = 1.0
            if cur.peek().kind == "-":
                cur.advance()
                sign = -1.0
            number = cur.expect("number", ("number",))
            cur.expect(";", ("';'",))
            if pname in params:
                raise ModelError(f"duplicate parameter declaration: {pname}")
            params[pname] = sign * float(number.text)
        elif tok.text == "degenerate":
            cur.expect("{", ("'{'",))
            names = [cur.expect("ident", ("coordinate name",)).text]
            while cur.peek().kind == ",":
                cur.advance()
                names.append(cur.expect("ident", ("coordinate name",)).text)
            cur.expect("}", ("'}'",))
            cur.expect(";", ("';'",))
            if pinned is not None:
                raise ModelError("duplicate degenerate declaration")
            pinned = tuple(names)
        elif tok.text == "lagrangian":
            cur.expect("=", ("'='",))
            if lagrangian is not None:
                raise ModelError("more than one lagrangian statement")
            lagrangian = ex._parse_sum(cur)
            cur.expect(";", ("';'",))
        else:
            raise ExprSyntaxError(
                f"unknown statement {tok.text!r}", tok.line, tok.column,
                ("coord", "param", "degenerate", "lagrangian"),
            )
    return _validate(coords, params, pinned, lagrangian, name)


def _validate(coords, params, pinned, lagrangian, name):
    if not coords:
        raise ModelError("model declares no coordinates")
    seen = set()
    for c in coords:
        if c in seen:
            raise ModelError(f"duplicate coordinate declaration: {c}")
        seen.add(c)
    clash = seen & set(params)
    if clash:
        raise ModelError(f"name used as both coordinate and parameter: {sorted(clash)[0]}")
    if lagrangian is None:
        raise ModelError("missing lagrangian statement")
    if pinned is not None:
        for c in pinned:
            if c not in seen:
                raise ModelError(f"degenerate declaration names unknown coordinate: {c}")
        if len(set(pinned)) != len(pinned):
            raise ModelError("duplicate name inside degenerate declaration")
    allowed = seen | set(params) | {velocity_name(c) for c in coords}
    for sym in sorted(free_symbols(lagrangian)):
        if sym in allowed:
            continue
        if sym.startswith("d(") and sym.endswith(")"):
            raise ModelError(f"velocity of undeclared coordinate: {sym[2:-1]}")
        raise ModelError(f"undeclared symbol in lagrangian: {sym}")
    return LagrangianModel(
        coords=tuple(coords),
        params=dict(params),
        lagrangian=simplify(lagrangian),
        pinned_degenerate=pinned,
        name=name,
    )


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_model(text, name=stem)


# ------------------------------------------------------------------- hessian


def hessian_matrix(model):
    """Rows of the core's velocity Hessian, parameters substituted; mirrored
    entries share instances."""
    return [list(row) for row in model.core.w_rows]


def _domain_guards(expr):
    """Subexpressions that must stay away from zero (denominators) or negative
    values (log and sqrt arguments, and the base of a power whose exponent is
    not an integer constant) for probes to be admissible."""
    away_from_zero = []
    nonnegative = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, ex.Quot):
            away_from_zero.append(e.den)
        elif isinstance(e, ex.Call) and e.fn in ("log", "sqrt"):
            nonnegative.append(e.arg)
        elif isinstance(e, ex.Pow) and not (isinstance(e.exponent, ex.Const)
                                            and e.exponent.value.is_integer()):
            nonnegative.append(e.base)
        stack.extend(ex._children(e))
    return away_from_zero, nonnegative


def default_probes(model, count=DEFAULT_PROBE_COUNT, seed=DEFAULT_PROBE_SEED):
    """Random coordinate/velocity bindings in [-1, 1], rejecting draws that sit
    within PROBE_EXCLUSION of a domain boundary of the Lagrangian.

    seed is an int, None (fresh entropy) or a generator with numpy's
    uniform(lo, hi, size), used as it is.  Each model draws a given (count,
    integer seed) once; every call gets its own copies of the bindings."""
    if not isinstance(seed, int):  # None or a generator: draw afresh each call
        return _draw_probes(model, count, seed)
    key = (count, seed)
    probes = model._probe_draws.get(key)
    if probes is None:
        probes = model._probe_draws[key] = _draw_probes(model, count, seed)
    return [dict(bindings) for bindings in probes]


def _draw_probes(model, count, seed):
    rng = seed if hasattr(seed, "uniform") else Rng(seed)
    names = list(model.coords) + list(model.velocity_names)
    away, nonneg = _domain_guards(model.lagrangian)
    probes = []
    attempts = 0
    limit = max(400 * count, 4000)
    while len(probes) < count and attempts < limit:
        attempts += 1
        draw = rng.uniform(-1.0, 1.0, size=len(names))
        bindings = model.base_bindings()
        bindings.update(zip(names, draw))
        try:
            ok = (all(not abs(evaluate(g, bindings)) < PROBE_EXCLUSION for g in away)
                  and all(not evaluate(g, bindings) < PROBE_EXCLUSION for g in nonneg))
        except ex.DomainError:
            ok = False
        if ok:
            probes.append(bindings)
    if len(probes) < count:
        raise ModelError(
            f"could not draw {count} admissible probes for {model.name} "
            f"({len(probes)} found in {attempts} attempts)"
        )
    return probes


def _probe_ranks(model, probes, regular=None, matrix="velocity Hessian"):
    """numerics.probe_ranks over W at the probes (DEFAULT_RANK_TOL), its block
    the regular set: the one given, the pinned declaration's, or else W's
    pivot order at the first probe.  Returns the regular set in declaration
    order, then the rank of W and that of its regular block at each probe
    (None for both where W is not finite and matrix is None)."""
    coords, core = model.coords, model.core
    if regular is None and model.pinned_degenerate is not None:
        regular = tuple(c for c in coords if c not in model.pinned_degenerate)

    def hessian(bindings):
        try:
            args = [bindings[name] for name in core.arg_names]
        except KeyError as exc:
            raise UnboundSymbolError(exc.args[0]) from None
        return core.fn(args)[core.slices["W"]]

    block = None if regular is None else [coords.index(c) for c in regular]
    block, ranks, block_ranks = probe_ranks(map(hessian, probes), block, DEFAULT_RANK_TOL, matrix)
    return tuple(coords[i] for i in block), ranks, block_ranks


def split_variables(model, probes=None):
    """Choose regular and degenerate coordinate sets from Hessian probes
    (ranks to DEFAULT_RANK_TOL).

    The pivot order at the first probe selects which velocities form the
    regular block; the sets themselves are reported in declaration order.
    A pinned degenerate declaration skips the selection but is still checked
    for rank and block invertibility at every probe.
    """
    if probes is None:
        probes = default_probes(model)
    if not probes:
        raise ModelError("the velocity split needs at least one probe")
    regular, ranks, block_ranks = _probe_ranks(model, probes)
    if len(set(ranks)) > 1:
        raise RankVariationError(list(enumerate(ranks)))
    r = ranks[0]
    if len(regular) != r:
        raise ModelError(f"pinned degenerate set implies rank {len(regular)} "
                         f"but probes give rank {r}")
    for k, block_rank in enumerate(block_ranks):
        if block_rank != r:
            raise ModelError(f"regular velocity block singular at probe {k} "
                             f"(rank {block_rank}, expected {r})")
    coords = model.coords
    degenerate = tuple(c for c in coords if c not in regular)
    order = tuple(coords.index(c) for c in regular + degenerate)
    return VariableSplit(r=r, regular=regular, degenerate=degenerate, order=order)


def check_rank_constancy(model, split, probes=None):
    """Probe report (DEFAULT_RANK_TOL) for rank and regular-block invertibility;
    never raises: a probe whose W has a non-finite entry is a failing row
    of rank None."""
    if probes is None:
        probes = default_probes(model)
    _, ranks, block_ranks = _probe_ranks(model, probes, split.regular, None)
    rows = [(k, rank, block_rank == split.r)
            for k, (rank, block_rank) in enumerate(zip(ranks, block_ranks))]
    return RankReport(all(rank == split.r and ok for _, rank, ok in rows), split.r, rows)
