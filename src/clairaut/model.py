"""Model files: coordinates, parameters, a Lagrangian, and the velocity split.

A model file is a sequence of statements:

    coord x, y;            # declare coordinates (order matters)
    param m = 1;           # numeric parameter
    degenerate { y };      # optional: pin the degenerate set explicitly
    lagrangian = m*y*d(x)^2/2 + x*d(y);

The velocity Hessian (second partials of the Lagrangian in the velocities)
decides which velocities can be resolved for momenta.  Its rank is probed
numerically at random admissible points; the pivot order of the first probe
selects the regular block unless the file pins one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import expressions as ex
from .errors import ExprSyntaxError, ModelError, RankVariationError
from .expressions import differentiate, evaluate, free_symbols, simplify
from .numerics import rank_and_pivots

DEFAULT_RANK_TOL = 1e-9
DEFAULT_PROBE_COUNT = 17
DEFAULT_PROBE_SEED = 42
PROBE_EXCLUSION = 0.1


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
    ranks: list = field(default_factory=list)  # (probe_index, rank, leading_minor_ok)


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
    """Symmetric matrix of second velocity partials; mirrored entries share instances."""
    n = model.n
    vnames = model.velocity_names
    rows = [[None] * n for _ in range(n)]
    firsts = [differentiate(model.lagrangian, vnames[i]) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = differentiate(firsts[i], vnames[j])
            rows[i][j] = entry
            rows[j][i] = entry
    return rows


def _domain_guards(expr):
    """Subexpressions that must stay away from zero (denominators) or negative
    values (log and sqrt arguments) for probes to be admissible."""
    away_from_zero = []
    nonnegative = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, ex.Quot):
            away_from_zero.append(e.den)
            stack.extend((e.num, e.den))
        elif isinstance(e, ex.Call):
            if e.fn in ("log", "sqrt"):
                nonnegative.append(e.arg)
            stack.append(e.arg)
        elif isinstance(e, ex.Sum):
            stack.extend(e.terms)
        elif isinstance(e, ex.Prod):
            stack.extend(e.factors)
        elif isinstance(e, ex.Pow):
            stack.extend((e.base, e.exponent))
        elif isinstance(e, ex.Neg):
            stack.append(e.child)
    return away_from_zero, nonnegative


def default_probes(model, count=DEFAULT_PROBE_COUNT, seed=DEFAULT_PROBE_SEED,
                   exclusion=PROBE_EXCLUSION):
    """Random coordinate/velocity bindings in [-1, 1], rejecting draws that sit
    within the exclusion margin of a domain boundary of the Lagrangian."""
    rng = np.random.default_rng(seed)
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
        ok = True
        try:
            for g in away:
                if abs(evaluate(g, bindings)) < exclusion:
                    ok = False
                    break
            if ok:
                for g in nonneg:
                    if evaluate(g, bindings) < exclusion:
                        ok = False
                        break
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


def _hessian_at(w_exprs, bindings):
    n = len(w_exprs)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = evaluate(w_exprs[i][j], bindings)
    return out


def split_variables(model, probes=None, tol=DEFAULT_RANK_TOL):
    """Choose regular and degenerate coordinate sets from Hessian probes.

    The pivot order at the first probe selects which velocities form the
    regular block; the sets themselves are reported in declaration order.
    A pinned degenerate declaration skips the selection but is still checked
    for rank and block invertibility at every probe.
    """
    if probes is None:
        probes = default_probes(model)
    w_exprs = hessian_matrix(model)
    numeric = [_hessian_at(w_exprs, b) for b in probes]
    ranks = []
    first_cols = None
    for w in numeric:
        rank, cols = rank_and_pivots(w, tol)
        ranks.append(rank)
        if first_cols is None:
            first_cols = cols
    if len(set(ranks)) > 1:
        raise RankVariationError(list(enumerate(ranks)))
    r = ranks[0]
    if model.pinned_degenerate is not None:
        degenerate = tuple(c for c in model.coords if c in model.pinned_degenerate)
        regular = tuple(c for c in model.coords if c not in model.pinned_degenerate)
        if len(regular) != r:
            raise ModelError(
                f"pinned degenerate set implies rank {len(regular)} but probes give rank {r}"
            )
    else:
        chosen = sorted(first_cols[:r])
        regular = tuple(model.coords[i] for i in chosen)
        degenerate = tuple(c for i, c in enumerate(model.coords) if i not in chosen)
    reg_idx = [model.coords.index(c) for c in regular]
    for k, w in enumerate(numeric):
        block = w[np.ix_(reg_idx, reg_idx)]
        block_rank, _ = rank_and_pivots(block, tol)
        if block_rank != r:
            raise ModelError(
                f"regular velocity block singular at probe {k} "
                f"(rank {block_rank}, expected {r})"
            )
    deg_idx = [model.coords.index(c) for c in degenerate]
    return VariableSplit(r=r, regular=regular, degenerate=degenerate,
                         order=tuple(reg_idx + deg_idx))


def check_rank_constancy(model, split, probes=None, tol=DEFAULT_RANK_TOL):
    """Probe report for rank and regular-block invertibility; never raises."""
    if probes is None:
        probes = default_probes(model)
    w_exprs = hessian_matrix(model)
    reg_idx = [model.coords.index(c) for c in split.regular]
    report = RankReport(passed=True, expected_rank=split.r)
    for k, bindings in enumerate(probes):
        w = _hessian_at(w_exprs, bindings)
        rank, _ = rank_and_pivots(w, tol)
        block_rank, _ = rank_and_pivots(w[np.ix_(reg_idx, reg_idx)], tol) if reg_idx else (0, [])
        leading_ok = block_rank == split.r
        if rank != split.r or not leading_ok:
            report.passed = False
        report.ranks.append((k, rank, leading_ok))
    return report
