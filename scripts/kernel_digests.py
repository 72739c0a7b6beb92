"""sha256 digests of the generated kernel sources of clairaut.numerics.

Builds each kernel from this checkout's ``src/`` and prints one line
``<sha256>  <model> <kernel> <plan>`` per kernel source.  Two checkouts
that print the same lines emit the same code, byte for byte, on:

- the ten bundled models under their default gauge plan;
- ``overflowing``, whose W_rr = x*x overflows (TestStageFolding.OVERFLOWING
  in tests/test_kernel.py);
- ``zero_pivot``, d(x)^2/2 + x*d(b), whose F is exactly 0, with both
  degenerate slots solved: the sector solve meets a literal zero pivot;
- ``level3``, the model of verify's third tower level in
  tests/test_verify.py;

and, for each model whose F vanishes identically (limit: mixed, cawley,
particle, christ_lee and level3), the plan with every degenerate velocity
prescribed as 1.0 as well.

Per plan it prints ``fused_stage`` and ``rk4_kernel``; per model
``block_kernel``, ``resolve_kernel``, ``solver`` (Newton's r x r solve)
and ``jet_kernel``, with plan ``-``, and the model's derived cores, also
with plan ``-``: ``core``, the evaluator of L and its first and second
partials (model.core.fn), and ``third``, that of the third partials
(model.core.third).  So 114 sources in all.  A plan reads ``solve=<slots>;
other=<slots>;zero=<slots>``.  Needs no numpy.

Usage (from the root of a checkout; compare two checkouts with diff):

    python3 scripts/kernel_digests.py > kernels.txt
    diff scripts/kernel_digests.txt kernels.txt

scripts/kernel_digests.txt holds the lines this checkout prints; CI diffs
against it, so a change to an emitter names the kernels it moves.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from clairaut import ClairautTransform, load_bundled, numerics, parse_model  # noqa: E402
from clairaut.dynamics import gauge_input  # noqa: E402
from clairaut.fixtures import BUNDLED  # noqa: E402
from clairaut.gauge import classify  # noqa: E402

MODELS = {
    "overflowing": "coord x, a, b; lagrangian = x*x*d(x)^2/2 + a*x*d(b) - x;",
    "zero_pivot": "coord x, a, b; lagrangian = d(x)^2/2 + x*d(b);",
    "level3": "coord x, y, z; lagrangian = d(x)*d(y) + z*y^2/2 + x*d(z);",
}


def plans(name, ct):
    """The (solve, other, zero) plans of a model: the default gauge plan,
    and where F vanishes identically every slot prescribed as well."""
    if name == "zero_pivot":
        return [(tuple(range(ct.n - ct.r)), (), ())]
    cls = classify(ct)
    specs = [None]
    if cls.kind == "limit":
        specs.append({c: 1.0 for c in ct.split.degenerate})
    out = []
    for spec in specs:
        gauge = gauge_input(ct, cls, spec)
        solve, other = gauge._plan
        out.append((solve, other, tuple(a for a in other if gauge.modes[a] == "zero")))
    return out


def kernels(name, ct):
    """(kernel, plan, source) for each kernel a model's runs build."""
    for solve, other, zeros in plans(name, ct):
        plan = ";".join(f"{key}={','.join(map(str, slots))}"
                        for key, slots in (("solve", solve), ("other", other), ("zero", zeros)))
        yield "fused_stage", plan, ct._stage(solve, other).source
        yield "rk4_kernel", plan, numerics.rk4_kernel(ct.n, ct._reg, solve, other, zeros).source
    yield "block_kernel", "-", numerics.block_kernel(ct.n, ct._reg).source
    yield "resolve_kernel", "-", numerics.resolve_kernel(ct.n, ct._reg).source
    yield "solver", "-", numerics.solver(ct.r).source
    yield "jet_kernel", "-", ct._jet_kernel.source
    yield "core", "-", ct.model.core.fn.source
    yield "third", "-", ct.model.core.third[0].source


def main():
    models = [(name, load_bundled(name)) for name in BUNDLED]
    models += [(name, parse_model(text, name=name)) for name, text in MODELS.items()]
    for name, model in models:
        ct = ClairautTransform(model)
        for kernel, plan, source in kernels(name, ct):
            print(f"{hashlib.sha256(source.encode()).hexdigest()}  {name} {kernel} {plan}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
