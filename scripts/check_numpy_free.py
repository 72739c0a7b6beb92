"""Check that the package's numpy-free part runs, with or without numpy.

Importing clairaut and its CLI loads no numpy; the expression layer parses,
differentiates and compiles a Lagrangian; ``clairaut --help`` exits 0; and
the package's own generator (numerics.Rng) draws the pinned doubles that
numpy.random.default_rng(42) draws.  It needs only the standard library, so
it runs on interpreters that have no numpy:

    PYTHONPATH=src python3 scripts/check_numpy_free.py

Exits 0 and prints one line per check when all hold; raises otherwise.
"""

import contextlib
import io
import sys

# numpy.random.default_rng(42).uniform(-1.0, 1.0, size=4), as float.hex
PINNED_UNIFORM_42 = ("0x1.1887ef345b648p-1", "-0x1.f4b533cb0dc10p-4",
                     "0x1.6f344b09bb684p-1", "0x1.9435b070b0044p-2")

MODEL = "coord x, y; param m = 2; lagrangian = m*d(x)^2/2 + x*d(y) - x^3;"
# the core (L, L_v, L_q, W, L_vq) at x = 0.5, y = 0.25, d(x) = 1.5, d(y) = -2,
# exact in binary floating point
CORE_AT = ([0.5, 0.25, 1.5, -2.0],
           (1.125, 3.0, 0.5, -2.75, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))


def main():
    import clairaut
    import clairaut.cli
    from clairaut.numerics import Rng

    def no_numpy(after):
        loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
        assert not loaded, f"{after} loaded {loaded[:3]}"

    no_numpy("import clairaut, clairaut.cli")
    print("import clairaut, clairaut.cli: no numpy")

    model = clairaut.parse_model(MODEL)
    args, want = CORE_AT
    got = tuple(model.core.fn(args))
    assert got == want, f"core values {got} != {want}"
    print("parse, differentiate, compile: core values exact")

    with contextlib.redirect_stdout(io.StringIO()):
        code = clairaut.cli.main(["--help"])
    assert code == 0, f"clairaut --help exited {code}"
    print("clairaut --help: exit 0")

    draws = tuple(x.hex() for x in Rng(42).uniform(-1.0, 1.0, size=4))
    assert draws == PINNED_UNIFORM_42, f"Rng(42) drew {draws}"
    print("Rng(42): the pinned draws of numpy.random.default_rng(42)")

    no_numpy("the checks")
    print(f"all checks hold on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
