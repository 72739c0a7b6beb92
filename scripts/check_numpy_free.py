"""Check that the package's numpy-free part runs, with or without numpy.

Importing clairaut and its CLI loads no numpy; the expression layer's
intern table keeps one live node per key and drops the key when its node
dies, from a callback that takes no lock (the table leans on the private
_weakref._remove_dead_weakref, so every supported Python is checked); the
expression layer parses, differentiates and compiles a Lagrangian;
``clairaut --help`` exits 0; the
package's own generator (numerics.Rng) draws the pinned doubles that
numpy.random.default_rng(42) draws; the fused RK4 stage
(numerics.fused_stage) and the second-order jet (numerics.jet_kernel, on
the third partials of model.DerivativeCore.third) give the pinned outputs
at the 17 phase probes of every bundled model; and the 13 reference commands of
scripts/output_digests.py that need no numpy (``analyze`` on every bundled
model, the README ``transform`` and both ``pde`` runs) give the digests that
scripts/output_digests.txt pins for them, and still load no numpy.  It
needs only the standard library, so it runs on interpreters that have no
numpy:

    PYTHONPATH=src python3 scripts/check_numpy_free.py

Exits 0 and prints one line per check when all hold; raises otherwise.
"""

import contextlib
import io
import os
import sys
import tempfile

# numpy.random.default_rng(42).uniform(-1.0, 1.0, size=4), as float.hex
PINNED_UNIFORM_42 = ("0x1.1887ef345b648p-1", "-0x1.f4b533cb0dc10p-4",
                     "0x1.6f344b09bb684p-1", "0x1.9435b070b0044p-2")

# stage_digest(): 170 stages (ten bundled models, 17 probes each)
PINNED_STAGE = (170, "a76652083d809d3c7a379fba17f09cdef5c86335ff62f74eca9b4401256d455b")

# jet_digest(): 170 jets (ten bundled models, 17 probes each)
PINNED_JET = (170, "83750fae8d65cf75849407fcd53da7adb46b87b341a81a2372058408231480e6")

# the reference commands output_digests.py runs without numpy
NUMPY_FREE = ("analyze", "transform", "pde")

MODEL = "coord x, y; param m = 2; lagrangian = m*d(x)^2/2 + x*d(y) - x^3;"
# the core (L, L_v, L_q, W, L_vq) at x = 0.5, y = 0.25, d(x) = 1.5, d(y) = -2,
# exact in binary floating point
CORE_AT = ([0.5, 0.25, 1.5, -2.0],
           (1.125, 3.0, 0.5, -2.75, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))


def pinned_digests():
    """{command: digest} of the lines of scripts/output_digests.txt whose
    command runs without numpy, as every Python from 3.10 to 3.13 prints it."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digests.txt")
    with open(path) as lines:
        pairs = [line.rstrip("\n").split("  ", 1) for line in lines]
    return {command: digest for digest, command in pairs if command.split()[0] in NUMPY_FREE}


def numpy_free_digests():
    """{command: output_digests.digest} over the reference commands of
    output_digests.commands that run without numpy."""
    import output_digests  # next to this script
    with tempfile.TemporaryDirectory() as workdir:
        return {" ".join(argv): output_digests.digest(argv)
                for argv in output_digests.commands(workdir) if argv[0] in NUMPY_FREE}


def check_intern():
    """One live node per key, its key gone from the table when it dies, and
    the death callback free of the table's lock (it runs while another
    thread holds it)."""
    import threading

    from clairaut import expressions as ex

    held = [ex.Sym("interned_once")]
    key, gone = (ex.Sym, "interned_once"), []
    assert ex.Sym("interned_once") is held[0] and ex._nodes[key]() is held[0], "two nodes"
    worker = threading.Thread(target=lambda: gone.append(held.clear() or key not in ex._nodes))
    with ex._nodes_lock:
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "the death callback blocked on the table's lock"
    assert gone == [True], "a dead node's key stayed in the table"


def stage_digest():
    """sha256 of the fused RK4 stage's flat outputs (float.hex) at tol inf,
    from the resolved velocities, at the phase probes of every bundled
    model under its default gauge, the given degenerate velocities 0.25."""
    import hashlib
    import math

    from clairaut import BUNDLED, ClairautTransform, load_bundled
    from clairaut.dynamics import gauge_input
    from clairaut.gauge import classify, phase_probes

    lines = []
    for name in BUNDLED:
        ct = ClairautTransform(load_bundled(name))
        solve, other = gauge_input(ct, classify(ct))._plan
        stage = ct._stage(solve, other)
        for pt in phase_probes(ct):
            out = stage(*pt._q, *pt._p, *pt._v, *[0.25] * len(other), *ct.resolve(pt)._v,
                        math.inf)
            lines.append(f"{name} {' '.join(x.hex() for x in out)}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def jet_digest():
    """sha256 of the second-order jet's flat outputs (float.hex; d2V, d2B,
    d2H, dF and dDH, as Resolution._flat reads them) at the phase probes of
    every bundled model."""
    import hashlib

    from clairaut import BUNDLED, ClairautTransform, load_bundled
    from clairaut.gauge import phase_probes

    lines = []
    for name in BUNDLED:
        ct = ClairautTransform(load_bundled(name))
        for pt in phase_probes(ct):
            res = ct.resolve(pt)
            out = [x for slot in ("d2V", "d2B", "d2H", "dF", "dDH") for x in res._flat(slot)]
            lines.append(f"{name} {' '.join(x.hex() for x in out)}")
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main():
    import clairaut
    import clairaut.cli
    from clairaut.numerics import Rng

    def no_numpy(after):
        loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
        assert not loaded, f"{after} loaded {loaded[:3]}"

    no_numpy("import clairaut, clairaut.cli")
    print("import clairaut, clairaut.cli: no numpy")

    check_intern()
    print("intern table: one node per key, dropped at its death without the lock")

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

    got = stage_digest()
    assert got == PINNED_STAGE, f"fused stage outputs: {got}"
    print(f"fused RK4 stage at {got[0]} probes of the bundled models: the pinned sha256")

    got = jet_digest()
    assert got == PINNED_JET, f"second-order jet outputs: {got}"
    print(f"second-order jet at {got[0]} probes of the bundled models: the pinned sha256")

    got, pinned = numpy_free_digests(), pinned_digests()
    assert got.keys() == pinned.keys(), f"commands {sorted(got)}"
    for label, digest in got.items():
        assert digest == pinned[label], f"{label}: digest {digest}"
    print(f"{len(got)} numpy-free reference commands: the pinned digests")

    no_numpy("the checks")
    print(f"all checks hold on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
