"""Check that the package's numpy-free part runs, with or without numpy.

Importing clairaut and its CLI loads no numpy; the expression layer parses,
differentiates and compiles a Lagrangian; ``clairaut --help`` exits 0; the
package's own generator (numerics.Rng) draws the pinned doubles that
numpy.random.default_rng(42) draws; and the 13 reference commands of
scripts/output_digests.py that need no numpy (``analyze`` on every bundled
model, the README ``transform`` and both ``pde`` runs) give the pinned
digests, the ones output_digests.py prints, and still load no numpy.  It
needs only the standard library, so it runs on interpreters that have no
numpy:

    PYTHONPATH=src python3 scripts/check_numpy_free.py

Exits 0 and prints one line per check when all hold; raises otherwise.
"""

import contextlib
import io
import sys
import tempfile

# numpy.random.default_rng(42).uniform(-1.0, 1.0, size=4), as float.hex
PINNED_UNIFORM_42 = ("0x1.1887ef345b648p-1", "-0x1.f4b533cb0dc10p-4",
                     "0x1.6f344b09bb684p-1", "0x1.9435b070b0044p-2")

# output_digests.digest of each command output_digests.commands lists that
# runs without numpy, as every Python from 3.10 to 3.13 prints it
NUMPY_FREE = ("analyze", "transform", "pde")
PINNED_DIGESTS = {
    "analyze oscillator":
        "b6d8ad87e4f68bb170c5ea9eacbd82753cc2d2e1945175980104400ff80562a0",
    "analyze exponential":
        "08515306e799cf72504609e1e6b9cf7afca1b66012822d629ff45f2581779b4f",
    "analyze mixed":
        "56a67a901bac6b279d1f5509abb4300f7917c4a9e4ac63d4a0a0fea1e59f7e21",
    "analyze cawley":
        "21a9a1706f652ace234a3adddb2b853abb8008e48845ed97e355c5c200e99f26",
    "analyze particle":
        "54ad2f06b7756a35072dfbe99d37f48ae08ad5edc3b19645028a33ce9ea8c0f3",
    "analyze christ_lee":
        "53d20ffd00f75e622090790d3c924ff1ed3345f02c4a0608cf3d6d6c39b15fc1",
    "analyze synthetic_gaugeless":
        "9b749d7551a78d96553aa82d183d69212252bbfee167c41014535f99db8189ef",
    "analyze synthetic_coupled":
        "d49101000727c595a048ce9b099d2c4930a312385041b723f664e17ea0fca1f8",
    "analyze synthetic_bianchi":
        "ae1b8d78d0c70d2165d7a356815be0e155742edf5263e6045dd7e52f947fad6c",
    "analyze synthetic_gauge":
        "c9bd7836ee2ee141caaf438194a19be1ef1e12a7bc587808c56af4be6f6bbea1",
    "transform particle --at x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4":
        "8cee217f57e8d7172ddfd47810d032d308e2178e9acfb273bc62352f975c9b1a",
    "pde --f z1^2+z2^2+z3 --mode mixed --s 2 --c c3=1 --at x1=2,x2=2,x3=3":
        "b7a357278253bfe7cec539b9006c4968d48346cf7609977a2c8746b18bfb1add",
    "pde --f -(5*sqrt(1 - z1^2)) --mode envelope --at x1=3":
        "8802e7ca8bd4496c215fcca360c268dd96554bd259254f3e32ea04f1915ffdd0",
}

MODEL = "coord x, y; param m = 2; lagrangian = m*d(x)^2/2 + x*d(y) - x^3;"
# the core (L, L_v, L_q, W, L_vq) at x = 0.5, y = 0.25, d(x) = 1.5, d(y) = -2,
# exact in binary floating point
CORE_AT = ([0.5, 0.25, 1.5, -2.0],
           (1.125, 3.0, 0.5, -2.75, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))


def numpy_free_digests():
    """{command: output_digests.digest} over the reference commands of
    output_digests.commands that run without numpy."""
    import output_digests  # next to this script
    with tempfile.TemporaryDirectory() as workdir:
        return {" ".join(argv): output_digests.digest(argv)
                for argv in output_digests.commands(workdir) if argv[0] in NUMPY_FREE}


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

    got = numpy_free_digests()
    assert got.keys() == PINNED_DIGESTS.keys(), f"commands {sorted(got)}"
    for label, digest in got.items():
        assert digest == PINNED_DIGESTS[label], f"{label}: digest {digest}"
    print(f"{len(got)} numpy-free reference commands: the pinned digests")

    no_numpy("the checks")
    print(f"all checks hold on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
