"""sha256 digests of the reference outputs of the clairaut CLI.

Runs each reference command in-process through ``clairaut.cli.main`` from
this checkout's ``src/`` and prints one line ``<sha256>  <command>`` per
output.  A digest covers the command's stdout, stderr, exit code and, for
``simulate``, the CSV it writes.  Two checkouts that print the same lines
give the same bytes on every one of these outputs:

- the README particle ``simulate``;
- ``simulate`` on christ_lee and synthetic_gaugeless from the benchmark's
  starting points for seeds 1 and 2, and the synthetic_coupled run that
  exits 3 (the argument lists of perfbench's ``trajectory`` rounds);
- ``verify --seed 42`` and ``analyze`` on all ten bundled models;
- the README ``transform`` and ``pde``, and a ``pde`` envelope whose
  slopes resolve from a start inside f's domain.

That is 29 digests.

Usage (from the root of a checkout; compare two checkouts with diff):

    python3 scripts/output_digests.py > digests.txt
    diff scripts/output_digests.txt digests.txt

scripts/output_digests.txt holds the lines this checkout prints; CI diffs
against it, so a change that moves an output byte updates it in its diff.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # import the benchmark's inputs without writing there

from clairaut import cli  # noqa: E402
from clairaut.fixtures import BUNDLED  # noqa: E402
from workloads import Trajectory  # noqa: E402

CSV_FLAG = "--out"


def commands(workdir):
    """The reference argument lists, in a fixed order, without duplicates."""
    out = []
    for seed in (1, 2):
        for op in Trajectory(seed, workdir).round(0):
            if op.argv not in out:
                out.append(op.argv)
    for model in BUNDLED:
        out.append(["verify", model, "--seed", "42"])
    for model in BUNDLED:
        out.append(["analyze", model])
    out.append(["transform", "particle", "--at", "x0=0,x=0,y=0,z=0,p_x=3,p_y=0,p_z=4"])
    out.append(["pde", "--f", "z1^2+z2^2+z3", "--mode", "mixed", "--s", "2",
                "--c", "c3=1", "--at", "x1=2,x2=2,x3=3"])
    out.append(["pde", "--f", "-(5*sqrt(1 - z1^2))", "--mode", "envelope", "--at", "x1=3"])
    return out


def digest(argv):
    """sha256 over the exit code, stdout, stderr and the file --out names."""
    csv_path = argv[argv.index(CSV_FLAG) + 1] if CSV_FLAG in argv else None
    if csv_path is not None and os.path.exists(csv_path):
        os.remove(csv_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    written = b""
    if csv_path is not None and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            written = fh.read()
    h = hashlib.sha256()
    for part in (str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for argv in commands(workdir):
            label = " ".join(os.path.basename(a) if a.startswith(workdir) else a
                             for a in argv)
            print(f"{digest(argv)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
