"""sha256 digests of the verify reports of the bundled models over many seeds.

Runs ``clairaut.verify.run_verification`` and ``render_report`` from this
checkout's ``src/`` on each of the ten bundled models at probe seed 42 (the
CLI's default) and at seeds 100 to 129, and prints one line
``<sha256>  <model> <seed>`` per report: 310 lines.  Two checkouts that print
the same lines render every one of these reports to the same bytes.
scripts/output_digests.py pins ``verify --seed 42`` alone, so a change that
moves a report's bits at another seed shows here only.

Usage (from the root of a checkout; compare two checkouts with diff):

    python3 scripts/verify_digests.py > verify.txt
    diff scripts/verify_digests.txt verify.txt

scripts/verify_digests.txt holds the lines this checkout prints; CI diffs
against it, so a change that moves a report's byte names its model and seed.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from clairaut import load_bundled  # noqa: E402
from clairaut.fixtures import BUNDLED  # noqa: E402
from clairaut.verify import render_report, run_verification  # noqa: E402

SEEDS = (42, *range(100, 130))


def main():
    for name in BUNDLED:
        model = load_bundled(name)
        for seed in SEEDS:
            text = render_report(run_verification(model, seed=seed))
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name} {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
