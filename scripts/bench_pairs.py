"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<label>.json.

Runs ``python3 perfbench/run.py --workload <w> --seed <s> --seconds <n>
--trace 0``, for each workload w of BENCHMARK.json and n its run_seconds,
from the root of two checkouts, a parent and this one (the change), once
each per seed for PAIRS seeds, and writes their result lines and a summary
per workload.  A run that exits non-zero or reports correct: false stops
the script.
The side that runs first alternates: the parent on odd seeds, the change
on even ones.  For each end-to-end metric of BENCHMARK.json the summary
gives the medians and the quartiles (numpy's linear 25th and 75th
percentiles) of both sides, and the number of pairs in which the change is
strictly better, in the direction BENCHMARK.json gives; an end-to-end
metric missing from a run stops the script.  Each workload also records the
operations that failed on each side, summed over its runs.

Usage (this checkout is the change; make the parent's copy with
``git worktree add ../parent HEAD~1`` or ``git archive``):

    python3 scripts/bench_pairs.py --parent ../parent --label pr39 \\
        --change-text "what the change does" --machine "2-core VM, Python 3.11"

writes BENCH_pr39.json in this checkout; --first-seed picks the first of
the PAIRS seeds (default 1).  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"
METHOD = ("pairs of parent and change runs on the same machine, alternating which side "
          "ran first (parent first on odd seeds); times are the benchmark's scaled times; "
          "quartiles are numpy's linear 25th and 75th percentiles")


def run_once(checkout, workload, seed, seconds):
    """The result line of one benchmark run in checkout, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} reported wrong results\n"
                         f"{done.stderr}")
    return result


def quartiles(values):
    """numpy.percentile(values, [25, 75]) with its default linear rule."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs, metrics):
    """Per metric (name, better) of metrics: both sides' medians and
    quartiles over pairs and the pairs where the change is strictly
    better.  A metric missing from a run stops the script."""
    out = {}
    for name, better in metrics:
        sides = {side: [metric(pair, side, name) for pair in pairs] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            "parent_median": statistics.median(sides["parent"]),
            "parent_quartiles": quartiles(sides["parent"]),
            "change_median": statistics.median(sides["change"]),
            "change_quartiles": quartiles(sides["change"]),
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
    return out


def metric(pair, side, name):
    """The value of metric name in the run of side in pair."""
    try:
        return pair[side]["metrics"][name]["value"]
    except KeyError:
        raise SystemExit(f"seed {pair['seed']}: the {side} run has no {name}") from None


def end_to_end(config):
    """(name, better) of each end-to-end metric of a BENCHMARK.json document."""
    return [(m["name"], m["better"]) for m in config["end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent's checkout")
    parser.add_argument("--label", required=True)
    parser.add_argument("--change-text", required=True, help="what the change does")
    parser.add_argument("--machine", required=True, help="the machine the runs share")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    seconds = config["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": HERE}
    workloads = {}
    for workload in (w["name"] for w in config["workloads"]):
        pairs = []
        for seed in range(args.first_seed, args.first_seed + PAIRS):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0], "parent": None, "change": None}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
            pairs.append(pair)
            work = {side: pair[side]["metrics"]["work_per_s"]["value"] for side in order}
            print(f"{workload} seed {seed}: parent {work['parent']:.4g}, "
                  f"change {work['change']:.4g} work/s", file=sys.stderr)
        workloads[workload] = {
            "summary": summarize(pairs, end_to_end(config)),
            "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
            "pairs": pairs}
    doc = {"label": args.label, "change": args.change_text,
           "command": COMMAND.format(seconds=seconds), "machine": args.machine,
           "method": METHOD, "workloads": workloads}
    with open(os.path.join(HERE, f"BENCH_{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
