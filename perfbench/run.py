"""Closed-loop benchmark of the clairaut engine, run from a source checkout.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

One process runs one workload: it first times ``import clairaut`` in fresh
interpreters (``setup_s``), then imports the package from ``src/`` and runs
whole rounds of the workload's operations, one after another, until
``--seconds`` have passed and at least two rounds are done.  Every output is
checked, outside the timed sections, against the oracles in
``workloads.py``.  Reported times are scaled to a fixed machine speed by
``SpeedProbe``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the first half of the budget
runs untraced rounds, then one more round runs under the span tracer of
``tracer.py``; the object then holds the per-layer metrics of that round,
and the spans are written to ``perfbench/out/trace-<workload>.bin``.
"""

import argparse
import collections
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_RUNS = 7
MIN_ROUNDS = 2
# About the reference kernel's time, between operations, on the machine the
# README figures come from when it is quiet; it sets only the scale of the
# scaled times (see SpeedProbe).
REF_NOMINAL_S = 2.0e-3
PROBE_INTERVAL_S = 0.04     # CPU seconds between samples inside an operation
RECENT = 7                  # kernel samples that set the speed of an operation
# Round index of the traced round, one an untraced round never reaches, so
# the commands workload compiles no Lagrangian twice in a traced run either.
TRACED_ROUND = 10 ** 6

IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import clairaut\n"
    "took = time.perf_counter() - start\n"
    "import numpy, run\n"
    "kernel = []\n"
    "for _ in range(run.RECENT + 1):\n"
    "    start = time.perf_counter()\n"
    "    run.reference_kernel(numpy)\n"
    "    kernel.append(time.perf_counter() - start)\n"
    "print(took, statistics.median(kernel[1:]))\n"
)


def measure_setup():
    """Median import time of the package, numpy included, in fresh
    interpreters, each scaled by the reference kernel timed right after its
    import (see SpeedProbe).  One unmeasured import first writes the
    bytecode caches."""
    times = []
    for k in range(SETUP_RUNS + 1):
        done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        took, kernel = map(float, done.stdout.split())
        if k:
            times.append(took * REF_NOMINAL_S / kernel)
    return statistics.median(times)


def reference_kernel(np):
    """A fixed mix like the engine's own: small tuples and lists, string-keyed
    dict stores, math calls, and numpy 3x3 solves and fancy indexing.  Its
    duration tracks the machine's current speed for code of that kind."""
    keys = [f"k{i}" for i in range(64)]
    table = {}
    total = 0.0
    for i in range(600):
        row = (i * 0.5, math.pow(i + 1.0, 0.5), math.sin(i * 0.01))
        table[keys[i & 63]] = row
        total += row[0] * row[1] - row[2]
        scaled = [x * 1.0001 for x in row]
        total += scaled[0] + scaled[2]
    vec, mat = np.arange(3.0), np.eye(3) * 2.0
    for _ in range(60):
        vec = vec + np.linalg.solve(mat, vec)
        sub = mat[np.ix_([0, 2], [0, 2])]
        vec = np.array([float(v) for v in vec]) - sub[0, 0] * 1e-9
    return total


class SpeedProbe:
    """Scales operation times to a fixed machine speed.

    The machine these figures come from is shared: its speed drifts by tens
    of percent over seconds to minutes, for all code alike.  Before each
    operation, and every PROBE_INTERVAL_S of CPU time inside it (a SIGPROF
    interval timer, so no extra thread), the probe times the reference
    kernel.  An operation's time, less the time spent in the probe, is
    multiplied by REF_NOMINAL_S over the kernel time at that moment: the
    mean of the samples taken inside the operation when there are at least
    RECENT of them (time is the integral of slowness), else the median of
    the last RECENT samples.
    """

    def __init__(self, np):
        self.np = np
        self.recent = collections.deque(maxlen=RECENT)
        self.inside = []
        self.busy = False
        self.spent = 0.0
        self.previous = signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None):
        if self.busy:
            return
        self.busy = True
        # a collection set off by the kernel's allocations would bill the
        # operation's heap to the kernel
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel(self.np)
        took = time.perf_counter() - start
        if gc_was_enabled:
            gc.enable()
        self.recent.append(took)
        self.inside.append(took)
        self.spent += time.perf_counter() - start
        self.busy = False

    def kernel_s(self):
        if len(self.inside) >= RECENT:
            return statistics.fmean(self.inside)
        return statistics.median(self.recent)

    def time(self, fn):
        """fn's result, its net seconds and its scaled seconds."""
        self._sample()
        self.inside = []
        spent = self.spent
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        net = elapsed - (self.spent - spent)
        return out, net, net * REF_NOMINAL_S / self.kernel_s()

    def close(self):
        signal.signal(signal.SIGPROF, self.previous)


class Tally:
    """Timings and outcomes of the operations run so far.

    Without a probe (the traced round) the scaled time is the net time.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rounds = []    # per round: (position, scaled time, work) of counted ops
        self.net = []       # per round: summed net time of counted ops

    def timed(self, fn):
        if self.probe is not None:
            return self.probe.time(fn)
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        return out, elapsed, elapsed

    def run_round(self, ops):
        timed = []
        net = 0.0
        for position, op in enumerate(ops):
            self.attempted += 1
            try:
                out, elapsed, scaled = self.timed(op.run)
            except Exception as exc:  # an operation that raised is failed
                self.failed += 1
                self.errors.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
                continue
            err = op.check(out)
            if op.known_fault:
                if err is not None:
                    self.failed += 1
                continue
            if err is not None:
                self.errors.append(f"{err} [{' '.join(op.argv or [op.label])}]")
                continue
            timed.append((position, scaled, op.work(out)))
            net += elapsed
        self.rounds.append(timed)
        self.net.append(net)
        return net

    def metrics(self, setup_s):
        """End-to-end metrics.  wall_s is the median over rounds of a round's
        summed time; the command-time figures are taken over the positions
        in a round, each at its median over the rounds.  Neither depends on
        how many rounds fit."""
        by_position = collections.defaultdict(list)
        for rnd in self.rounds:
            for position, scaled, _ in rnd:
                by_position[position].append(scaled)
        if not by_position:
            return {}
        commands = sorted(statistics.median(v) for v in by_position.values())
        p90 = (statistics.quantiles(commands, n=10, method="inclusive")[8]
               if len(commands) > 1 else commands[0])
        work = sum(w for rnd in self.rounds for _, _, w in rnd)
        busy = sum(t for rnd in self.rounds for _, t, _ in rnd)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(sum(t for _, t, _ in rnd)
                                         for rnd in self.rounds), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
            "command_p50_ms": (1e3 * statistics.median(commands), "ms"),
            "command_p90_ms": (1e3 * p90, "ms"),
            "slowest_command_s": (commands[-1], "s"),
            "work_per_s": (work / busy, "1/s"),
        }


def run_rounds(workload, tally, seconds):
    """Whole rounds until seconds have passed, and at least MIN_ROUNDS."""
    start = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() - start < seconds:
        tally.run_round(workload.round(index))
        index += 1


def traced_round(name, workload, tally, package, model_names):
    from tracer import Tracer

    tracer = Tracer()
    ops = workload.round(TRACED_ROUND)
    tally.probe = None      # its samples would land inside the spans
    tracer.install(package)
    try:
        wall = tally.run_round(ops)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(model_names)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}.bin"))
    return wall, layers


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trajectory", "verify_suite", "commands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clairaut", "__init__.py")):
        print(f"error: no clairaut sources under {SRC}", file=sys.stderr)
        return 2
    # before this process imports numpy: fresh interpreters only
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, SRC)
    import clairaut
    import numpy
    if os.path.dirname(os.path.abspath(clairaut.__file__)) != os.path.join(SRC, "clairaut"):
        print(f"error: imported clairaut from {clairaut.__file__}", file=sys.stderr)
        return 2
    from workloads import MODELS, WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    probe = SpeedProbe(numpy)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally(probe)
        if args.trace:
            run_rounds(workload, tally, args.seconds / 2)
            untraced = statistics.median(tally.net)
            traced, layers = traced_round(args.workload, workload, tally, clairaut, MODELS)
            layers["trace.overhead_s"] = traced - untraced
            metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
        else:
            run_rounds(workload, tally, args.seconds)
            metrics = tally.metrics(setup_s)
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
