"""Tests of the benchmark itself: every workload at a tiny length, every
oracle shown to reject a corrupted output, and the traced counts shown to
repeat across fresh interpreters.

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import clairaut  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny_round(name, workdir, index=0):
    return wl.WORKLOADS[name](7, workdir, tiny=True).round(index)


def traced_counts(name, workdir):
    """Counts of one tiny traced round."""
    tracer = Tracer()
    ops = tiny_round(name, workdir, run.TRACED_ROUND)
    tracer.install(clairaut)
    try:
        run.Tally().run_round(ops)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.layer_metrics(wl.MODELS).items() if isinstance(v, int)}


class Workdir(unittest.TestCase):
    def setUp(self):
        os.makedirs(OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def outputs(self, name):
        """Run a tiny round; every op must pass its own oracle."""
        got = []
        for op in tiny_round(name, self.workdir):
            out = op.run()
            err = op.check(out)
            if not op.known_fault:
                self.assertIsNone(err, op.label)
            got.append((op, out))
        return got


class TestTrajectory(Workdir):
    def test_oracles_reject_a_perturbed_sample(self):
        ops = tiny_round("trajectory", self.workdir)
        path = os.path.join(self.workdir, "trajectory.csv")
        for op, column in zip(ops[:3], ("q:y", "p:x2", "q:x")):
            res = op.run()
            self.assertIsNone(op.check(res), op.label)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            header = lines[0].split(",")
            cells = lines[7].split(",")
            k = header.index(column)
            cells[k] = repr(float(cells[k]) + 1e-6)
            lines[7] = ",".join(cells)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            self.assertIsNotNone(op.check(res), op.label)

    def test_known_fault_passes_only_when_mended(self):
        self.assertIsNone(wl.check_coupled(wl.CliResult(3, "", "error: singular")))
        ok = "max_el_residual = 1e-07  max_consistency_residual = 0\n"
        self.assertIsNone(wl.check_coupled(wl.CliResult(0, "", ok)))
        bad = "max_el_residual = 338.217  max_consistency_residual = 5e-17\n"
        self.assertIsNotNone(wl.check_coupled(wl.CliResult(0, "", bad)))
        self.assertIsNotNone(wl.check_coupled(wl.CliResult(1, "", "")))


class TestVerifySuite(Workdir):
    def test_oracles_reject_a_corrupted_report(self):
        schema = wl.load_schema("verify.schema.json")
        for op, text in self.outputs("verify_suite"):
            name = op.label.split()[1]
            doc = json.loads(text)
            corruptions = [
                ("classification", {"kind": "gauge" if doc["classification"]["kind"] != "gauge"
                                    else "limit", "rank_F": doc["classification"]["rank_F"]}),
                ("split", {"regular": doc["split"]["degenerate"],
                           "degenerate": doc["split"]["regular"]}),
                ("all_pass", False),
                ("extra", 1),
                ("seed", "42"),
            ]
            for key, value in corruptions:
                bad = dict(doc, **{key: value})
                self.assertIsNotNone(
                    wl.check_verify_report(name, json.dumps(bad), schema), (name, key))

    def test_rerun_must_render_the_same_bytes(self):
        op = tiny_round("verify_suite", self.workdir)[0]
        self.assertEqual(op.label, "verify oscillator")
        text = op.run()
        self.assertIsNone(op.check(text))
        self.assertIsNotNone(op.check(text.replace('"seed": 42', '"seed": 42 ')))


class TestCommands(Workdir):
    def test_oracles_reject_wrong_output(self):
        seen = set()
        for op, res in self.outputs("commands"):
            kind = op.label.split()[0]
            seen.add(kind)
            if kind == "analyze":
                doc = json.loads(res.out)
                doc["classification"]["kind"] = "gauge" if doc["classification"]["kind"] != "gauge" else "limit"
                bad = [json.dumps(doc)]
                doc = json.loads(res.out)
                doc["hessian_rank"] += 1
                bad.append(json.dumps(doc))
            else:
                lines = res.out.splitlines()
                bad = []
                for k, line in enumerate(lines):
                    name, _, value = line.partition(" = ")
                    if name == "y" or name == "H_phys" or name.startswith(("B_", "F[")):
                        wrong = float(value) * (1 + 1e-6) + 1e-6
                        bad.append("\n".join(lines[:k] + [f"{name} = {wrong!r}"]
                                             + lines[k + 1:]) + "\n")
                self.assertTrue(bad, op.label)
            for out in bad:
                self.assertIsNotNone(op.check(wl.CliResult(0, out, "")), op.label)
            self.assertIsNotNone(op.check(wl.CliResult(3, "", "error")), op.label)
        self.assertEqual(seen, {"analyze", "transform", "pde"})

    def test_no_lagrangian_compiled_twice(self):
        specs = []
        for index in range(3):
            for op in tiny_round("commands", self.workdir, index):
                argv = op.argv
                if argv[0] != "pde":
                    spec = argv[1]
                    if os.path.exists(spec):
                        with open(spec, encoding="utf-8") as fh:
                            spec = fh.read()
                    specs.append((spec, tuple(argv[2:4]) if argv[2] == "--param" else ()))
        self.assertEqual(len(specs), len(set(specs)))


class TestTracer(Workdir):
    def test_counts_repeat_across_fresh_interpreters(self):
        script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import selftest; "
                  "print(json.dumps([selftest.traced_counts(n, sys.argv[2]) "
                  "for n in ('trajectory', 'verify_suite', 'commands')]))")
        runs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", script, HERE, self.workdir],
                                  capture_output=True, text=True, env=env,
                                  timeout=300, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        self.assertEqual(runs[0], runs[1])
        trajectory, verify_suite, commands = runs[0]
        self.assertGreater(trajectory["dynamics.rk4_steps"], 0)
        self.assertGreater(trajectory["expressions.eval_calls"], 0)
        self.assertGreater(verify_suite["gauge.fd_evals"], 0)
        self.assertGreater(commands["expressions.compile_calls"], 0)

    def test_uninstall_restores_every_binding(self):
        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("clairaut")}
        methods = (clairaut.ClairautTransform.resolve, clairaut.ClairautTransform.__init__)
        tracer = Tracer()
        tracer.install(clairaut)
        self.assertIsNot(clairaut.dynamics.field_strength, before["clairaut.gauge"]["field_strength"])
        tracer.uninstall()
        after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                 if name.startswith("clairaut")}
        self.assertEqual(before, after)
        self.assertEqual(methods, (clairaut.ClairautTransform.resolve,
                                   clairaut.ClairautTransform.__init__))


class TestSpeedProbe(unittest.TestCase):
    def test_samples_inside_an_operation_are_not_timed(self):
        import numpy

        def spin():
            end = time.process_time() + 0.6
            while time.process_time() < end:
                pass
            return "done"

        probe = run.SpeedProbe(numpy)
        try:
            out, net, scaled = probe.time(spin)
            inside = list(probe.inside)
        finally:
            probe.close()
        self.assertEqual(out, "done")
        self.assertGreaterEqual(len(inside), run.RECENT)
        self.assertLess(net, 0.6 + 0.5 * sum(inside))
        self.assertAlmostEqual(scaled, net * run.REF_NOMINAL_S / statistics.fmean(inside))
        self.assertEqual(signal.getsignal(signal.SIGPROF), signal.SIG_DFL)


class TestRunner(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        os.makedirs(OUT, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "commands",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
