"""scripts/bench_pairs.py: the summary of alternating parent/change pairs."""

import importlib.util
import json
import os
import subprocess

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                              os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [("wall_s", "lower"), ("work_per_s", "higher")]
# (parent, change) values per pair: wall_s, then work_per_s
CANNED = [((0.30, 0.25), (100.0, 120.0)), ((0.28, 0.29), (104.0, 101.0)),
          ((0.31, 0.24), (98.0, 125.0)), ((0.29, 0.29), (103.0, 103.0)),
          ((0.33, 0.26), (95.0, 118.0)), ((0.30, 0.27), (101.0, 110.0)),
          ((0.27, 0.30), (106.0, 99.0)), ((0.32, 0.25), (97.0, 121.0)),
          ((0.29, 0.28), (102.0, 107.0)), ((0.30, 0.31), (100.0, 98.0))]


def result(wall, work, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "work_per_s": {"value": work, "unit": "1/s"}}}


def canned_pairs():
    return [{"seed": k, "first": "parent" if k % 2 else "change",
             "parent": result(wall[0], work[0]), "change": result(wall[1], work[1])}
            for k, (wall, work) in enumerate(CANNED, 1)]


class TestSummary:
    def test_medians_quartiles_and_better_pairs(self):
        summary = bench_pairs.summarize(canned_pairs(), METRICS)
        assert list(summary) == ["wall_s", "work_per_s"]
        for index, (name, _) in enumerate(METRICS):
            for side, at in (("parent", 0), ("change", 1)):
                values = [pair[index][at] for pair in CANNED]
                assert summary[name][f"{side}_median"] == pytest.approx(np.median(values), abs=0)
                assert summary[name][f"{side}_quartiles"] == pytest.approx(
                    list(np.percentile(values, [25, 75])), rel=1e-15)
            assert summary[name]["pairs"] == 10
        # ties are not better: the change wins on wall_s in pairs 1, 3, 5, 6, 8 and 9
        assert summary["wall_s"]["change_better_pairs"] == 6
        assert summary["work_per_s"]["change_better_pairs"] == 6

    def test_direction_comes_from_the_benchmark(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = dict(bench_pairs.end_to_end(json.load(fh)))
        assert metrics["work_per_s"] == "higher" and metrics["wall_s"] == "lower"
        flipped = bench_pairs.summarize(canned_pairs(), [("wall_s", "higher")])
        assert flipped["wall_s"]["change_better_pairs"] == 3

    def test_a_missing_metric_stops(self):
        pairs = canned_pairs()
        del pairs[6]["change"]["metrics"]["work_per_s"]
        with pytest.raises(SystemExit, match="seed 7: the change run has no work_per_s"):
            bench_pairs.summarize(pairs, METRICS)


@pytest.mark.parametrize("correct, returncode", [(False, 0), (True, 1)])
def test_a_wrong_or_failed_run_stops(monkeypatch, correct, returncode):
    line = json.dumps({**result(0.3, 100.0), "correct": correct})

    def run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, returncode, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    with pytest.raises(SystemExit, match="commands --seed 3"):
        bench_pairs.run_once("checkout", "commands", 3, 20)


def test_main_writes_the_committed_schema(tmp_path, monkeypatch):
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((os.path.basename(checkout), workload, seed, seconds))
        wall, work = CANNED[seed - 1]
        side = os.path.basename(checkout)
        at = 0 if side == "parent" else 1
        # a known fault fails one operation of the change on seed 4
        return result(wall[at], work[at], failed=int(side == "change" and seed == 4))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    change = tmp_path / "change"
    (tmp_path / "parent").mkdir()
    change.mkdir()
    monkeypatch.setattr(bench_pairs, "HERE", str(change))
    (change / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 20, "workloads": [{"name": "trajectory"}, {"name": "commands"}],
        "end_to_end": [{"name": n, "better": b} for n, b in METRICS]}))
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--label", "canned",
                             "--change-text", "text", "--machine", "vm"]) == 0
    # ten pairs per workload of BENCHMARK.json; the parent runs first on odd seeds
    assert [r[1:3] for r in runs[::2]] == [(w, s) for w in ("trajectory", "commands")
                                          for s in range(1, 11)]
    assert [r[0] for r in runs[:4]] == ["parent", "change", "change", "parent"]
    assert {r[3] for r in runs} == {20}
    doc = json.loads((change / "BENCH_canned.json").read_text())
    assert list(doc) == ["label", "change", "command", "machine", "method", "workloads"]
    assert doc["command"] == ("python3 perfbench/run.py --workload <w> --seed <s> --seconds 20 "
                              "--trace 0")
    assert list(doc["workloads"]) == ["trajectory", "commands"]
    commands = doc["workloads"]["commands"]
    assert [list(p) for p in commands["pairs"]] == [["seed", "first", "parent", "change"]] * 10
    assert commands["failed"] == {"parent": 0, "change": 1}
    assert commands["summary"] == bench_pairs.summarize(canned_pairs(), METRICS)
