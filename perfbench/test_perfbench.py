"""Self-test of the benchmark: tiny runs of every workload on a fixed seed.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is reported with its unit,
that a planted wrong expected answer is counted as a failure, that two
traced runs on one seed give identical counts (with the isolation zeros
holding), and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# every workload the driver knows, also those BENCHMARK.json does not time
WORKLOADS = ["product-sweep"] + [w["name"] for w in SPEC["workloads"]]
SEED = 7
LIMIT = 4


def bench(workload, *extra, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--passes", "1", "--limit", str(LIMIT),
           "--setup-samples", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done):
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    return doc


def assert_metrics(doc, spec):
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_correct(workload):
    doc = result(bench(workload, "--trace", "0"))
    assert_metrics(doc, SPEC["end_to_end"])
    assert doc["correct"] is True and doc["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_fails(workload):
    doc = result(bench(workload, "--trace", "0", "--plant-wrong"))
    assert doc["failed"] > 0
    assert doc["correct"] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(bench(workload, "--trace", "1")) for _ in range(2))
    assert_metrics(first, SPEC["per_layer"])
    assert first["correct"] is True and second["correct"] is True
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "frac")}
    counts.discard("trace.overhead_frac")
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".bench_build" / "perfbench-selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench(WORKLOADS[0], "--trace", "0", cwd=bare,
                     script=bare / "perfbench" / "run.py")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
