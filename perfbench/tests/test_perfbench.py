"""Self-test of the benchmark.

    python3 -m pytest perfbench/tests -q

Each workload's smallest run must print every metric with its unit and
fail nothing; a corrupted reference digest and a wrong committed token
must each be counted as a failure; and the command must refuse to run
where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import layertrace
import run
import servebench
import sweeps

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace == "0":
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_digest_counts_as_failure(tmp_path):
    plan = sweeps.setup("timing", 0,
                        digests={("fig9", "com"): "0" * 64})
    plan.cells = [cell for cell in plan.cells if cell.kernel == "com"]
    result = sweeps.sweep(plan, tmp_path)
    assert result.failed == ["fig9/com"]
    _, attempted, failed = sweeps.summarize(plan, [result])
    assert (attempted, failed) == (1, 1)


def test_wrong_committed_token_counts_as_failure(tmp_path):
    records = servebench.Records(0, corrupt=0)
    server = servebench.Server(tmp_path)
    try:
        step = servebench.run_step(server.port, records, 2000, 1.0)
    finally:
        report = server.stop()
    assert report["clean"]
    assert step.wrong == 1
    assert step.failed == 1


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "timing", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_seed_zero_is_the_default_subset_and_others_are_stratified():
    integer, floating = inputs.suite()
    assert inputs.kernels("timing", 0) == list(inputs.TIMING_KERNELS)
    for seed in range(1, 6):
        drawn = inputs.kernels("characterize", seed)
        assert drawn == inputs.kernels("characterize", seed)
        assert sum(k in integer for k in drawn) == inputs.DRAWN
        assert sum(k in floating for k in drawn) == inputs.DRAWN
    assert inputs.serve_plan(0) == (0, 0.5)
    assert inputs.serve_plan(1) != inputs.serve_plan(2)


def test_self_time_excludes_callees_and_child_process_spans(tmp_path):
    tracer = layertrace.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.aggregate("leaf", "leaf.calls", leaf)

    def outer():
        time.sleep(0.02)
        traced_leaf()
        traced_leaf()

    tracer.span("outer", "outer.calls", outer)()
    assert tracer.calls == {"leaf.calls": 2, "outer.calls": 1}
    assert tracer.self_s["leaf"] == pytest.approx(0.04, abs=0.01)
    assert tracer.self_s["outer"] == pytest.approx(0.02, abs=0.01)

    parent = tracer.spans[0]
    child = {"calls": {"leaf.calls": 1}, "self_s": {"leaf": 0.01},
             "time_s": {}, "spans": [{
                 "id": "c.1", "parent": parent["id"], "name": "x",
                 "layer": "leaf", "pid": -1, "start": parent["start"],
                 "end": parent["start"] + 0.01, "covered": 0.0}]}
    (tmp_path / "child.json").write_text(json.dumps(child))
    merged = layertrace.merge(tracer.snapshot(), tmp_path)
    assert merged["calls"]["leaf.calls"] == 3
    assert merged["self_s"]["outer"] == pytest.approx(
        tracer.self_s["outer"] - 0.01)
