"""Smoke test of the benchmark's plumbing (not of the program's speed).

Runs ``bench/run.py --smoke`` once — every workload, untraced and
traced, at about 1/50 size — and checks what a later PR will rely on:
every metric ``BENCHMARK.json`` names is reported with its unit, nothing
fails, the exact counts hold, and the tools around the runner work.

    python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    runs = [
        json.loads(line)
        for path in sorted(out.glob("*.jsonl"))
        if not path.name.startswith("trace-")
        for line in path.read_text().splitlines()
    ]
    return {"out": out, "stdout": done.stdout, "runs": runs}


def runs_of(smoke, trace):
    chosen = {r["workload"]: r for r in smoke["runs"] if r["trace"] == trace}
    assert sorted(chosen) == sorted(WORKLOADS)
    return chosen


def test_every_end_to_end_metric_has_a_value_and_a_unit(smoke):
    for workload, run in runs_of(smoke, 0).items():
        for metric in CONTRACT["end_to_end"]:
            got = run["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric)
            assert got["value"] > 0, (workload, metric)
        assert set(run["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_every_per_layer_metric_is_reported_and_measured_somewhere(smoke):
    traced = runs_of(smoke, 1)
    for metric in CONTRACT["per_layer"]:
        values = []
        for workload, run in traced.items():
            got = run["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric)
            values.append(got["value"])
        # Counters of things that must not happen, and a difference of
        # two spawn times that is inside the noise at smoke size.
        if metric["name"] not in ("net.wire.errors",
                                  "durability.replay_us_per_record"):
            assert any(values), f"{metric['name']} is 0 on every workload"


def test_nothing_fails_and_every_run_is_valid(smoke):
    for run in smoke["runs"]:
        assert run["failed"] == 0, run["workload"]
        assert run["attempted"] >= 1
        assert run["correct"] and run["valid"], (run["workload"],
                                                 run["invalid"], run["errors"])


def test_exact_counts(smoke):
    traced = runs_of(smoke, 1)

    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    for workload in ("wire_chain", "wire_durable"):
        assert value(workload, "net.wire.frames_per_request") == 2.0
        assert value(workload, "net.wire.errors") == 0
        assert value(workload, "fleet.unattributed_share") != 0
    assert value("wire_durable", "durability.records_per_request") > 0
    assert (value("wire_durable", "durability.records_per_request")
            == value("wire_durable", "durability.fsyncs_per_request_always"))
    # Live policy: one sync per 64 records.
    assert 0 < value("wire_durable", "durability.fsyncs_per_request") < 1
    # The log is off on wire_chain: its layer must show nothing there.
    assert value("wire_chain", "durability.records_per_request") == 0
    assert traced["wire_durable"]["info"]["recovery"]["clean_tail"] is True


def test_traced_runs_leave_a_span_file_each(smoke):
    for workload in WORKLOADS:
        lines = (smoke["out"] / f"trace-{workload}.jsonl").read_text()
        span = json.loads(lines.splitlines()[0])
        assert set(span) == {"name", "start", "end", "parent", "request"}


def test_result_lines_follow_the_contract(smoke):
    results = [json.loads(line) for line in smoke["stdout"].splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(WORKLOADS)
    for result in results:
        assert set(result) == RESULT_KEYS
    assert set(json.loads(smoke["stdout"].splitlines()[-1])) == RESULT_KEYS


def test_compare_accepts_a_set_against_itself(smoke):
    done = subprocess.run(
        [sys.executable, "bench/compare.py", str(smoke["out"]),
         str(smoke["out"])],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse  " not in done.stdout
    assert "exact" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wire_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
