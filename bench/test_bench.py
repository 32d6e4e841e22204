"""Checks of the benchmark itself, not of the library's speed.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench/``.
Every workload runs with its vertex counts halved six times and two
timed runs, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import workloads
from repro.obs import validate_trace

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
SMALL = {"shrink": 6, "min_runs": 2, "verified_runs": 1, "setup_reps": 1}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    records = {
        name: workloads.run_workload(name, 3, 0.0, True, out, **SMALL)
        for name in NAMES
    }
    return out, records


def test_benchmark_json_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(traced, name):
    record = traced[1][name]
    assert record["correct"] and record["failed"] == 0
    for section in ("end_to_end", "per_layer"):
        emitted = {metric: m["unit"] for metric, m in record[section].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    line = workloads.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == record["per_layer"]


@pytest.mark.parametrize("name", NAMES)
def test_trace_is_valid_and_the_level_walk_matches_the_run(traced, name):
    out, records = traced
    validate_trace(json.loads((out / f"{name}.trace.json").read_text()))
    detail = records[name]["detail"]
    assert [row["m"] for row in detail["levels"]] == detail["edges_per_iteration"]


def test_a_doctored_labeling_counts_as_failed(monkeypatch):
    real = workloads.execute_profiled

    def doctored(*args, **kwargs):
        profile = real(*args, **kwargs)
        if kwargs["seed"] == 4:  # the second timed run; set-up used seed 3
            labels = profile.result.labels.copy()
            labels[0] = labels.max() + 1
            profile.result.labels = labels
        return profile

    monkeypatch.setattr(workloads, "execute_profiled", doctored)
    record = workloads.run_workload("line-min", 3, 0.0, False, **SMALL)
    assert (record["attempted"], record["failed"]) == (4, 1)
    assert not record["correct"]
    assert record["samples"]["timed"] == 1


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "results", "__pycache__")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "line-min", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize(
    "b, expected",
    [
        ([0.8] * 10, "better"),
        ([1.3] * 10, "worse"),
        ([1.01] * 10, "same"),
    ],
)
def test_compare_verdicts(b, expected):
    a = [1.0 + 0.001 * i for i in range(10)]
    assert compare.verdict(a, b, "lower", 0.1)[0] == expected


def test_compare_reports_wide_spread_as_unresolved():
    a = [1.0, 1.5] * 5
    assert compare.verdict(a, [1.25] * 10, "lower", 0.1)[0] == "unresolved"
