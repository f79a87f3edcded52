"""Smoke self-test of the benchmark harness.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload on small inputs and checks that the result line
carries each metric BENCHMARK.json names, with its unit; that the
percentile helper refuses a thin tail; and that the harness fails
cleanly where the library source is missing.  The cli-cold case still
starts 100 interpreters (about a minute), since its p90 needs them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, m["name"]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_percentile_refuses_thin_tail():
    assert percentile(range(100), 90) == 89
    assert percentile(range(7), 50) == 3
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(10), 90)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    result = _result("--workload", workload, "--seed", "1", "--trace", "0",
                     "--jobs", "100", "--tiny")
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"]
    assert result["attempted"] == 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed(workload):
    result = _result("--workload", workload, "--seed", "1", "--trace", "1",
                     "--jobs", "12", "--tiny")
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]


def test_corpus_counts_repeat():
    args = ("--workload", "orbit-reducible", "--seed", "3", "--trace", "1",
            "--jobs", "4", "--tiny")
    first, second = _result(*args), _result(*args)
    for name in ("graphs.gamma_u", "expansions.terms",
                 "expansions.threshold_scan_steps"):
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
