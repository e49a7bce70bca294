"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seconds", "0.2", "--limit", "4"]


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.lru_cache(maxsize=None)
def run(workload, trace, seed=7):
    """(run record, result) of one tiny run from the repository root."""
    proc = _run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    record, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert record["metrics"][name]["samples"] >= 1, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fail_share_is_computed(workload):
    record, result = run(workload, 0)
    share = record["fail_share"]
    assert share["unit"] == "ratio"
    assert share["value"] == result["failed"] / result["attempted"]
    assert result["metrics"]["pass_share"]["value"] == 1.0 - share["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, result = run(workload, 1)
    second = run.__wrapped__(workload, 1)[0]
    assert first["inputs_sha256"] == second["inputs_sha256"]
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] == "count/op" or name.endswith("true_ratio")}
    assert counts and counts == {name: second["metrics"][name]["value"] for name in counts}


def test_seed_changes_the_inputs():
    assert run("cli_docs", 0)[0]["inputs_sha256"] != run("cli_docs", 0, seed=8)[0]["inputs_sha256"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    proc = _run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
