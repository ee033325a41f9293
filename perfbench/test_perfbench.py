"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workload  # noqa: E402
from descat import parse_model  # noqa: E402

# Refute plants have attacked transitions into unsafe states; synthesis drops them with a warning.
pytestmark = pytest.mark.filterwarnings("ignore:attack policy entries:UserWarning")

@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_model(name):
    def generate(seed):
        return [plan.text for plan in workload._plans(name, seed)]

    assert generate(3) == generate(3)
    assert parse_model(generate(3)[0]).plant != parse_model(generate(4)[0]).plant


def _digests(name: str, seed: int) -> dict[str, str]:
    models = workload.set_up(workload._plans(name, seed), workload.Recorder(tracing=False))
    outputs = workload.run_round(models, workload.Recorder(tracing=False), seed)
    return workload.digests(models, outputs, workload.replay(models, outputs, seed))


def test_digests_are_stable_and_recorded():
    first = _digests("refute", 0)
    assert _digests("refute", 0) == first
    assert json.loads((HERE / "digests.json").read_text())["refute"] == first


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, section):
    done = _run("--workload", "refute", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = list(result["metrics"]) + (list(workload.SECONDS_UNITS) + ["failed_frac"] if trace == "0" else [])
    for name in printed:
        assert any(line.startswith(f"{name} = ") for line in done.stdout.splitlines()), name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "refute", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
