"""Golden CLI outputs: stdout, stderr and exit code of every subcommand on the bundled models.

``golden_cli.json`` holds one record per invocation, with model paths
relative to the repository root.  The test replays each record in-process
through :func:`descat.cli.main` and compares the three outputs byte for
byte.  After a deliberate change of the CLI's output, rewrite the file
with ``PYTHONPATH=src python tests/test_golden_cli.py`` from the
repository root, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
MODELS = ("models/cycle.des", "models/cycle_beta_only.des", "models/cycle_obs.des")


def invocations() -> list[list[str]]:
    """Every recorded command line, in recording order."""
    runs = []
    for model in MODELS:
        runs += [
            ["observer", model],
            ["observer", model, "--target", "spec", "--json"],
            ["estimate", model, "--obs", "alpha"],
            ["estimate", model, "--obs", "alpha lambda mu", "--target", "spec", "--json"],
            ["check-controllability", model],
            ["check-controllability", model, "--json", "--actuator-attack", "alpha"],
            ["check-observability", model],
            ["check-observability", model, "--depth", "3", "--json"],
            ["synthesize", model],
            ["synthesize", model, "--json"],
            ["verify", model],
            ["verify", model, "--json"],
            ["simulate", model, "--trials", "20", "--max-steps", "12", "--seed", "5"],
            ["simulate", model, "--trials", "10", "--max-steps", "8", "--json"],
            ["simulate", model, "--attacker", "exhaustive", "--max-steps", "6"],
            ["simulate", model, "--attacker", "exhaustive", "--max-steps", "8"],
            ["simulate", model, "--attacker", "none", "--trials", "5"],
            ["convert-obs", model],
        ]
        runs += [["export-dot", model, "--what", what] for what in ("plant", "spec", "observer", "diamond", "sa")]
    runs.append(["verify", "models/missing.des"])
    return runs


def run(argv: list[str]) -> dict:
    """One in-process CLI run from the repository root."""
    from descat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def records() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_records_cover_every_invocation(records):
    assert [record["argv"] for record in records] == invocations()


@pytest.mark.parametrize("index", range(len(invocations())), ids=[" ".join(argv) for argv in invocations()])
def test_cli_output_is_unchanged(index, records, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(records[index]["argv"]) == records[index]


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    records = [run(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN.relative_to(ROOT)}")
