"""Benchmark entry point for the descat pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a child
process (``workload.py``) that limits its own address space, so a model
that blows up on an unseen seed ends as a failed run instead of taking the
machine's memory, and ``peak_rss_mb`` belongs to that workload alone.  The
child's report is relayed; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Time a run may take beyond --seconds: set-ups, the first round's deep
# sweeps, a last round that overruns and the replay.
MARGIN_S = 135


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one descat benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "descat" / "__init__.py").is_file():
        print(f"error: no descat source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    timeout = args.seconds + MARGIN_S
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the child and waited for it.
        sys.stdout.write(exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or "")
        return _failed(f"the workload ran past --seconds plus {MARGIN_S} s")
    lines = child.stdout.splitlines()
    if child.returncode == 0 and lines and lines[-1].startswith("{"):
        sys.stdout.write(child.stdout)
        return 0
    sys.stdout.write(child.stdout)
    if child.returncode == 2 and not lines:
        return 2  # usage error, reported by the child on stderr
    return _failed(f"the workload process exited with code {child.returncode}")


def _failed(reason: str) -> int:
    print(f"# FAILED {reason}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
